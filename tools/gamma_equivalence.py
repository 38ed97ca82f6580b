"""The gamma kit on the real axis: gamma and recip_gamma against mpmath,
digamma and pochhammer against their complex path, bit for bit.

    PYTHONPATH=src python tools/gamma_equivalence.py [--draws N] [--seed S]

Every argument on the real axis is called as x, complex(x, 0.0) and
complex(x, -0.0), once as the kit runs and once with its real-axis paths
answering None, so that the complex path answers every call.

- digamma and pochhammer (at the indices INDICES) take a real path that
  must return what the complex path returns: the same repr, or the same
  error type and message.
- gamma and recip_gamma answer from math.gamma on the real axis.  Where
  either side raises or returns 0, both must raise the same error or
  return the same repr; elsewhere both must give the real part the same
  sign and the zero imaginary part the same signed zero, and where
  math.gamma answered (gammakit._axis_gamma) the value must lie within
  gammakit._GAMMA_REL_ERR (1.25e-15) relative of mpmath's at 40
  digits.

The x are the structured points of axis_points() and N seeded random
draws (default 45,000) in bands that reach every branch, among them
[-170, 171.6] and (-128, -127), where the complex path is up to 7e-14
off.  That is about 2.3 million comparisons.  It prints the count, and
each mismatch, and exits 1 on any.  tests/test_gammakit.py runs
axis_points() and 3,500 draws.  Needs mpmath.
"""

import argparse
import math
import random
import sys

import mpmath as mp

from hyperd import gammakit

# the indices verify passes (-6 to 3) and a few past them
INDICES = (0, 1, 2, 3, 4, 5, 8, -1, -2, -3, -4, -5, -8)
_REAL_PATH = ("_axis_gamma", "_digamma_real", "_pochhammer_real")


def _call(f, *args):
    # the value, or the error as an outcome to compare
    try:
        return f(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _outcomes(z):
    return ([_call(f, z) for f in (gammakit.gamma, gammakit.recip_gamma, gammakit.digamma)]
            + [_call(gammakit.pochhammer, z, k) for k in INDICES])


def _signs(v):
    return math.copysign(1.0, v.real), math.copysign(1.0, v.imag)


def _gamma_fault(name, ref, z, got, want):
    """Why the kit's gamma or recip_gamma outcome got at z differs from the
    complex path's want (module docstring), or None; ref is mpmath's
    (Gamma(x), 1/Gamma(x)) at 40 digits, z = x, where math.gamma answered."""
    if gammakit._axis_gamma(complex(z)) is None:
        return None if repr(got) == repr(want) else "differs"
    if isinstance(want, str) or not want:
        return "differs"
    if _signs(got) != _signs(want) or got.imag != 0.0:
        return "signs differ"
    r = ref[name == "recip_gamma"]
    rel = abs((mp.mpf(got.real) - r) / r)
    return None if rel <= gammakit._GAMMA_REL_ERR else f"{float(rel):.3g} off mpmath"


def mismatches(xs):
    """(name, z, kit, complex path, fault) for each call that breaks the
    rules of the module docstring, at z among x, complex(x, 0.0) and
    complex(x, -0.0) over xs, and the number of outcomes compared."""
    zs = [(x, z) for x in xs for z in (x, complex(x, 0.0), complex(x, -0.0))]
    kit = [_outcomes(z) for _, z in zs]
    kept = {name: getattr(gammakit, name) for name in _REAL_PATH}
    for name in kept:
        setattr(gammakit, name, lambda *args: None)
    try:
        cplx = [_outcomes(z) for _, z in zs]
    finally:
        for name, f in kept.items():
            setattr(gammakit, name, f)
    names = ["gamma", "recip_gamma", "digamma"] + [f"pochhammer(z, {k})" for k in INDICES]
    bad = []
    with mp.workdps(40):
        refs = {x: (g, 1 / g) for x in xs if gammakit._axis_gamma(complex(x)) is not None
                for g in (mp.gamma(mp.mpf(x)),)}
        for (x, z), got, want in zip(zs, kit, cplx):
            for name, a, b in zip(names, got, want):
                if name in ("gamma", "recip_gamma"):
                    fault = _gamma_fault(name, refs.get(x), z, a, b)
                else:
                    fault = None if repr(a) == repr(b) else "differs"
                if fault:
                    bad.append((name, z, a, b, fault))
    return bad, len(zs) * len(names)


def axis_points():
    """The structured real arguments: the half-integers k + 1/2 for k in
    [-200, 140), where the Lanczos power is integral; points within, at
    and just past POLE_TOL of every integer n in [-172, 5] (the
    non-positive ones are the poles of Gamma and psi, the positive ones
    those of a Pochhammer symbol of negative index, and at an integer a
    product of positive index is 0); points around 0.5, where the
    reflection starts, 142.6, where the Lanczos power overflows, and
    171.6, where Gamma does, and the last seven doubles up to that
    overflow; points in (-200, -171), where Gamma(1 - x)
    overflows; subnormals, signed zeros, the bounds of the real path,
    and nan and +-inf."""
    tol = gammakit.POLE_TOL
    xs = [k + 0.5 for k in range(-200, 140)]
    for n in range(-172, 6):
        for d in (0.0, tol / 2, tol, math.nextafter(tol, 1.0), 2 * tol, 1e-6):
            xs += [n + d, n - d]
    for c in (0.5, 142.6, 171.6):
        xs += [c + d for d in (-0.3, -0.1, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 0.1, 0.3)]
    xs += [math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
    edge = 171.62437695630272  # the largest x whose Gamma is finite, and its neighbours
    for _ in range(3):
        edge = math.nextafter(edge, 0.0)
    for _ in range(7):
        xs.append(edge)
        edge = math.nextafter(edge, math.inf)
    xs += [-171.0 - 29.0 * j / 40 - 0.0123 for j in range(40)]
    xs += [5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 0.0, -0.0]
    axis = gammakit._AXIS_MAX
    xs += [axis, -axis, math.nextafter(axis, 0.0), 1e300, -1e300, 1e155, 1e154, 1e16]
    xs += [math.nan, math.inf, -math.inf]
    return xs


def draws(rng, n):
    """n reals in bands that reach every branch: the whole range of Gamma,
    (-128, -127), the reflection and its overflow, small arguments, wide
    magnitudes, and points near integers and half-integers."""
    bands = (
        lambda: rng.uniform(-180.0, 180.0),
        lambda: rng.uniform(-170.0, 171.6),
        lambda: rng.uniform(-128.0, -127.0),
        lambda: rng.uniform(-6.0, 12.0),
        lambda: rng.uniform(-0.01, 0.01),
        lambda: rng.uniform(-220.0, -170.0),
        lambda: rng.uniform(140.0, 175.0),
        lambda: math.copysign(10.0 ** rng.uniform(-320.0, 308.0), rng.random() - 0.5),
        lambda: rng.randint(-175, 175) + rng.uniform(-3e-9, 3e-9),
        lambda: rng.randint(-175, 175) + 0.5 + rng.uniform(-1e-12, 1e-12),
    )
    return [rng.choice(bands)() for _ in range(n)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--draws", type=int, default=45000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    xs = axis_points() + draws(random.Random(args.seed), args.draws)
    bad, compared = [], 0
    for i in range(0, len(xs), 1000):
        b, c = mismatches(xs[i:i + 1000])
        bad += b
        compared += c
    for name, z, got, want, fault in bad:
        print(f"{name} at {z!r}: {fault}; kit {got!r}, complex path {want!r}")
    print(f"Python {sys.version.split()[0]}: {compared} outcomes compared, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
