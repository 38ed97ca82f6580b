"""The gamma kit's real path against its complex path, bit for bit.

    PYTHONPATH=src python tools/gamma_equivalence.py [--draws N] [--seed S]

Every argument on the real axis first takes the real path of
hyperd.gammakit, which must return what the complex path returns: the
same repr, or the same error type and message.  This calls gamma,
recip_gamma, digamma and pochhammer (at the indices INDICES) at x,
complex(x, 0.0) and complex(x, -0.0), once as the kit runs and once with
each real-path function answering None, so that the complex path answers
every call, and compares each outcome.  The x are the structured points
of axis_points() and N seeded random draws in bands that reach every
branch of both paths.  At the default 45,000 draws that is about 2.3
million comparisons.  It prints the count, and each mismatch, and exits
1 on any.  tests/test_gammakit.py runs axis_points() alone.
"""

import argparse
import math
import random
import sys

from hyperd import gammakit

# the indices verify passes (-6 to 3) and a few past them
INDICES = (0, 1, 2, 3, 4, 5, 8, -1, -2, -3, -4, -5, -8)
_REAL_PATH = ("_gamma_real", "_digamma_real", "_pochhammer_real")


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:  # an error is an outcome to compare
        return f"{type(exc).__name__}: {exc}"


def _outcomes(z):
    return ([_outcome(f, z) for f in (gammakit.gamma, gammakit.recip_gamma, gammakit.digamma)]
            + [_outcome(gammakit.pochhammer, z, k) for k in INDICES])


def mismatches(xs):
    """(z, real path, complex path) for each z among x, complex(x, 0.0)
    and complex(x, -0.0) over xs whose outcomes differ, and the number of
    outcomes compared."""
    zs = [z for x in xs for z in (x, complex(x, 0.0), complex(x, -0.0))]
    real = [_outcomes(z) for z in zs]
    kept = {name: getattr(gammakit, name) for name in _REAL_PATH}
    for name in kept:
        setattr(gammakit, name, lambda *args: None)
    try:
        cplx = [_outcomes(z) for z in zs]
    finally:
        for name, f in kept.items():
            setattr(gammakit, name, f)
    bad = [(z, a, b) for z, a, b in zip(zs, real, cplx) if a != b]
    return bad, len(zs) * (3 + len(INDICES))


def axis_points():
    """The structured real arguments: the half-integers k + 1/2 for k in
    [-200, 140), where the Lanczos power is integral; points within, at
    and just past POLE_TOL of every integer n in [-172, 5] (the
    non-positive ones are the poles of Gamma and psi, the positive ones
    those of a Pochhammer symbol of negative index, and at an integer a
    product of positive index is 0); points around 0.5, where the
    reflection starts, 142.6, where the Lanczos power overflows, and
    171.6, where Gamma does; points in (-200, -171), where Gamma(1 - x)
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
    xs += [-171.0 - 29.0 * j / 40 - 0.0123 for j in range(40)]
    xs += [5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 0.0, -0.0]
    axis = gammakit._AXIS_MAX
    xs += [axis, -axis, math.nextafter(axis, 0.0), 1e300, -1e300, 1e155, 1e154, 1e16]
    xs += [math.nan, math.inf, -math.inf]
    return xs


def _draws(rng, n):
    # n reals in bands that reach every branch: the whole range of Gamma,
    # the reflection and its overflow, small arguments, wide magnitudes,
    # and points near integers and half-integers
    bands = (
        lambda: rng.uniform(-180.0, 180.0),
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
    xs = axis_points() + _draws(random.Random(args.seed), args.draws)
    bad, compared = [], 0
    for i in range(0, len(xs), 1000):
        b, c = mismatches(xs[i:i + 1000])
        bad += b
        compared += c
    for z, real, cplx in bad:
        for name, a, b in zip(["gamma", "recip_gamma", "digamma"]
                              + [f"pochhammer(z, {k})" for k in INDICES], real, cplx):
            if a != b:
                print(f"{name} at {z!r}: real path {a}, complex path {b}")
    print(f"Python {sys.version.split()[0]}: {compared} outcomes compared, "
          f"{len(bad)} arguments differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
