"""The gamma kit on the real axis against mpmath: gamma and recip_gamma
within gammakit._GAMMA_REL_ERR, and keeping the complex path's errors,
zeros and signs; digamma and pochhammer within the bounds below.

    PYTHONPATH=src python tools/gamma_equivalence.py [--draws N] [--seed S]

Every argument on the real axis is called as x, complex(x, 0.0) and
complex(x, -0.0).

- gamma and recip_gamma answer from math.gamma on the real axis; they are
  called once as the kit runs and once with gammakit._axis_gamma
  answering None, so that the complex path answers.  Where either side
  raises or returns 0, both must raise the same error or return the same
  repr; elsewhere both must give the real part the same sign and the
  zero imaginary part the same signed zero, and where math.gamma
  answered the value must lie within gammakit._GAMMA_REL_ERR (1.25e-15)
  relative of mpmath's at 40 digits.
- digamma must raise DomainError at a nan or infinite x and PoleError
  within POLE_TOL of a non-positive integer.  Elsewhere it must return a
  value with a zero imaginary part (of either sign) whose real part lies
  within PSI_ERR * max(1, |psi(x)|, log(1 + |x|)) of mpmath's psi at 40
  digits: the terms of its sum (psi(1 - x) and pi cot(pi x) of the
  reflection, the recurrence's 1/x and the series' log x) are of about
  that size, and the sum cancels near the zeros of psi.
- pochhammer (at the indices INDICES) must return 1 at k = 0, and
  elsewhere raise DomainError at a nan or infinite x and, for k < 0,
  PoleError within POLE_TOL of 1, ..., -k.  At every other x the true
  (x)_k, the product of the exact factors at 50 digits, decides.  Past
  the largest double the kit must raise DomainError.  Where it is not 0
  but below the normal doubles the kit may raise DomainError or return a
  value within DBL_MIN of it.  Elsewhere it must return a value with a
  zero imaginary part whose real part lies within poch_err(k) =
  (2|k| + 1) 2^-53 relative of it: each factor x + j and each product
  rounds once, and so does the reciprocal for k < 0.

The x are the structured points of axis_points() and N seeded random
draws (default 45,000) in bands that reach every branch, among them
[-170, 171.6] and (-128, -127), where the complex path of gamma is up to
7e-14 off.  That is about 2.3 million outcomes.  It prints the count,
and each one that breaks its rule, and exits 1 on any.
tests/test_gammakit.py runs axis_points() and 3,500 draws.  Needs
mpmath.
"""

import argparse
import math
import random
import sys

import mpmath as mp

from hyperd import gammakit

# the indices verify passes (-6 to 3) and a few past them
INDICES = (0, 1, 2, 3, 4, 5, 8, -1, -2, -3, -4, -5, -8)
NAMES = ("gamma", "recip_gamma", "digamma") + tuple(f"pochhammer(z, {k})" for k in INDICES)

# bound of digamma's error, relative to max(1, |psi(x)|, log(1 + |x|))
# (module docstring): over axis_points() and 45,000 draws at each of the
# seeds 1 to 3 the largest was 1.58e-15, at x = -1.6530148355729128
PSI_ERR = 2.5e-15

_DBL_MIN = sys.float_info.min
_DBL_MAX = sys.float_info.max


def poch_err(k):
    """The relative error bound of pochhammer(x, k) (module docstring)."""
    return (2 * abs(k) + 1) * 2.0 ** -53


def _call(f, *args):
    # the value, or the error as an outcome to compare
    try:
        return f(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _gamma_outcomes(z):
    return [_call(gammakit.gamma, z), _call(gammakit.recip_gamma, z)]


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


def _pole(x, lo, hi):
    # x lies within POLE_TOL of an integer n with lo <= n <= hi
    n = round(x)
    return lo <= n <= hi and abs(x - n) <= gammakit.POLE_TOL


def _psi_rule(x):
    """(errors, ref, tol): the error types digamma may raise at x, and the
    value within tol of which its real part must lie (ref None where it
    must raise)."""
    if not math.isfinite(x):
        return ("DomainError",), None, None
    if _pole(x, -math.inf, 0):
        return ("PoleError",), None, None
    psi = mp.digamma(mp.mpf(x))
    return (), psi, PSI_ERR * max(1, abs(psi), mp.log(1 + abs(mp.mpf(x))))


def _poch_rule(x, k):
    """(errors, ref, tol) of pochhammer(x, k), as _psi_rule's."""
    if k and not math.isfinite(x):
        return ("DomainError",), None, None
    if k < 0 and _pole(x, 1, -k):
        return ("PoleError",), None, None
    with mp.workdps(50):
        # the exact (x)_k of the double x
        ref = mp.mpf(1)
        for j in (range(k) if k >= 0 else range(-1, k - 1, -1)):
            ref *= mp.mpf(x) + j
        ref = ref if k >= 0 else 1 / ref
    size = abs(ref)
    if size > _DBL_MAX:
        return ("DomainError",), None, None
    if 0 < size < _DBL_MIN:
        return ("DomainError",), ref, _DBL_MIN
    return (), ref, poch_err(k) * size


def _fault(rule, got):
    """Why the outcome got breaks rule (_psi_rule), or None."""
    errors, ref, tol = rule
    if isinstance(got, str):
        return None if got.split(":")[0] in errors else "raised"
    if ref is None:
        return f"not {' or '.join(errors)}"
    if got.imag != 0.0:
        return "imaginary part is not zero"
    err = abs(mp.mpf(got.real) - ref)
    return None if err <= tol else f"{mp.nstr(err, 3)} off mpmath, bound {mp.nstr(tol, 3)}"


def mismatches(xs):
    """(name, z, outcome, complex path's outcome or None, fault) for each
    call that breaks the rules of the module docstring, at z among x,
    complex(x, 0.0) and complex(x, -0.0) over xs, and the number of
    outcomes checked."""
    zs = [(x, z) for x in xs for z in (x, complex(x, 0.0), complex(x, -0.0))]
    kit = [_gamma_outcomes(z) for _, z in zs]
    axis_gamma = gammakit._axis_gamma
    gammakit._axis_gamma = lambda z: None
    try:
        cplx = [_gamma_outcomes(z) for _, z in zs]
    finally:
        gammakit._axis_gamma = axis_gamma
    bad = []
    with mp.workdps(40):
        refs = {x: (g, 1 / g) for x in xs if gammakit._axis_gamma(complex(x)) is not None
                for g in (mp.gamma(mp.mpf(x)),)}
        rules = {x: [_psi_rule(x)] + [_poch_rule(x, k) for k in INDICES] for x in xs}
        for (x, z), got, want in zip(zs, kit, cplx):
            for name, a, b in zip(NAMES, got, want):
                fault = _gamma_fault(name, refs.get(x), z, a, b)
                if fault:
                    bad.append((name, z, a, b, fault))
            outcomes = [_call(gammakit.digamma, z)] + [_call(gammakit.pochhammer, z, k) for k in INDICES]
            for name, rule, a in zip(NAMES[2:], rules[x], outcomes):
                fault = _fault(rule, a)
                if fault:
                    bad.append((name, z, a, None, fault))
    return bad, len(zs) * len(NAMES)


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
    overflows; subnormals, signed zeros, DBL_MAX/4, past which cmath.log
    switches formula, and nan and +-inf."""
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
    big = _DBL_MAX / 4
    xs += [big, -big, math.nextafter(big, 0.0), 1e300, -1e300, 1e155, 1e154, 1e16]
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
    bad, checked = [], 0
    for i in range(0, len(xs), 1000):
        b, c = mismatches(xs[i:i + 1000])
        bad += b
        checked += c
    for name, z, got, want, fault in bad:
        path = "" if want is None else f", complex path {want!r}"
        print(f"{name} at {z!r}: {fault}; kit {got!r}{path}")
    print(f"Python {sys.version.split()[0]}: {checked} outcomes checked, {len(bad)} break their rule")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
