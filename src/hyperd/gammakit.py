"""Gamma-function kit: Gamma, 1/Gamma, digamma, shifted harmonic numbers,
and Pochhammer symbols of integer index of either sign.

Every function takes and returns complex numbers and is pure.  Pole
detection is absolute: an argument within POLE_TOL of a non-positive
integer counts as a pole.  Conventions follow DLMF chapter 5; the Lanczos
coefficients are Godfrey's g = 607/128, n = 15 set, good to ~1e-15
relative in the right half plane.

An argument on the real axis (imaginary part +0 or -0, |x| < _AXIS_MAX)
first takes the real path: gamma, recip_gamma, digamma and pochhammer in
float arithmetic, the same operations in the same order as the complex
path.  On the real axis each complex operation of that path has an exact
real part, so the real path returns the complex path's value bit for
bit, the sign of its zero imaginary part included.  It answers only
where it owns the branch: it returns None, and the complex path answers,
at a pole within POLE_TOL, where the direct Lanczos product is not
finite (the half-power and log-space branches), where a result is not
finite or a Pochhammer product is 0, and at a nan or infinite argument.
It raises nothing of its own.  Three details keep the bits:

- complex ** takes an integral exponent of magnitude at most 100 by
  repeated squaring (CPython's c_powi), which _powi repeats; a float **
  rounds differently at about half of the half-integers k + 1/2;
- cmath.log takes a log1p form on [0.71, 1.73] and another past
  _AXIS_MAX, so the real path's only log is digamma's, at x >= 10;
- the zero imaginary part: Gamma's carries the sign of Gamma, that of
  1/Gamma and psi is +0, and pochhammer's follows its factors (see
  _pochhammer_real).

These rest on the mixed float/complex arithmetic of CPython 3.10 to 3.13,
which converts the float to a complex.  Python 3.14 keeps the float out of
the product; there tests/test_gammakit.py and tools/gamma_equivalence.py
must be run again before the real path is trusted.
"""

import cmath
import math
import sys
from .errors import DomainError, PoleError

EULER_GAMMA = 0.5772156649015328606065120900824024

# distance to the nearest non-positive integer below which an argument
# is treated as exactly at the pole
POLE_TOL = 1e-9

# bound of the real path (see the module docstring): past it cmath.log,
# which digamma takes, switches formula (CPython's CM_LARGE_DOUBLE)
_AXIS_MAX = sys.float_info.max / 4

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
# (k, c_k) for k >= 1, the terms c_k / (z - 1 + k) of the Lanczos sum; k
# a float, which the real path adds faster than an int, to the same sum
_LANCZOS_KC = tuple((float(k), c) for k, c in enumerate(_LANCZOS_C))[1:]
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# B_{2n}/(2n) for the digamma asymptotic series, n = 1..7
_PSI_ASYMP = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def near_int(z, tol=POLE_TOL):
    """Return the integer within tol of z, or None.

    Tolerance is measured in the complex plane, so a point with a large
    imaginary part is never near an integer.  DomainError where z is not
    finite, TypeError where it is not a number.
    """
    try:
        n = round(z.real)
    except (ValueError, OverflowError):
        raise DomainError(f"argument {z} is not finite") from None
    except AttributeError:
        raise TypeError(f"argument {z!r} is not a number") from None
    if abs(z - n) <= tol:
        return int(n)
    return None


def near_nonpositive_int(z, tol=POLE_TOL):
    """Return n <= 0 with |z - n| <= tol, or None."""
    n = near_int(z, tol)
    if n is not None and n <= 0:
        return n
    return None


def sinpi(z):
    # sin(pi z) with argument reduction; keeps full relative accuracy
    # near the zeros at integers, where cmath.sin(pi*z) loses digits
    n = round(z.real)
    r = z - n
    s = cmath.sin(math.pi * r)
    return -s if n % 2 else s


def cospi(z):
    n = round(z.real)
    r = z - n
    c = cmath.cos(math.pi * r)
    return -c if n % 2 else c


def _lanczos_sum(z):
    # (zz, t, acc) with Gamma(z) = sqrt(2 pi) t^(zz + 1/2) e^(-t) acc
    zz = z - 1.0
    acc = _LANCZOS_C[0]
    for k, c in _LANCZOS_KC:
        acc += c / (zz + k)
    return zz, zz + _LANCZOS_G + 0.5, acc


def _log_gamma(z):
    # log Gamma(z) up to a multiple of 2 pi i, for Re z >= 0.5
    zz, t, acc = _lanczos_sum(z)
    return (zz + 0.5) * cmath.log(t) - t + cmath.log(_SQRT_2PI * acc)


def _exp_power(lg, power, z):
    # Gamma(z) ** power from lg = log Gamma(z)
    try:
        return cmath.exp(power * lg)
    except OverflowError:
        raise DomainError(f"Gamma(z) ** {power} overflows a double at z = {z}") from None


def _log_reflected(z):
    """log Gamma(z), up to a multiple of 2 pi i, for Re z < 1/2 where sin(pi z)
    or its product with Gamma(1-z) overflows: DLMF 5.5.3 in log space.  With
    z = n + r, s the sign of Im z and q = e^(2 i s pi r), |q| <= 1,
    sin(pi z) = (-1)^n (i s / 2) e^(-i s pi r) (1 - q).
    """
    n = round(z.real)
    r = z - n
    s = 1.0 if r.imag > 0 else -1.0
    q = cmath.exp(2j * s * math.pi * r)
    log_sin = complex(-math.log(2.0), math.pi * (s / 2 + n % 2)) - 1j * s * math.pi * r
    return math.log(math.pi) - log_sin - cmath.log(1 - q) - _log_gamma(1.0 - z)


def _lanczos(z, power=1):
    """Gamma(z) ** power for power 1 or -1; valid for Re z >= 0.5.

    Raises DomainError where the result overflows a double.
    """
    zz, t, acc = _lanczos_sum(z)
    s = _SQRT_2PI
    try:
        g = s * t ** (zz + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        g = math.inf
    if not cmath.isfinite(g):
        # t ** (zz + 0.5) overflows long before Gamma does (from z = 142.6
        # on the real axis, where Gamma is 4e244): take it in two halves,
        # as accurate as the direct product, up to the overflow of Gamma
        # itself (z = 171.6 on the real axis)
        try:
            h = t ** ((zz + 0.5) / 2)
            g = s * h * cmath.exp(-t) * h * acc
        except OverflowError:
            pass
    if cmath.isfinite(g):
        if power == 1:
            return g
        # far off the real axis Gamma(z) itself is subnormal or 0 and its
        # reciprocal may overflow: that goes through log space as well
        if g:
            r = 1.0 / g
            if cmath.isfinite(r):
                return r
    # Gamma(z) or 1/Gamma(z) overflows, or a half power does far off the
    # real axis: log space, good to about 3e-13 relative
    return _exp_power(_log_gamma(z), power, z)


def _powi(t, n):
    # t ** n for an integer 0 <= n <= 100 by the squarings of CPython's
    # c_powu, which complex ** takes at such an exponent
    r, mask = 1.0, 1
    while n >= mask:
        if n & mask:
            r *= t
        mask <<= 1
        t *= t
    return r


def _lanczos_real(x):
    # Gamma(x) for real x >= 0.5 by the operations of _lanczos_sum and the
    # direct product of _lanczos; None where that product is not finite,
    # and _lanczos takes its half powers or log space
    zz = x - 1.0
    acc = _LANCZOS_C[0]
    for k, c in _LANCZOS_KC:
        acc += c / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    e = zz + 0.5
    try:
        power = _powi(t, int(e)) if e <= 100.0 and e.is_integer() else t ** e
    except OverflowError:
        return None
    g = _SQRT_2PI * power * math.exp(-t) * acc
    return g if math.isfinite(g) else None


def _gamma_real(x, power):
    """Gamma(x) ** power, power 1 or -1, for real finite x: the real path of
    gamma and recip_gamma (module docstring).  None at a pole and where
    _lanczos_real is; every value it returns is finite, as sin(pi x) is
    at least 3e-9 off the poles and Gamma at least 0.88 from 1/2 on."""
    if x >= 0.5:
        g = _lanczos_real(x)
        if g is None or power == 1:
            return g
        return 1.0 / g
    # sinpi, and the pole test of near_nonpositive_int
    n = round(x)
    r = x - n
    if abs(r) <= POLE_TOL:
        return None
    s = math.sin(math.pi * r)
    if n % 2:
        s = -s
    g = _lanczos_real(1.0 - x)
    if g is None:
        return None
    return math.pi / (s * g) if power == 1 else s * g / math.pi


def _digamma_real(x):
    # psi(x) for real finite x by the operations of digamma; None at a pole
    acc = 0.0
    if x < 0.5:
        n = round(x)
        r = x - n
        if abs(r) <= POLE_TOL:
            return None
        c, s = math.cos(math.pi * r), math.sin(math.pi * r)
        if n % 2:
            c, s = -c, -s
        acc -= math.pi * c / s
        x = 1.0 - x
    while x < 10.0:  # x >= 0.5 here, where digamma tests abs(z)
        acc -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_PSI_ASYMP):
        tail = (tail + c) * w
    return acc + math.log(x) - 0.5 / x - tail


def _pochhammer_real(x, k):
    """(x)_k for real finite x by the operations of pochhammer, as the
    complex pochhammer returns; None at a pole and where the product is 0
    or not finite.  The imaginary part is a zero, signed as the complex
    products sign it.  (a + s i)(d + 0 i), s a signed zero, has the
    imaginary part a (+0) + s d, a sum of two zeros, which is -0 only
    where both are: a < 0 and s of the other sign than d.  From 1 + 0 i
    over the rising factors x + j that gives -0 where all k factors are
    negative and k is even and positive.  For k < 0 the zero of 1/acc
    takes the sign of acc, so of the result."""
    acc = 1.0
    if k >= 0:
        for j in range(k):
            acc *= x + j
        if not 0.0 < abs(acc) < math.inf:
            return None
        return complex(acc, -0.0 if k and k % 2 == 0 and x + (k - 1) < 0 else 0.0)
    n = round(x)
    if 1 <= n <= -k and abs(x - n) <= POLE_TOL:
        return None
    for j in range(1, -k + 1):
        acc *= x - j
    if not 0.0 < abs(acc) < math.inf:
        return None
    acc = 1.0 / acc
    return complex(acc, math.copysign(0.0, acc))


def _integral(k):
    # int(k) where k is an integer, else None (a nan or infinite k too)
    try:
        n = int(k)
    except (OverflowError, ValueError):
        return None
    return n if n == k else None


def gamma(z):
    """Gamma(z) for complex z, reflection formula for Re z < 1/2.

    Raises PoleError within POLE_TOL of a non-positive integer and
    DomainError where Gamma(z) overflows a double (z > 171.6 on the
    real axis).
    """
    z = complex(z)
    if not z.imag and -_AXIS_MAX < z.real < _AXIS_MAX:
        g = _gamma_real(z.real, 1)
        if g is not None:
            return complex(g, math.copysign(0.0, g))
    if near_nonpositive_int(z) is not None:
        raise PoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # DLMF 5.5.3; past the overflow of Gamma(1-z) the quotient is tiny
        try:
            s = sinpi(z)
            g = math.pi / (s * _lanczos(1.0 - z))
        except DomainError:
            g = math.pi * _lanczos(1.0 - z, -1) / s
        except OverflowError:
            g = math.nan
        return g if cmath.isfinite(g) else _exp_power(_log_reflected(z), 1, z)
    return _lanczos(z)


def recip_gamma(z):
    """1/Gamma(z); entire, exactly 0 at non-positive integers.

    Where Gamma(z) overflows the result is subnormal or 0; DomainError
    where 1/Gamma(z) itself overflows (large negative Re z, or |Im z|
    beyond about 452 near Re z = 1/2).
    """
    z = complex(z)
    if not z.imag and -_AXIS_MAX < z.real < _AXIS_MAX:
        g = _gamma_real(z.real, -1)
        if g is not None:
            return complex(g, 0.0)
    if near_nonpositive_int(z) is not None:
        return 0j
    if z.real < 0.5:
        try:
            s = sinpi(z)
            g = s * _lanczos(1.0 - z) / math.pi
        except DomainError:
            # Gamma(1-z) overflows, the product need not: |s| Gamma(1-z) / pi
            # in log space, and the phase of s, exact near the integers
            lg = _log_gamma(1.0 - z) + math.log(abs(s) / math.pi)
            g = s / abs(s) * _exp_power(-lg, -1, z)
        except OverflowError:
            g = math.nan
        return g if cmath.isfinite(g) else _exp_power(_log_reflected(z), -1, z)
    return _lanczos(z, -1)


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z).

    Reflection for Re z < 1/2, then upward recurrence to |z| >= 10 and
    the Bernoulli asymptotic series (DLMF 5.11.2).
    """
    z = complex(z)
    if not z.imag and -_AXIS_MAX < z.real < _AXIS_MAX:
        psi = _digamma_real(z.real)
        if psi is not None:
            return complex(psi, 0.0)
    if near_nonpositive_int(z) is not None:
        raise PoleError(f"digamma pole at z = {z}")
    acc = 0j
    if z.real < 0.5:
        # DLMF 5.5.4: psi(z) = psi(1-z) - pi cot(pi z)
        try:
            pi_cot = math.pi * cospi(z) / sinpi(z)
        except OverflowError:
            pi_cot = math.nan
        # where cos(pi z) or sin(pi z) overflows, cot(pi z) in its bounded form
        # -i s (1 + q) / (1 - q), s and q as in _log_reflected, is -i s (|q| < 1e-600)
        acc -= pi_cot if cmath.isfinite(pi_cot) else -1j * math.pi * math.copysign(1.0, z.imag)
        z = 1.0 - z
    while abs(z) < 10.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    tail = 0j
    for c in reversed(_PSI_ASYMP):
        tail = (tail + c) * w
    return acc + cmath.log(z) - 0.5 / z - tail


def harmonic(k, z=1.0):
    """Shifted harmonic number H_k(z) = 1/z + 1/(z+1) + ... + 1/(z+k-1).

    H_0(z) = 0 for every z; harmonic(k) with z omitted gives the plain
    harmonic number H_k.
    """
    n = _integral(k)
    if n is None or n < 0:
        raise ValueError(f"harmonic order must be a non-negative integer, got {k}")
    z = complex(z)
    acc = 0j
    for j in range(n):
        d = z + j
        if abs(d) <= POLE_TOL:
            raise PoleError(f"harmonic term pole at z + {j} = {d}")
        acc += 1.0 / d
    return acc


def pochhammer(z, k):
    """Pochhammer symbol (z)_k for integer k of either sign.

    (z)_0 = 1; for k > 0 the rising product z(z+1)...(z+k-1); for k < 0
    the reciprocal product 1/((z+k)(z+k+1)...(z-1)), which is the unique
    continuation satisfying (z)_{j+1} = (z+j)(z)_j.  DomainError naming
    z and k where the result is not finite: the product overflows a
    double, or z is not finite.  A reciprocal product that overflows
    gives 0, (z)_k having underflowed.
    """
    n = _integral(k)
    if n is None:
        raise ValueError(f"pochhammer index must be an integer, got {k}")
    k = n
    z = complex(z)
    if not z.imag and -_AXIS_MAX < z.real < _AXIS_MAX:
        acc = _pochhammer_real(z.real, k)
        if acc is not None:
            return acc
    acc = complex(1.0)
    if k >= 0:
        for j in range(k):
            acc *= z + j
    else:
        for j in range(1, -k + 1):
            d = z - j
            if abs(d) <= POLE_TOL:
                raise PoleError(f"pochhammer denominator pole at z - {j} = {d}")
            acc *= d
        acc = 1.0 / acc
    if not cmath.isfinite(acc):
        raise DomainError(f"pochhammer (z)_k with z = {z}, k = {k} is not finite")
    return acc
