"""Normalized hypergeometric-type functions of the three classical kinds.

The equations are parameterized Lie-algebraically:

    0F1:  alpha = c - 1
    1F1:  alpha = c - 1,  theta = 2a - c
    2F1:  alpha = c - 1,  beta = a + b - c,  mu = b - a

and the normalized solutions divide out the Gamma factor that makes the
series entire in the parameters:

    F_alpha(z)           = sum_n  z^n / (Gamma(alpha+1+n) n!)
    F_{theta,alpha}(z)   = sum_n  (a)_n z^n / (Gamma(alpha+1+n) n!)
    F_{alpha,beta,mu}(z) = sum_n  (a)_n (b)_n z^n / (Gamma(alpha+1+n) n!)

For integer alpha = m the reciprocal Gamma kills every term with
m + n < 0, so the sum starts at n = max(0, -m); that convention is what
keeps the degenerate case well defined and is preserved literally here.

F is summed through one of two maps that keep c, and with it m, fixed,
where the map's series is the shorter: Kummer's for 1F1 at Re z < 0,
F_{theta,alpha}(z) = e^z F_{-theta,alpha}(-z) (DLMF 13.2.39), whose
terms at -z do not cancel, and Pfaff's for 2F1 where |z/(z-1)| < |z|,
F_{alpha,beta,mu}(z) = (1-z)^(-a) F_{alpha,-mu,-beta}(z/(z-1)),
a = (1+alpha+beta-mu)/2 (DLMF 15.8.1).  0F1 and every other point sum
the series above.  The map of each kind, its point rule, parameter
image and weights, is one row of _MAPS, which prepare_f_norm reads once.

Every point function f(p, z) is prepare_f(p)(z): the prepare step does
the work that depends on the parameters alone and returns a callable of
z, so a grid at fixed parameters does that work once.  The parameter
set is checked there, once (_params), before any fault of z, and an
alpha within DEGENERACY_TOL of an integer m is snapped to the int m for
every reader past the door.  The coefficient streams are built lazily:
a stream that a lone call builds only after a check of z (f_norm's comes
after the 2F1 disc check) is built at the first point that passes its
checks and kept; until it succeeds it is redone, and fails, at every
point, so each point raises what a lone call there raises.  A public
function may be called from any thread; a prepared callable keeps its
stream (series._replay) and belongs to the thread that made it.

A prepared callable at carries its derivatives: at.jet(z, order) is
(at, at', ..., at^(order)) at z as order + 1 EvalResults, and at(z) is
at.jet(z, 0)[0], so the value and the derivatives pass the same checks
and sum the same kept stream.  At a point that takes a map the jet
sums the map's stream alone, and the chain rule and Leibniz's rule
carry its derivatives to F's.  oracle.ode_residual reads the values of
at.jet(z, 2), the relation records those of at.jet(z, 1).

The far rule of U lives here too, beside f2f0_asymptotic, which it
wraps, so that its readers take one rule without an import cycle: U's
point rule and bessel's K in ufun, and the prepared log solution in
dfun, which divides U's far value by the LogPlusD prefactor.  Each
calls far = _far(p), built once per parameter set.  A point is far
when Re z > 0 and the expansion variable x (-1/z for 1F1,
-1/(4 sqrt z) for 0F1) has |x| <= 2/ln(1/eps), eps the double epsilon:
|z| >= U1_FAR_RADIUS = 18.02 for 1F1 and |z| >= U0_FAR_RADIUS = 20.30
for 0F1.  There the expansion's smallest term, about e^(-1/|x|), is
below sqrt(eps), and F, which grows like e^z or e^(2 sqrt z) while U
decays, makes log z F + D cancel more than that.  The far value
(_asymptotic_2f0) is kept when its err_estimate <= sqrt(eps) |value|
(DLMF 13.7(ii) bounds the remainder by the first omitted term for
|ph z| <= pi/2).  Everywhere else, and where the expansion raises a
HyperdError, far(z) is None and the reader takes its series route.
"""

import cmath
import functools
import math
import operator
import sys
from typing import NamedTuple

from .errors import (BranchCut, DivergedImmediately, DomainError, HyperdError, NoConvergence,
                     ParameterSingular, PoleError)
from .gammakit import gamma, near_int, pochhammer, recip_gamma
from .series import (
    MAX_TERMS,
    _NO_FLAGS,
    _combined_jet,
    _kept,
    _prepared,
    _product_jet,
    _replay,
    _result,
    deriv_coeffs,
    principal_pow,
    sum_power_series,
)

# direct-series validity margin for 2F1 inside the unit disc
F2_SERIES_RADIUS = 0.95

# |alpha - m| below this is treated as the degenerate integer case, and
# _order(alpha), the int m within it or None, is the one test of that case
DEGENERACY_TOL = 1e-9
_order = functools.partial(near_int, tol=DEGENERACY_TOL)

# largest |m| of an integer order: the series divide by |m|!, and 171!
# overflows a double
MAX_ORDER = 170

_EPS = sys.float_info.epsilon

# the far rule of the module docstring: |x| <= 2/ln(1/eps) as a radius in
# |z| (18.02 for 1F1, 20.30 for 0F1), and the far value's error bound
_LN_INV_EPS = math.log(1.0 / _EPS)
U1_FAR_RADIUS = _LN_INV_EPS / 2.0
U0_FAR_RADIUS = (_LN_INV_EPS / 8.0) ** 2
_SQRT_EPS = math.sqrt(_EPS)


class EquationParams:
    """Base for the three tagged parameter variants.

    Each variant is a NamedTuple of its fields subclassed with this base:
    immutable, it unpacks and indexes, compares and hashes as the tuple
    of its fields (so F1(0.7, 2) == F1(0.7, 2.0) == (0.7, 2)), and
    p._replace(alpha=k) is p with alpha set to k.  No dataclass: a
    NamedTuple class is built several times faster at import, and the
    dataclasses module is not loaded.
    """

    __slots__ = ()

    @property
    def is_degenerate(self):
        """Whether alpha is within DEGENERACY_TOL of an integer (_order)."""
        return _order(self.alpha) is not None

    @property
    def m(self):
        """That integer, or ValueError: a convenience, as the door (_params) snaps alpha to it."""
        n = _order(self.alpha)
        if n is None:
            raise ValueError(f"alpha = {self.alpha} is not within {DEGENERACY_TOL} of an integer")
        return n

    def to_classical(self):
        """The classical parameters (a, b, ..., c) of the equation."""
        return self._classical(self.alpha)


class F0(NamedTuple("F0", [("alpha", complex)]), EquationParams):
    """0F1 parameters; classical c = alpha + 1."""

    __slots__ = ()

    kind = "0f1"

    def _classical(self, alpha):
        return (alpha + 1,)

    @classmethod
    def from_classical(cls, c):
        return cls(alpha=c - 1)


class F1(NamedTuple("F1", [("theta", complex), ("alpha", complex)]), EquationParams):
    """1F1 parameters; classical a = (1+alpha+theta)/2, c = 1 + alpha."""

    __slots__ = ()

    kind = "1f1"

    def _classical(self, alpha):
        return ((1 + alpha + self.theta) / 2, 1 + alpha)

    @classmethod
    def from_classical(cls, a, c):
        return cls(theta=2 * a - c, alpha=c - 1)


class F2(NamedTuple("F2", [("alpha", complex), ("beta", complex), ("mu", complex)]),
         EquationParams):
    """2F1 parameters; classical a, b = (1+alpha+beta∓mu)/2, c = 1+alpha."""

    __slots__ = ()

    kind = "2f1"

    def _classical(self, alpha):
        a = (1 + alpha + self.beta - self.mu) / 2
        b = (1 + alpha + self.beta + self.mu) / 2
        return (a, b, 1 + alpha)

    @classmethod
    def from_classical(cls, a, b, c):
        return cls(alpha=c - 1, beta=a + b - c, mu=b - a)


# equation kind -> parameter class.  The field order matters: the
# relation tables list their parameter shifts in it.
PARAMS_BY_KIND = {cls.kind: cls for cls in (F0, F1, F2)}


def _terms(c0, n0, c, *upper):
    """The coefficients of the series from index n0 on, the first c0: each
    step multiplies by every (u + n), u in upper, in turn and then divides
    by (c + n)(n + 1).  One step for every arity: the loop over upper adds
    30-90 ns a coefficient to a stream that is built once and replayed."""
    coef = complex(c0)
    upper = [complex(u) for u in upper]
    n = n0
    while True:
        yield coef
        for u in upper:
            coef = coef * (u + n)
        coef = coef / ((c + n) * (n + 1))
        n += 1


def _check_order(m):
    """DomainError naming m where |m| > MAX_ORDER."""
    if abs(m) > MAX_ORDER:
        raise DomainError(
            f"integer order m = {m} is out of range: |m|! overflows a double "
            f"beyond |m| = {MAX_ORDER}"
        )


def _seed(p, image=None):
    """(start index, iterator factory) for the series of p (series._replay),
    or for the series whose classical parameters are image(a, ..., c) of
    those of p, a set that passed _params.

    The seed is read off the classical parameters (a, b, ..., c).  In the
    degenerate case, alpha the int m, the sum starts at n0 = max(0, -m),
    and c = 1 + m stays an int so that every step divides by an exact
    integer.  The numerator (a)_n0 (b)_n0 is 1 unless m < 0.
    """
    m = p.alpha
    *upper, c = p.to_classical()
    if image is not None:
        *upper, c = image(*upper, c)
    if type(m) is not int:
        n0, c0, c = 0, recip_gamma(c), complex(c)
    else:
        _check_order(m)
        n0 = max(0, -m)
        num = (functools.reduce(operator.mul, [pochhammer(u, n0) for u in upper])
               if n0 and upper else 1.0)
        c0 = num / (math.factorial(m + n0) * math.factorial(n0))
    return n0, _replay(_terms(c0, n0, c, *upper))


@functools.cache
def _kummer_rows(order):
    # complex, so that a combination multiplies complex by complex (see the
    # series module)
    return tuple([tuple([complex((-1) ** i * math.comb(k, i)) for i in range(k + 1)])
                  for k in range(1, order + 1)])


def _kummer_weights(p):
    """weights(z, order) of F = e^z G(-z): (scale, rows), the scale e^z and
    rows[k-1][i] the factor of G^(i)(-z) in F^(k)(z) / e^z, which is
    (-1)^i C(k, i) by Leibniz's rule."""
    return lambda z, order: (cmath.exp(z), _kummer_rows(order))


def _pfaff_weights(p):
    """weights(z, order) of F = (1-z)^(-a) G(x), x = z/(z-1), with a at the
    snapped alpha, as G is summed: (scale, rows), the scale (1-z)^(-a) and
    rows[k-1][i] the factor of G^(i)(x) in F^(k)(z) / (1-z)^(-a), which is
    (-1)^i C(k, i) (a+i)_(k-i) u^(k+i) with u = 1/(1-z).

    Leibniz's rule over the scale, whose j-th derivative is
    (a)_j u^(a+j), and the chain rule, by which the m-th derivative of
    G(x(z)) is the sum of (-1)^i L(m, i) u^(m+i) G^(i)(x) with L the
    unsigned Lah numbers, collapse to these factors: d/dz = u^2 d/du, and
    (u^2 d/du)^k = u^(k+1) (d/du)^k u^(k-1).
    """
    a = complex(p.to_classical()[0])

    def weights(z, order):
        # Re(1 - z) > 0 inside the disc: the principal power, no cut
        u = 1 / (1 - z)
        try:
            scale = (1 - z) ** -a
        except OverflowError:
            raise DomainError(f"Pfaff's weight (1-z)**(-a) overflows a double "
                              f"at z = {z}, a = {a}") from None
        return scale, [
            [(-1) ** i * math.comb(k, i) * math.prod([a + j for j in range(i, k)]) * u ** (k + i)
             for i in range(k + 1)] for k in range(1, order + 1)]

    return weights


def _named(exc, z, xs, scale=None):
    """exc, raised by a step at one of the image points xs of z, as raised
    at z: its message names z and its type is kept.  A NoConvergence
    keeps its partial sum and error, or carries them times scale where
    one is given; without one they are not multiplied, since
    1.0 * complex(inf, 0.0) is inf+nanj and 1.0 * complex(1.0, -0.0)
    drops the sign of the zero."""
    msg = str(exc)
    for x in xs:
        msg = msg.replace(f"z = {x}", f"z = {z}")
    if not isinstance(exc, NoConvergence):
        return type(exc)(msg)
    if scale is None:
        return NoConvergence(msg, partial=exc.partial, err=exc.err)
    return NoConvergence(msg, partial=scale * exc.partial, err=abs(scale) * exc.err)


def _check_disc(z, series):
    """DomainError unless |z| <= F2_SERIES_RADIUS, where the 2F1 series
    named by series ("direct" for F, "D" for D) is summed."""
    if abs(z) > F2_SERIES_RADIUS:
        raise DomainError(
            f"2F1 {series} series restricted to |z| <= {F2_SERIES_RADIUS}, "
            f"got |z| = {abs(z)!r} at z = {z!r}"
        )


def _pfaff_point(z):
    # inside the disc, z/(z-1) where |z/(z-1)| < |z|, tested as |z-1| > 1
    _check_disc(z, "direct")
    return z / (z - 1) if abs(z - 1) > 1 else None


# equation kind -> (point rule, image, weights) of F: the point rule gives
# the image point x of z, or None where F sums the series of p; image
# maps the classical parameters (a, ..., c) to those of the series G
# summed at x, and weights(p) gives the scale and jet weights of
# F = scale G(x).  Both maps keep c, and with it m.
_MAPS = {
    "0f1": (lambda z: None, None, None),
    # Kummer: 1F1(a; c; z) = e^z 1F1(c-a; c; -z) at Re z < 0
    "1f1": (lambda z: -z if z.real < 0 else None, lambda a, c: (c - a, c), _kummer_weights),
    # Pfaff: 2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
    "2f1": (_pfaff_point, lambda a, b, c: (a, c - b, c), _pfaff_weights),
}


def _params(p, cls=EquationParams):
    """p, checked once by the prepare step that takes it, TypeError unless
    it is a cls and DomainError naming its first field that is not finite,
    with alpha set to the int m in the degenerate case (_order)."""
    if not isinstance(p, cls):
        raise TypeError(f"unsupported parameter type {type(p).__name__}")
    for name, v in zip(p._fields, p):
        if not cmath.isfinite(v):
            raise DomainError(f"{name} must be finite, got {name} = {v}")
    m = _order(p.alpha)
    return p if m is None or type(p.alpha) is int else p._replace(alpha=m)


def prepare_f_norm(p):
    """The callable z -> f_norm(p, z), with its .jet(z, order): the door
    of _f_jet(p)."""
    return _prepared(_f_jet(_params(p)))


def _f_jet(p):
    """The raw jet of F at a checked parameter set p, at a finite complex z.

    The row of p's kind in _MAPS is read here.  At each point its point
    rule gives the image point x: -z for 1F1 at Re z < 0 (Kummer's map,
    G = F_{-theta,alpha}, whose terms at -z do not alternate and
    cancel), z/(z-1) for 2F1 where |z/(z-1)| < |z|
    (Pfaff's map, G = F_{alpha,-mu,-beta}, after the disc check), and
    none at every other point and every 0F1 point, which sum the series
    of p.  The jet is (F, F', ..., F^(order)).  Where no map is taken,
    F^(k) sums the series of p differentiated k times term by term, one
    more sum over the same stream.  At a mapped point the jet of G at x
    is summed so, from G's stream alone, and F^(k) is the scale times
    the sum over i <= k of w(k, i) G^(i)(x) (series._combined_jet), the
    w from Leibniz's rule and the chain rule: (-1)^i C(k, i) for x = -z,
    and (-1)^i C(k, i) (a+i)_(k-i) u^(k+i) for x = z/(z-1), u = 1/(1-z)
    (_pfaff_weights).  A sum of G that raises names z (_named).
    """
    point, image, weights = _MAPS[p.kind]
    # the kept streams of p and of its image, and the weights of the map,
    # each built at the first point that needs it
    direct, mapped, kept_weights = [], [], []

    def jet(z, order):
        x = point(z)
        if x is None:
            box, x = direct, z
            start, gen = _kept(direct, _seed, p)
        else:
            box = mapped
            start, gen = _kept(mapped, _seed, p, image)
            at = _kept(kept_weights, weights, p)
        try:
            out = (sum_power_series(gen(), x, start=start),)
            if order:
                for k in range(1, order + 1):
                    s, g = deriv_coeffs(gen, start, k)
                    out += (sum_power_series(g(), x, start=s),)
        except BaseException as exc:
            # a stream that raised is built anew at the next point
            box.clear()
            if box is direct or not isinstance(exc, (DomainError, NoConvergence)):
                raise
            raise _named(exc, z, (x,), at(z, 0)[0]) from None
        if box is direct:
            return out
        scale, rows = at(z, order)
        if not order:
            return (out[0].scaled(scale),)
        return tuple([r.scaled(scale) for r in _combined_jet(rows, out)])

    return jet


def f_norm(p, z):
    """The normalized solution F of the equation selected by p.

    prepare_f_norm(p)(z).
    """
    return prepare_f_norm(p)(z)


def _reflected(p):
    if isinstance(p, F0):
        return F0(alpha=-p.alpha)
    if isinstance(p, F1):
        return F1(theta=p.theta, alpha=-p.alpha)
    return F2(alpha=-p.alpha, beta=p.beta, mu=-p.mu)


def prepare_f_second(p):
    """The callable z -> f_second(p, z), with its .jet(z, order)
    by the product rule over z^a F_reflected, a = -alpha.  The j-th
    derivative of z^a is a (a-1) ... (a-j+1) z^(a-j), and 0 where that
    product vanishes, so that an integer a >= 0 has a jet at z = 0."""
    p = _params(p)
    f = _f_jet(_reflected(p))
    a = -p.alpha

    def jet(z, order):
        fs = f(z, order)
        s = (principal_pow(z, a),)
        if order:
            c = 1
            for j in range(1, order + 1):
                c *= a - j + 1
                s += (c * principal_pow(z, a - j) if c else 0j,)
        return _product_jet(s, fs)

    return _prepared(jet)


def f_second(p, z):
    """The power-behaved second solution z^(-alpha) F with reflected parameters.

    Reflection sends alpha -> -alpha (and mu -> -mu for 2F1).  For
    integer alpha the prefactor is an exact integer power, so no branch
    cut is introduced; the result is then proportional to f_norm.
    prepare_f_second(p)(z).
    """
    return prepare_f_second(p)(z)


def f2f0_asymptotic(a, b, z, max_terms=MAX_TERMS):
    """The divergent series sum (a)_n (b)_n z^n / n! at optimal truncation.

    Terms are added while they strictly decrease in magnitude; the sum is
    cut at the smallest term, whose magnitude is the error estimate (with
    a rounding floor so the estimate stays meaningful once the terms drop
    below double precision).  DomainError naming a, b or z where it is
    not finite, and naming all three where a term's magnitude is nan.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(z)):
        for name, v in (("a", a), ("b", b), ("z", z)):
            if not cmath.isfinite(v):
                raise DomainError(f"{name} must be finite, got {name} = {v}")
    t = complex(1.0)
    mag = 1.0  # |t|, each term's magnitude taken once
    total = t
    abs_sum = 1.0
    n = 0
    while n < max_terms:
        n1 = n + 1
        t_next = t * (a + n) * (b + n) * z / n1
        if not t_next:
            return _result((total, 0.0, n1, _NO_FLAGS))
        mag_next = abs(t_next)
        # a nan magnitude is not smaller either, and has no place in the
        # order; an infinite one is the largest, and stops the sum as before
        if not mag_next < mag:
            if math.isnan(mag_next):
                raise DomainError(f"2F0 term is not finite at a = {a}, b = {b}, z = {z}: {t_next}")
            if n == 0 and abs(z) >= 1.0:
                raise DivergedImmediately(
                    f"first term of 2F0 already smallest at z = {z}"
                )
            err = max(mag, n1 * _EPS * abs_sum)
            return _result((total, err, n1, _NO_FLAGS))
        total += t_next
        abs_sum += mag_next
        t, mag = t_next, mag_next
        n = n1
    return _result((total, mag, max_terms, frozenset({"TruncationMaxed"})))


def _asymptotic_2f0(p):
    """U's expansion about infinity at a 0F1 or 1F1 parameter set p: the
    2F0 expansion in x = -1/(4 sqrt z) (0F1) or x = -1/z (1F1) times its
    prefactor, e^(-2 sqrt z) z^(-alpha/2 - 1/4) or z^(-a).  An error
    raised at x names z (_named)."""
    alpha = p.alpha
    is_0f1 = p.kind == "0f1"
    if is_0f1:
        a, b, e = 0.5 + alpha, 0.5 - alpha, -alpha / 2 - 0.25
    else:
        a, b = (1 + p.theta + alpha) / 2, (1 + p.theta - alpha) / 2

    def u_at(z):
        if not z:
            raise BranchCut(f"the expansion about infinity has no value at z = {z}")
        if is_0f1:
            sq = principal_pow(z, 0.5)
            pref, x = cmath.exp(-2.0 * sq) * principal_pow(z, e), -1.0 / (4.0 * sq)
        else:
            pref, x = principal_pow(z, -a), -1.0 / z
        try:
            return f2f0_asymptotic(a, b, x).scaled(pref)
        except HyperdError as exc:
            raise _named(exc, z, (x,)) from None

    return u_at


def _far(p):
    """far(z), U's expansion about infinity at the 0F1 or 1F1 set p
    (_asymptotic_2f0) where the far rule keeps it: Re z > 0, |z| >= the
    radius of p's kind, no HyperdError and err_estimate <= sqrt(eps)
    |value|.  None everywhere else."""
    u_at = _asymptotic_2f0(p)
    radius = U0_FAR_RADIUS if p.kind == "0f1" else U1_FAR_RADIUS

    def far(z):
        if z.real <= 0.0 or abs(z) < radius:
            return None
        try:
            r = u_at(z)
        except HyperdError:
            return None
        return r if r.err_estimate <= _SQRT_EPS * abs(r.value) else None

    return far


def _f2_I_prefactor(p):
    q1 = (1 + p.alpha + p.beta - p.mu) / 2
    q2 = (1 + p.alpha - p.beta + p.mu) / 2
    try:
        return gamma(q1) * gamma(q2)
    except PoleError as exc:
        raise ParameterSingular(f"F^I prefactor Gamma at a pole: {exc}") from exc


def prepare_f2_norm_I(p):
    """The callable z -> f2_norm_I(p, z), with its .jet(z, order):
    the jet of F, each entry scaled by the prefactor."""
    p = _params(p, F2)
    pref = _f2_I_prefactor(p)
    f = _f_jet(p)
    return _prepared(lambda z, order: tuple([r.scaled(pref) for r in f(z, order)]))


def f2_norm_I(p, z):
    """The symmetric form F^I = Gamma(a) Gamma(c-a) F for the 2F1 kind.

    prepare_f2_norm_I(p)(z).
    """
    return prepare_f2_norm_I(p)(z)
