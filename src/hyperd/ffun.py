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
the series above (see prepare_f_norm).

Every point function f(p, z) is prepare_f(p)(z): the prepare step does
the work that depends on the parameters alone and returns a callable of
z, so a grid at fixed parameters does that work once.  A
part of the set-up that a lone call does only after a check of z (the
coefficient stream of f_norm comes after the 2F1 disc check) is done at
the first point that passes its checks and kept after that; until it
succeeds it is redone, and fails, at every point, so each point raises
what a lone call at that point raises.  A public function may be called
from any thread; a prepared callable keeps its coefficient stream
(series._replay) and belongs to the thread that made it.

A prepared callable at carries its derivatives: at.jet(z, order) is
(at, at', ..., at^(order)) at z as order + 1 EvalResults, and at(z) is
at.jet(z, 0)[0], so the value and the derivatives pass the same checks
and sum the same kept stream.  At a point that takes a map the jet
sums the map's stream alone, and the chain rule and Leibniz's rule
carry its derivatives to F's.  oracle.ode_residual reads the values of
at.jet(z, 2), the relation records those of at.jet(z, 1).
"""

import cmath
import functools
import math
import operator
import sys
from dataclasses import dataclass

from .errors import (DivergedImmediately, DomainError, NoConvergence, ParameterSingular,
                     PoleError)
from .gammakit import gamma, near_int, pochhammer, recip_gamma
from .series import (
    MAX_TERMS,
    EvalResult,
    _check_finite,
    _check_point,
    _combined_jet,
    _kept,
    _prepared,
    _product_jet,
    _replay,
    deriv_coeffs,
    principal_pow,
    sum_power_series,
)

# direct-series validity margin for 2F1 inside the unit disc
F2_SERIES_RADIUS = 0.95

# |alpha - m| below this is treated as the degenerate integer case
DEGENERACY_TOL = 1e-9

# largest |m| of an integer order: the series divide by |m|!, and 171!
# overflows a double
MAX_ORDER = 170

_EPS = sys.float_info.epsilon


class EquationParams:
    """Base for the three tagged parameter variants."""

    __slots__ = ()

    @property
    def is_degenerate(self):
        return near_int(self.alpha, DEGENERACY_TOL) is not None

    @property
    def m(self):
        """The snapped integer value of alpha in the degenerate case."""
        n = near_int(self.alpha, DEGENERACY_TOL)
        if n is None:
            raise ValueError(f"alpha = {self.alpha} is not within {DEGENERACY_TOL} of an integer")
        return n

    def to_classical(self):
        """The classical parameters (a, b, ..., c) of the equation."""
        return self._classical(self.alpha)


@dataclass(frozen=True)
class F0(EquationParams):
    """0F1 parameters; classical c = alpha + 1."""

    alpha: complex

    kind = "0f1"

    def _classical(self, alpha):
        return (alpha + 1,)

    @classmethod
    def from_classical(cls, c):
        return cls(alpha=c - 1)


@dataclass(frozen=True)
class F1(EquationParams):
    """1F1 parameters; classical a = (1+alpha+theta)/2, c = 1 + alpha."""

    theta: complex
    alpha: complex

    kind = "1f1"

    def _classical(self, alpha):
        return ((1 + alpha + self.theta) / 2, 1 + alpha)

    @classmethod
    def from_classical(cls, a, c):
        return cls(theta=2 * a - c, alpha=c - 1)


@dataclass(frozen=True)
class F2(EquationParams):
    """2F1 parameters; classical a, b = (1+alpha+beta∓mu)/2, c = 1+alpha."""

    alpha: complex
    beta: complex
    mu: complex

    kind = "2f1"

    def _classical(self, alpha):
        a = (1 + alpha + self.beta - self.mu) / 2
        b = (1 + alpha + self.beta + self.mu) / 2
        return (a, b, 1 + alpha)

    @classmethod
    def from_classical(cls, a, b, c):
        return cls(alpha=c - 1, beta=a + b - c, mu=b - a)


# equation kind -> parameter class.  The field order matters: the
# relation tables list their parameter shifts in it, and ufun._prepare_u
# passes the fields in it to prepare_u0, prepare_u1 and prepare_u2.
PARAMS_BY_KIND = {cls.kind: cls for cls in (F0, F1, F2)}


def _f0_terms(c0, n0, c):
    coef = complex(c0)
    n = n0
    while True:
        yield coef
        coef = coef / ((c + n) * (n + 1))
        n += 1


def _f1_terms(c0, n0, c, a):
    coef, a = complex(c0), complex(a)
    n = n0
    while True:
        yield coef
        coef = coef * (a + n) / ((c + n) * (n + 1))
        n += 1


def _f2_terms(c0, n0, c, a, b):
    coef, a, b = complex(c0), complex(a), complex(b)
    n = n0
    while True:
        yield coef
        coef = coef * (a + n) * (b + n) / ((c + n) * (n + 1))
        n += 1


# one step generator per arity: a generic loop over the upper parameters
# costs 10-30% more per coefficient
_TERMS = (_f0_terms, _f1_terms, _f2_terms)


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
    those of p.

    The seed is read off the classical parameters (a, b, ..., c).  In the
    degenerate case alpha is snapped to m first, the sum starts at
    n0 = max(0, -m), and c = 1 + m stays an int so that every step divides
    by an exact integer.  The numerator (a)_n0 (b)_n0 is 1 unless m < 0.
    """
    _check_finite(vars(p))
    m = near_int(p.alpha, DEGENERACY_TOL)
    if m is not None:
        _check_order(m)
    *upper, c = p._classical(p.alpha if m is None else m)
    if image is not None:
        *upper, c = image(*upper, c)
    if m is None:
        n0, c0, c = 0, recip_gamma(c), complex(c)
    else:
        n0 = max(0, -m)
        num = (functools.reduce(operator.mul, [pochhammer(u, n0) for u in upper])
               if n0 and upper else 1.0)
        c0 = num / (math.factorial(m + n0) * math.factorial(n0))
    return n0, _replay(_TERMS[len(upper)](c0, n0, c, *upper))


def _kummer(a, c):
    # 1F1(a; c; z) = e^z 1F1(c-a; c; -z): F_{theta,alpha} -> F_{-theta,alpha}
    return c - a, c


def _pfaff(a, b, c):
    # 2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)):
    # F_{alpha,beta,mu} -> F_{alpha,-mu,-beta}
    return a, c - b, c


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
    m = near_int(p.alpha, DEGENERACY_TOL)
    a = complex(p._classical(p.alpha if m is None else m)[0])

    def weights(z, order):
        # Re(1 - z) > 0 inside the disc: the principal power, no cut
        u = 1 / (1 - z)
        return (1 - z) ** -a, [
            [(-1) ** i * math.comb(k, i) * math.prod([a + j for j in range(i, k)]) * u ** (k + i)
             for i in range(k + 1)] for k in range(1, order + 1)]

    return weights


def _mapped_seed(p, image, weights):
    """_seed(p, image) and weights(p): the stream of the image and its
    weights at a point, taken once the parameters have passed the checks
    of the seed."""
    return (*_seed(p, image), weights(p))


def _named(exc, x, z, scale):
    """exc, raised by a sum at the image x of z, as raised at z: its
    message names z, and a NoConvergence carries the partial sum and
    error times scale."""
    msg = str(exc).replace(f"z = {x}", f"z = {z}")
    if isinstance(exc, NoConvergence):
        return NoConvergence(msg, partial=scale * exc.partial, err=abs(scale) * exc.err)
    return DomainError(msg)


def _check_params(p):
    if not isinstance(p, EquationParams):
        raise TypeError(f"unsupported parameter type {type(p).__name__}")


def prepare_f_norm(p):
    """The callable z -> f_norm(p, z), with its .jet(z, order).

    After the point check and the 2F1 disc check, two kinds of point sum
    the series of a map that keeps alpha, and with it m, fixed, because
    that series is shorter there:

    - 1F1 at Re z < 0, by Kummer's map (DLMF 13.2.39):
      F_{theta,alpha}(z) = e^z G(-z), G = F_{-theta,alpha}, whose terms
      at -z do not alternate and cancel;
    - 2F1 where |z/(z-1)| < |z|, by Pfaff's map (DLMF 15.8.1):
      F_{alpha,beta,mu}(z) = (1-z)^(-a) G(z/(z-1)), G = F_{alpha,-mu,-beta},
      a = (1+alpha+beta-mu)/2.

    Every other point, and every 0F1 point, sums the series of p.  The
    jet is (F, F', ..., F^(order)).  Where no map is taken, F^(k) sums
    the series of p differentiated k times term by term, one more sum
    over the same stream.  At a mapped point the jet of G at x is summed
    so, from G's stream alone, and F^(k) is the scale times the sum over
    i <= k of w(k, i) G^(i)(x) (series._combined_jet), the w from
    Leibniz's rule and the chain rule: (-1)^i C(k, i) for x = -z, and
    (-1)^i C(k, i) (a+i)_(k-i) u^(k+i) for x = z/(z-1), u = 1/(1-z)
    (_pfaff_weights).  A sum of G that raises names z.
    """
    _check_params(p)
    disc = isinstance(p, F2)
    kummer = isinstance(p, F1)
    # the map of the kind (a 0F1 takes none)
    image, weights = (_pfaff, _pfaff_weights) if disc else (_kummer, _kummer_weights)
    # the kept streams of p and of its image, each built at the first
    # point that sums it
    direct, mapped = [], []

    def jet(z, order):
        z = complex(z)
        _check_point(z)
        if disc:
            if abs(z) > F2_SERIES_RADIUS:
                raise DomainError(
                    f"2F1 direct series restricted to |z| <= {F2_SERIES_RADIUS}, got |z| = {abs(z):.6g}"
                )
            # |z/(z-1)| < |z|
            x = z / (z - 1) if abs(z - 1) > 1 else None
        else:
            x = -z if kummer and z.real < 0 else None
        if x is None:
            box, x = direct, z
            start, gen = _kept(direct, _seed, p)
        else:
            box = mapped
            start, gen, at = _kept(mapped, _mapped_seed, p, image, weights)
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
            raise _named(exc, x, z, at(z, 0)[0]) from None
        if box is direct:
            return out
        scale, rows = at(z, order)
        if not order:
            return (out[0].scaled(scale),)
        return tuple([r.scaled(scale) for r in _combined_jet(rows, out)])

    return _prepared(jet)


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


def _snap_alpha(p):
    """Snap a near-integer alpha to the exact integer, keeping other fields."""
    m = near_int(p.alpha, DEGENERACY_TOL)
    return p if m is None else type(p)(**{**vars(p), "alpha": m})


def prepare_f_second(p):
    """The callable z -> f_second(p, z), with its .jet(z, order)
    by the product rule over z^a F_reflected, a = -alpha.  The j-th
    derivative of z^a is a (a-1) ... (a-j+1) z^(a-j), and 0 where that
    product vanishes, so that an integer a >= 0 has a jet at z = 0."""
    _check_params(p)
    p = _snap_alpha(p)
    f = prepare_f_norm(_reflected(p)).jet
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
    below double precision).
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    a = complex(a)
    b = complex(b)
    z = complex(z)
    t = complex(1.0)
    total = t
    abs_sum = 1.0
    n = 0
    while n < max_terms:
        t_next = t * (a + n) * (b + n) * z / (n + 1)
        if t_next == 0:
            return EvalResult(total, 0.0, n + 1)
        if abs(t_next) >= abs(t):
            if n == 0 and abs(z) >= 1.0:
                raise DivergedImmediately(
                    f"first term of 2F0 already smallest at |z| = {abs(z):.6g}"
                )
            err = max(abs(t), (n + 1) * _EPS * abs_sum)
            return EvalResult(total, err, n + 1)
        total += t_next
        abs_sum += abs(t_next)
        t = t_next
        n += 1
    return EvalResult(total, abs(t), max_terms, frozenset({"TruncationMaxed"}))


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
    if not isinstance(p, F2):
        raise TypeError("f2_norm_I takes F2 parameters")
    pref = _f2_I_prefactor(p)
    f = prepare_f_norm(p).jet
    return _prepared(lambda z, order: tuple([r.scaled(pref) for r in f(z, order)]))


def f2_norm_I(p, z):
    """The symmetric form F^I = Gamma(a) Gamma(c-a) F for the 2F1 kind.

    prepare_f2_norm_I(p)(z).
    """
    return prepare_f2_norm_I(p)(z)
