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

Every point function f(p, z, ...) is prepare_f(p, ...)(z): the prepare
step does the work that depends on the parameters alone and returns a
callable of z, so a grid at fixed parameters does that work once.  A
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
and sum the same kept stream.  oracle.ode_residual reads the values of
at.jet(z, 2), the relation records those of at.jet(z, 1).
"""

import functools
import math
import operator
import sys
from dataclasses import dataclass

from .errors import DivergedImmediately, DomainError, ParameterSingular, PoleError
from .gammakit import gamma, near_int, pochhammer, recip_gamma
from .series import (
    MAX_TERMS,
    EvalResult,
    _check_finite,
    _check_point,
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
# relation tables list their parameter shifts in it, and the fields
# besides alpha are the extra parameters a DSpec of that kind takes.
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


def _seed(p):
    """(start index, iterator factory) for the series of p (series._replay).

    The seed is read off the classical parameters (a, b, ..., c).  In the
    degenerate case alpha is snapped to m first, the sum starts at
    n0 = max(0, -m), and c = 1 + m stays an int so that every step divides
    by an exact integer.  The numerator (a)_n0 (b)_n0 is 1 unless m < 0.
    """
    _check_finite(vars(p))
    m = near_int(p.alpha, DEGENERACY_TOL)
    if m is None:
        *upper, c = p.to_classical()
        n0, c0, c = 0, recip_gamma(c), complex(c)
    else:
        _check_order(m)
        *upper, c = p._classical(m)
        n0 = max(0, -m)
        num = (functools.reduce(operator.mul, [pochhammer(u, n0) for u in upper])
               if n0 and upper else 1.0)
        c0 = num / (math.factorial(m + n0) * math.factorial(n0))
    return n0, _replay(_TERMS[len(upper)](c0, n0, c, *upper))


def prepare_f_norm(p, max_terms=MAX_TERMS):
    """The callable z -> f_norm(p, z, max_terms), with its .jet(z, order):
    (F, F', ..., F^(order)) by term-by-term differentiation of the series,
    each derivative one more sum over the same stream."""
    if not isinstance(p, EquationParams):
        raise TypeError(f"unsupported parameter type {type(p).__name__}")
    seed = []
    disc = isinstance(p, F2)

    def jet(z, order):
        z = complex(z)
        _check_point(z)
        if disc and abs(z) > F2_SERIES_RADIUS:
            raise DomainError(
                f"2F1 direct series restricted to |z| <= {F2_SERIES_RADIUS}, got |z| = {abs(z):.6g}"
            )
        start, gen = _kept(seed, _seed, p)
        try:
            out = (sum_power_series(gen(), z, max_terms, start=start),)
            if order:
                for k in range(1, order + 1):
                    s, g = deriv_coeffs(gen, start, k)
                    out += (sum_power_series(g(), z, max_terms, start=s),)
        except BaseException:
            # a stream that raised is built anew at the next point
            seed.clear()
            raise
        return out

    return _prepared(jet)


def f_norm(p, z, max_terms=MAX_TERMS):
    """The normalized solution F of the equation selected by p.

    prepare_f_norm(p, max_terms)(z).
    """
    return prepare_f_norm(p, max_terms)(z)


def _reflected(p):
    if isinstance(p, F0):
        return F0(alpha=-p.alpha)
    if isinstance(p, F1):
        return F1(theta=p.theta, alpha=-p.alpha)
    if isinstance(p, F2):
        return F2(alpha=-p.alpha, beta=p.beta, mu=-p.mu)
    raise TypeError(f"unsupported parameter type {type(p).__name__}")


def _snap_alpha(p):
    """Snap a near-integer alpha to the exact integer, keeping other fields."""
    m = near_int(p.alpha, DEGENERACY_TOL)
    return p if m is None else type(p)(**{**vars(p), "alpha": m})


def prepare_f_second(p, max_terms=MAX_TERMS):
    """The callable z -> f_second(p, z, max_terms), with its .jet(z, order)
    by the product rule over z^a F_reflected, a = -alpha.  The j-th
    derivative of z^a is a (a-1) ... (a-j+1) z^(a-j), and 0 where that
    product vanishes, so that an integer a >= 0 has a jet at z = 0."""
    p = _snap_alpha(p)
    f = prepare_f_norm(_reflected(p), max_terms).jet
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


def f_second(p, z, max_terms=MAX_TERMS):
    """The power-behaved second solution z^(-alpha) F with reflected parameters.

    Reflection sends alpha -> -alpha (and mu -> -mu for 2F1).  For
    integer alpha the prefactor is an exact integer power, so no branch
    cut is introduced; the result is then proportional to f_norm.
    prepare_f_second(p, max_terms)(z).
    """
    return prepare_f_second(p, max_terms)(z)


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


def prepare_f2_norm_I(p, max_terms=MAX_TERMS):
    """The callable z -> f2_norm_I(p, z, max_terms), with its .jet(z, order):
    the jet of F, each entry scaled by the prefactor."""
    if not isinstance(p, F2):
        raise TypeError("f2_norm_I takes F2 parameters")
    pref = _f2_I_prefactor(p)
    f = prepare_f_norm(p, max_terms).jet
    return _prepared(lambda z, order: tuple([r.scaled(pref) for r in f(z, order)]))


def f2_norm_I(p, z, max_terms=MAX_TERMS):
    """The symmetric form F^I = Gamma(a) Gamma(c-a) F for the 2F1 kind.

    prepare_f2_norm_I(p, max_terms)(z).
    """
    return prepare_f2_norm_I(p, max_terms)(z)
