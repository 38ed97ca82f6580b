"""Infinity-normalized solutions and the Bessel-family wrappers.

Three evaluation routes are offered for each U:

  Connection    generic alpha: the two power-behaved solutions combined
                with reciprocal sine and Gamma weights; unusable near
                integer alpha where sin(pi alpha) cancellation explodes.
  LogPlusD      integer alpha = m: prefactor * dfun.log_solution, that is
                prefactor * (log z * F_m + D_m) (log(-z) for 2F1), the
                closed degenerate form; the canonical route at integers.
  Asymptotic2F0 the expansion about infinity (optimally truncated 2F0
                for 0F1/1F1, the defining 1/z series for 2F1).

Routes agree within combined error estimates wherever they overlap;
the error estimates include an explicit cancellation floor because all
of these formulas subtract large intermediates.

As in ffun, u0, u1 and u2 are prepare_u0(...)(z) and so on: the route,
the series of its F and D and its Gamma weights are set up once per
parameter set.  Weights that a lone call takes only after its series are
taken at the first point that gets that far, and u2 prepares each route
at the first point that takes it.  Public functions may be called from
any thread; a prepared callable belongs to the thread that made it.
"""

import cmath
import math
import sys
from enum import Enum

from .dfun import d_eval, log_solution, prepare_log_solution
from .errors import (
    BranchCut,
    DomainError,
    ParameterSingular,
    RouteInapplicable,
)
from .ffun import (
    DEGENERACY_TOL,
    F2_SERIES_RADIUS,
    F0,
    F1,
    F2,
    _check_params,
    f2f0_asymptotic,
    f_norm,
    prepare_f_norm,
)
from .gammakit import near_int, near_nonpositive_int, recip_gamma, sinpi
from .series import (
    EvalResult,
    _check_finite,
    _check_point,
    _kept,
    log_combo,
    log_negated,
    principal_log,
    principal_pow,
)

_EPS = sys.float_info.epsilon

# Connection is refused closer to an integer than this; the theorems
# exist precisely to cover that band
CONNECTION_INT_BAND = 1e-6

_SQRT_PI = math.sqrt(math.pi)


class URoute(Enum):
    CONNECTION = "Connection"
    LOG_PLUS_D = "LogPlusD"
    ASYMPTOTIC_2F0 = "Asymptotic2F0"


def _as_route(route):
    if route is None or isinstance(route, URoute):
        return route
    return URoute(route)


def _int_distance(alpha):
    alpha = complex(alpha)
    return abs(alpha - round(alpha.real))


def _pick_route(alpha):
    """Canonical route for the given alpha: LogPlusD at integers,
    Connection away from them, nothing in the ambiguous band between."""
    if near_int(alpha, DEGENERACY_TOL) is not None:
        return URoute.LOG_PLUS_D
    if _int_distance(alpha) > CONNECTION_INT_BAND:
        return URoute.CONNECTION
    raise RouteInapplicable(
        f"alpha = {alpha} sits between the integer band ({DEGENERACY_TOL}) "
        f"and the connection band ({CONNECTION_INT_BAND}); no route applies"
    )


def _require_int(alpha):
    m = near_int(alpha, DEGENERACY_TOL)
    if m is None:
        raise RouteInapplicable(f"LogPlusD requires integer alpha, got {alpha}")
    return m


def _require_generic(alpha):
    if _int_distance(alpha) <= CONNECTION_INT_BAND:
        raise RouteInapplicable(
            f"Connection requires alpha further than {CONNECTION_INT_BAND} from integers, got {alpha}"
        )


def _connection(c, alpha, fn, fr, t1, e1, t2, e2):
    """Connection-route combination c (t1 - t2) / sin(pi alpha) of two
    weighted series terms with absolute errors e1 and e2; fn and fr are
    the two series results, whose terms and flags the result carries.
    Each caller keeps the term order and sign of its own formula, which
    fix the rounding and the sign of zero imaginary parts on the axis."""
    s = sinpi(alpha)
    err = abs(c) / abs(s) * (e1 + e2) + _EPS * abs(c) / abs(s) * (abs(t1) + abs(t2))
    return EvalResult(c * (t1 - t2) / s, err, fn.terms_used + fr.terms_used, fn.flags | fr.flags)


def _product_err(pw, w, err):
    """|pw w| err, the error of a weighted term pw w F with |F| off by err.
    Where pw w overflows it is formed as |pw| (|w| err), which stays
    finite (inf * 0 is nan)."""
    pww = pw * w
    if cmath.isfinite(pww):
        return abs(pww) * err
    return abs(pw) * (abs(w) * err)


def _negated_pow(z, a):
    """(-z)**a as exp(a log(-z)), cut on [0, inf); DomainError naming z and
    a where it is not finite, as series.principal_pow."""
    try:
        w = cmath.exp(a * log_negated(z))
        if cmath.isfinite(w):
            return w
    except OverflowError:
        pass
    raise DomainError(f"(-z)**a is not finite at z = {z}, a = {a}")


def _log_plus_d(p, prefactor):
    """The LogPlusD route: z -> prefactor() * log_solution(p, z).

    The prefactor is taken after the solution, at the first point whose
    solution succeeds, and kept.
    """
    w = prepare_log_solution(p)
    pref = []
    return lambda z: w(z).scaled(_kept(pref, prefactor))


def prepare_u0(alpha, route=None):
    """The callable z -> u0(alpha, z, route)."""
    alpha = complex(alpha)
    _check_finite({"alpha": alpha})
    route = _as_route(route) or _pick_route(alpha)

    if route is URoute.CONNECTION:
        _require_generic(alpha)
        f_n = prepare_f_norm(F0(alpha))
        f_r = prepare_f_norm(F0(-alpha))

        def u_at(z):
            fn, fr = f_n(z), f_r(z)
            pw = principal_pow(z, -alpha)
            return _connection(_SQRT_PI, alpha, fn, fr, pw * fr.value, abs(pw) * fr.err_estimate,
                               fn.value, fn.err_estimate)

        return u_at

    if route is URoute.LOG_PLUS_D:
        m = _require_int(alpha)
        return _log_plus_d(F0(m), lambda: (-1.0) ** (m + 1) / _SQRT_PI)

    if route is URoute.ASYMPTOTIC_2F0:
        a, b, e = 0.5 + alpha, 0.5 - alpha, -alpha / 2 - 0.25

        def u_at(z):
            z = complex(z)
            _check_point(z)
            sq = principal_pow(z, 0.5)
            pref = cmath.exp(-2.0 * sq) * principal_pow(z, e)
            return f2f0_asymptotic(a, b, -1.0 / (4.0 * sq)).scaled(pref)

        return u_at

    raise RouteInapplicable(f"route {route.value} does not apply to the 0f1 kind")


def u0(alpha, z, route=None):
    """U_alpha(z): the solution with e^(-2 sqrt z) decay, cut on (-inf, 0].

    prepare_u0(alpha, route)(z).
    """
    return prepare_u0(alpha, route)(z)


def prepare_u1(theta, alpha, route=None):
    """The callable z -> u1(theta, alpha, z, route)."""
    theta = complex(theta)
    alpha = complex(alpha)
    _check_finite({"theta": theta, "alpha": alpha})
    route = _as_route(route) or _pick_route(alpha)

    if route is URoute.CONNECTION:
        _require_generic(alpha)
        f_n = prepare_f_norm(F1(theta, alpha))
        f_r = prepare_f_norm(F1(theta, -alpha))
        weights = []

        def u_at(z):
            fn, fr = f_n(z), f_r(z)
            pw = principal_pow(z, -alpha)
            g1, g2 = _kept(weights, lambda: (recip_gamma((1 + theta + alpha) / 2),
                                             recip_gamma((1 + theta - alpha) / 2)))
            return _connection(math.pi, alpha, fn, fr, pw * fr.value * g1, _product_err(pw, g1, fr.err_estimate),
                               fn.value * g2, abs(g2) * fn.err_estimate)

        return u_at

    if route is URoute.LOG_PLUS_D:
        m = _require_int(alpha)
        if m < 0:
            inner = prepare_u1(theta, -m, URoute.LOG_PLUS_D)
            return lambda z: inner(z).scaled(principal_pow(z, -m))
        q = (1 - m + theta) / 2
        if near_nonpositive_int(q) is not None:
            raise ParameterSingular(
                f"LogPlusD prefactor 1/Gamma({q}) vanishes; degenerate-confluent case"
            )
        return _log_plus_d(F1(theta, m),
                           lambda: (-1.0) ** (m + 1) * recip_gamma(q))

    if route is URoute.ASYMPTOTIC_2F0:
        a = (1 + theta + alpha) / 2
        b = (1 + theta - alpha) / 2

        def u_at(z):
            z = complex(z)
            _check_point(z)
            pref = principal_pow(z, -a)
            return f2f0_asymptotic(a, b, -1.0 / z).scaled(pref)

        return u_at

    raise RouteInapplicable(f"route {route.value} does not apply to the 1f1 kind")


def u1(theta, alpha, z, route=None):
    """Tricomi-type U_{theta,alpha}(z), cut on (-inf, 0].

    prepare_u1(theta, alpha, route)(z).
    """
    return prepare_u1(theta, alpha, route)(z)


def _check_u2_cut(z):
    if z.imag == 0.0 and z.real >= 0.0:
        raise BranchCut(f"2f1 U is cut on [0, inf), got z = {z}")


def prepare_u2(alpha, beta, mu, route=None):
    """The callable z -> u2(alpha, beta, mu, z, route).

    Without a route each point takes the route of its |z|: the one alpha
    picks for |z| <= F2_SERIES_RADIUS, the 1/z series for
    |1/z| <= F2_SERIES_RADIUS.  A route is prepared at the first point
    that passes the cut check and takes it, so a point on the cut raises
    BranchCut before any fault of the route's parameters.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    mu = complex(mu)
    _check_finite({"alpha": alpha, "beta": beta, "mu": mu})
    chosen, outer = [], []  # the given or alpha-picked route; the 1/z series

    def u_at(z):
        z = complex(z)
        _check_point(z)
        _check_u2_cut(z)
        if route is None and abs(z) > F2_SERIES_RADIUS:
            if abs(z) < 1.0 / F2_SERIES_RADIUS:
                raise DomainError(
                    f"neither |z| <= {F2_SERIES_RADIUS} nor |1/z| <= {F2_SERIES_RADIUS} at z = {z}"
                )
            return _kept(outer, _u2_route, URoute.ASYMPTOTIC_2F0, alpha, beta, mu)(z)
        return _kept(chosen, lambda: _u2_route(_as_route(route) or _pick_route(alpha), alpha,
                                               beta, mu))(z)

    return u_at


def _u2_route(route, alpha, beta, mu):
    """The per-point callable of one route of u2, for z off the cut."""
    if route is URoute.CONNECTION:
        _require_generic(alpha)
        f_n = prepare_f_norm(F2(alpha, beta, mu))
        f_r = prepare_f_norm(F2(-alpha, beta, -mu))
        weights = []

        def u_at(z):
            fn, fr = f_n(z), f_r(z)
            w1, w2 = _kept(weights, lambda: (
                recip_gamma((1 - alpha - beta - mu) / 2) * recip_gamma((1 - alpha + beta - mu) / 2),
                recip_gamma((1 + alpha + beta - mu) / 2) * recip_gamma((1 + alpha - beta - mu) / 2),
            ))
            pw = _negated_pow(z, -alpha)
            return _connection(-math.pi, alpha, fn, fr, fn.value * w1, abs(w1) * fn.err_estimate,
                               pw * fr.value * w2, _product_err(pw, w2, fr.err_estimate))

        return u_at

    if route is URoute.LOG_PLUS_D:
        m = _require_int(alpha)
        if m < 0:
            inner = prepare_u2(-m, beta, mu, URoute.LOG_PLUS_D)
            return lambda z: inner(z).scaled(principal_pow(complex(-z.real, -z.imag), -m))
        q1 = (1 - m - beta - mu) / 2
        q2 = (1 - m + beta - mu) / 2
        if near_nonpositive_int(q1) is not None or near_nonpositive_int(q2) is not None:
            raise ParameterSingular(
                f"LogPlusD prefactor 1/(Gamma({q1}) Gamma({q2})) vanishes"
            )
        return _log_plus_d(F2(m, beta, mu),
                           lambda: (-1.0) ** (m + 1) * recip_gamma(q1) * recip_gamma(q2))

    if route is URoute.ASYMPTOTIC_2F0:
        f = prepare_f_norm(F2(alpha=-mu, beta=beta, mu=-alpha))
        e = (-1 - alpha - beta + mu) / 2

        def u_at(z):
            if abs(z) < 1.0 / F2_SERIES_RADIUS:
                raise DomainError(
                    f"1/z series requires |1/z| <= {F2_SERIES_RADIUS}, got |z| = {abs(z):.6g}"
                )
            pref = _negated_pow(z, e)
            return f(1.0 / z).scaled(pref)

        return u_at

    raise RouteInapplicable(f"route {route.value} does not apply to the 2f1 kind")


def u2(alpha, beta, mu, z, route=None):
    """The 2F1-kind U function, cut on [0, inf).

    prepare_u2(alpha, beta, mu, route)(z).
    """
    return prepare_u2(alpha, beta, mu, route)(z)


def _prepare_u(p, route):
    """The prepared U of the kind of p at its fields, in the order
    prepare_u0(alpha), prepare_u1(theta, alpha) and
    prepare_u2(alpha, beta, mu) take them."""
    _check_params(p)
    prepare = {"0f1": prepare_u0, "1f1": prepare_u1, "2f1": prepare_u2}[p.kind]
    return prepare(*vars(p).values(), route)


def bessel(kind, m, z):
    """Bessel-family wrapper: kind in {I, J, K, H1, H2}, integer order m.

    Compositions of F_m and D_m at w = z^2/4:

        I_m(z)  = (z/2)^m  F_m(w)
        J_m(z)  = (z/2)^m  F_m(-w)
        K_m(z)  = (-1)^(m+1)/2 (z/2)^m (log w * F_m(w) + D_m(w))
        H1_m(z) = +(i/pi) (z/2)^m ((log w - i pi) F_m(-w) + D_m(-w))
        H2_m(z) = -(i/pi) (z/2)^m ((log w + i pi) F_m(-w) + D_m(-w))

    The Hankel pair carries the rotated argument e^(∓ i pi) w as the exact
    phase -w together with the explicit ∓ i pi in the logarithm, so that
    H1 + H2 = 2 J identically.
    """
    if not cmath.isfinite(m):
        raise DomainError(f"bessel order m must be finite, got m = {m}")
    if m != int(m):
        raise ValueError(f"bessel order must be an integer, got {m}")
    m = int(m)
    z = complex(z)
    w = z * z / 4.0
    half_pow = principal_pow(z / 2.0, m)
    p = F0(m)

    if kind == "I":
        return f_norm(p, w).scaled(half_pow)
    if kind == "J":
        return f_norm(p, -w).scaled(half_pow)
    if kind == "K":
        inner = log_solution(p, w)
        return inner.scaled((-1.0) ** (m + 1) / 2.0 * half_pow)
    if kind in ("H1", "H2"):
        sign = 1.0 if kind == "H1" else -1.0
        ell = principal_log(w) - sign * 1j * math.pi
        inner = log_combo(ell, f_norm(p, -w), d_eval(p, -w))
        return inner.scaled(sign * 1j / math.pi * half_pow)
    raise ValueError(f"unknown Bessel kind {kind!r}")
