"""Infinity-normalized solutions and the Bessel-family wrappers.

Three evaluation routes are offered for each U:

  Connection    generic alpha: the two power-behaved solutions combined
                with reciprocal sine and Gamma weights; unusable near
                integer alpha where sin(pi alpha) cancellation explodes.
  LogPlusD      integer alpha = m: prefactor * (log z * F_m + D_m)
                (log(-z) for 2F1), the series of dfun.log_solution at
                every z, the closed degenerate form; the canonical route
                at integers.
                The prefactor, 1/Gamma(a - c + 1) (DLMF 13.2.9), vanishes
                only where D is undefined: the singular set is D's.
  Asymptotic2F0 the expansion about infinity (optimally truncated 2F0
                for 0F1/1F1, the defining 1/z series for 2F1).

Routes agree within combined error estimates wherever they overlap;
the error estimates include an explicit cancellation floor because all
of these formulas subtract large intermediates.

Without a route, u0 and u1 take Asymptotic2F0 at every point where the
far rule keeps it: ffun._far, stated in ffun's docstring, which bessel's
K and the prepared log solution of dfun read too (its two radii are
imported here for callers alone).  Every other point takes the route
alpha picks.  Forced routes are taken as given at every z.

As F and D in ffun and dfun, U takes the parameter set F0, F1 or F2 of
its kind: u0(alpha, z, route) is prepare_u(F0(alpha), route)(z), and
u1 and u2 likewise.  Its door, ffun._params, snaps an alpha within
DEGENERACY_TOL of m to m for every route.  prepare_u sets up the route,
the series of its F and D and its Gamma weights once per parameter set,
and holds the point rule of all three kinds: it returns the closure of
p's kind, so no kind is tested at a point.  Weights that a lone call
takes only after its series are taken at the first point that gets that
far, and a route the point rule picks is built at the first point that
takes it.  The routes compose raw jets (ffun._f_jet, dfun._log_jet), so
z and the result are checked once, by the closure (series).  Public
functions may be called from any thread; a prepared callable belongs to
the thread that made it.
"""

import cmath
import functools
import math
import operator
import sys
from enum import Enum

from .dfun import (_SQRT_PI, _complexed, _d_params, _log_jet, _log_prefactor, _prefactor_gammas,
                   d_eval, d_expand)
from .errors import (
    BranchCut,
    DomainError,
    HyperdError,
    PoleAtOrigin,
    RouteInapplicable,
)
from .ffun import (
    DEGENERACY_TOL,
    F2_SERIES_RADIUS,
    U0_FAR_RADIUS,
    U1_FAR_RADIUS,
    F0,
    F1,
    F2,
    _asymptotic_2f0,
    _f_jet,
    _far,
    _named,
    _params,
    _reflected,
    f_norm,
)
from .gammakit import _GAMMA_REL_ERR, _axis_gamma, recip_gamma, sinpi
from .series import (
    EvalResult,
    _checked,
    _kept,
    _point,
    _result,
    log_combo,
    log_negated,
    principal_log,
    principal_pow,
    sum_power_series,
)

_EPS = sys.float_info.epsilon

# Connection is refused closer to an integer than this; the theorems
# exist precisely to cover that band
CONNECTION_INT_BAND = 1e-6


class URoute(Enum):
    CONNECTION = "Connection"
    LOG_PLUS_D = "LogPlusD"
    ASYMPTOTIC_2F0 = "Asymptotic2F0"


def _build_route(p, route):
    """The callable of route at p, or without a route of the one alpha
    picks: LogPlusD at integers, Connection away from them, none in the
    band between.  A given LogPlusD needs an integer alpha, a given
    Connection one outside the band."""
    alpha = p.alpha
    integer = type(alpha) is int
    generic = abs(alpha - round(alpha.real)) > CONNECTION_INT_BAND
    if route is None and (integer or generic):
        route = URoute.LOG_PLUS_D if integer else URoute.CONNECTION
    if route is None:
        raise RouteInapplicable(f"alpha = {alpha} sits between the integer band ({DEGENERACY_TOL}) "
                                f"and the connection band ({CONNECTION_INT_BAND}); no route applies")
    if route is URoute.LOG_PLUS_D and not integer:
        raise RouteInapplicable(f"LogPlusD requires integer alpha, got {alpha}")
    if route is URoute.CONNECTION and not generic:
        raise RouteInapplicable(f"Connection requires alpha further than {CONNECTION_INT_BAND} "
                                f"from integers, got {alpha}")
    return _ROUTES[route](p)


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


def _connection_terms(p):
    """(c, t1, t2) of the Connection formula U = c (t1 - t2) / sin(pi alpha)
    at p, a term (x, gammas, q, s) standing for x^(-alpha) prod 1/Gamma(g)
    F_q over (g, dg/dalpha) in gammas, x = z (1), -z (-1) or none (0), and
    q = p (s = 1) or its reflection (s = -1).  The route evaluates it
    (_connection), and oracle.limit_alpha differentiates it in alpha."""
    a, r = p.alpha, _reflected(p)
    if p.kind == "0f1":
        return _SQRT_PI, (1, (), r, -1), (0, (), p, 1)
    if p.kind == "1f1":
        th = p.theta
        return math.pi, (1, [((1 + th + a) / 2, 0.5)], r, -1), (0, [((1 + th - a) / 2, -0.5)], p, 1)
    b, mu = p.beta, p.mu
    return (-math.pi, (0, [((1 - a - b - mu) / 2, -0.5), ((1 - a + b - mu) / 2, -0.5)], p, 1),
            (-1, [((1 + a + b - mu) / 2, 0.5), ((1 + a - b - mu) / 2, 0.5)], r, -1))


def _connection(p):
    """The Connection route: c (t1 - t2) / sin(pi alpha) of the term table
    (_connection_terms), read once here.  At each point F is summed at p,
    then at its reflection, then x^(-alpha) is taken, then the Gamma
    weights, kept from the first point that gets that far.  A term takes
    only the factors it has, in the table's order, which fixes the rounding
    and the signs of zero; its error |x^(-alpha) w| err is |x^(-alpha)|
    (|w| err) where x^(-alpha) w overflows.  DomainError where sin(pi alpha)
    overflows (|Im alpha| > ~226).  alpha is outside the band (_build_route)."""
    alpha = p.alpha
    c, *table = _connection_terms(p)
    jets = {sign: _f_jet(q) for _, _, q, sign in table}
    power = principal_pow if max(x for x, *_ in table) > 0 else _negated_pow
    weights = []
    try:
        s = sinpi(alpha)
    except OverflowError:
        raise DomainError(f"sin(pi alpha) of the Connection route overflows a double "
                          f"at alpha = {alpha}") from None
    abs_s = abs(s)

    def u_at(z):
        fn, fr = jets[1](z, 0)[0], jets[-1](z, 0)[0]
        pw = power(z, -alpha)
        # the product of each term's 1/Gamma, None for a term without one
        ws = _kept(weights, lambda: [functools.reduce(operator.mul, [recip_gamma(g) for g, _ in gs])
                                     if gs else None for _, gs, _, _ in table])
        terms = []
        for (x, _, _, sign), w in zip(table, ws):
            t, e = (fn if sign > 0 else fr)[:2]  # value, err_estimate
            if x and w is not None:
                pww = pw * w
                t, e = pw * t * w, abs(pww) * e if cmath.isfinite(pww) else abs(pw) * (abs(w) * e)
            elif x:
                t, e = pw * t, abs(pw) * e
            elif w is not None:
                t, e = t * w, abs(w) * e
            terms.append((t, e))
        (t1, e1), (t2, e2) = terms
        err = abs(c) / abs_s * (e1 + e2) + _EPS * abs(c) / abs_s * (abs(t1) + abs(t2))
        return _result((c * (t1 - t2) / s, err, fn.terms_used + fr.terms_used, fn.flags | fr.flags))

    return u_at


def _log_form(p):
    """The LogPlusD route: z -> prefactor * (log z F + D) at m = alpha, the
    series of dfun._log_jet at every z, and at m < 0 the U at |m| times
    h^|m|, h = z (1F1) or -z (2F1), with h^|m| folded into D's principal
    part (_folded) where that raises DomainError; the error stands where
    the folded value overflows too.  The prefactor (dfun._log_prefactor)
    is taken after the solution, at the first point whose solution
    succeeds, and kept.  Of its 1/Gamma factors, one for 1F1 and two for
    2F1, each that math.gamma answers (a real argument, gammakit._axis_gamma)
    is within _GAMMA_REL_ERR of the true value, and the estimate adds that
    much of |U| for each; the error of a 1/Gamma of the complex path is not
    bounded here and not counted.  alpha is the snapped m; _d_params rules
    on p."""
    shift = p.alpha < 0 and p.kind != "0f1"
    p = p._replace(alpha=-p.alpha) if shift else p
    m = p.alpha
    w = _log_jet(_d_params(p))
    prefactor = _log_prefactor(p)
    pref = []
    rel = _GAMMA_REL_ERR * sum(_axis_gamma(complex(q)) is not None for q in _prefactor_gammas(p))

    def with_gammas(r):
        v, err, terms, flags = r
        return _result((v, err + rel * abs(v), terms, flags))

    if not shift:
        return lambda z: with_gammas(w(z, 0)[0].scaled(_kept(pref, prefactor)))
    flip = -1.0 if p.kind == "2f1" else 1.0

    def u_at(z):
        h = -z if flip < 0 else z
        try:
            return _checked(with_gammas(w(z, 0)[0].scaled(_kept(pref, prefactor))
                                        .scaled(principal_pow(h, m))), z)
        except DomainError as exc:
            ell = log_negated(z) if flip < 0 else principal_log(z)
            return with_gammas(_folded(p, z, ell, f_norm(p, z), _kept(pref, prefactor), h, 1, flip,
                                       exc))

    return u_at


def _asymptotic(p):
    """The Asymptotic2F0 route: the 2F0 expansion of ffun._asymptotic_2f0
    for 0F1 and 1F1, and for the 2F1 kind the 2F1 series in 1/z times
    (-z)^e, whose image set ffun._params snaps.  An error raised at the
    expansion variable names z (ffun._named)."""
    if p.kind != "2f1":
        return _asymptotic_2f0(p)
    alpha = p.alpha
    f = _f_jet(_params(F2(alpha=-p.mu, beta=p.beta, mu=-alpha)))
    e = (-1 - alpha - p.beta + p.mu) / 2

    def u_at(z):
        if abs(z) < 1.0 / F2_SERIES_RADIUS:
            raise DomainError(
                f"1/z series requires |1/z| <= {F2_SERIES_RADIUS}, "
                f"got |z| = {abs(z)!r} at z = {z!r}"
            )
        pref, w = _negated_pow(z, e), 1.0 / z
        try:
            return f(w, 0)[0].scaled(pref)
        except HyperdError as exc:
            raise _named(exc, z, (w,), pref) from None

    return u_at


_ROUTES = {URoute.CONNECTION: _connection, URoute.LOG_PLUS_D: _log_form,
           URoute.ASYMPTOTIC_2F0: _asymptotic}


def prepare_u(p, route=None):
    """The callable z -> U at the parameter set p (F0, F1 or F2) and z.

    route is a URoute or its value.  A given route is taken at every z,
    as series._point(z) so that its errors name z as the point rules' do;
    the 0F1 and 1F1 kinds build it here.  Without one, the point rule of
    p's kind, one closure each, picks the route at each z:

    - 0F1 and 1F1: a point where the far rule (ffun._far) keeps U's
      expansion about infinity takes Asymptotic2F0; every other point
      takes the route alpha picks.
    - 2F1, whose U is cut on [0, inf): the route alpha picks for |z| <=
      F2_SERIES_RADIUS and the 1/z series beyond, which raises
      DomainError unless |1/z| <= F2_SERIES_RADIUS.  A given route is
      taken at every point off the cut.

    A route is built at the first point that takes it, after the checks
    of that point: a far point does not raise the faults of the route
    alpha picks (an alpha in the gap band, a singular D), nor a
    2F1 point on the cut, which raises BranchCut.
    """
    p = _complexed(_params(p))
    route = None if route is None else URoute(route)
    chosen = []  # the given or alpha-picked route
    if p.kind != "2f1":
        if route is not None:
            given = _build_route(p, route)
            return lambda z: _checked(given(_point(z)), z)
        far = _far(p)

        def u_at(z):
            z = _point(z)
            r = far(z)
            return _checked(r if r is not None else _kept(chosen, _build_route, p, None)(z), z)

        return u_at
    outer = []  # the 1/z series

    def u2_at(z):
        z = _point(z)
        if z.imag == 0.0 and z.real >= 0.0:
            raise BranchCut(f"2f1 U is cut on [0, inf), got z = {z}")
        if route is None and abs(z) > F2_SERIES_RADIUS:
            return _checked(_kept(outer, _asymptotic, p)(z), z)
        return _checked(_kept(chosen, _build_route, p, route)(z), z)

    return u2_at


def u0(alpha, z, route=None):
    """U_alpha(z): the solution with e^(-2 sqrt z) decay, cut on (-inf, 0].

    prepare_u(F0(alpha), route)(z).
    """
    return prepare_u(F0(alpha), route)(z)


def u1(theta, alpha, z, route=None):
    """Tricomi-type U_{theta,alpha}(z), cut on (-inf, 0].

    prepare_u(F1(theta, alpha), route)(z).
    """
    return prepare_u(F1(theta, alpha), route)(z)


def u2(alpha, beta, mu, z, route=None):
    """The 2F1-kind U function, cut on [0, inf).

    prepare_u(F2(alpha, beta, mu), route)(z).
    """
    return prepare_u(F2(alpha, beta, mu), route)(z)


def bessel(kind, m, z):
    """Bessel-family wrapper: kind in {I, J, K, H1, H2}, integer order m.

    Compositions of F_m and D_m at w = z^2/4:

        I_m(z)  = (z/2)^m  F_m(w)
        J_m(z)  = (z/2)^m  F_m(-w)
        K_m(z)  = (-1)^(m+1)/2 (z/2)^m (log w * F_m(w) + D_m(w))
                = (sqrt(pi)/2) (z/2)^m U_m(w)
        H1_m(z) = +(i/pi) (z/2)^m ((log w - i pi) F_m(-w) + D_m(-w))
        H2_m(z) = -(i/pi) (z/2)^m ((log w + i pi) F_m(-w) + D_m(-w))

    log w is taken on the sheet of z, as 2 log(z/2), cut where z is on
    (-inf, 0].  Where Re z > 0 and |w| is at least the smallest normal
    double the principal log w is the same, and is taken; below that w
    has lost its low bits or underflowed to 0.  K takes the second form
    where the principal log w is taken and the far rule (ffun._far) keeps
    u0's Asymptotic2F0 value at w; the log form cancels there, as for U.
    The Hankel pair carries the rotated argument e^(∓ i pi) w as the
    exact phase -w together with the explicit ∓ i pi in the logarithm,
    so that H1 + H2 = 2 J identically.  Where D's principal part
    overflows a double at ±w (m >= 1 and |w| < 1, as K_1 at |z| below
    about 1e-154) or w is 0, K and the Hankel pair fold (z/2)^m into that
    part term by term (_folded); every other point keeps the forms above.
    An error raised at w, -w or z/2 names z (ffun._named).
    """
    if not cmath.isfinite(m):
        raise DomainError(f"bessel order m must be finite, got m = {m}")
    if m != int(m):
        raise ValueError(f"bessel order must be an integer, got {m}")
    z = _point(z)
    try:
        return _checked(_bessel(kind, int(m), z), z)
    except HyperdError as exc:
        w = z * z / 4.0
        raise _named(exc, z, (w, -w, z / 2.0)) from None


def _bessel(kind, m, z):
    # bessel at an integer m and a finite complex z
    w = z * z / 4.0
    half_pow = principal_pow(z / 2.0, m)
    p = F0(m)
    if kind == "I":
        return f_norm(p, w).scaled(half_pow)
    if kind == "J":
        return f_norm(p, -w).scaled(half_pow)
    if kind not in ("K", "H1", "H2"):
        raise ValueError(f"unknown Bessel kind {kind!r}")
    if z.real <= 0.0 or abs(w) < sys.float_info.min:
        ell = 2.0 * principal_log(z / 2.0)
    else:
        ell = principal_log(w)
        far = _far(p)(w) if kind == "K" else None
        if far is not None:
            return far.scaled(_SQRT_PI / 2.0 * half_pow)
    if kind == "K":
        scale, v, ell_v = (-1.0) ** (m + 1) / 2.0, w, ell
    else:
        sign = 1.0 if kind == "H1" else -1.0
        scale, v, ell_v = sign * 1j / math.pi, -w, ell - sign * 1j * math.pi
    f = f_norm(p, v)
    try:
        d = d_eval(p, v)
    except (DomainError, PoleAtOrigin):
        # at |w| < 1 only the principal part of D at m >= 1 overflows, or v
        # is 0: its terms d_{-k} v^-k grow past a double before (z/2)^m
        # brings them back into range
        if abs(w) >= 1.0:
            raise
        return _folded(p, v, ell_v, f, scale, z / 2.0, 2, 1.0 if kind == "K" else -1.0,
                       DomainError(f"bessel of order m = {m} overflows a double at z = {z}"))
    return log_combo(ell_v, f, d).scaled(scale * half_pow)


def _folded(p, v, ell, f, scale, h, step, flip, overflow):
    """scale h^m (ell F + D) at v = flip h^step, flip = +-1, p at an order
    m >= 1, F the result f: D's tail is summed at v and h^m folded into its
    principal part term by term, h^m d_{-k} v^-k = d_{-k} flip^k h^(m-step k),
    which stays in range where v^-k does not; eps times the sum of those
    terms' magnitudes joins the error.  overflow is raised where a term or
    the value overflows a double."""
    m = p.alpha
    exp = d_expand(p)
    r = log_combo(ell, f, sum_power_series(exp.tail_coeff(), v)).scaled(scale * principal_pow(h, m))
    try:
        terms = [c * flip ** k * principal_pow(h, m - step * k)
                 for k, c in enumerate(exp.principal, 1)]
    except DomainError:
        raise overflow from None
    head = scale * sum(terms)
    value = r.value + head
    if not cmath.isfinite(value):
        raise overflow
    err = r.err_estimate + _EPS * (abs(scale) * sum(map(abs, terms)) + abs(r.value) + abs(head))
    return EvalResult(value, err, r.terms_used, r.flags)
