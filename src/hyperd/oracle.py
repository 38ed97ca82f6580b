"""Independent verification machinery.

Nothing in here is used by the evaluators themselves.  The point is to
check them against constructions that share as little code as possible:
ODE residuals (with finite differences as a fallback derivative route),
inhomogeneous-equation residuals for the logarithmic companions, and the
paper's own construction of the degenerate case, de l'Hospital's rule.
One stream, _alpha_deriv, gives the alpha-derivative of F for every
kind.  limit_alpha differentiates the Connection formula of U at the
integer m with it, and d_from_alpha_derivative builds the 0F1 companion
D from the derivatives at m and -m.  limit_alpha shares one piece on
purpose, the route's term table (ufun._connection_terms): the theorem
is about the formula the route evaluates, and a copy would be checked
in its place.
"""

import itertools
import math
from typing import NamedTuple

from .errors import DomainError, Inapplicable, PoleAtOrigin
from .ffun import F0, MAX_ORDER, _check_order, _params, _reflected, _seed, prepare_f_norm
from .gammakit import digamma, near_nonpositive_int, recip_gamma
from .series import (_EPS, _checked, _kept, _linear, _point, _replay, log_negated,
                     principal_log, principal_pow, sum_power_series)
from .dfun import _d_params, prepare_d_eval
from . import ufun

__all__ = [
    "ResidualReport",
    "ode_residual",
    "inhom_residual",
    "limit_alpha",
    "alpha_derivative",
    "d_from_alpha_derivative",
]

_FD_SCALE = 1e-4


class ResidualReport(NamedTuple):
    """Outcome of a residual check.

    method is SeriesDeriv (derivatives came from term-by-term
    differentiated series) or FiniteDiff (5-point stencils, step
    recorded).  detail maps names to the values behind the residual;
    every report of this module passes its own dict, and the default is
    None, not a dict every report would share.
    """

    residual: float
    method: str
    step: float | None = None
    detail: dict | None = None


def _operator(p, z, f0, f1, f2):
    """Apply the equation's differential operator to a 2-jet at z."""
    if p.kind == "0f1":
        return z * f2 + (p.alpha + 1.0) * f1 - f0
    if p.kind == "1f1":
        return z * f2 + (1.0 + p.alpha - z) * f1 - 0.5 * (1.0 + p.theta + p.alpha) * f0
    if p.kind == "2f1":
        a1 = p.alpha + 1.0
        b1 = p.beta + 1.0
        lam = 0.25 * p.mu ** 2 - 0.25 * (p.alpha + p.beta + 1.0) ** 2
        return z * (1.0 - z) * f2 + (a1 * (1.0 - z) - b1 * z) * f1 + lam * f0
    raise DomainError("unknown equation kind %r" % (p.kind,))


def _fd_jet(f, z, h):
    """5-point central first and second derivatives."""
    fp2 = f(z + 2 * h)
    fp1 = f(z + h)
    f0 = f(z)
    fm1 = f(z - h)
    fm2 = f(z - 2 * h)
    f1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    f2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return f0, f1, f2


def ode_residual(f, p, z):
    """|F f|(z) for the homogeneous operator of p's equation.

    f either carries a .jet(z, order) method, as every prepared evaluator
    of ffun and dfun does, whose f.jet(z, 2) gives (f, f', f'') as
    results with a .value (series-derivative route), or is a plain
    callable of z returning a complex, in which case 5-point finite
    differences with step 1e-4 * max(1, |z|) supply the derivatives.
    """
    z = complex(z)
    if hasattr(f, "jet"):
        method, h, jet = "SeriesDeriv", None, [r.value for r in f.jet(z, 2)]
    else:
        h = _FD_SCALE * max(1.0, abs(z))
        method, jet = "FiniteDiff", _fd_jet(f, z, h)
    lhs = _operator(p, z, *jet)
    return ResidualReport(residual=abs(lhs), method=method, step=h,
                          detail={"value": lhs})


def _inhom_rhs(p, z, f0, f1):
    """Right side of the inhomogeneous equation satisfied by D.

    The forcing is built from the normalized solution at the same
    parameters.  Valid for all integer m in the 0F1 family and for
    m >= 0 in the other two (for negative m the companions are defined
    by the z^m shift, which rescales the forcing by the degenerate
    proportionality constant); inhom_residual refuses the rest.
    """
    m = float(p.alpha)
    if p.kind == "0f1":
        return -(m / z) * f0 - 2.0 * f1
    if p.kind == "1f1":
        return (1.0 - m / z) * f0 - 2.0 * f1
    # a + b = 1 + m + beta
    return (1.0 + m + p.beta - m / z) * f0 + 2.0 * (z - 1.0) * f1


def inhom_residual(p, z):
    """|F(D) - RHS| at z for the D of p, at alpha = m, both sides via
    series derivatives; Inapplicable for m < 0 in the 1f1 and 2f1 kinds,
    where the forcing does not hold."""
    p = _d_params(_params(p))
    if p.alpha < 0 and p.kind != "0f1":
        raise Inapplicable(
            f"the {p.kind} inhomogeneous equation holds for m >= 0, got m = {p.alpha}")
    z = complex(z)
    d0, d1, d2 = (r.value for r in prepare_d_eval(p).jet(z, 2))
    g0, g1 = (r.value for r in prepare_f_norm(p).jet(z, 1))
    lhs = _operator(p, z, d0, d1, d2)
    rhs = _inhom_rhs(p, z, g0, g1)
    return ResidualReport(residual=abs(lhs - rhs), method="SeriesDeriv",
                          detail={"lhs": lhs, "rhs": rhs})


def _d_recip_gamma(w, rg):
    """d/dw 1/Gamma(w), rg = 1/Gamma(w): -psi(w) rg, and its limit
    (-1)^k k! at a pole w = -k, DomainError past k = MAX_ORDER."""
    k = near_nonpositive_int(w)
    if k is not None:
        if -k > MAX_ORDER:
            raise DomainError(f"(1/Gamma)'(w) = (-1)^k k! overflows a double at the pole w = {w}")
        return complex((-1) ** k * math.factorial(-k))
    return -digamma(w) * rg


def _alpha_deriv(p):
    """The coefficients of z^n of d/dalpha of F at the checked set p, each
    classical upper u moving by 1/2 per unit of alpha: F's coefficient is
    P_n / Gamma(w), P_n = prod (u)_n / n!, w = alpha + 1 + n, so this is
    P_n' / Gamma(w) + P_n (1/Gamma)'(w) (_d_recip_gamma).  P_n and P_n'
    advance by the product rule, 1/Gamma and psi from the first w that is
    not a pole by 1/Gamma(w+1) = 1/(w Gamma(w)), psi(w+1) = psi(w) + 1/w.
    """
    if type(p.alpha) is int:
        _check_order(p.alpha)
    *upper, _ = p.to_classical()
    upper = [complex(u) for u in upper]
    w, n, pn, dpn = complex(p.alpha) + 1, 0, 1 + 0j, 0j
    rg = psi = None
    while True:
        if rg is not None:
            yield (dpn - pn * psi) * rg
            rg, psi = rg / w, psi + 1 / w
        elif near_nonpositive_int(w) is not None:
            yield pn * _d_recip_gamma(w, 0j)
        else:
            rg, psi = recip_gamma(w), digamma(w)
            continue
        q, dq = 1.0, 0.0
        for u in upper:
            q, dq = q * (u + n), dq * (u + n) + 0.5 * q
        n, w = n + 1, w + 1
        pn, dpn = pn * q / n, (dpn * q + pn * dq) / n


def _summed(coeffs, z, start=0):
    """sum_power_series(coeffs, z, start=start), its error estimate raised
    by eps times the sum of its terms' magnitudes, the rounding of a sum
    whose terms cancel."""
    terms, mags = itertools.tee(coeffs)
    r = sum_power_series(terms, z, start=start)
    mag = sum_power_series(map(abs, mags), abs(z), start=start).value.real
    return r._replace(err_estimate=r.err_estimate + _EPS * mag)


def limit_alpha(p, z):
    """U at the parameter set p, alpha within DEGENERACY_TOL of an integer
    m, as the alpha -> m limit of the Connection route, taken by de
    l'Hospital's rule as the paper takes it.

    The route's U = c (t1 - t2) / sin(pi alpha), over the table it reads
    (ufun._connection_terms), is 0/0 at m, where sin(pi alpha) has the
    slope pi (-1)^m, so U_m = c (-1)^m / pi d/dalpha (t1 - t2).  A term
    x^(-alpha) G F_q has the derivative x^(-alpha) ((G' - G log x) F_q +
    s G dF_q), with F_q and dF_q the series of ffun._seed and _alpha_deriv
    at q (_summed), and series._linear sums these, so the error estimate
    carries the truncation and rounding of each.
    """
    return _prepare_limit_alpha(p)(z)


def _prepare_limit_alpha(p):
    """limit_alpha at the parameter set p as a callable of z, for the
    points of one set.  Each term's Gamma weights and its two streams, F
    and dF at q, replayed (series._replay), are built at the first point
    that reaches them and kept, so a later point sums the kept
    coefficients with the same operations.  A term whose sums raised is
    built anew at the next point: a stream that raised would replay cut
    short."""
    p = _params(p)
    m = p.alpha
    if type(m) is not int:
        raise DomainError(f"limit_alpha needs integer m, got alpha={m!r}")
    c, t1, t2 = ufun._connection_terms(p)
    k = c * (-1) ** m / math.pi
    table = ((k, t1, []), (-k, t2, []))

    def at(z):
        z = _point(z)
        parts = []
        for sign, (x, gammas, q, s), box in table:
            ell, pw = 0.0, 1.0
            if x:
                ell = principal_log(z) if x > 0 else log_negated(z)
                pw = principal_pow(x * z, -m)
            g, dg, n0, f, df = _kept(box, _limit_term, gammas, q)
            try:
                parts += [(sign * pw * (dg - g * ell), _summed(f(), z, n0)),
                          (sign * pw * s * g, _summed(df(), z))]
            except BaseException:
                box.clear()
                raise
        return _checked(_linear(parts), z)

    return at


def _limit_term(gammas, q):
    # the weight g = prod 1/Gamma(arg) of a Connection term over its
    # gammas, its alpha-derivative dg, and the replayed streams of F and
    # dF at q: (g, dg, start of F, F, dF)
    g, dg = 1.0, 0.0
    for arg, slope in gammas:
        rg = recip_gamma(arg)
        g, dg = g * rg, dg * rg + g * slope * _d_recip_gamma(arg, rg)
    n0, f = _seed(q)
    return g, dg, n0, f, _replay(_alpha_deriv(q))


def alpha_derivative(alpha, z):
    """d/dalpha of the normalized 0F1 solution F_alpha at z: the
    _alpha_deriv stream of F0(alpha) summed at z, which is
    -sum_j psi(alpha+j+1) z^j / (Gamma(alpha+j+1) j!), its pole terms at
    their finite limits."""
    p = _params(F0(alpha))
    z = _point(z)
    return _checked(_summed(_alpha_deriv(p), z), z)


def d_from_alpha_derivative(m, z):
    """0F1 companion reconstructed from the two parameter derivatives.

    D_m(z) = d/d(alpha) F_alpha(z) at alpha = m, plus z^(-m) times the
    same derivative at alpha = -m.  This is how the companion arises in
    the de l'Hospital limit, and it shares no code with the direct
    expansion, so it serves as an oracle for d_eval.  m passes the door
    of D (ffun._params, dfun._d_params), z that of a point.
    """
    p = _d_params(_params(F0(m)))
    z = _point(z)
    if p.alpha > 0 and z == 0:
        raise PoleAtOrigin(f"D with m = {p.alpha} has a pole at z = 0")
    a, b = (_summed(_alpha_deriv(q), z) for q in (p, _reflected(p)))
    return _checked(_linear([(1.0, a), (principal_pow(z, -p.alpha), b)]), z)
