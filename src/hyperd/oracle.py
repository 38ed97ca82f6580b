"""Independent verification machinery.

Nothing in here is used by the evaluators themselves.  The point is to
check them against constructions that share as little code as possible:
ODE residuals (with finite differences as a fallback derivative route),
inhomogeneous-equation residuals for the logarithmic companions,
Richardson extrapolation of the generic-parameter connection formulas
into the integer limit, and the psi-weighted series for the parameter
derivative of the normalized 0F1 solution.
"""

import math
from typing import NamedTuple

from .errors import (DomainError, ExtrapolationUnstable, Inapplicable,
                     PoleAtOrigin, RoutesDisagree)
from .ffun import F0, _params, f_norm, prepare_f_norm
from .gammakit import digamma, near_nonpositive_int, recip_gamma
from .series import EvalResult, principal_pow, sum_power_series
from .dfun import _d_params, prepare_d_eval
from .ufun import URoute, prepare_u

__all__ = [
    "ResidualReport",
    "ode_residual",
    "inhom_residual",
    "limit_alpha",
    "alpha_derivative",
    "d_from_alpha_derivative",
]

# Richardson ladder for limit_alpha: 4 levels, ratio 2.
_LADDER = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

# Rounding floor for the contraction test: below this the increments are
# dominated by cancellation noise, not by the h-expansion.
_EXTRAP_FLOOR = 1e-13

_FD_SCALE = 1e-4

# scaled gap allowed between the two routes of alpha_derivative
_ROUTES_TOL = 1e-6

# the central-difference step in alpha of alpha_derivative
_FD_STEP = 1e-5


class ResidualReport(NamedTuple):
    """Outcome of a residual check.

    method is one of SeriesDeriv (derivatives came from term-by-term
    differentiated series), FiniteDiff (5-point stencils, step recorded),
    Richardson (extrapolation metadata in detail).  detail maps names to
    the values behind the residual; every report of this module passes
    its own dict, and the default is None, not a dict every report would
    share.
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


def limit_alpha(p, z):
    """U at the parameters p, at alpha within DEGENERACY_TOL of an integer
    m, via extrapolation of the generic formula.

    Evaluates the connection route at alpha = m + h down the ladder
    h = 1e-2, 5e-3, 2.5e-3, 1.25e-3 and Neville-extrapolates to h = 0.
    The combination is analytic in alpha near the integer, so the
    diagonal increments must contract by at least 2x per level (up to a
    rounding floor); anything slower means a wrong constituent and is
    reported as ExtrapolationUnstable rather than averaged away.
    _prepare_limit_alpha(p)(z).
    """
    return _prepare_limit_alpha(p)(z)


def _prepare_limit_alpha(p):
    """The callable z -> limit_alpha(p, z), with the Connection route at
    each alpha = m + h of the ladder prepared once."""
    p = _params(p)
    if type(p.alpha) is not int:
        raise DomainError(f"limit_alpha needs integer m, got alpha={p.alpha!r}")
    hs = _LADDER
    us = [prepare_u(p._replace(alpha=p.alpha + h), URoute.CONNECTION) for h in hs]

    def at(z):
        z = complex(z)
        rows = [[u(z).value] for u in us]
        # Neville tableau evaluated at h = 0
        for j in range(1, len(hs)):
            for i in range(len(hs) - 1, j - 1, -1):
                num = hs[i] * rows[i - 1][j - 1] - hs[i - j] * rows[i][j - 1]
                rows[i].append(num / (hs[i] - hs[i - j]))
        diag = [rows[i][i] for i in range(len(hs))]
        value = diag[-1]
        floor = _EXTRAP_FLOOR * max(1.0, abs(value))
        incs = [abs(diag[i + 1] - diag[i]) for i in range(len(diag) - 1)]
        for a, b in zip(incs, incs[1:]):
            if b > floor and b > 0.5 * a:
                raise ExtrapolationUnstable(
                    "limit_alpha increments fail 2x contraction: %r" % (incs,))
        err = max(incs[-1], floor)
        return EvalResult(value=value, err_estimate=err,
                          terms_used=len(hs), flags=frozenset())

    return at


def _alpha_deriv_coeff(alpha, j):
    """Coefficient of z^j in d/d(alpha) of the normalized 0F1 solution.

    -psi(w)/Gamma(w) at w = alpha + j + 1, with the finite limit
    (-1)^(n+1) n! substituted when w sits at a pole -n.
    """
    w = alpha + j + 1.0
    if near_nonpositive_int(w) is not None:
        n = -near_nonpositive_int(w)  # pole index: w = -n
        val = (-1.0) ** (n + 1) * math.factorial(n)
    else:
        val = digamma(w) * recip_gamma(w)
    return -val / math.factorial(j)


def alpha_derivative(alpha, z):
    """d/d(alpha) of the normalized 0F1 solution, two independent ways.

    Series route: -sum_j psi(alpha+j+1) z^j / (Gamma(alpha+j+1) j!),
    with pole terms replaced by their finite limits.  Cross-checked
    against a central difference in alpha, step _FD_STEP, of the plain
    evaluator; a disagreement beyond _ROUTES_TOL (scaled) raises
    RoutesDisagree.
    Returns the series-route value.
    """
    z = complex(z)
    alpha = complex(alpha)

    def gen():
        j = 0
        while True:
            yield complex(_alpha_deriv_coeff(alpha, j))
            j += 1

    res = sum_power_series(gen(), z)
    plus = f_norm(F0(alpha=alpha + _FD_STEP), z).value
    minus = f_norm(F0(alpha=alpha - _FD_STEP), z).value
    fd = (plus - minus) / (2.0 * _FD_STEP)
    gap = abs(res.value - fd)
    scale = max(1.0, abs(res.value))
    if gap > _ROUTES_TOL * scale:
        raise RoutesDisagree(
            "alpha_derivative series %r vs finite difference %r" %
            (res.value, fd))
    return EvalResult(value=res.value,
                      err_estimate=max(res.err_estimate, gap),
                      terms_used=res.terms_used, flags=res.flags)


def d_from_alpha_derivative(m, z):
    """0F1 companion reconstructed from the two parameter derivatives.

    D_m(z) = d/d(alpha) F_alpha(z) at alpha = m, plus z^(-m) times the
    same derivative at alpha = -m.  This is how the companion arises in
    the de l'Hospital limit, and it shares no code with the direct
    expansion, so it serves as an oracle for d_eval.
    """
    z = complex(z)
    m = int(m)
    if m > 0 and z == 0:
        raise PoleAtOrigin(f"D with m = {m} has a pole at z = 0")
    a = alpha_derivative(m, z)
    b = alpha_derivative(-m, z)
    value = a.value + principal_pow(z, -m) * b.value
    err = a.err_estimate + abs(z) ** (-m) * b.err_estimate
    return EvalResult(value=value, err_estimate=err,
                      terms_used=a.terms_used + b.terms_used,
                      flags=a.flags | b.flags)
