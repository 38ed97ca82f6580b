"""Residual and extrapolation machinery.

These tests drive the verification tools themselves: the tools get
pointed at known-good evaluators (residuals must vanish), at known-bad
inputs (residuals must be O(1)), and at deliberately corrupted
constituents (the guards must fire rather than average the damage away).
"""

import math

import pytest

from hyperd import oracle
from hyperd.dfun import d_eval, prepare_log_solution
from hyperd.errors import (DomainError, ExtrapolationUnstable, Inapplicable,
                           PoleAtOrigin, RoutesDisagree)
from hyperd.ffun import (F0, F1, F2, PARAMS_BY_KIND, f_norm, prepare_f_norm,
                         prepare_f_second)
from hyperd.gammakit import EULER_GAMMA, recip_gamma
from hyperd.series import principal_log
from hyperd.ufun import URoute, u0, u1, u2


_GRIDS = {
    "0f1": [complex(0.3, 0.0), complex(1.1, 0.0), complex(0.5, 0.8),
            complex(-0.7, 0.4), complex(2.4, -1.0)],
    "1f1": [complex(0.3, 0.0), complex(1.1, 0.0), complex(0.5, 0.8),
            complex(-0.7, 0.4), complex(2.4, -1.0)],
    "2f1": [complex(0.3, 0.1), complex(-0.45, 0.0), complex(0.2, -0.5),
            complex(-0.3, 0.4), complex(0.55, 0.2)],
}

_PARAMS = {
    "0f1": [F0(alpha=0.6), F0(alpha=-0.35), F0(alpha=2)],
    "1f1": [F1(theta=0.7, alpha=0.6), F1(theta=1.9, alpha=-0.35),
            F1(theta=0.3, alpha=1)],
    "2f1": [F2(alpha=0.6, beta=0.3, mu=0.2),
            F2(alpha=-0.35, beta=0.45, mu=0.1),
            F2(alpha=2, beta=0.3, mu=0.2)],
}


@pytest.mark.parametrize("kind", ["0f1", "1f1", "2f1"])
def test_ode_residual_f_norm(kind):
    for p in _PARAMS[kind]:
        for z in _GRIDS[kind]:
            rep = oracle.ode_residual(prepare_f_norm(p), p, z)
            assert rep.method == "SeriesDeriv"
            assert rep.residual < 1e-12


@pytest.mark.parametrize("kind", ["0f1", "1f1", "2f1"])
def test_ode_residual_f_second(kind):
    for p in _PARAMS[kind]:
        for z in _GRIDS[kind]:
            if z.imag == 0.0 and z.real <= 0.0:
                continue  # z^(-alpha) cut
            rep = oracle.ode_residual(prepare_f_second(p), p, z)
            assert rep.residual < 1e-10


def test_ode_residual_finite_difference_route():
    p = F0(alpha=0.6)
    z = complex(0.4, 0.2)
    rep = oracle.ode_residual(lambda w: f_norm(p, w).value, p, z)
    assert rep.method == "FiniteDiff"
    assert rep.step == 1e-4
    assert rep.residual < 1e-6


def test_ode_residual_detects_a_non_solution():
    # the constant function 1 has residual exactly |0 + 0 - 1| for 0f1
    p = F0(alpha=0.6)
    rep = oracle.ode_residual(lambda w: 1.0 + 0j, p, 0.5)
    assert abs(rep.residual - 1.0) < 1e-9


@pytest.mark.parametrize("kind,m", [("0f1", 0), ("0f1", 2), ("0f1", -2),
                                    ("1f1", 0), ("1f1", 1), ("1f1", 3),
                                    ("2f1", 0), ("2f1", 2)])
def test_inhom_residual_on_validity_domain(kind, m):
    p = {"0f1": F0(m), "1f1": F1(0.7, m), "2f1": F2(m, 0.3, 0.2)}[kind]
    for z in _GRIDS[kind]:
        rep = oracle.inhom_residual(p, z)
        assert rep.residual < 1e-10, (kind, m, z, rep.residual)


def test_inhom_contract_does_not_extend_to_negative_m_confluent():
    # for m < 0 the 1f1/2f1 companions are rescaled by the degenerate
    # proportionality constant, so the m >= 0 forcing does not hold and
    # the residual would read as a failure: the oracle refuses instead
    for p in (F1(0.7, -2), F1(0.7, -1), F2(-2, 0.3, 0.2)):
        with pytest.raises(Inapplicable, match="m >= 0"):
            oracle.inhom_residual(p, complex(0.5, 0.1))
    # the 0f1 forcing holds at every m
    assert oracle.inhom_residual(F0(-2), 0.5 + 0.1j).residual < 1e-14


def test_log_solution_satisfies_homogeneous_equation():
    for kind, p in [("0f1", F0(1)), ("1f1", F1(0.7, 2)), ("2f1", F2(1, 0.3, 0.2))]:
        for z in _GRIDS[kind]:
            if kind != "2f1" and z.imag == 0.0 and z.real <= 0.0:
                continue
            if kind == "2f1" and z.imag == 0.0 and z.real >= 0.0:
                continue
            rep = oracle.ode_residual(prepare_log_solution(p), p, z)
            assert rep.residual < 1e-10


def test_u_functions_satisfy_equations_via_finite_differences():
    rep = oracle.ode_residual(lambda w: u1(0.7, 0.45, w).value,
                              F1(theta=0.7, alpha=0.45), complex(1.3, 0.4))
    assert rep.residual < 1e-6
    rep0 = oracle.ode_residual(lambda w: u0(2.0, w).value,
                               F0(alpha=2), complex(0.9, 0.2))
    assert rep0.residual < 1e-6


@pytest.mark.parametrize("kind,rest,mk_u", [
    ("0f1", {}, lambda m, z: u0(m, z, URoute.LOG_PLUS_D)),
    ("1f1", {"theta": 0.7}, lambda m, z: u1(0.7, m, z, URoute.LOG_PLUS_D)),
    ("2f1", {"beta": 0.3, "mu": 0.2},
     lambda m, z: u2(m, 0.3, 0.2, z, URoute.LOG_PLUS_D)),
])
def test_limit_alpha_reproduces_the_degenerate_values(kind, rest, mk_u):
    z = complex(-0.4, 0.6) if kind == "2f1" else complex(0.7, 0.0)
    for m in (0, 1, 2):
        lim = oracle.limit_alpha(PARAMS_BY_KIND[kind](alpha=m, **rest), z)
        direct = mk_u(m, z).value
        scale = max(1.0, abs(direct))
        assert abs(lim.value - direct) / scale < 1e-9
        assert lim.err_estimate < 1e-6


def test_limit_alpha_guard_fires_on_a_corrupted_constituent(monkeypatch):
    from hyperd.series import EvalResult

    real = oracle._prepare_u

    def spiky(p, route):
        at = real(p, route)

        def u_at(z):
            base = at(z)
            v = base.value
            # one wrong rung: extrapolation must refuse, not average it away
            if abs(float(p.alpha) - 1.005) < 1e-12:
                v = v * (1.0 + 1e-3)
            return EvalResult(v, base.err_estimate, base.terms_used, base.flags)

        return u_at

    monkeypatch.setattr(oracle, "_prepare_u", spiky)
    with pytest.raises(ExtrapolationUnstable):
        oracle.limit_alpha(F0(1), 0.7)


def test_oracles_take_the_parameters_of_f():
    # limit_alpha and inhom_residual take F0/F1/F2 at alpha within
    # DEGENERACY_TOL of m, and refuse what is not a parameter set
    z = complex(0.7, 0.0)
    assert oracle.limit_alpha(F1(0.7, 2 + 1e-11), z) == oracle.limit_alpha(F1(0.7, 2), z)
    assert oracle.inhom_residual(F0(1 - 1e-11), z) == oracle.inhom_residual(F0(1), z)
    for call in (oracle.limit_alpha, oracle.inhom_residual):
        with pytest.raises(DomainError, match="integer m, got alpha=0.5"):
            call(F0(0.5), z)
        with pytest.raises(TypeError):
            call({"alpha": 1}, z)


def test_alpha_derivative_at_origin():
    # F_alpha(0) = 1/Gamma(alpha+1), so the derivative at alpha = 0 is
    # -psi(1) = gamma
    r = oracle.alpha_derivative(0.0, 0.0)
    assert abs(r.value - EULER_GAMMA) < 1e-12


def test_alpha_derivative_pole_coefficients():
    # at alpha = -3 the first terms sit at Gamma poles; the finite limits
    # (-1)^(n+1) n! keep the series well defined
    r = oracle.alpha_derivative(-3.0, 0.5)
    assert r.err_estimate < 1e-8
    # spot check: j = 0 coefficient at w = -2 is -((-1)^3 2!) = 2
    assert abs(oracle._alpha_deriv_coeff(-3.0, 0) - 2.0) < 1e-15


def test_alpha_derivative_routes_disagree_guard(monkeypatch):
    # a step this coarse puts the central difference far off the series
    monkeypatch.setattr(oracle, "_FD_STEP", 0.4)
    with pytest.raises(RoutesDisagree):
        oracle.alpha_derivative(0.3, 0.45)


def test_alpha_derivative_takes_complex_alpha():
    import mpmath as mp

    # a real alpha given as a complex is the real alpha
    assert oracle.alpha_derivative(complex(0.5, 0), 0.3) == \
        oracle.alpha_derivative(0.5, 0.3)
    for alpha in (0.5 + 0.3j, -2 + 0.2j):
        got = oracle.alpha_derivative(alpha, 0.3).value
        want = complex(mp.diff(lambda t: mp.hyp0f1(t + 1, 0.3) * mp.rgamma(t + 1),
                               mp.mpc(alpha)))
        assert abs(got - want) <= 1e-14 * abs(want)


def test_d_from_alpha_derivative_pole_at_origin():
    with pytest.raises(PoleAtOrigin, match="m = 2"):
        oracle.d_from_alpha_derivative(2, 0)
    # D_0 has no pole: its value at 0 is -2 psi(1) = 2 gamma
    assert abs(oracle.d_from_alpha_derivative(0, 0).value
               - 2 * EULER_GAMMA) < 1e-12


def test_d_from_alpha_derivative_where_z_to_the_minus_m_overflows():
    # (1e-120)^3 underflows to 0, and its inverse was a raw ZeroDivisionError
    with pytest.raises(DomainError, match=r"z = \(1e-120\+0j\), a = \(-3\+0j\)"):
        oracle.d_from_alpha_derivative(3, 1e-120)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_d_reconstruction_from_parameter_derivatives(m):
    for z in (complex(0.7, 0.0), complex(0.4, 0.5)):
        rec = oracle.d_from_alpha_derivative(m, z)
        direct = d_eval(F0(m), z)
        scale = max(1.0, abs(direct.value))
        assert abs(rec.value - direct.value) / scale < 1e-12


def test_de_lhospital_bracket():
    # the limit route and the closed route meet the connection formula:
    # all three agree at generic-but-close alpha
    z = complex(0.7, 0.0)
    m = 1
    close = u0(m + 1e-4, z, URoute.CONNECTION).value
    exact = u0(m, z, URoute.LOG_PLUS_D).value
    lim = oracle.limit_alpha(F0(m), z).value
    assert abs(lim - exact) < 1e-10
    assert abs(close - exact) < 1e-3  # continuity of the family


def test_fd_jet_is_fourth_order():
    f = lambda w: (w ** 3 - 2.0) * complex(math.cos(w.real), 0)
    # the 5-point stencil differentiates cubics exactly; errors on a
    # transcendental shrink ~16x per halving until roundoff
    z = complex(0.83, 0.0)
    import cmath
    g = cmath.exp
    _, d1a, _ = oracle._fd_jet(g, z, 2e-3)
    _, d1b, _ = oracle._fd_jet(g, z, 1e-3)
    ea = abs(d1a - g(z))
    eb = abs(d1b - g(z))
    assert ea / eb > 8.0
