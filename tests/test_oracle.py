"""Residual and de l'Hospital machinery.

These tests drive the verification tools themselves: the tools get
pointed at known-good evaluators (residuals must vanish), at known-bad
inputs (residuals must be O(1)), and at a deliberately corrupted
evaluator (the theorem checks must fail).  The alpha-derivative stream
behind limit_alpha is checked against mpmath.diff for every kind.
"""

import json
import math
import pickle

import pytest

from hyperd import cli, oracle, ufun
from hyperd.dfun import d_eval, prepare_log_solution
from hyperd.errors import DomainError, Inapplicable, PoleAtOrigin
from hyperd.ffun import (F0, F1, F2, PARAMS_BY_KIND, _params, _reflected, f_norm,
                         prepare_f_norm, prepare_f_second)
from hyperd.gammakit import EULER_GAMMA, recip_gamma
from hyperd.series import principal_log
from hyperd.ufun import URoute, u0, u1, u2


def test_residual_report_contract():
    r = oracle.ResidualReport(residual=1e-15, method="FiniteDiff", step=1e-4,
                              detail={"value": 1j})
    assert repr(r) == ("ResidualReport(residual=1e-15, method='FiniteDiff', "
                       "step=0.0001, detail={'value': 1j})")
    assert r == oracle.ResidualReport(1e-15, "FiniteDiff", 1e-4, {"value": 1j})
    assert r == (1e-15, "FiniteDiff", 1e-4, {"value": 1j})
    # no detail dict shared between reports: the default is None
    bare = oracle.ResidualReport(0.0, "SeriesDeriv")
    assert bare.step is None and bare.detail is None
    assert repr(bare) == "ResidualReport(residual=0.0, method='SeriesDeriv', step=None, detail=None)"
    assert oracle.ResidualReport.__match_args__ == ("residual", "method", "step", "detail")
    for name in ("residual", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0.0)
    assert r._replace(step=None).step is None and r.step == 1e-4
    assert r._asdict() == {"residual": 1e-15, "method": "FiniteDiff", "step": 1e-4,
                           "detail": {"value": 1j}}
    assert pickle.loads(pickle.dumps(r)) == r
    with pytest.raises(TypeError):
        oracle.ResidualReport(0.0, "SeriesDeriv", weight=1.0)
    # both reports of the module carry a dict of their own
    f = prepare_f_norm(F0(0.5))
    a, b = oracle.ode_residual(f, F0(0.5), 0.3), oracle.inhom_residual(F0(1), 0.3)
    assert set(a.detail) == {"value"} and set(b.detail) == {"lhs", "rhs"}


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
        assert abs(lim.value - direct) / scale < 1e-13
        assert lim.err_estimate < 1e-13


@pytest.mark.parametrize("p, zs, far", [
    (F0(2), (0.7, -0.4 + 0.6j), 1e6),
    (F1(0.7, 1), (0.7, -0.4 + 0.6j), 1e4),
    (F2(1, 0.3, 0.2), (-0.5, -0.4 + 0.6j), 3.0),
], ids=repr)
def test_prepared_limit_alpha_replays_its_streams(p, zs, far):
    # the theorem checks prepare limit_alpha once per case and call it at
    # two points: the second sums the kept streams and must give the bits
    # of a fresh limit_alpha, and so must a point after one whose sum
    # overflowed, where the terms are built anew
    at = oracle._prepare_limit_alpha(p)
    for z in zs:
        assert at(z) == oracle.limit_alpha(p, z)
    with pytest.raises(DomainError, match="series sum is not finite"):
        at(far)
    for z in zs:
        assert at(z) == oracle.limit_alpha(p, z)


def test_verify_theorems_catch_a_defect_of_1e_8_in_u(monkeypatch, capsys):
    # LogPlusD U scaled by 1 + 1e-8: every theorem check must fail, where
    # a check at 1e-6 let it pass
    assert cli.main(["verify", "--suite", "theorems"]) == 0
    real = ufun._log_prefactor

    def scaled(p):
        prefactor = real(p)
        return lambda: prefactor() * (1.0 + 1e-8)

    monkeypatch.setattr(ufun, "_log_prefactor", scaled)
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "theorems"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["failures"]) == doc["relations_checked"] == 24
    assert all(f["max_scaled_residual"] > 1e-9 for f in doc["failures"])


def test_verify_theorems_see_the_connection_formula_of_the_route(monkeypatch, capsys):
    # c of the route's term table scaled by 1 + 1e-8 moves the route, and
    # the limit with it, away from LogPlusD: every theorem check fails.
    # With a copy of the table in the oracle the same fault in the route
    # left every check passing.
    before = u1(0.7, 0.37, 1.5, "Connection").value
    real = ufun._connection_terms

    def scaled(p):
        c, t1, t2 = real(p)
        return c * (1.0 + 1e-8), t1, t2

    monkeypatch.setattr(ufun, "_connection_terms", scaled)
    after = u1(0.7, 0.37, 1.5, "Connection").value
    assert abs(after / before - 1.0) > 9e-9
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "theorems"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["failures"]) == doc["relations_checked"] == 24
    assert all(f["max_scaled_residual"] > 1e-9 for f in doc["failures"])


def _mp_alpha_deriv(p, z):
    """d/dalpha of F at p and z by mpmath.diff, F summed term by term with
    1/Gamma, which is entire in alpha, at 30 digits."""
    import mpmath as mp

    def f(t):
        *upper, c = p._classical(t)
        total, w = mp.mpf(0), mp.mpc(z)
        for n in range(300):
            term = mp.rgamma(c + n) * w ** n / mp.factorial(n)
            for u in upper:
                term *= mp.rf(u, n)
            total += term
        return total

    with mp.workdps(30):
        return complex(mp.diff(f, mp.mpmathify(p.alpha)))


@pytest.mark.parametrize("p", [
    # alpha = +-m, the pole terms of -m included
    F0(0), F0(2), F0(-2), F1(0.7, 0), F1(0.7, 2), F1(0.7, -2),
    F2(2, 0.3, 0.2), F2(-2, 0.3, 0.2),
    # complex alpha that is not an integer
    F0(0.5 + 0.3j), F1(0.7, 0.5 + 0.3j), F2(-1.5 + 0.3j, 0.3, 0.2),
    # the reflected 2F1 sets of limit_alpha's Connection terms
    _reflected(F2(2, 0.3, 0.2)), _reflected(F2(1, 2.2, 0.2)),
], ids=repr)
def test_alpha_derivative_stream_against_mpmath(p):
    for z in (0.6, -0.4 + 0.5j):
        got = oracle._summed(oracle._alpha_deriv(_params(p)), complex(z)).value
        want = _mp_alpha_deriv(p, z)
        assert abs(got - want) <= 1e-14 * abs(want), (p, z)


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
    # spot check: j = 0 coefficient at w = -2 is (1/Gamma)'(-2) = 2!
    assert next(oracle._alpha_deriv(_params(F0(-3.0)))) == 2.0


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


def test_d_from_alpha_derivative_takes_m_through_the_door_of_d():
    # a non-integer m was read as int(m), and a nan or infinite m raised a
    # raw ValueError or OverflowError
    with pytest.raises(DomainError, match="integer m, got alpha=1.5"):
        oracle.d_from_alpha_derivative(1.5, 0.7)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="alpha must be finite"):
            oracle.d_from_alpha_derivative(bad, 0.7)
    with pytest.raises(DomainError, match="z must be finite"):
        oracle.d_from_alpha_derivative(1, complex(math.nan, 0.0))
    # an m within DEGENERACY_TOL of an integer is that integer
    assert oracle.d_from_alpha_derivative(1 + 1e-11, 0.7) == \
        oracle.d_from_alpha_derivative(1, 0.7)


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
    assert abs(lim - exact) < 1e-14
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
