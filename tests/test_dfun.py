"""Logarithmic companion functions D.

The coefficient checks recompute every Laurent coefficient from the
closed digamma-weighted formulas, fully independent of the recurrence
generators inside the package.
"""

import cmath
import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperd.dfun import (
    d_eval,
    d_eval_I,
    d_expand,
    log_solution,
    prepare_d_eval,
    prepare_d_eval_I,
    prepare_log_solution,
)
from hyperd.errors import BranchCut, DomainError, ParameterSingular, PoleAtOrigin
from hyperd.ffun import F0, F1, F2, f_norm
from hyperd.gammakit import EULER_GAMMA, digamma, harmonic, pochhammer
from hyperd.series import log_negated, principal_log, principal_pow
from hyperd.ufun import u0


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _values(jet):
    return [r.value for r in jet]


def _spec(kind, m):
    if kind == "0f1":
        return F0(m)
    if kind == "1f1":
        return F1(0.7, m)
    return F2(m, 0.3, 0.2)


# closed forms for the coefficients, written out directly


def _principal_ref(spec, k):
    mm = abs(spec.m)
    base = (-1.0) ** (k - 1) * math.factorial(k - 1) / math.factorial(mm - k)
    if spec.kind == "0f1":
        return complex(base)
    if spec.kind == "1f1":
        a = (1 + mm + spec.theta) / 2
        return base * pochhammer(a, -k)
    a = (1 + mm + spec.beta - spec.mu) / 2
    b = (1 + mm + spec.beta + spec.mu) / 2
    return base * pochhammer(a, -k) * pochhammer(b, -k)


def _tail_ref(spec, k):
    mm = abs(spec.m)
    den = math.factorial(k) * math.factorial(mm + k)
    if spec.kind == "0f1":
        return -(digamma(k + 1.0) + digamma(k + 1.0 + mm)) / den
    if spec.kind == "1f1":
        a = (1 + mm + spec.theta) / 2
        w = digamma(a + k) - digamma(k + 1.0) - digamma(k + 1.0 + mm)
        return pochhammer(a, k) * w / den
    a = (1 + mm + spec.beta - spec.mu) / 2
    b = (1 + mm + spec.beta + spec.mu) / 2
    w = (digamma(a + k) + digamma(1 - b - k)
         - digamma(k + 1.0) - digamma(k + 1.0 + mm))
    return pochhammer(a, k) * pochhammer(b, k) * w / den


@pytest.mark.parametrize("kind", ["0f1", "1f1", "2f1"])
@pytest.mark.parametrize("m", [0, 1, 2, 4])
def test_coefficients_match_closed_forms(kind, m):
    spec = _spec(kind, m)
    exp = d_expand(spec)
    assert exp.pole_order == m
    for k in range(1, m + 1):
        want = _principal_ref(spec, k)
        assert _rel(exp.principal[k - 1], want) < 1e-14
    tail = exp.tail_list(12)
    for k in range(12):
        assert _rel(tail[k], _tail_ref(spec, k)) < 1e-13


def test_0f1_principal_exact_rational():
    # (-1)^(k-1) (k-1)!/(m-k)! is an integer; the stored values are exact
    for m in range(5):
        exp = d_expand(F0(m))
        for k in range(1, m + 1):
            want = Fraction((-1) ** (k - 1) * math.factorial(k - 1),
                            math.factorial(m - k))
            assert exp.principal[k - 1] == complex(float(want))


def test_0f1_tail_harmonic_form():
    # psi(k+1) + psi(k+1+m) = H_k + H_k(m+1) + (H_m - 2 gamma)
    m = 3
    exp = d_expand(F0(m))
    C = harmonic(m).real - 2.0 * EULER_GAMMA
    for k, c in enumerate(exp.tail_list(10)):
        want = -(harmonic(k).real + harmonic(k, m + 1.0).real + C) \
            / (math.factorial(k) * math.factorial(m + k))
        assert _rel(c, want) < 1e-14


@pytest.mark.parametrize("kind", ["0f1", "1f1", "2f1"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_negative_m_is_power_shift(kind, m):
    z = complex(0.35, 0.3)
    lo = d_eval(_spec(kind, -m), z).value
    hi = d_eval(_spec(kind, m), z).value
    assert _rel(lo, principal_pow(z, m) * hi) < 1e-13


def test_negative_m_has_no_pole():
    exp = d_expand(F0(-2))
    assert exp.pole_order == 0
    # leading polynomial coefficients are the reversed principal part
    pos = d_expand(F0(2))
    lead = exp.tail_list(2)
    assert lead[0] == pos.principal[1]
    assert lead[1] == pos.principal[0]
    d_eval(F0(-2), 0.0)  # regular at the origin


def test_pole_and_domain_guards():
    with pytest.raises(PoleAtOrigin):
        d_eval(F0(2), 0.0)
    with pytest.raises(DomainError):
        d_eval(F2(1, 0.3, 0.2), 0.97)
    d_eval(F0(0), 0.0)


def test_dspec_validation():
    # the parameter set that selects a D is checked when a D evaluator is
    # prepared or the expansion built
    with pytest.raises(TypeError):
        prepare_d_eval(("3f2", 0))  # not a parameter set
    with pytest.raises(DomainError, match="integer m, got alpha=0.5"):
        prepare_d_eval(F0(0.5))
    with pytest.raises(TypeError):
        F1(alpha=1)  # theta is required
    with pytest.raises(TypeError):
        F2(1, beta=0.3)  # mu is required
    with pytest.raises(TypeError):
        F0(2, theta=0.7)  # and a field of another kind is refused
    # 1f1: integer a <= m collides with the principal Pochhammer
    with pytest.raises(ParameterSingular, match="is an integer <= m"):
        prepare_d_eval(F1(1.0, 2))  # a = 2 = m
    prepare_d_eval(F1(3.0, 2))  # a = 3 > m is fine
    # 2f1: integer a or b is degenerate-within-degenerate
    with pytest.raises(ParameterSingular):
        prepare_d_eval(F2(1, 1.0, -1.0))  # a = 2
    with pytest.raises(ParameterSingular):
        prepare_d_eval(F2(1, 1.0, 1.0))  # b = 2
    # every D evaluator checks, and the rule reads |m|
    for build in (d_expand, prepare_log_solution, prepare_d_eval_I):
        with pytest.raises(ParameterSingular):
            build(F2(1, 1.0, -1.0))
    with pytest.raises(ParameterSingular):
        prepare_d_eval(F1(1.0, -2))
    # an alpha within DEGENERACY_TOL of m is m
    assert d_eval(F2(1 + 1e-11, 0.3, 0.2), 0.3) == d_eval(F2(1, 0.3, 0.2), 0.3)


def test_with_m():
    # the D of another order: the same parameters with alpha moved
    s = F2(1, 0.3, 0.2)
    t = dataclasses.replace(s, alpha=3)
    assert t.m == 3 and t.beta == s.beta and t.mu == s.mu and t.kind == s.kind
    assert d_expand(t).pole_order == 3


@pytest.mark.parametrize("kind", ["0f1", "1f1", "2f1"])
def test_jet_matches_finite_differences(kind):
    spec = _spec(kind, 2)
    z = complex(0.4, 0.3)
    h = 1e-4
    d0, d1, d2 = _values(prepare_d_eval(spec).jet(z, 2))
    vals = {s: d_eval(spec, z + s * h).value for s in (-2, -1, 0, 1, 2)}
    fd1 = (-vals[2] + 8 * vals[1] - 8 * vals[-1] + vals[-2]) / (12 * h)
    fd2 = (-vals[2] + 16 * vals[1] - 30 * vals[0] + 16 * vals[-1] - vals[-2]) / (12 * h * h)
    assert _rel(d0, vals[0]) < 1e-14
    assert abs(d1 - fd1) < 1e-7 * max(1.0, abs(d1))
    assert abs(d2 - fd2) < 1e-5 * max(1.0, abs(d2))


def test_log_solution_composition_and_cuts():
    spec = F0(1)
    z = complex(0.5, 0.4)
    want = principal_log(z) * f_norm(spec, z).value + d_eval(spec, z).value
    assert _rel(log_solution(spec, z).value, want) < 1e-15
    with pytest.raises(BranchCut):
        log_solution(spec, -0.5)

    spec2 = F2(1, 0.3, 0.2)
    zneg = complex(-0.5, 0.0)
    want2 = log_negated(zneg) * f_norm(spec2, zneg).value \
        + d_eval(spec2, zneg).value
    assert _rel(log_solution(spec2, zneg).value, want2) < 1e-15
    with pytest.raises(BranchCut):
        log_solution(spec2, 0.5)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_log_solution_error_bound_0f1(m):
    # D_m = U_m / prefactor - log z F_m, so the log solution log z F_m + D_m
    # is U_m / prefactor, with U_m(z) = (2/sqrt(pi)) z^(-m/2) K_m(2 sqrt z)
    # and prefactor (-1)^(m+1)/sqrt(pi).  At |z| = 20 the two terms cancel
    # to ~1e-5 of their size, so the bound needs the rounding floor.
    z = complex(20.0, 0.3)
    with mp.workdps(30):
        zm = mp.mpc(z.real, z.imag)
        u = 2 / mp.sqrt(mp.pi) * zm ** (-mp.mpf(m) / 2) \
            * mp.besselk(m, 2 * mp.sqrt(zm))
        want = complex(u * (-1) ** (m + 1) * mp.sqrt(mp.pi))
    got = log_solution(F0(m), z)
    assert abs(got.value - want) <= got.err_estimate


def test_log_solution_jet_consistency():
    spec = F1(0.7, 1)
    z = complex(0.6, 0.5)
    w0, w1, w2 = _values(prepare_log_solution(spec).jet(z, 2))
    assert _rel(w0, log_solution(spec, z).value) < 1e-14
    h = 1e-4
    vals = {s: log_solution(spec, z + s * h).value for s in (-2, -1, 1, 2)}
    fd1 = (-vals[2] + 8 * vals[1] - 8 * vals[-1] + vals[-2]) / (12 * h)
    assert abs(w1 - fd1) < 1e-7 * max(1.0, abs(w1))
    assert w2 != 0


def test_d_eval_I_prefactor_and_kind_guard():
    spec = F2(1, 0.3, 0.2)
    z = complex(-0.3, 0.2)
    from hyperd.gammakit import gamma
    a = (1 + 1 + 0.3 - 0.2) / 2
    ca = (1 + 1 - 0.3 + 0.2) / 2
    pref = gamma(a) * gamma(ca)
    assert _rel(d_eval_I(spec, z).value, pref * d_eval(spec, z).value) < 1e-14
    jet = _values(prepare_d_eval_I(spec).jet(z, 2))
    base = _values(prepare_d_eval(spec).jet(z, 2))
    for u, v in zip(jet, base):
        assert _rel(u, pref * v) < 1e-14
    with pytest.raises(ValueError):
        d_eval_I(F0(1), z)


def test_deep_argument_does_not_overflow():
    # separated factorial factors would hit inf*0 = nan near k ~ 150
    spec = F2(3, 0.3, 0.2)
    r = d_eval(spec, complex(-0.4, 0.6))
    assert r.terms_used < 200
    spec1 = F1(0.7, 2)
    r1 = d_eval(spec1, complex(9.0, 4.0))
    assert r1.value == r1.value  # not nan


def test_kummer_reflection_of_d():
    # D_{m,beta,mu}(z) = (1-z)^(-beta) D_{m,-beta,mu}(z)
    for m in (0, 1, 2):
        for z in (complex(-0.4, 0.0), complex(0.25, 0.4), complex(-0.2, -0.5)):
            lhs = d_eval(F2(m, 0.3, 0.2), z).value
            rhs = principal_pow(1.0 - z, -0.3) \
                * d_eval(F2(m, -0.3, 0.2), z).value
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9,
                          allow_nan=False, allow_infinity=False))
def test_negative_m_shift_property(m, z):
    if abs(z) > 0.9:
        return
    lo = d_eval(F0(-m), z).value
    hi = d_eval(F0(m), z).value
    assert abs(lo - z ** m * hi) <= 1e-11 * max(1.0, abs(lo), abs(hi))


@pytest.mark.parametrize("m", [160, 170])
def test_principal_part_overflow_raises(m):
    # the k = m term (m-1)! z^-m alone is about 6e355 at m = 170, z = 0.5,
    # beyond a double; the terms overflow and cancel to nan, which must
    # not come back as a value
    spec = F0(m)
    for call in (d_eval, lambda s, z: prepare_d_eval(s).jet(z, 2), log_solution,
                 lambda s, z: u0(s.m, z)):
        with pytest.raises(DomainError, match=f"m = {m} .* z = \\(0.5"):
            call(spec, 0.5)
    # the same order at a point where the principal part fits
    assert cmath.isfinite(d_eval(spec, 50.0).value)


def test_jet_at_large_m_where_the_coefficient_products_overflow():
    # c k (k+1) with c = (k-1)!/(m-k)! overflows a double at m = 170
    # before the powers of 1/z scale it down; the jet still fits one
    spec = F0(170)
    z = 50.0
    with mp.workdps(40):
        m, zz = 170, mp.mpf(z)
        d = [(-1) ** (k - 1) * mp.factorial(k - 1) / mp.factorial(m - k)
             for k in range(1, m + 1)]
        tail = [-(mp.digamma(k + 1) + mp.digamma(k + 1 + m))
                / (mp.factorial(k) * mp.factorial(m + k)) for k in range(60)]
        want = (
            sum(c * zz ** -k for k, c in enumerate(d, 1))
            + sum(t * zz ** k for k, t in enumerate(tail)),
            sum(-k * c * zz ** (-k - 1) for k, c in enumerate(d, 1))
            + sum(k * t * zz ** (k - 1) for k, t in enumerate(tail)),
            sum(k * (k + 1) * c * zz ** (-k - 2) for k, c in enumerate(d, 1))
            + sum(k * (k - 1) * t * zz ** (k - 2) for k, t in enumerate(tail)),
        )
    at = prepare_d_eval(spec)
    jet = at.jet(z, 2)
    assert jet[0] == d_eval(spec, z)
    for got, ref in zip(_values(jet), want):
        assert abs(got - complex(ref)) <= 1e-13 * abs(complex(ref))
    # the 1-jet the relation records read is the same two values
    assert at.jet(z, 1) == jet[:2]
    # where the products fit, the bits are those of the 2-jet
    small = prepare_d_eval(F1(0.7, 3))
    assert small.jet(0.4 + 0.2j, 1) == small.jet(0.4 + 0.2j, 2)[:2]


def test_jet_goes_to_order_two():
    at = prepare_d_eval(F0(2))
    with pytest.raises(ValueError, match="order 2"):
        at.jet(0.5, 3)
