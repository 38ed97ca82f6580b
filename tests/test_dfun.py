"""Logarithmic companion functions D.

The coefficient checks recompute every Laurent coefficient from the
closed digamma-weighted formulas, fully independent of the recurrence
generators inside the package.
"""

import cmath
import hashlib
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
from hyperd.gammakit import EULER_GAMMA, digamma, harmonic, pochhammer, recip_gamma
from hyperd.oracle import inhom_residual, limit_alpha
from hyperd.series import log_negated, principal_log, principal_pow
from hyperd.ufun import prepare_u, u0


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
    # 2f1: an integer a <= m or any integer b is degenerate-within-degenerate
    with pytest.raises(ParameterSingular):
        prepare_d_eval(F2(1, 1.0, -1.0))  # b = 1
    with pytest.raises(ParameterSingular):
        prepare_d_eval(F2(1, 1.0, 1.0))  # a = 1 = m
    # every D evaluator checks, and the rule reads |m|
    for build in (d_expand, prepare_log_solution, prepare_d_eval_I):
        with pytest.raises(ParameterSingular):
            build(F2(1, 1.0, -1.0))
    with pytest.raises(ParameterSingular):
        prepare_d_eval(F1(1.0, -2))
    # an alpha within DEGENERACY_TOL of m is m
    assert d_eval(F2(1 + 1e-11, 0.3, 0.2), 0.3) == d_eval(F2(1, 0.3, 0.2), 0.3)


def test_2f1_d_at_an_integer_a_beyond_m():
    # a = 2 > m = 1 and b = 2.2: no (a)_{-k}, psi(a+k) or psi(1-b-k) meets a
    # pole, so D is defined and solves its inhomogeneous equation
    p = F2(1, 2.2, 0.2)
    assert p.to_classical() == (2.0, 2.2, 2)
    for z in (0.3 + 0.2j, -0.5 + 0.1j, 0.7j):
        assert inhom_residual(p, z).residual < 1e-12 * abs(d_eval(p, z).value), z
    # and U on LogPlusD, whose prefactor 1/(Gamma(1-b) Gamma(a-m)) is not 0
    # there, agrees with the limit of the Connection route
    u = prepare_u(p, "LogPlusD")
    for z in (-0.4 + 0.3j, -0.3, -0.7 - 0.2j):
        got, ref = u(z), limit_alpha(p, z)
        assert abs(got.value - ref.value) <= ref.err_estimate, z


def test_with_m():
    # the D of another order: the same parameters with alpha moved
    s = F2(1, 0.3, 0.2)
    t = s._replace(alpha=3)
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


def _log_solution_ref(p, z, k=0):
    """The k-th derivative of the log solution at p and z as U / prefactor,
    at 20 digits (mpmath.diff for k >= 1): U_m(z) = (2/sqrt(pi)) z^(-m/2)
    K_m(2 sqrt z) over (-1)^(m+1)/sqrt(pi) for F0(m), and Tricomi's
    U(a, 1+m, z), a = (1+m+theta)/2, over (-1)^(m+1)/Gamma((1-m+theta)/2)
    for F1(theta, m)."""
    m = p.alpha
    with mp.workdps(20):
        if isinstance(p, F0):
            def f(w):
                return (-1) ** (m + 1) * 2 * w ** (-mp.mpf(m) / 2) * mp.besselk(m, 2 * mp.sqrt(w))
        else:
            theta = mp.mpf(p.theta)

            def f(w):
                return (-1) ** (m + 1) * mp.hyperu((1 + m + theta) / 2, 1 + m, w) \
                    / mp.rgamma((1 - m + theta) / 2)
        zm = mp.mpc(z.real, z.imag)
        return complex(f(zm) if k == 0 else mp.diff(f, zm, k))


# far points of the log solution, past both radii, and one where the far
# rule takes every entry of the 2-jet (at 30 the U0 expansion at alpha + 2
# falls short for m = 3)
LOG_FAR_ZS = (complex(30.0), complex(35.0, 5.0), complex(60.0, -20.0))
LOG_FAR_JET_Z = complex(45.0)


def _far_log_solution_holds(p, z, order):
    """The 2-jet of the prepared log solution at a far point z: entry 0 is
    at(z), bit for bit, and each entry up to order is within its estimate
    and within 1e-8 relative of U / prefactor."""
    at = prepare_log_solution(p)
    jet = at.jet(z, 2)
    assert repr(at(z)) == repr(jet[0])
    for k, r in enumerate(jet[:order + 1]):
        want = _log_solution_ref(p, z, k)
        assert abs(r.value - want) <= r.err_estimate, (p, z, k)
        assert abs(r.value - want) <= 1e-8 * abs(want), (p, z, k)


@pytest.mark.parametrize("m", [0, 1, 2, 3, -2])
def test_log_solution_error_bound_0f1(m):
    # D_m = U_m / prefactor - log z F_m, so the log solution log z F_m + D_m
    # is U_m / prefactor.  At |z| = 20 the two terms cancel to ~1e-5 of
    # their size, so the bound needs the rounding floor; past the radius
    # (20.30) the log solution is U's far value over the prefactor
    z = complex(20.0, 0.3)
    got = log_solution(F0(m), z)
    assert abs(got.value - _log_solution_ref(F0(m), z)) <= got.err_estimate
    if m in (-2, 0, 3):
        for z in LOG_FAR_ZS:
            _far_log_solution_holds(F0(m), z, 0)
        _far_log_solution_holds(F0(m), LOG_FAR_JET_Z, 2)


@pytest.mark.parametrize("m", [0, 2])
def test_log_solution_error_bound_1f1(m):
    # the 1F1 twin: past the radius (18.02) log z F + D cancels like e^z
    # against U, and the log solution is U's far value over the prefactor
    for z in LOG_FAR_ZS:
        _far_log_solution_holds(F1(0.7, m), z, 0)
    _far_log_solution_holds(F1(0.7, m), LOG_FAR_JET_Z, 2)


def test_log_solution_far_reproducers():
    # table points where log z F + D summed 148 and 50 terms and missed by
    # 3.0e-2 and 2.9e-7; U / prefactor takes 24 and 23
    for p, z, terms in [(F1(1.82884, 1), complex(23.892983500000003, 1.9451461538461539), 24),
                        (F0(2), complex(27.97380325, 2.108046923076923), 23)]:
        _far_log_solution_holds(p, z, 0)
        assert log_solution(p, z).terms_used == terms


def test_log_solution_far_value_needs_its_prefactor():
    # at m = 1 and z = 1e6 the far rule keeps U's expansion at both theta.
    # At 0.7+910j the prefactor 1/Gamma((1-m+theta)/2) overflows a double,
    # so the point takes the series, whose sum is not finite there; at
    # 0.7+460j the log solution is the far value over the prefactor
    z = 1e6
    for theta in (0.7 + 910j, 0.7 + 460j):
        assert repr(prepare_u(F1(theta, 1))(z)) == repr(prepare_u(F1(theta, 1), "Asymptotic2F0")(z))
    with pytest.raises(DomainError, match=r"^series sum is not finite at z = \(1000000\+0j\)"):
        log_solution(F1(0.7 + 910j, 1), z)
    with pytest.raises(DomainError, match=r"^series sum is not finite at z = \(1000000\+0j\)"):
        prepare_log_solution(F1(0.7 + 910j, 1)).jet(z, 2)
    p = F1(0.7 + 460j, 1)
    got = log_solution(p, z)
    assert repr(got) == repr(prepare_u(p)(z).scaled(1.0 / recip_gamma(0.35 + 230j)))
    assert (got.value, got.terms_used) == (-3.88785587858741e-166 - 1.0930942175780018e-165j, 113)


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
    # the wrong kind is a TypeError, as for f2_norm_I
    with pytest.raises(TypeError, match="unsupported parameter type F0"):
        d_eval_I(F0(1), z)
    with pytest.raises(TypeError, match="unsupported parameter type F1"):
        d_eval_I(F1(0.3, 1), z)


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


def _principal_mp(p):
    """The principal coefficients d_{-k} of D at 50 digits, with
    (u)_{-k} = 1/((u-1) ... (u-k)), and the classical upper parameters."""
    m = p.m
    *upper, _ = [mp.mpmathify(complex(u)) for u in p._classical(m)]
    return [(-1) ** (k - 1) * mp.factorial(k - 1) / mp.factorial(m - k)
            / mp.fprod(u - j for u in upper for j in range(1, k + 1))
            for k in range(1, m + 1)], upper


@pytest.mark.parametrize("p", [F1(1e3 + 1e3j, 170), F1(-700.3, 170)])
def test_d_where_a_pochhammer_of_the_principal_part_leaves_a_double(p):
    # (a)_{-k} overflows a double from k = 108 (a = 585.5+500j) and
    # k = 124 (a = -264.65) on, though every coefficient fits; these
    # raised DomainError from pochhammer.  The reference sums D's
    # defining series (module docstring of dfun) at 50 digits.
    with mp.workdps(50):
        d, (a,) = _principal_mp(p)
        m, z = p.m, mp.mpf(0.5)
        tail = sum(mp.rf(a, k) / (mp.factorial(k) * mp.factorial(m + k))
                   * (mp.digamma(a + k) - mp.digamma(k + 1) - mp.digamma(k + m + 1)) * z ** k
                   for k in range(60))
        want = complex(sum(c * z ** -k for k, c in enumerate(d, 1)) + tail)
    got = d_eval(p, 0.5)
    assert abs(got.value - want) <= 1e-12 * abs(want)


def test_d_principal_part_past_the_normal_doubles_still_raises():
    # (a)_{-k} overflows from k = 125 at a = 85.35+300j, and the
    # coefficients formed factor by factor are subnormal (about 4e-310):
    # D's true value at 0.5 is about -8e-399, below every double, so the
    # Pochhammer's DomainError stands rather than a value of rounding noise
    p = F2(170, 600j, 0.3)
    for call in (lambda: d_expand(p), lambda: d_eval(p, 0.5)):
        with pytest.raises(DomainError, match=r"pochhammer \(z\)_k with z = \(85.35\+300j\), k = -125"):
            call()


def test_principal_coefficient_whose_pochhammer_underflows():
    # (a)_{-123} at a = -264.65 underflows to 0, though d_{-123} is about
    # -4.66e-166: it is formed factor by factor.  The other 169
    # coefficients keep their bits (a digest taken before the change).
    p = F1(-700.3, 170)
    got = d_expand(p).principal
    with mp.workdps(50):
        want = [complex(c) for c in _principal_mp(p)[0]]
    assert len(got) == 170
    for k, (g, w) in enumerate(zip(got, want), 1):
        assert abs(g - w) <= 1e-13 * abs(w), k
    assert abs(got[122] - -4.66322287715617e-166) <= 1e-13 * 4.66e-166
    kept = " ".join(repr(c) for k, c in enumerate(got) if k != 122)
    assert hashlib.sha256(kept.encode()).hexdigest() == (
        "708279c6140f06dc146c9dc42eb653c7ebb288ce205e1e7ceb99f052a2a45244")


def test_principal_coefficients_that_fit_keep_their_bits():
    # the coefficients of the Pochhammer form, in its order of operations,
    # wherever each Pochhammer stays in a double
    for p in (F0(9), F1(0.7, 5), F1(3 + 40j, 60), F1(-700.3, 120), F2(12, 0.3, 0.2),
              F2(170, 0.3 + 2j, 0.1)):
        mm = abs(p.m)
        *upper, _ = p._classical(mm)
        want = []
        sign, fact = 1.0, 1.0
        for k in range(1, mm + 1):
            if k > 1:
                fact *= k - 1
                sign = -sign
            c = sign * fact / math.factorial(mm - k)
            for u in upper:
                c = c * pochhammer(u, -k)
            want.append(repr(complex(c)))
        assert [repr(c) for c in d_expand(p).principal] == want


def test_jet_goes_to_order_two():
    at = prepare_d_eval(F0(2))
    with pytest.raises(ValueError, match="order 2"):
        at.jet(0.5, 3)
