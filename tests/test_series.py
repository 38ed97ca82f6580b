"""Summation engine, derivative reindexing and branch conventions."""

import cmath
import inspect
import itertools
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperd.errors import BranchCut, DomainError, NoConvergence
from hyperd.series import (
    EvalResult,
    LaurentExpansion,
    deriv_coeffs,
    log_negated,
    principal_log,
    principal_pow,
    sum_power_series,
)


def _exp_coeffs():
    c = 1.0
    n = 0
    while True:
        yield c
        n += 1
        c /= n


def _geom_coeffs():
    while True:
        yield 1.0


def _guarded(coeffs, n):
    """coeffs, failing when a coefficient past the first n is pulled."""
    for i, c in enumerate(coeffs):
        if i >= n:
            raise AssertionError("coefficient %d pulled" % i)
        yield c


def test_exp_series():
    r = sum_power_series(_exp_coeffs(), 0.37)
    assert abs(r.value - math.exp(0.37)) < 1e-15
    assert r.err_estimate < 1e-15
    assert r.terms_used < 30
    assert r.flags == frozenset()
    # the first omitted coefficient is read for the error estimate; the
    # one after it is never pulled
    g = sum_power_series(_guarded(_exp_coeffs(), r.terms_used + 1), 0.37)
    assert g == r


def test_geometric_series_complex():
    z = complex(0.3, -0.4)
    r = sum_power_series(_geom_coeffs(), z)
    assert abs(r.value - 1.0 / (1.0 - z)) < 1e-13


def test_start_offset():
    # sum_{n>=2} z^n / n! = e^z - 1 - z
    def shifted():
        c = 0.5
        n = 2
        while True:
            yield c
            n += 1
            c /= n

    z = 0.6
    r = sum_power_series(shifted(), z, start=2)
    assert abs(r.value - (math.exp(z) - 1.0 - z)) < 1e-15


def test_finite_generator_exhausts_cleanly():
    for coeffs in ([1.0, 2.0, 3.0], [1, 2, 3]):
        r = sum_power_series(iter(coeffs), 2.0)
        assert r.value == 1.0 + 4.0 + 12.0
        assert r.err_estimate == 0.0
        assert r.terms_used == 3
    assert sum_power_series(iter([]), 2.0) == EvalResult(0j, 0.0, 1)


def test_no_convergence_carries_partial():
    cases = [
        (_geom_coeffs, 1.5, 50, None, None),
        # a finite stream exactly max_terms long is not known to be exhausted
        (lambda: iter([1.0] * 5), 2.0, 5, 31.0, 16.0),
        (lambda: iter([1] * 5), 2.0, 5, 31.0, 16.0),
    ]
    for coeffs, z, max_terms, partial, err in cases:
        with pytest.raises(NoConvergence) as ei:
            sum_power_series(_guarded(coeffs(), max_terms), z,
                             max_terms=max_terms)
        exc = ei.value
        assert exc.flag == "TruncationMaxed"
        assert abs(exc.partial) > 1.0
        assert exc.err > 0.0
        if partial is not None:
            assert exc.partial == partial
            assert exc.err == err


def test_validation():
    with pytest.raises(ValueError):
        sum_power_series(_geom_coeffs(), 0.1, max_terms=0)


def test_no_public_function_takes_a_tolerance():
    # every series stops at the fixed REL_TOL within the fixed MAX_TERMS;
    # only the two summation kernels take a budget, for their own tests
    import hyperd
    from hyperd import dfun, ffun, oracle, ufun

    fns = [getattr(hyperd, name) for name in hyperd.__all__]
    fns += [getattr(mod, name) for mod in (ffun, dfun, ufun)
            for name in dir(mod) if name.startswith("prepare_")]
    fns += [getattr(oracle, name) for name in oracle.__all__]
    # each function once, however many modules bind it
    fns = list(dict.fromkeys(f for f in fns if inspect.isfunction(f)))
    assert len(fns) >= 35
    kernels = (sum_power_series, ffun.f2f0_asymptotic)
    for f in kernels:
        assert "max_terms" in inspect.signature(f).parameters
    for f in fns:
        params = inspect.signature(f).parameters
        assert "rel_tol" not in params, f.__qualname__
        assert "routes_tol" not in params, f.__qualname__
        assert "fd_step" not in params, f.__qualname__
        if f not in kernels:
            assert "max_terms" not in params, f.__qualname__


def test_interior_zero_coefficient_does_not_stop_the_sum():
    # cos-like series: every other coefficient vanishes; a single small
    # term must not trigger the convergence test
    def cos_coeffs():
        n = 0
        c = 1.0
        while True:
            yield c
            yield 0.0
            n += 2
            c = -c / ((n - 1) * n)

    z = 1.1
    r = sum_power_series(cos_coeffs(), z)
    assert abs(r.value - math.cos(z)) < 1e-14


def test_deriv_coeffs_exponential():
    def fac():
        def gen():
            c = 1.0
            n = 0
            while True:
                yield c
                n += 1
                c /= n
        return gen

    start, g = deriv_coeffs(fac(), 0, 1)
    assert start == 0
    r = sum_power_series(g(), 0.5, start=start)
    assert abs(r.value - math.exp(0.5)) < 1e-15
    start2, g2 = deriv_coeffs(fac(), 0, 2)
    r2 = sum_power_series(g2(), 0.5, start=start2)
    assert abs(r2.value - math.exp(0.5)) < 1e-15


def test_deriv_coeffs_skips_annihilated_terms():
    # f = 1 + z => f' = 1, f'' = 0
    def gen_factory():
        def gen():
            yield 1.0
            yield 1.0
            while True:
                yield 0.0
        return gen

    start, g = deriv_coeffs(gen_factory(), 0, 1)
    r = sum_power_series(g(), 0.9, start=start)
    assert r.value == 1.0
    start, g = deriv_coeffs(gen_factory(), 0, 2)
    r = sum_power_series(g(), 0.9, start=start)
    assert abs(r.value) == 0.0


def test_principal_log_cut():
    assert principal_log(1.0) == 0.0
    assert abs(principal_log(1j) - 0.5j * math.pi) < 1e-16
    for z in (-1.0, 0.0, -2.5 + 0j):
        with pytest.raises(BranchCut):
            principal_log(z)


def test_log_negated_cut_and_branch():
    assert log_negated(-1.0) == 0.0
    for z in (1.0, 0.0, 2.5 + 0j):
        with pytest.raises(BranchCut):
            log_negated(z)
    zu = complex(0.4, 0.7)
    zl = complex(0.4, -0.7)
    assert abs(log_negated(zu) - (principal_log(zu) - 1j * math.pi)) < 1e-15
    assert abs(log_negated(zl) - (principal_log(zl) + 1j * math.pi)) < 1e-15


def test_principal_pow_integer_exact():
    assert principal_pow(-2.0, 3) == -8.0 + 0j
    assert principal_pow(-2.0, -2) == 0.25 + 0j
    assert principal_pow(7.0, 0) == 1.0 + 0j
    assert principal_pow(0.0, 5) == 0.0 + 0j
    with pytest.raises(DomainError):
        principal_pow(0.0, -1)
    # negative real basis with integer exponent stays exactly real
    v = principal_pow(-3.0, 4)
    assert v.imag == 0.0 and v.real == 81.0


def test_a_power_that_is_not_finite_is_a_domain_error():
    # z**a overflows (z^-20.5 at 1e-30, 150^170) or its inverse underflows
    # to 0 (0.001^170): each names z and a instead of a raw error or inf
    from hyperd import F0, f_second, u0, u1

    cases = [(lambda: f_second(F0(20.5), 1e-30), "z = (1e-30+0j), a = (-20.5+0j)"),
             (lambda: u0(20.5, 1e-30), "z = (1e-30+0j), a = (-20.5-0j)"),
             (lambda: f_second(F0(170), 1e-3), "z = (0.001+0j), a = (-170+0j)"),
             (lambda: u1(0.7, -170, 150), "z = (150+0j), a = (170+0j)")]
    for call, where in cases:
        with pytest.raises(DomainError, match=r"z\*\*a is not finite") as ei:
            call()
        assert where in str(ei.value)


def test_principal_pow_fractional():
    assert abs(principal_pow(4.0, 0.5) - 2.0) < 1e-15
    with pytest.raises(BranchCut):
        principal_pow(-4.0, 0.5)
    z = complex(-0.3, 0.4)
    w = principal_pow(z, 0.37)
    assert abs(w - cmath.exp(0.37 * cmath.log(z))) < 1e-15


def test_laurent_expansion_shape():
    exp = LaurentExpansion(principal=(1.0, 2.0),
                           tail_coeff=lambda: iter([3.0, 4.0]))
    assert exp.pole_order == 2
    assert exp.tail_list(2) == [3.0, 4.0]
    empty = LaurentExpansion(principal=(), tail_coeff=lambda: iter([]))
    assert empty.pole_order == 0


def test_laurent_expansion_contract():
    exp = LaurentExpansion(principal=(1.0, 2.0), tail_coeff=itertools.count)
    assert repr(exp) == ("LaurentExpansion(principal=(1.0, 2.0), "
                         "tail_coeff=<class 'itertools.count'>)")
    assert LaurentExpansion((1.0, 2.0), itertools.count) == exp == ((1.0, 2.0), itertools.count)
    assert hash(LaurentExpansion((1.0, 2.0), itertools.count)) == hash(exp)
    assert LaurentExpansion.__match_args__ == ("principal", "tail_coeff")
    for name in ("principal", "tail_coeff", "other"):
        with pytest.raises(AttributeError):
            setattr(exp, name, ())
    principal, tail = exp
    assert principal == (1.0, 2.0) and tail is itertools.count
    assert exp._replace(principal=()).pole_order == 0
    assert exp._asdict() == {"principal": (1.0, 2.0), "tail_coeff": itertools.count}
    back = pickle.loads(pickle.dumps(exp))
    assert back == exp and back.tail_list(3) == [0, 1, 2]
    with pytest.raises(TypeError):
        LaurentExpansion(principal=(), tail_coeff=iter, order=0)


def test_eval_result_immutable():
    r = EvalResult(1.0 + 0j, 0.0, 1)
    for name, v in (("value", 2.0), ("err_estimate", 1.0), ("terms_used", 2),
                    ("flags", frozenset({"TruncationMaxed"}))):
        with pytest.raises(AttributeError):
            setattr(r, name, v)
    assert r == EvalResult(1.0 + 0j, 0.0, 1)


def test_eval_result_contract():
    r = EvalResult(value=complex(0.5, -2.0), err_estimate=1.5e-16,
                   terms_used=12, flags=frozenset({"TruncationMaxed"}))
    assert repr(r) == ("EvalResult(value=(0.5-2j), err_estimate=1.5e-16, "
                       "terms_used=12, flags=frozenset({'TruncationMaxed'}))")
    assert repr(EvalResult(1j, 0.0, 1)) == (
        "EvalResult(value=1j, err_estimate=0.0, terms_used=1, flags=frozenset())")
    same = EvalResult(complex(0.5, -2.0), 1.5e-16, 12,
                      frozenset({"TruncationMaxed"}))
    assert r == same and hash(r) == hash(same)
    assert r != EvalResult(complex(0.5, -2.0), 1.5e-16, 12)
    assert EvalResult(1j, 0.0, 1).flags == frozenset()


def test_eval_result_scaled():
    r = EvalResult(complex(0.3, -1.2), 2.5e-15, 17, frozenset({"NearPole"}))
    c = complex(-2.0, 0.75)
    s = r.scaled(c)
    assert s.value == c * r.value
    assert s.err_estimate == abs(c) * r.err_estimate
    assert s.terms_used == 17
    assert s.flags == frozenset({"NearPole"})


def _fast_path_results():
    # (id, thunk) for every site that builds its result in one C call
    from hyperd.dfun import prepare_d_eval
    from hyperd.ffun import F0, f2f0_asymptotic
    from hyperd.series import log_combo
    from hyperd.ufun import URoute, prepare_u

    f = EvalResult(0.5 - 1j, 1e-16, 7)
    d = EvalResult(-2 + 0.25j, 3e-16, 9, frozenset({"TruncationMaxed"}))
    return [
        ("kernel-stop", lambda: sum_power_series(iter([1.0 + 0j] + [0j] * 5), 0.5)),
        ("kernel-end", lambda: sum_power_series(iter([1.0 + 0j, 2j]), 0.5)),
        ("scaled", lambda: d.scaled(2 - 1j)),
        ("log_combo", lambda: log_combo(0.5 + 1j, f, d)),
        ("d-head", lambda: prepare_d_eval(F0(2))(0.5 + 0.1j)),
        ("d-head-jet", lambda: prepare_d_eval(F0(2)).jet(0.5 + 0.1j, 2)[2]),
        ("d-no-principal", lambda: prepare_d_eval(F0(-1))(0.5 - 0.1j)),
        ("2f0-zero-term", lambda: f2f0_asymptotic(-2, 1, 0.1)),
        ("2f0-smallest-term", lambda: f2f0_asymptotic(0.5, 0.7, 0.05)),
        ("2f0-budget", lambda: f2f0_asymptotic(0.5, 0.7, 1e-3, 3)),
        ("connection", lambda: prepare_u(F0(0.37), URoute.CONNECTION)(1.5 + 0.5j)),
    ]


@pytest.mark.parametrize("site", [s for _, s in _fast_path_results()],
                         ids=[i for i, _ in _fast_path_results()])
def test_a_fast_path_result_is_an_eval_result(site):
    # built by tuple.__new__ with no NamedTuple __new__, the result is the
    # one EvalResult(...) builds from the same fields
    r = site()
    same = EvalResult(*r)
    assert type(r) is EvalResult
    assert r == same and hash(r) == hash(same) and repr(r) == repr(same)
    assert type(r.flags) is frozenset


@settings(max_examples=80, deadline=None)
@given(st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                          allow_infinity=False))
def test_geometric_property(z):
    r = sum_power_series(_geom_coeffs(), z, max_terms=8000)
    assert abs(r.value - 1.0 / (1.0 - z)) <= 1e-10 * max(1.0, abs(r.value))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-6, max_value=6),
       st.complex_numbers(min_magnitude=0.05, max_magnitude=30.0,
                          allow_nan=False, allow_infinity=False))
def test_int_pow_matches_exp_log(n, z):
    if z.imag == 0.0 and z.real <= 0.0:
        return
    got = principal_pow(z, n)
    want = cmath.exp(n * cmath.log(z))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_a_sum_that_is_not_finite_raises_domain_error():
    # z**n overflows long before the sum would converge, or the terms
    # overflow into a "converged" inf; either way no value comes back
    from hyperd.ffun import F0, F1, f_norm

    for p, z in ((F0(0.5), 1e4), (F1(0.7, 2), 800.0), (F1(0.7, 2), -800.0)):
        with pytest.raises(DomainError, match=f"at z = \\({z:g}\\+0j\\)"):
            f_norm(p, z)
    cases = [
        (lambda: itertools.repeat(1e300 + 0j), 1e5 + 0j),
        (lambda: itertools.repeat(1e300 + 0j), 1e5 + 1e5j),
        (lambda: iter([1e308 + 0j] * 2 + [0j] * 10), 1 + 0j),
        # a finite stream that runs out at an inf
        (lambda: iter([1.0, float("inf")]), 0.5 + 0j),
    ]
    for coeffs, z in cases:
        with pytest.raises(DomainError, match="not finite at z = "):
            sum_power_series(coeffs(), z)


def test_a_first_power_that_overflows_raises_domain_error():
    # at m < 0 the sum starts at n = -m, and z**start overflowed with a raw
    # OverflowError; the error names the caller's z, through Kummer's map too
    from hyperd.ffun import F0, F1, f_norm

    for p, z, msg in ((F0(-170), 100, "z**170 overflows a double at z = (100+0j)"),
                      (F0(-150), 200 + 1j, "z**150 overflows a double at z = (200+1j)"),
                      (F1(0.3, -170), -100, "z**170 overflows a double at z = (-100+0j)")):
        with pytest.raises(DomainError, match=re.escape(msg)):
            f_norm(p, z)
    with pytest.raises(DomainError, match=re.escape("z**3 overflows a double at z = (1e+200+0j)")):
        sum_power_series(iter([1.0]), 1e200, start=3)
    # a first power that fits keeps the sum as it was
    assert sum_power_series(iter([2.0 + 0j]), 1e100, start=3).value == 2.0 * (1e100 + 0j) ** 3


def test_an_error_estimate_that_is_not_finite_raises_domain_error():
    # the estimate is the first omitted term c z^n; where z^n has overflowed
    # by the stop it is inf, or nan against a zero coefficient, while the
    # sum is finite; |c| |z|^n taken in log space is 1e400 here
    with pytest.raises(DomainError, match=re.escape(
            "series error estimate is not finite at z = (1e+100+0j): inf")):
        sum_power_series(iter([1, 0j, 0j, 0j, 1]), 1e100)
    # a nan coefficient has no magnitude in log space either
    with pytest.raises(DomainError, match=re.escape(
            "series error estimate is not finite at z = (1e+100+0j): nan")):
        sum_power_series(iter([1, 0j, 0j, 0j, complex("nan")]), 1e100)
    # a finite estimate keeps its bits
    assert repr(sum_power_series(iter([1, 0j, 0j, 0j, 1]), 1e50)) == (
        "EvalResult(value=(1+0j), err_estimate=1.0000000000000005e+200, terms_used=4, "
        "flags=frozenset())")


def test_a_finite_term_whose_modulus_overflows_raises_domain_error():
    # |1.5e308 + 1.5e308j| is past a double while both parts are finite;
    # abs() raised a raw OverflowError in the stop test of a group, in the
    # error estimate of the first omitted term and in the error that
    # NoConvergence carries
    huge = 1.5e308 + 1.5e308j
    msg = re.escape("series term or sum has a modulus past a double at z = (1+0j)")
    for coeffs, max_terms in (([huge] * 5 + [0j] * 10, 10000),
                              ([1, 0j, 0j, 0j, huge], 10000),
                              ([1, 1, 1, huge], 4)):
        with pytest.raises(DomainError, match=msg):
            sum_power_series(iter(coeffs), 1, max_terms)


def test_an_estimate_whose_power_overflowed_is_taken_in_log_space():
    # the 0F1 tail of D at order 20 stops after 90 terms at 2633-534j, where
    # z^90 has overflowed to inf+inf*i: c_90 (subnormal, about -3.9e-316)
    # times it was nan.  The estimate is exp(log|c_90| + 90 log|z|)
    import mpmath as mp

    from hyperd.dfun import d_eval, d_expand
    from hyperd.ffun import F0

    m, z = 20, 2633 - 534j
    r = d_eval(F0(m), z)
    c90 = d_expand(F0(m)).tail_list(91)[90]
    assert c90 != 0 and abs(c90) < 1e-315
    with mp.workdps(60):
        w = mp.mpc(z)
        principal = sum((-1) ** (k - 1) * mp.factorial(k - 1) / mp.factorial(m - k) * w ** -k
                        for k in range(1, m + 1))
        tail = sum(-(mp.digamma(1 + k) + mp.digamma(1 + m + k))
                   / (mp.factorial(k) * mp.factorial(m + k)) * w ** k for k in range(200))
        want = complex(principal + tail)
        est = float(abs(mp.mpmathify(c90)) * abs(w) ** 90)
    assert r.terms_used == 90 and r.flags == frozenset()
    assert abs(r.value - want) <= 1e-15 * abs(want)
    assert abs(r.err_estimate - est) <= 1e-12 * est
    assert 1.6e-7 < r.err_estimate < 1.7e-7
    # a stream of small terms against the same overflowed power
    r = sum_power_series(iter([1, 0j, 0j, 0j, 1e-300]), 1e100)
    assert r.value == 1 and r.terms_used == 4
    assert abs(r.err_estimate - 1e100) <= 1e-12 * 1e100


def test_a_sum_stops_once_it_is_not_finite(monkeypatch):
    # a nan term is never small; the sum raises at the group where it
    # turned non-finite instead of reading on to max_terms
    from hyperd import dfun, ffun
    from hyperd.ffun import F0, f_norm
    from hyperd.ufun import URoute, u1

    pulled = 0

    def counted(coeff, *args, **kwargs):
        def pull():
            nonlocal pulled
            for c in coeff:
                pulled += 1
                yield c
        return sum_power_series(pull(), *args, **kwargs)

    monkeypatch.setattr(ffun, "sum_power_series", counted)
    monkeypatch.setattr(dfun, "sum_power_series", counted)
    # LogPlusD forced: the automatic route answers z = 1e6 from the
    # asymptotic expansion, which sums no series
    for call in (lambda: f_norm(F0(0.5), 1e4), lambda: u1(0.7, 1, 1e6, URoute.LOG_PLUS_D)):
        pulled = 0
        with pytest.raises(DomainError, match="not finite"):
            call()
        assert 0 < pulled < 100
