"""F summed through Kummer's map (1F1, Re z < 0) and Pfaff's map (2F1,
|z/(z-1)| < |z|), against mpmath at 40 digits.

The references are mpmath's 1F1 and 2F1 divided by Gamma(c); at
c = 1 + m with m = -k <= 0 they take the degenerate series, which starts
at n = k, as (a)_k (b)_k z^k / k! times the series with a, b, c raised by
k.  Derivatives come from mpmath's numerical differentiation.
"""

import cmath
import functools
import math
import random

import mpmath as mp
import pytest

from hyperd import F1, F2, f_norm, f_second, ffun, series
from hyperd.dfun import prepare_d_eval, prepare_d_eval_I, prepare_log_solution
from hyperd.errors import DomainError, NoConvergence
from hyperd.ffun import (_seed, prepare_f2_norm_I, prepare_f_norm,
                         prepare_f_second)
from hyperd.oracle import ode_residual
from hyperd.series import principal_pow, sum_power_series

mp.mp.dps = 40

TOL = 1e-12


def _mpc(z):
    return mp.mpc(z.real, z.imag)


def _ref_norm(p, z):
    """F of p at the mpmath point z, alpha taken as given."""
    *upper, c = (mp.mpmathify(v) for v in p.to_classical())
    k = int(mp.nint(mp.re(c))) - 1
    if mp.im(c) == 0 and c == k + 1 and k < 0:
        k = -k
        lead = mp.fprod(mp.rf(u, k) for u in upper) * z**k / mp.factorial(k)
        return lead * mp.hyper([u + k for u in upper], [k + 1], z)
    return mp.hyper(upper, [c], z) / mp.gamma(c)


def _reflected(p):
    if isinstance(p, F1):
        return F1(theta=p.theta, alpha=-p.alpha)
    return F2(alpha=-p.alpha, beta=p.beta, mu=-p.mu)


def _ref_second(p, z):
    return z ** (-mp.mpmathify(p.alpha)) * _ref_norm(_reflected(p), z)


def _leibniz(p, z):
    """For k = 0, 1, 2: the sum over j of C(k, j) |(z^a)^(j)| |G^(k-j)|,
    a = -alpha, G the reflected F: second^(k) is that sum with signs, so
    its rounding is relative to this magnitude, which far exceeds
    |second^(k)| near z = 0 at alpha > 0."""
    a = -mp.mpmathify(p.alpha)
    s = [mp.ff(a, j) * _mpc(z) ** (a - j) for j in range(3)]
    g = _ref_jet(_ref_norm, _reflected(p), z, 2)
    return [sum(math.comb(k, j) * abs(s[j]) * abs(g[k - j]) for j in range(k + 1))
            for k in range(3)]


def _ref_norm_I(p, z):
    a, b, c = (mp.mpmathify(v) for v in p.to_classical())
    return mp.gamma(a) * mp.gamma(c - a) * _ref_norm(p, z)


def _ref_jet(ref, p, z, order):
    z = _mpc(z)
    return [complex(mp.diff(lambda t: ref(p, t), z, k)) for k in range(order + 1)]


def _direct_terms(p, z):
    """terms_used of the series of p itself at z."""
    start, gen = _seed(p)
    return sum_power_series(gen(), z, start=start).terms_used


def _check_jet(prepare, ref, p, z, cond=1.0, scale=(0.0, 0.0, 0.0)):
    """The jets of order 0, 1 and 2 against mpmath.  F is within TOL
    relative, or TOL of scale[0] where that is larger.  F^(k) may lose
    cond (1 + |z|)^k more: at a mapped point it is a sum of G^(i) that
    nearly cancel, and cond is the cancellation of the terms of G's own
    series."""
    at = prepare(p)
    want = _ref_jet(ref, p, z, 2)
    for order in (0, 1, 2):
        got = at.jet(z, order)
        assert len(got) == order + 1
        for k, r in enumerate(got):
            tol = TOL * (cond * (1 + abs(z)) ** k if k else 1.0)
            assert abs(r.value - want[k]) <= tol * max(abs(want[k]), scale[k]), \
                (order, k, r, want[k])
    return at


# 1F1: m in {-2, 0, 3}, a generic alpha, real and complex theta, Re z < 0
# out to |z| = 60
F1_PARAMS = [F1(0.7, -2), F1(complex(0.4, 1.3), 0), F1(-1.3, 3),
             F1(complex(0.7, -0.6), 0.37)]
F1_ZS = [-0.45 + 0.1j, -8 - 3j, -25 + 20j, -40 + 2j, -59.5 + 8j]


@pytest.mark.parametrize("p", F1_PARAMS)
@pytest.mark.parametrize("z", F1_ZS)
def test_kummer_f_and_second_match_mpmath(p, z):
    # the terms of G at -z reach e^|z| and sum to about e^-Re z
    cond = math.exp(abs(z) + z.real)
    at = _check_jet(prepare_f_norm, _ref_norm, p, z, cond)
    _check_jet(prepare_f_second, _ref_second, p, z, cond, _leibniz(p, z))
    # F solves its equation: the residual is a rounding of its terms
    f0, f1, f2 = (r.value for r in at.jet(z, 2))
    scale = abs(z * f2) + abs((1 + p.alpha - z) * f1) + abs((1 + p.theta + p.alpha) * f0)
    assert ode_residual(at, p, z).residual <= 1e-12 * cond * scale


# 2F1: integer and generic alpha, alpha = -2 included, inside the 0.95
# disc and outside the unit disc about 1
F2_PARAMS = [F2(-2, 0.3, 0.25), F2(1, 0.3, 0.2), F2(0.4, complex(0.3, 0.5), -0.7),
             F2(3, -0.45, 1.2)]
F2_ZS = [-0.6 + 0.6j, -0.9 + 0.1j, -0.3 - 0.2j, 0.2 + 0.9j, -0.05 + 0.01j]


@pytest.mark.parametrize("p", F2_PARAMS)
@pytest.mark.parametrize("z", F2_ZS)
def test_pfaff_f_fi_and_second_match_mpmath(p, z):
    assert abs(z / (z - 1)) < abs(z) <= 0.95
    at = _check_jet(prepare_f_norm, _ref_norm, p, z)
    _check_jet(prepare_f2_norm_I, _ref_norm_I, p, z)
    _check_jet(prepare_f_second, _ref_second, p, z, scale=_leibniz(p, z))
    f0, f1, f2 = (r.value for r in at.jet(z, 2))
    lam = 0.25 * p.mu ** 2 - 0.25 * (p.alpha + p.beta + 1) ** 2
    scale = (abs(z * (1 - z) * f2) + abs(((p.alpha + 1) * (1 - z) - (p.beta + 1) * z) * f1)
             + abs(lam * f0))
    assert ode_residual(at, p, z).residual <= 1e-12 * scale


@pytest.mark.parametrize("p,z", [(F1(0.7, -2), -3 + 1j), (F1(complex(0.4, 1.3), 0.37), -6 - 2j),
                                 (F2(0.4, 0.3, -0.7), -0.6 + 0.5j), (F2(-2, 0.3, 0.25), -0.3 - 0.2j)])
def test_higher_orders_of_a_mapped_jet(p, z):
    # the factors of the maps hold at every order, not only to F''
    got = prepare_f_norm(p).jet(z, 4)
    for k, r in enumerate(got):
        want = complex(mp.diff(lambda t: _ref_norm(p, t), _mpc(z), k))
        assert abs(r.value - want) <= 1e-12 * abs(want), (k, r, want)


@pytest.mark.parametrize("p,z,direct,mapped", [
    (F1(0.7, 2), -40 + 2j, 137, 99),
    (F2(0.3, 0.2, 0.1), -0.6 + 0.6j, 173, 42),
])
def test_a_mapped_point_sums_fewer_terms(p, z, direct, mapped):
    assert _direct_terms(p, z) == direct
    assert f_norm(p, z).terms_used == mapped


@pytest.mark.parametrize("p,zs", [
    (F1(0.7, 2), [0.0, 3 + 4j, complex(-0.0, 2.0), 40 - 1j]),
    (F2(0.3, 0.2, 0.1), [0.0, 0.6 + 0.6j, 0.5, 0.3 + 0.7j, complex(0.6, -0.0)]),
])
def test_every_other_point_sums_the_series_of_p(p, zs):
    for z in zs:
        start, gen = _seed(p)
        direct = sum_power_series(gen(), z, start=start)
        assert repr(f_norm(p, z)) == repr(direct), z


def test_a_mapped_sum_that_raises_names_the_callers_point(monkeypatch):
    # G = F_{-theta,alpha} overflows at -z = 800: the error names z
    with pytest.raises(DomainError, match=r"at z = \(-800\+0j\)"):
        f_norm(F1(0.7, 2), -800)
    # NoConvergence, with the kernel's budget cut to 5 terms, carries G's
    # partial sum and error times the scale
    short = functools.partial(series.sum_power_series, max_terms=5)
    for p, z, q, x, scale in (
        (F1(0.7, 2), -40 + 2j, F1(-0.7, 2), 40 - 2j, cmath.exp(-40 + 2j)),
        (F2(0.3, 0.2, 0.1), -0.6 + 0.6j, F2(0.3, -0.1, -0.2),
         (-0.6 + 0.6j) / (-1.6 + 0.6j),
         principal_pow(1.6 - 0.6j, -(1 + 0.3 + 0.2 - 0.1) / 2)),
    ):
        at = prepare_f_norm(p)
        with monkeypatch.context() as patch:
            patch.setattr(ffun, "sum_power_series", short)
            with pytest.raises(NoConvergence) as got:
                at(z)
            with pytest.raises(NoConvergence) as inner:
                prepare_f_norm(q)(x)
        assert str(got.value) == f"no convergence in 5 terms at z = {complex(z)}"
        want = scale * inner.value.partial
        assert abs(got.value.partial - want) <= 1e-14 * abs(want)
        assert got.value.err == pytest.approx(abs(scale) * inner.value.err, rel=1e-14)
        # a point after the raise is summed in full
        assert at(z) == f_norm(p, z)


def test_the_disc_check_comes_before_the_map():
    # z/(z-1) lies well inside the disc, but F is refused at |z| > 0.95
    z = -0.96 + 0.0j
    assert abs(z / (z - 1)) < 0.5
    with pytest.raises(DomainError, match="2F1 direct series"):
        f_norm(F2(0.3, 0.2, 0.1), z)


@pytest.mark.parametrize("prepare", [prepare_f_norm, prepare_f_second, prepare_f2_norm_I,
                                     prepare_d_eval, prepare_d_eval_I, prepare_log_solution])
@pytest.mark.parametrize("bad", ["x", None, {"alpha": 1.0}], ids=["str", "None", "dict"])
def test_prepare_refuses_what_is_not_a_parameter_set(prepare, bad):
    with pytest.raises(TypeError):
        prepare(bad)


def test_f_second_names_the_unsupported_type():
    with pytest.raises(TypeError, match="unsupported parameter type str"):
        f_second("x", 0.5)


def test_random_1f1_survey_left_half_plane():
    # seeded parameters over Re z < 0 out to |Re z| = 50 and |Im z| = 15,
    # the region of the table benchmark's 1F1 grids; further from the
    # real axis both series cancel by about e^(|z| - |Re z|)
    rng = random.Random(12)
    for _ in range(60):
        theta = complex(rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(-2, 2)]))
        alpha = rng.choice([rng.randint(-3, 4), rng.uniform(-2.5, 4.5)])
        z = complex(-rng.uniform(0.1, 50), rng.uniform(-15, 15))
        p = F1(theta, alpha)
        want = complex(_ref_norm(p, _mpc(z)))
        got = f_norm(p, z).value
        assert abs(got - want) <= 1e-10 * abs(want), (p, z, got, want)
