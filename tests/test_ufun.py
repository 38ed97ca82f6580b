"""Infinity-normalized U solutions and the Bessel wrappers.

mpmath provides the classical counterparts: U_alpha is
(2/sqrt(pi)) z^(-alpha/2) K_alpha(2 sqrt z), the confluent U is
Tricomi's function, the Bessel wrappers are the standard I, J, K, H.
"""

import cmath
import math

import mpmath as mp
import pytest

from hyperd.errors import (
    BranchCut,
    DomainError,
    HyperdError,
    ParameterSingular,
    RouteInapplicable,
)
from hyperd.gammakit import gamma
from hyperd.series import principal_pow
from hyperd.ufun import CONNECTION_INT_BAND, URoute, bessel, u0, u1, u2

mp.mp.dps = 30


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _u0_ref(alpha, z):
    # U_alpha(z) = (2/sqrt(pi)) z^(-alpha/2) K_alpha(2 sqrt z)
    zm = _mpc(z)
    w = 2 * mp.sqrt(zm)
    return complex(2 / mp.sqrt(mp.pi) * zm ** (-alpha / 2.0)
                   * mp.besselk(alpha, w))


def _u1_ref(theta, alpha, z):
    a = (1 + alpha + theta) / 2
    c = 1 + alpha
    return complex(mp.hyperu(a, c, _mpc(z)))


def _u2_ref(alpha, beta, mu, z):
    # the solution (-z)^(-a) 2F1(a, a-c+1; a-b+1; 1/z)/Gamma(a-b+1)
    a = (1 + alpha + beta - mu) / 2
    b = (1 + alpha + beta + mu) / 2
    c = 1 + alpha
    zm = _mpc(z)
    val = (-zm) ** mp.mpf(-a) * mp.hyp2f1(a, a - c + 1, a - b + 1, 1 / zm) \
        / mp.gamma(a - b + 1)
    return complex(val)


@pytest.mark.parametrize("alpha", [0.37, -0.6, 1.55])
@pytest.mark.parametrize("z", [0.8, 2.5, complex(1.2, 0.9), complex(-0.7, 0.5)])
def test_u0_connection_vs_besselk(alpha, z):
    got = u0(alpha, z, URoute.CONNECTION).value
    assert _rel(got, _u0_ref(alpha, z)) < 1e-11


@pytest.mark.parametrize("m", [0, 1, 2, -1])
@pytest.mark.parametrize("z", [0.8, complex(1.2, 0.9)])
def test_u0_logplusd_vs_besselk(m, z):
    got = u0(m, z, URoute.LOG_PLUS_D).value
    assert _rel(got, _u0_ref(m, z)) < 1e-12


def test_u0_asymptotic_route():
    for alpha in (0.37, 2.0):
        for z in (40.0, complex(30.0, 25.0)):
            r = u0(alpha, z, URoute.ASYMPTOTIC_2F0)
            want = _u0_ref(alpha, z)
            assert abs(r.value - want) <= 10.0 * r.err_estimate + 1e-13 * abs(want)


@pytest.mark.parametrize("theta,alpha", [(0.7, 0.37), (1.9, -0.45), (0.3, 1.6)])
@pytest.mark.parametrize("z", [0.9, 3.0, complex(0.8, 1.1)])
def test_u1_connection_vs_tricomi(theta, alpha, z):
    got = u1(theta, alpha, z, URoute.CONNECTION).value
    assert _rel(got, _u1_ref(theta, alpha, z)) < 1e-11


@pytest.mark.parametrize("m", [0, 1, 3])
def test_u1_logplusd_vs_tricomi(m):
    theta = 0.7
    for z in (0.9, complex(0.8, 1.1)):
        got = u1(theta, m, z, URoute.LOG_PLUS_D).value
        assert _rel(got, _u1_ref(theta, m, z)) < 1e-12


def test_u1_negative_m_shift():
    theta, m = 0.7, 2
    z = complex(0.9, 0.4)
    lhs = u1(theta, -m, z, URoute.LOG_PLUS_D).value
    rhs = principal_pow(z, m) * u1(theta, m, z, URoute.LOG_PLUS_D).value
    assert _rel(lhs, rhs) < 1e-13


def test_u1_asymptotic_route():
    theta, alpha = 0.7, 0.37
    z = 35.0
    r = u1(theta, alpha, z, URoute.ASYMPTOTIC_2F0)
    want = _u1_ref(theta, alpha, z)
    assert abs(r.value - want) <= 10.0 * r.err_estimate + 1e-13 * abs(want)


def test_u1_degenerate_confluent_prefactor_guard():
    # (1 - m + theta)/2 at a non-positive integer kills the prefactor
    with pytest.raises(ParameterSingular):
        u1(-1.0, 0, 0.5, URoute.LOG_PLUS_D)


@pytest.mark.parametrize("alpha", [0.37, -0.55])
@pytest.mark.parametrize("z", [complex(-0.5, 0.0), complex(0.3, 0.6),
                               complex(-0.4, -0.3)])
def test_u2_connection_vs_reference(alpha, z):
    beta, mu = 0.3, 0.2
    got = u2(alpha, beta, mu, z, URoute.CONNECTION).value
    assert _rel(got, _u2_ref(alpha, beta, mu, z)) < 1e-10


@pytest.mark.parametrize("m", [0, 1, 2])
def test_u2_logplusd_vs_reference(m):
    beta, mu = 0.3, 0.2
    for z in (complex(-0.5, 0.0), complex(0.3, 0.6)):
        got = u2(m, beta, mu, z, URoute.LOG_PLUS_D).value
        assert _rel(got, _u2_ref(m, beta, mu, z)) < 1e-10


def test_u2_negative_m_shift():
    beta, mu = 0.3, 0.2
    m = 2
    z = complex(-0.4, 0.5)
    lhs = u2(-m, beta, mu, z, URoute.LOG_PLUS_D).value
    neg = complex(-z.real, -z.imag)
    rhs = principal_pow(neg, m) * u2(m, beta, mu, z, URoute.LOG_PLUS_D).value
    assert _rel(lhs, rhs) < 1e-12


def test_u2_asymptotic_route():
    beta, mu = 0.3, 0.2
    for alpha in (0.37, 1.0):
        for z in (-3.0, complex(-2.0, 2.0)):
            got = u2(alpha, beta, mu, z, URoute.ASYMPTOTIC_2F0).value
            assert _rel(got, _u2_ref(alpha, beta, mu, z)) < 1e-11


def test_u2_cut_guard():
    with pytest.raises(BranchCut):
        u2(0.37, 0.3, 0.2, 0.5)
    with pytest.raises(BranchCut):
        u2(0.37, 0.3, 0.2, 0.0)


def test_u2_radius_gap():
    with pytest.raises(DomainError):
        u2(0.37, 0.3, 0.2, complex(-0.99, 0.0))
    # the 1/z series itself refuses arguments inside the gap
    with pytest.raises(DomainError):
        u2(0.37, 0.3, 0.2, complex(-0.99, 0.0), URoute.ASYMPTOTIC_2F0)
    # |z| just above 1/0.95 routes through the 1/z series automatically
    v = u2(0.37, 0.3, 0.2, complex(-1.1, 0.0)).value
    assert _rel(v, _u2_ref(0.37, 0.3, 0.2, complex(-1.1, 0.0))) < 1e-10


def test_route_picking_and_bands():
    z = 0.9
    auto = u0(2.0, z).value
    forced = u0(2.0, z, URoute.LOG_PLUS_D).value
    assert auto == forced
    auto_g = u0(0.3, z).value
    forced_g = u0(0.3, z, URoute.CONNECTION).value
    assert auto_g == forced_g
    # ambiguous band: too far from integer to snap, too close to connect
    with pytest.raises(RouteInapplicable):
        u0(2.0 + 1e-8, z)
    with pytest.raises(RouteInapplicable):
        u0(0.5, z, URoute.LOG_PLUS_D)
    with pytest.raises(RouteInapplicable):
        u0(2.0, z, URoute.CONNECTION)
    assert CONNECTION_INT_BAND == 1e-6


def test_route_accepts_strings():
    z = 0.9
    assert u0(1.0, z, "LogPlusD").value == u0(1.0, z, URoute.LOG_PLUS_D).value
    with pytest.raises(ValueError):
        u0(1.0, z, "NoSuchRoute")


def test_connection_error_estimate_covers_cancellation():
    # near the band edge the sine denominator is ~ 3e-6, so the estimate
    # must blow up accordingly while the value stays finite
    r = u0(1.0 + 2e-6, 0.9, URoute.CONNECTION)
    assert r.err_estimate > 1e-12
    want = _u0_ref(1.0 + 2e-6, 0.9)
    assert abs(r.value - want) <= 3.0 * r.err_estimate


# Bessel wrappers


@pytest.mark.parametrize("m", [0, 1, 3, -2])
@pytest.mark.parametrize("z", [0.7, 2.2, complex(1.1, 0.8)])
def test_bessel_I_J(m, z):
    assert _rel(bessel("I", m, z).value, complex(mp.besseli(m, _mpc(z)))) < 1e-12
    assert _rel(bessel("J", m, z).value, complex(mp.besselj(m, _mpc(z)))) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 3, -2])
@pytest.mark.parametrize("z", [0.7, 2.2, complex(1.1, 0.8)])
def test_bessel_K(m, z):
    assert _rel(bessel("K", m, z).value, complex(mp.besselk(m, _mpc(z)))) < 1e-12


@pytest.mark.parametrize("m", [0, 2, -1])
def test_bessel_hankel(m):
    for z in (1.3, complex(0.9, 0.6)):
        h1 = bessel("H1", m, z).value
        h2 = bessel("H2", m, z).value
        assert _rel(h1, complex(mp.hankel1(m, _mpc(z)))) < 1e-11
        assert _rel(h2, complex(mp.hankel2(m, _mpc(z)))) < 1e-11
        jj = bessel("J", m, z).value
        assert abs(h1 + h2 - 2.0 * jj) < 1e-13 * max(1.0, abs(jj))


@pytest.mark.parametrize("m", [float("nan"), float("inf"), -float("inf")])
def test_bessel_non_finite_order_is_a_domain_error(m):
    with pytest.raises(DomainError, match="m = "):
        bessel("I", m, 1)


def test_bessel_k_matches_u0_composition():
    # K_m(z) = (sqrt(pi)/2) (z/2)^m U_m(z^2/4)
    for m in (0, 1, 2, 3):
        for z in (0.6, 1.3):
            k = bessel("K", m, z).value
            u = u0(m, z * z / 4.0, URoute.LOG_PLUS_D).value
            want = 0.5 * math.sqrt(math.pi) * (z / 2.0) ** m * u
            assert _rel(k, want) < 1e-13


def test_bessel_bad_inputs():
    with pytest.raises(ValueError):
        bessel("Y", 0, 1.0)
    with pytest.raises(ValueError):
        bessel("K", 0.5, 1.0)
