"""Gamma, digamma, harmonic and Pochhammer building blocks.

Reference values in _GAMMA_REF were produced with 40-digit arbitrary
precision arithmetic and frozen; the remaining tests are functional
identities that need no external reference.
"""

import cmath
import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperd.dfun import d_eval
from hyperd.errors import DomainError, PoleError
from hyperd.ffun import F0, F1, f_norm
from hyperd.gammakit import (
    EULER_GAMMA,
    cospi,
    digamma,
    gamma,
    harmonic,
    near_int,
    near_nonpositive_int,
    pochhammer,
    recip_gamma,
    sinpi,
)

_GAMMA_REF = (
    ((-3.3 + 0j), (0.43851739219876307 + 0j), (3.620353460592126 + 0j)),
    ((-3.3 + 0.8j), (-0.007914069539932317 + 0.06182511573124762j), (1.3982407285082623 + 2.922230638275175j)),
    ((-3.3 - 2.5j), (-0.00032579613300150255 + 0.0004964486872787175j), (1.5156346084038201 - 2.5615240914787094j)),
    ((-1.25 + 0j), (3.9213334478885686 + 0j), (3.714139120213528 + 0j)),
    ((-1.25 + 0.8j), (0.16258065809121758 + 0.5087773417527158j), (0.7031211503492447 + 2.7205700651192273j)),
    ((-1.25 - 2.5j), (-0.008215778375087473 - 0.0032407247222896876j), (1.1142165748867223 - 2.185777483086027j)),
    ((-0.4 + 0j), (-3.7229806220320425 + 0j), (0.9593807861068093 + 0j)),
    ((-0.4 + 0.8j), (-0.7288987079333025 - 0.25353212439069167j), (0.21580832720451532 + 2.4087508191918228j)),
    ((-0.4 - 2.5j), (-0.0041616816937421735 + 0.020955510669746907j), (0.9726553155284317 - 1.9202664425403002j)),
    ((0.5 + 0j), (1.772453850905516 + 0j), (-1.9635100260214235 + 0j)),
    ((0.5 + 0.8j), (0.43062970311350823 - 0.5658574569628428j), (-0.307004035335537 + 1.550317389036363j)),
    ((0.5 - 2.5j), (0.04847608462442659 + 0.00944571431992653j), (0.909417489370824 - 1.5707958533515278j)),
    ((1 + 0j), (1 + 0j), (-0.5772156649015329 + 0j)),
    ((1 + 0.8j), (0.6107989880679593 - 0.19177395301476405j), (-0.07088340212750585 + 0.9665457813486902j)),
    ((1 - 2.5j), (0.066872772364873 - 0.040322635119484244j), (0.9298578387407785 - 1.370796800238408j)),
    ((2.75 + 0j), (1.6083594219855457 + 0j), (0.8189010249754326 + 0j)),
    ((2.75 + 0.8j), (1.0982186792459152 + 0.8713176684145082j), (0.8760666104550665 + 0.3372055318943365j)),
    ((2.75 - 2.5j), (-0.373157176865068 - 0.32372301734351017j), (1.212623820697197 - 0.8343090262224845j)),
    ((6.5 + 0j), (287.88527781504433 + 0j), (1.792911330399933 + 0j)),
    ((6.5 + 0.8j), (36.50777639686278 + 270.55730093533185j), (1.8016631012924644 + 0.13225627124214487j)),
    ((6.5 - 2.5j), (-27.948402041625723 + 171.354160209921j), (1.8724965959799504 - 0.39409491321574364j)),
    (1j, (-0.15494982830181067 - 0.49801566811835607j), (0.09465032062247698 + 2.076674047468581j)),
    ((-7.2 + 0.3j), (5.583360886798715e-05 + 0.00033317746552038205j), (3.0191137519818914 + 3.2640814940489022j)),
    ((12 + 5j), (13617486.481125215 - 2817017.434119188j), (2.5290991869585886 + 0.4099338557157795j)),
)

# off-pole parameter points for the identity tests
_PTS = [complex(0.37, 0.0), complex(-1.6, 0.0), complex(2.2, -0.7),
        complex(-0.45, 1.3), complex(5.1, 0.2)]


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("z,g,d", _GAMMA_REF)
def test_gamma_digamma_reference(z, g, d):
    assert _rel(gamma(z), g) < 1e-13
    assert _rel(digamma(z), d) < 1e-13


def test_near_int():
    assert near_int(3.0) == 3
    assert near_int(3.0 + 5e-10j) == 3
    assert near_int(2.9999999996) == 3
    assert near_int(3.1) is None
    assert near_int(complex(3.0, 0.1)) is None
    assert near_nonpositive_int(-2.0) == -2
    assert near_nonpositive_int(0.0) == 0
    assert near_nonpositive_int(1.0) is None


def test_poles():
    for n in (0, -1, -5):
        with pytest.raises(PoleError):
            gamma(float(n))
        with pytest.raises(PoleError):
            digamma(float(n))
        assert recip_gamma(float(n)) == 0j


def test_gamma_past_the_lanczos_power_overflow():
    # the Lanczos power t ** (z - 1/2) overflows from z = 142.6 on, while
    # Gamma itself stays finite up to z = 171.6
    for x in [142.6, 142.7] + list(range(143, 172)):
        assert _rel(gamma(x), math.gamma(x)) < 1e-13
        assert _rel(recip_gamma(x), 1.0 / math.gamma(x)) < 1e-13
    for x in (-150.5, -171.5):
        assert _rel(gamma(x), math.gamma(x)) < 1e-13
    r = recip_gamma(191.5)
    assert r.real >= 0.0 and math.isfinite(r.real) and r.imag == 0.0
    assert recip_gamma(175.0).real > 0.0  # subnormal, not flushed to 0
    for z in (200.0, 171.7, complex(180.0, 3.0)):
        with pytest.raises(DomainError):
            gamma(z)
    with pytest.raises(DomainError):
        recip_gamma(-200.5)


def test_sinpi_cospi_exact_at_small_arguments():
    for n in range(-6, 7):
        assert sinpi(float(n)) == 0.0
        assert cospi(float(n)) == (-1.0) ** n
    assert abs(sinpi(0.5) - 1.0) < 1e-16
    assert abs(sinpi(1e-18) - math.pi * 1e-18) < 1e-33
    # relative accuracy very close to a large odd integer: reduction is
    # exact, so the result tracks the stored residue r = z - 101
    z = 101.0 + 1e-12
    r = z - 101.0
    assert abs(sinpi(z) + math.pi * r) < 1e-15 * abs(math.pi * r)


def test_gamma_recurrence_and_reflection():
    for z in _PTS:
        assert _rel(gamma(z + 1), z * gamma(z)) < 1e-13
        assert _rel(gamma(z) * gamma(1 - z), math.pi / sinpi(z)) < 1e-13
        assert _rel(recip_gamma(z), 1.0 / gamma(z)) < 1e-13


def test_digamma_recurrence_and_special_values():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-15
    assert abs(digamma(0.5) + EULER_GAMMA + 2 * math.log(2.0)) < 1e-14
    for z in _PTS:
        assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) < 1e-13


def test_harmonic_basic():
    assert harmonic(0) == 0j
    assert abs(harmonic(4) - (1 + 0.5 + 1 / 3 + 0.25)) < 1e-15
    assert abs(harmonic(3, 0.5) - (2.0 + 2.0 / 3.0 + 0.4)) < 1e-15
    with pytest.raises(PoleError):
        harmonic(3, -1.0)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_pochhammer_both_signs():
    assert pochhammer(3.0, 0) == 1.0
    assert abs(pochhammer(3.0, 4) - 3 * 4 * 5 * 6) < 1e-12
    # (z)_{-k} continues the recurrence (z)_{j+1} = (z+j)(z)_j downward
    for z in _PTS:
        for k in (1, 2, 5):
            lhs = pochhammer(z, -k) * pochhammer(z - k, k)
            assert abs(lhs - 1.0) < 1e-13
    with pytest.raises(PoleError):
        pochhammer(2.0, -3)


# functional identities connecting psi, H and the Pochhammer symbol


def test_digamma_shift_by_harmonic():
    # psi(z + k) = psi(z) + H_k(z)
    for z in _PTS:
        for k in (1, 3, 7):
            assert abs(digamma(z + k) - digamma(z) - harmonic(k, z)) < 1e-12


def test_harmonic_reflection():
    # H_k(z) = -H_k(1 - z - k)
    for z in _PTS:
        for k in (1, 2, 6):
            assert abs(harmonic(k, z) + harmonic(k, 1 - z - k)) < 1e-13


def test_harmonic_concatenation():
    # H_{k+n}(z) = H_n(z) + H_k(z + n)
    for z in _PTS:
        for k, n in ((2, 3), (1, 6), (4, 4)):
            lhs = harmonic(k + n, z)
            assert abs(lhs - harmonic(n, z) - harmonic(k, z + n)) < 1e-13


def test_pochhammer_reversal():
    # (z)_k = (-1)^k (1 - k - z)_k
    for z in _PTS:
        for k in (1, 2, 5):
            lhs = pochhammer(z, k)
            rhs = (-1.0) ** k * pochhammer(1 - k - z, k)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_digamma_downward_shift():
    # psi(w - k) = psi(w) + H_k(1 - w): the form every psi-sum
    # simplification in the D coefficient tables reduces to
    for w in _PTS:
        for k in (1, 2, 4):
            assert abs(digamma(w - k) - digamma(w) - harmonic(k, 1 - w)) < 1e-12


def test_recip_gamma_derivative_at_poles():
    # d/dz (1/Gamma) at z = -n equals (-1)^n n!
    h = 1e-5
    for n in range(4):
        z = -float(n)
        fd = (recip_gamma(z + h) - recip_gamma(z - h)) / (2 * h)
        want = (-1.0) ** n * math.factorial(n)
        assert abs(fd - want) < 1e-8 * max(1.0, abs(want))


def test_pochhammer_parameter_derivative():
    # d/dz (z)_n = H_n(z) (z)_n
    h = 1e-6
    for z in (0.8, 2.3, -1.45):
        for n in (1, 3, 5):
            fd = (pochhammer(z + h, n) - pochhammer(z - h, n)) / (2 * h)
            want = harmonic(n, z) * pochhammer(z, n)
            assert abs(fd - want) < 1e-7 * max(1.0, abs(want))


def test_digamma_at_positive_integers():
    # psi(1 + k) = -gamma + H_k
    for k in range(9):
        want = -EULER_GAMMA + harmonic(k).real
        assert abs(digamma(1.0 + k) - want) < 1e-14


@settings(max_examples=120, deadline=None)
@given(st.complex_numbers(min_magnitude=0.01, max_magnitude=20.0,
                          allow_nan=False, allow_infinity=False))
def test_gamma_recurrence_property(z):
    if near_nonpositive_int(z) is not None or near_nonpositive_int(z + 1) is not None:
        return
    assert _rel(gamma(z + 1), z * gamma(z)) < 5e-13


@settings(max_examples=120, deadline=None)
@given(st.complex_numbers(min_magnitude=0.01, max_magnitude=20.0,
                          allow_nan=False, allow_infinity=False),
       st.integers(min_value=0, max_value=8))
# near the pole at -3 both digammas are about 8.4e6i: an absolute bound
# of 1e-10 there asks for 1e-17 relative accuracy
@example(z=complex(-3, 1.19e-7), k=1)
def test_digamma_harmonic_property(z, k):
    bad = any(abs(z + j) < 1e-3 for j in range(-1, k + 1))
    if bad or near_nonpositive_int(z) is not None:
        return
    if near_nonpositive_int(z + k) is not None:
        return
    scale = max(1.0, abs(digamma(z)), abs(digamma(z + k)))
    assert abs(digamma(z + k) - digamma(z) - harmonic(k, z)) < 1e-10 * scale


def test_recip_gamma_overflow_far_off_the_real_axis():
    # |1/Gamma(1/2 + iy)| = sqrt(cosh(pi y) / pi) passes the largest double
    # between y = 452 and y = 453 (4.3e308 at 453); short of that the
    # direct Lanczos value stands, within 3e-13 of the true one
    import mpmath as mp

    got = recip_gamma(0.5 + 452j)
    assert got == complex(6.029111008837973e+307, 6.56279057230081e+307)
    want = complex(mp.rgamma(mp.mpc(0.5, 452)))
    assert abs(got - want) <= 3e-13 * abs(want)
    for z in (0.5 + 453j, 0.5 - 453j, 0.5 + 455j, 3.0 + 1e5j):
        with pytest.raises(DomainError):
            recip_gamma(z)


def _check_against_mpmath(z):
    # each value that fits a double is returned, and DomainError raised
    # only where the true value overflows
    import mpmath as mp

    w = mp.mpc(z.real, z.imag)
    for f, ref in ((gamma, mp.gamma), (recip_gamma, mp.rgamma),
                   (digamma, mp.digamma)):
        want = ref(w)
        if abs(want) > sys.float_info.max:
            with pytest.raises(DomainError):
                f(z)
            continue
        got = f(z)
        # gamma at -3.5 ± 450i is subnormal, about 6e-318
        assert abs(got - complex(want)) <= 1e-12 * abs(want) + 1e-321


@pytest.mark.parametrize("x", [0.4, -3.5])
@pytest.mark.parametrize("y", [200, 230, 300, 450, -200, -230, -300, -450])
def test_reflection_far_off_the_real_axis(x, y):
    # for Re z < 1/2, sin(pi z) and cos(pi z) overflow a double beyond
    # |Im z| of about 226, while Gamma, 1/Gamma and psi need not
    # (1/Gamma at -3.5 ± 450i does, about 1.6e317)
    _check_against_mpmath(complex(x, y))


@pytest.mark.parametrize("z", [-170.3 + 1j, -170.3 - 1j, -170.5 + 10j,
                               -171.2 + 100j, -96.015 - 204.85j,
                               -180.4274 - 225.9439j])
def test_reflection_where_the_product_overflows(z):
    # sin(pi z) fits a double, but its product with Gamma(1-z), or pi
    # cos(pi z) in psi, does not: 1/Gamma(-170.3 + i) is about 1.25e308,
    # Gamma there about 8e-309
    _check_against_mpmath(z)


def test_reflection_far_off_the_real_axis_in_public_calls():
    import mpmath as mp

    # F_alpha(z) = 0F1(; c; z) / Gamma(c), c = 0.4 + 300i
    c = mp.mpc(0.4, 300)
    got = f_norm(F0(-0.6 + 300j), 0.3).value
    want = mp.hyp0f1(c, 0.3) * mp.rgamma(c)
    assert abs(got - complex(want)) <= 1e-12 * abs(want)
    # D_{theta,1} with a = (2 + theta)/2 = 300i: the tail weights hold
    # psi(300i + k) (the principal part is in test_dfun)
    got = d_eval(F1(-2 + 600j, 1), 0.3).value
    a, z = mp.mpc(0, 300), mp.mpf(0.3)
    want = mp.rf(a, -1) / z + mp.nsum(
        lambda k: mp.rf(a, k) / (mp.factorial(k) * mp.factorial(k + 1)) * z ** k
        * (mp.digamma(a + k) - mp.digamma(k + 1) - mp.digamma(k + 2)), [0, mp.inf])
    assert abs(got - complex(want)) <= 1e-12 * abs(want)


@pytest.mark.parametrize("z", [-170.9, -171 - 1e-8, -172.000001,
                               -170.95 + 0.01j])
def test_reflection_where_gamma_of_one_minus_z_overflows(z):
    # Gamma(1 - z) overflows a double, but 1/Gamma(z) = sin(pi z)
    # Gamma(1 - z) / pi need not: -7.3e307 at -170.9, 1.2e301 at
    # -171 - 1e-8, where sin(pi z) is 3e-8 and a logarithm of it taken
    # from exponentials would cancel
    import mpmath as mp

    z = complex(z)
    got = recip_gamma(z)
    want = complex(mp.rgamma(mp.mpc(z.real, z.imag)))
    assert abs(got - want) <= 1e-12 * abs(want)
    if z.imag == 0.0:
        assert got.imag == 0.0
    _check_against_mpmath(z)


@pytest.mark.parametrize("z", [-171.3, -175.2, -170.7 + 0.5j])
def test_recip_gamma_overflow_names_the_argument(z):
    import mpmath as mp

    z = complex(z)
    assert abs(mp.rgamma(mp.mpc(z.real, z.imag))) > sys.float_info.max
    with pytest.raises(DomainError, match=re.escape("at z = %s" % (z,))):
        recip_gamma(z)


def test_reflection_where_gamma_of_one_minus_c_overflows_in_public_calls():
    import mpmath as mp

    # F_alpha(z) = 0F1(; c; z) / Gamma(c) at c = -170.9, whose seed
    # 1/Gamma(c) is -7.3e307
    c = mp.mpf(-171.9 + 1)
    got = f_norm(F0(-171.9), 0.3).value
    want = mp.hyp0f1(c, 0.3) * mp.rgamma(c)
    assert abs(got - complex(want)) <= 1e-12 * abs(want)
