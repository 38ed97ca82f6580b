"""Infinity-normalized U solutions and the Bessel wrappers.

mpmath provides the classical counterparts: U_alpha is
(2/sqrt(pi)) z^(-alpha/2) K_alpha(2 sqrt z), the confluent U is
Tricomi's function, the Bessel wrappers are the standard I, J, K, H.
"""

import cmath
import hashlib
import math
import random
import re
import sys

import mpmath as mp
import pytest

from hyperd.dfun import d_eval, log_solution, prepare_log_solution
from hyperd.errors import (
    BranchCut,
    DivergedImmediately,
    DomainError,
    HyperdError,
    ParameterSingular,
    RouteInapplicable,
)
from hyperd.ffun import F0, F1, F2, f_norm
from hyperd.gammakit import gamma
from hyperd.series import log_combo, principal_log, principal_pow
from hyperd.ufun import (
    CONNECTION_INT_BAND,
    U0_FAR_RADIUS,
    U1_FAR_RADIUS,
    URoute,
    bessel,
    prepare_u,
    u0,
    u1,
    u2,
)

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


# one parameter set per kind at alpha, and a point off each cut
_KINDS = [(lambda a: F0(a), 0.9), (lambda a: F1(0.7, a), 0.9),
          (lambda a: F2(a, 0.3, 0.2), complex(-0.5, 0.1))]


@pytest.mark.parametrize("make,z", _KINDS)
@pytest.mark.parametrize("alpha,route,message", [
    (2.0 + 1e-8, None, "sits between the integer band"),
    (complex(-1.0, 3e-7), None, "sits between the integer band"),
    (0.5, URoute.LOG_PLUS_D, "LogPlusD requires integer alpha"),
    (2.0 + 1e-8, URoute.LOG_PLUS_D, "LogPlusD requires integer alpha"),
    (2.0, URoute.CONNECTION, "Connection requires alpha further than"),
    (2.0 + 5e-7, URoute.CONNECTION, "Connection requires alpha further than"),
])
def test_route_rule_messages(make, z, alpha, route, message):
    # the band, a forced LogPlusD off the integers and a forced Connection
    # near one, on every kind
    with pytest.raises(RouteInapplicable, match=message):
        prepare_u(make(alpha), route)(z)


# the far route: Asymptotic2F0 first at Re z > 0 beyond the radius

_SQRT_EPS = math.sqrt(sys.float_info.epsilon)


def test_far_radii_follow_from_the_double_epsilon():
    # |x| <= 2/ln(1/eps), x = -1/z for 1F1 and -1/(4 sqrt z) for 0F1
    bound = 2.0 / math.log(1.0 / sys.float_info.epsilon)
    assert U1_FAR_RADIUS == pytest.approx(1.0 / bound, rel=1e-15)
    assert 1.0 / (4.0 * math.sqrt(U0_FAR_RADIUS)) == pytest.approx(bound, rel=1e-15)
    assert round(U1_FAR_RADIUS, 2) == 18.02 and round(U0_FAR_RADIUS, 2) == 20.30


def _u_ref40(kind, theta, alpha, z):
    with mp.workdps(40):
        zm, al = _mpc(z), mp.mpmathify(alpha)
        if kind == "0f1":
            v = 2 / mp.sqrt(mp.pi) * zm ** (-al / 2) * mp.besselk(al, 2 * mp.sqrt(zm))
        else:
            v = mp.hyperu((1 + mp.mpmathify(theta) + al) / 2, 1 + al, zm)
        return complex(v)


def test_far_route_survey_against_mpmath():
    # seeded 0F1/1F1 U points at 18 <= |z| <= 60, |ph z| <= 1.45: integer
    # m in [-2, 4], generic and complex alpha, complex theta.  Every point
    # the far rule takes has the forced Asymptotic2F0 value, bounded by
    # its own estimate and within 1e-8 relative of mpmath at 40 digits
    rng = random.Random(1517)
    far = 0
    for i in range(96):
        kind = ("0f1", "1f1")[i % 2]
        if rng.random() < 0.5:
            alpha = rng.randint(-2, 4)
        else:
            alpha = complex(rng.uniform(-2.5, 4.5), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
        theta = complex(rng.uniform(0.1, 1.9), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
        z = cmath.rect(rng.uniform(18.0, 60.0), rng.uniform(-1.45, 1.45))
        if kind == "0f1":
            auto, radius = prepare_u(F0(alpha)), U0_FAR_RADIUS
            forced = prepare_u(F0(alpha), URoute.ASYMPTOTIC_2F0)
        else:
            auto, radius = prepare_u(F1(theta, alpha)), U1_FAR_RADIUS
            forced = prepare_u(F1(theta, alpha), URoute.ASYMPTOTIC_2F0)
        try:
            r = forced(z)
        except HyperdError:
            continue
        if abs(z) < radius or r.err_estimate > _SQRT_EPS * abs(r.value):
            continue
        far += 1
        assert auto(z) == r
        want = _u_ref40(kind, theta, alpha, z)
        assert abs(r.value - want) <= r.err_estimate, (kind, theta, alpha, z)
        assert abs(r.value - want) <= 1e-8 * abs(want), (kind, theta, alpha, z)
    assert far >= 80


def test_far_route_answers_where_log_plus_d_cancels():
    # LogPlusD sums 199 terms to 1.89 here, with an estimate of 2.45
    r = u1(0.7, 2, 40)
    assert r.terms_used == 41
    assert r.value == pytest.approx(1.0942230917487e-3, rel=1e-12)
    assert abs(r.value - _u_ref40("1f1", 0.7, 2, 40)) <= r.err_estimate < 1e-16
    assert u1(0.7, 2, 40, URoute.LOG_PLUS_D).terms_used == 199


def test_points_the_far_rule_leaves_keep_their_values():
    # just inside the radius, Re z <= 0, and a far point whose expansion
    # falls short: the bits of the route alpha picks
    reprs = {
        (0.7, 2, 18.0): "EvalResult(value=(0.004830540693576996+0j), err_estimate=5.886512422705358e-10, "
                        "terms_used=124, flags=frozenset())",
        (0.7, 2, complex(-30, 5)): "EvalResult(value=(0.0012771221431194164+0.0012497558527154139j), "
                                   "err_estimate=3.872468804572504e-18, terms_used=194, flags=frozenset())",
        (0.7, 2, 30j): "EvalResult(value=(-0.0018041288070606324-0.0004131740511009472j), "
                       "err_estimate=1.086241476027108e-17, terms_used=218, flags=frozenset())",
        (0.7, 12, 20.0): "EvalResult(value=(6.204272640181514e-09-0j), err_estimate=7.822651022353435e-17, "
                         "terms_used=123, flags=frozenset())",
    }
    for args, want in reprs.items():
        assert repr(u1(*args)) == want
    assert repr(u0(2, 20.29)) == ("EvalResult(value=(3.4592696710124517e-06-0j), "
                                  "err_estimate=3.242740746798409e-14, terms_used=46, flags=frozenset())")
    near = [(0.37, complex(20.0, 2.0)), (2, complex(-30.0, 5.0)), (1, 20.0), (-2, complex(0.0, 40.0))]
    for alpha, z in near:
        route = URoute.CONNECTION if alpha == 0.37 else URoute.LOG_PLUS_D
        assert repr(u0(alpha, z)) == repr(u0(alpha, z, route))
    for theta, alpha, z in [(0.7, 0.37, 18.0), (0.7 + 0.2j, 3, complex(17.9, 1.0)), (1.1, -1, complex(-25.0, 0.5))]:
        route = URoute.CONNECTION if alpha == 0.37 else URoute.LOG_PLUS_D
        assert repr(u1(theta, alpha, z)) == repr(u1(theta, alpha, z, route))
    # the log solution takes the far rule of U, but U's LogPlusD route,
    # given, still sums log z F + D past the radius
    lpd = prepare_u(F1(0.7, 2), "LogPlusD")
    far = {
        30.0: ("EvalResult(value=(0.001991558256799609+0j), err_estimate=0.0001129345902809432, "
               "terms_used=166, flags=frozenset())",
               "EvalResult(value=(0.0018671325156972298+0j), err_estimate=1.2611566348071287e-16, "
               "terms_used=31, flags=frozenset())"),
        complex(40, 5): ("EvalResult(value=(-0.06741671586653883-2.1573349077292425j), "
                         "err_estimate=2.2108963030358995, terms_used=201, flags=frozenset())",
                         "EvalResult(value=(0.001049924414997068-0.00024678363076905324j), "
                         "err_estimate=9.823338242900926e-18, terms_used=41, flags=frozenset())"),
    }
    for z, (given, auto) in far.items():
        assert repr(lpd(z)) == given
        assert repr(u1(0.7, 2, z)) == auto
    # log solutions the far rule leaves: 1F1 at m < 0, 2F1, Re z <= 0 and
    # just inside each radius.  The value's repr, and a digest of the
    # 2-jet's repr
    logs = [
        (F1(0.7, -1), 30.0, "EvalResult(value=(-86507179996356.6+0j), err_estimate=0.07801391211140675, "
                            "terms_used=169, flags=frozenset())", "22c0fac2d95793cc"),
        (F2(2, 0.3, 0.2), complex(-0.5, 0.3), "EvalResult(value=(-34.560187490863115-58.48320156255389j), "
                                              "err_estimate=1.70603673317103e-14, terms_used=93, "
                                              "flags=frozenset())", "0dbc1d5c82d4a337"),
        (F0(2), complex(-30, 5), "EvalResult(value=(0.006910081832362837+0.007515866034215779j), "
                                 "err_estimate=1.7600155108551422e-17, terms_used=56, flags=frozenset())",
         "c95084ab3deed50f"),
        (F1(0.7, 2), complex(-25, 3), "EvalResult(value=(0.0144603101325687+0.011951856217559783j), "
                                      "err_estimate=9.642377509944183e-18, terms_used=171, flags=frozenset())",
         "54520e19b7a6141c"),
        (F0(2), 30j, "EvalResult(value=(1.1356716168364756e-05-4.776077893176023e-06j), "
                     "err_estimate=1.3718108115074711e-14, terms_used=52, flags=frozenset())", "8967f6a93755369a"),
        (F0(2), 20.29, "EvalResult(value=(-6.131395849706678e-06+0j), err_estimate=5.747608324151069e-14, "
                       "terms_used=46, flags=frozenset())", "096d5423c34c727a"),
        (F1(0.7, 2), 18.0, "EvalResult(value=(0.03582598641514778+0j), err_estimate=4.365766180287397e-09, "
                           "terms_used=124, flags=frozenset())", "d4889a7b322fa2ef"),
    ]
    for p, z, value, jet in logs:
        assert repr(log_solution(p, z)) == value
        assert hashlib.sha256(repr(prepare_log_solution(p).jet(z, 2)).encode()).hexdigest()[:16] == jet


def test_forced_routes_ignore_the_far_rule():
    r = u1(0.7, 2, 40, URoute.LOG_PLUS_D)
    assert repr(r) == ("EvalResult(value=(1.887668044263087+0j), err_estimate=2.4501997557892494, "
                       "terms_used=199, flags=frozenset())")
    assert u0(2.5, 30.0, URoute.CONNECTION) != u0(2.5, 30.0)
    assert u1(0.7, 0.37, 1.0, URoute.ASYMPTOTIC_2F0) != u1(0.7, 0.37, 1.0)


def test_a_far_attempt_that_falls_short_falls_back():
    # the 2F0 terms grow from the first (|a b / z| ~ 48), so the estimate
    # is the value itself; LogPlusD then raises as it always has
    r = u1(0.7, -170, 150, URoute.ASYMPTOTIC_2F0)
    assert r.err_estimate > _SQRT_EPS * abs(r.value)
    with pytest.raises(DomainError, match=r"z\*\*a is not finite"):
        u1(0.7, -170, 150)


def test_far_points_in_the_gap_band_take_the_expansion():
    # 1e-9 < |alpha - m| <= 1e-6: no series route applies, the far value
    # divides by no sin(pi alpha)
    for alpha in (2.0 + 1e-8, 2.0 + 1e-7j, -1.0 - 5e-7):
        at0 = prepare_u(F0(alpha))
        r = at0(30.0)
        assert abs(r.value - _u_ref40("0f1", 0.0, alpha, 30.0)) <= r.err_estimate
        with pytest.raises(RouteInapplicable):
            at0(0.9)
        at1 = prepare_u(F1(0.7, alpha))
        r = at1(complex(25.0, 10.0))
        assert abs(r.value - _u_ref40("1f1", 0.7, alpha, complex(25.0, 10.0))) <= r.err_estimate
        with pytest.raises(RouteInapplicable):
            at1(complex(-25.0, 10.0))


def test_route_accepts_strings():
    z = 0.9
    assert u0(1.0, z, "LogPlusD").value == u0(1.0, z, URoute.LOG_PLUS_D).value
    with pytest.raises(ValueError):
        u0(1.0, z, "NoSuchRoute")


@pytest.mark.parametrize("arg", [0.5, None, "F0", (0.7, 2), {"alpha": 1.0}])
def test_prepare_u_takes_a_parameter_set(arg):
    with pytest.raises(TypeError, match="unsupported parameter type"):
        prepare_u(arg)


def _outcome(call):
    try:
        return repr(call())
    except HyperdError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


# per kind: the public point function, the parameter class, the fields
# at integer m, at m < 0 and at generic alpha, and points near, far, on
# the cut and (2F1) in the annulus 0.95 < |z| < 1/0.95
U_KINDS = {
    "0f1": (u0, F0, [(2.0,), (-2.0,), (0.37,)],
            [0.9, complex(0.8, 1.1), complex(-0.7, 0.5), complex(-0.5, 0.0), 30.0, complex(25.0, -10.0)]),
    "1f1": (u1, F1, [(0.7, 2.0), (0.7, -2.0), (0.7, 0.37)],
            [0.9, complex(0.8, 1.1), complex(-0.7, 0.5), complex(-0.5, 0.0), 30.0, complex(25.0, -10.0)]),
    "2f1": (u2, F2, [(2.0, 0.3, 0.2), (-1.0, 0.3, 0.2), (0.37, 0.3, 0.2)],
            [complex(-0.5, 0.1), complex(-1.5, 0.1), complex(-1.0, 0.1), complex(-0.5, 0.0), 0.3,
             complex(-3.0, 0.2)]),
}


@pytest.mark.parametrize("kind", sorted(U_KINDS))
@pytest.mark.parametrize("route", [None] + list(URoute))
def test_prepare_u_gives_the_bits_of_the_point_functions(kind, route):
    # float fields, as the CLI passes them, and complex fields; one
    # prepared callable serves every point as a lone call does, and a
    # forced route that does not apply raises at every point
    u, cls, fields_list, zs = U_KINDS[kind]
    for fields in fields_list:
        for fs in (fields, tuple(map(complex, fields))):
            want = [_outcome(lambda: u(*fs, z, route)) for z in zs]
            assert [_outcome(lambda: prepare_u(cls(*fs), route)(z)) for z in zs] == want
            try:
                at = prepare_u(cls(*fs), route)
            except HyperdError as exc:
                assert want == ["%s: %s" % (type(exc).__name__, exc)] * len(zs)
                continue
            assert [_outcome(lambda: at(z)) for z in zs] == want, (fs, route)


def test_connection_error_estimate_covers_cancellation():
    # near the band edge the sine denominator is ~ 3e-6, so the estimate
    # must blow up accordingly while the value stays finite
    r = u0(1.0 + 2e-6, 0.9, URoute.CONNECTION)
    assert r.err_estimate > 1e-12
    want = _u0_ref(1.0 + 2e-6, 0.9)
    assert abs(r.value - want) <= 3.0 * r.err_estimate


def test_connection_error_estimate_stays_finite_where_the_weight_overflows():
    # 30^150.5 times 1/Gamma(-74.4) overflows a double though the term
    # fits; the error estimate was inf * 0 = nan, and the value keeps its bits
    r = u1(0.7, -150.5, 30)
    assert r.value == complex(1.749220054152356e+158, -0.0)
    assert math.isfinite(r.err_estimate)
    assert 0 < r.err_estimate < 1e-15 * abs(r.value)


def test_a_power_of_minus_z_that_is_not_finite_is_a_domain_error():
    # (-z)^(-alpha) of the Connection route and (-z)^e of the 1/z series
    # overflow; each names z and the exponent instead of a raw OverflowError
    cases = [(lambda: u2(2.5, 0.3, 0.2, -1e-300), "z = (-1e-300+0j), a = (-2.5-0j)"),
             (lambda: u2(-400.5, 0.3, 0.2, -1e300), "z = (-1e+300+0j), a = (199.7+0j)")]
    for call, where in cases:
        with pytest.raises(DomainError, match=r"\(-z\)\*\*a is not finite") as ei:
            call()
        assert where in str(ei.value)


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


# |z| <= 8 in the four quadrants, on the imaginary axis (+0.0 and -0.0
# real parts), on both lips of the cut of K, H1 and H2, and two points
# at Re z < 0 where the principal log of w = z^2/4 put K_m(z) and H1 on
# the sheet of -z (K_1(-1+0.5i) was -0.376-0.402i, H1 37x off)
BESSEL_ZS = ([cmath.rect(r, ph) for r in (0.3, 2.0, 7.5) for ph in (0.6, 2.1, 2.9, -0.4, -1.8, -3.0)]
             + [complex(0.0, y) for y in (0.4, 3.0, -1.5, -8.0)] + [complex(-0.0, 2.5), complex(-0.0, -2.5)]
             + [complex(-2.0, 1e-300), complex(-2.0, -1e-300), complex(-1.0, 0.5), complex(-0.5, 2.0)])


@pytest.mark.parametrize("m", [0, 1, 3, -2])
def test_bessel_k_and_hankel_on_every_sheet(m):
    # log w is 2 log(z/2).  Each result is within 1e-12 of mpmath relative
    # to the larger of itself and the F term it is formed from (I for K, J
    # for the Hankel pair): the log form cancels where the function decays
    # (K at Re z > 0, H1 at Im z > 0, H2 at Im z < 0), and is within 1e-12
    # relative where it grows
    for z in BESSEL_ZS:
        zm = _mpc(z)
        i_m, j_m = abs(complex(mp.besseli(m, zm))), abs(complex(mp.besselj(m, zm)))
        for kind, ref, scale, grows in (("K", mp.besselk, i_m, z.real <= 0),
                                        ("H1", mp.hankel1, j_m, z.imag <= 0),
                                        ("H2", mp.hankel2, j_m, z.imag >= 0)):
            got = bessel(kind, m, z).value
            want = complex(ref(m, zm))
            assert abs(got - want) <= 1e-12 * max(abs(want), scale), (kind, z)
            if grows:
                assert abs(got - want) <= 1e-12 * abs(want), (kind, z)


def test_bessel_k_takes_the_far_route_only_at_positive_real_part():
    # w = z^2/4 is a far point of u0 here, whose U_m(w) is K on the sheet
    # of -z
    for m, z in ((1, complex(-30.0, 2.0)), (0, complex(-25.0, -10.0))):
        want = complex(mp.besselk(m, _mpc(z)))
        assert abs(bessel("K", m, z).value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("kind", ["K", "H1", "H2"])
@pytest.mark.parametrize("z", [complex(-2.0, 0.0), complex(-2.0, -0.0), -0.5, complex(-40.0, 0.0)])
def test_bessel_cut_on_the_negative_real_axis(kind, z):
    with pytest.raises(BranchCut):
        bessel(kind, 1, z)


def test_bessel_hankel_keeps_its_bits_at_positive_real_part():
    for m, z in ((0, 1.3), (2, complex(0.9, 0.6)), (-1, complex(4.0, -7.0)), (3, 1e-3)):
        z = complex(z)
        w = z * z / 4.0
        for sign, kind in ((1.0, "H1"), (-1.0, "H2")):
            inner = log_combo(principal_log(w) - sign * 1j * math.pi, f_norm(F0(m), -w), d_eval(F0(m), -w))
            want = inner.scaled(sign * 1j / math.pi * principal_pow(z / 2.0, m))
            assert repr(bessel(kind, m, z)) == repr(want)


@pytest.mark.parametrize("kind, z, exc, msg", [
    # this named w = -z^2/4: "series sum is not finite at z = (-122500-0j)"
    ("J", 700, DomainError, "series sum is not finite at z = (700+0j)"),
    ("I", 700, DomainError, "series sum is not finite at z = (700+0j)"),
    ("H1", 700j, DomainError, "series sum is not finite at z = 700j"),
    # the log of z/2 is cut
    ("K", -2, BranchCut, "cut at z = (-2+0j)"),
    ("J", math.inf, DomainError, "z must be finite, got z = (inf+0j)"),
])
def test_bessel_errors_name_the_callers_z(kind, z, exc, msg):
    with pytest.raises(exc, match=re.escape(msg)):
        bessel(kind, 3, z)


@pytest.mark.parametrize("call, exc, msg", [
    # Pfaff's weight of F in the log solution overflowed with a raw
    # OverflowError
    (lambda: u2(17.6, 633 + 393j, 1e8, -5e-4 + 1.75e-3j),
     DomainError, "Pfaff's weight (1-z)**(-a) overflows a double at z = (-0.0005+0.00175j)"),
    # the log solution (about 1.2e257) times the prefactor 1/Gamma((1-170+theta)/2)
    # (about 1e127) gave -inf+inf*i with err_estimate inf and no flag
    (lambda: u1(1e-300, 170, -0.017 - 0.0575j),
     DomainError, "result is not finite at z = (-0.017-0.0575j)"),
    # at m < 0 the U at -m (about 7.2e138) times z^170 (1e170) gave inf
    # with a finite err_estimate; the true value is about 7.2e308
    (lambda: u1(-169.63, -170, 10),
     DomainError, "result is not finite at z = (10+0j): (inf+0j)"),
    # a given route named z as the caller passed it ("at z = 20"), the
    # automatic route complex(z)
    (lambda: u1(-172.63, -170, 20, URoute.LOG_PLUS_D),
     DomainError, "result is not finite at z = (20+0j): (-inf+0j)"),
    (lambda: u1(-172.63, -170, 20),
     DomainError, "result is not finite at z = (20+0j): (-inf+0j)"),
    # these returned nan+nan*i with err_estimate nan and no flag; mpmath
    # puts the first at about -7.78e273+6.09e273i, the third at
    # 2.82e263-8.77e262i
    (lambda: u1(48.90585505674359, 32.30558002883016, -9.584309545943686e-10 + 7.908336494787592e-10j),
     DomainError, "result is not finite at z = (-9.584309545943686e-10+7.908336494787592e-10j): (nan+nanj)"),
    (lambda: u1(1e8, 30.868458108400773, 1e-9), DomainError, "result is not finite at z = (1e-09+0j): (nan+nanj)"),
    (lambda: u2(48.42756891142909, -34.297148222321674, -0.0, -2.603876011600534e-06 - 4.478709690252065e-06j),
     DomainError, "result is not finite at z = (-2.603876011600534e-06-4.478709690252065e-06j): (nan+nanj)"),
    # the expansions named their own variable: x = -1/z = -10, -1/(4 sqrt z)
    # = -25 and w = 1/z = -0.3-0.1i ("at |z| = 10", "at |z| = 25", "at z =
    # (-0.3-0.09999999999999999j)")
    (lambda: u1(0.7, 2, 0.1, "Asymptotic2F0"), DivergedImmediately,
     "first term of 2F0 already smallest at z = (0.1+0j)"),
    (lambda: u0(2.3, 1e-4, "Asymptotic2F0"), DivergedImmediately,
     "first term of 2F0 already smallest at z = (0.0001+0j)"),
    (lambda: u2(0.37, 900.3, 0.2, -3 + 1j), DomainError,
     "series sum is not finite at z = (-3+1j): (nan+nanj)"),
])
def test_u_errors_name_the_callers_z(call, exc, msg):
    with pytest.raises(exc, match=re.escape(msg)) as got:
        call()
    assert type(got.value) is exc


@pytest.mark.parametrize("call", [
    lambda: u0(0.3 + 300j, 1.0),
    lambda: u1(0.5, 0.3 + 300j, 1.0),
    lambda: u2(0.3 + 300j, 0.3, 0.2, -0.5),
], ids=["u0", "u1", "u2"])
def test_connection_sin_overflow_is_a_domain_error(call):
    # sin(pi alpha) at |Im alpha| = 300 is past a double, for every kind
    with pytest.raises(DomainError, match=re.escape(
            "sin(pi alpha) of the Connection route overflows a double at alpha = (0.3+300j)")):
        call()


@pytest.mark.parametrize("u, ref, args", [
    (u1, _u1_ref, (0.3, -170, -0.017 - 0.0575j)),
    (u2, _u2_ref, (-170, 0.3, 0.2, -0.01 + 0.02j)),
    (u2, _u2_ref, (-120, 5.3, 0.2, -0.003 + 0.001j)),
])
def test_u_at_a_negative_order_folds_the_power_into_the_principal_part(u, ref, args):
    # the U at |m| overflows a double (about 1e386 for the u1) and z^|m|
    # or (-z)^|m| brings it back; these raised DomainError for the finite
    # values 7.12e176, 1.7e50 and 1.06e35
    want = ref(*args)
    assert abs(u(*args).value - want) <= 1e-13 * abs(want)


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


def test_bessel_k_at_large_argument():
    # the log form returned -9.2e-4 and -2848 here
    for m, z in ((1, 30.0), (3, 45.0), (0, complex(20.0, 15.0)), (-2, 40.0)):
        r = bessel("K", m, z)
        want = complex(mp.besselk(m, _mpc(z)))
        assert _rel(r.value, want) < 1e-13 * abs(want)
        assert abs(r.value - want) <= r.err_estimate
    assert bessel("K", 1, 30.0).value == pytest.approx(2.16773200189155e-14, rel=1e-13)


def test_bessel_k_keeps_the_log_form_bits_off_the_far_route():
    # w = z^2/4 inside the radius or with Re w <= 0, Re z > 0
    for m, z in ((1, 9.0), (2, complex(3.0, 5.0)), (0, 0.6), (3, complex(20.0, -25.0))):
        w = complex(z) ** 2 / 4.0
        want = log_solution(F0(m), w).scaled((-1.0) ** (m + 1) / 2.0 * principal_pow(z / 2.0, m))
        assert repr(bessel("K", m, z)) == repr(want)


TINY_ZS = [1e-150, 1e-160, 1e-170, 1e-300, complex(1e-160, 1e-161), complex(1e-158, 3e-158)]


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("z", TINY_ZS)
def test_bessel_k_and_hankel_at_tiny_argument(m, z):
    # below the smallest normal double w = z^2/4 has lost its low bits or
    # is 0, and its principal log put K_0(1e-160) 1.5e-8 off and raised
    # BranchCut at 1e-170; m >= 1 raises where the value overflows a double
    for kind, ref in (("K", mp.besselk), ("H1", mp.hankel1), ("H2", mp.hankel2)):
        try:
            got = bessel(kind, m, z).value
        except HyperdError:
            assert m > 0, (kind, z)
            continue
        want = complex(ref(m, _mpc(z)))
        assert abs(got - want) <= 1e-15 * abs(want), (kind, z)


@pytest.mark.parametrize("kind, m, z", [("K", 1, 1e-160), ("K", 2, 1e-150),
                                        ("H1", 1, complex(1e-160, 1e-160)),
                                        ("H2", 2, complex(-1e-150, 1e-151)), ("K", 1, 1e-170)])
def test_bessel_folds_the_principal_part_where_it_overflows(kind, m, z):
    # D's principal part 1/w^m overflowed a double here, and these raised
    # DomainError for finite values (at 1e-170 w is 0: PoleAtOrigin)
    ref = {"K": mp.besselk, "H1": mp.hankel1, "H2": mp.hankel2}[kind]
    with mp.workdps(40):
        want = complex(ref(m, _mpc(z)))
    r = bessel(kind, m, z)
    assert abs(r.value - want) <= 1e-13 * abs(want)
    assert abs(r.value - want) <= r.err_estimate < 1e-15 * abs(want)


def test_bessel_fold_raises_where_the_value_overflows():
    # K_2(1e-160) = 2e320 and H1_3(1e-103) are past a double
    for kind, m, z in (("K", 2, 1e-160), ("H1", 3, 1e-103), ("K", 2, complex(-1e-160, 1e-160))):
        with pytest.raises(DomainError, match=f"bessel of order m = {m} overflows a double at z = "):
            bessel(kind, m, z)


@pytest.mark.parametrize("z", [complex(3e-154), complex(3.013250903475968e-154, 4.021843225742383e-155)])
def test_bessel_keeps_the_principal_log_bits_down_to_the_smallest_normal_w(z):
    # |w| just above sys.float_info.min; at the second z the principal
    # log w and 2 log(z/2) differ in the last bit
    w = z * z / 4.0
    assert sys.float_info.min <= abs(w) < 1.04 * sys.float_info.min
    p, half_pow = F0(0), principal_pow(z / 2.0, 0)
    want = log_solution(p, w).scaled(-1.0 / 2.0 * half_pow)
    assert repr(bessel("K", 0, z)) == repr(want)
    for sign, kind in ((1.0, "H1"), (-1.0, "H2")):
        inner = log_combo(principal_log(w) - sign * 1j * math.pi, f_norm(p, -w), d_eval(p, -w))
        assert repr(bessel(kind, 0, z)) == repr(inner.scaled(sign * 1j / math.pi * half_pow))


def test_bessel_bad_inputs():
    with pytest.raises(ValueError):
        bessel("Y", 0, 1.0)
    with pytest.raises(ValueError):
        bessel("K", 0.5, 1.0)
