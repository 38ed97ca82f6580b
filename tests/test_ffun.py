"""Normalized series solutions and their variants.

mpmath supplies the generic-parameter reference values; the degenerate
integer cases are checked against direct factorial sums written here
with no shared code.
"""

import math
import pickle
import re

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperd.errors import DivergedImmediately, DomainError, ParameterSingular
from hyperd.ffun import (
    DEGENERACY_TOL,
    EquationParams,
    F0,
    F1,
    F2,
    F2_SERIES_RADIUS,
    f2_norm_I,
    f2f0_asymptotic,
    f_norm,
    f_second,
    prepare_f_norm,
    prepare_f_second,
)
from hyperd.gammakit import gamma, pochhammer
from hyperd.series import principal_pow

mp.mp.dps = 30


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _mpc(z):
    return mp.mpc(z.real, z.imag) if isinstance(z, complex) else mp.mpf(z)


@pytest.mark.parametrize("cls, args, text", [
    (F0, (0.5,), "F0(alpha=0.5)"),
    (F1, (0.7, 2), "F1(theta=0.7, alpha=2)"),
    (F2, (1, 0.3, 0.2j), "F2(alpha=1, beta=0.3, mu=0.2j)"),
])
def test_params_contract(cls, args, text):
    # a NamedTuple of the fields with the repr, == and hash of the
    # dataclass it replaces; it also unpacks and equals a plain tuple
    p = cls(*args)
    assert repr(p) == text
    fields = dict(zip(cls._fields, args))
    assert cls(**fields) == p and isinstance(p, EquationParams)
    assert cls.__match_args__ == cls._fields == tuple(fields)
    # F1(0.7, 2) and F1(0.7, 2.0) are one parameter set
    same = cls(*map(complex, args))
    assert same == p and hash(same) == hash(p)
    assert p == args and tuple(p) == args
    for name in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(p, name, 3)
    moved = p._replace(alpha=3)
    assert type(moved) is cls and moved.alpha == 3 and moved.m == 3
    assert moved._asdict() == {**fields, "alpha": 3}
    assert p._asdict() == fields
    back = pickle.loads(pickle.dumps(p))
    assert type(back) is cls and back == p and repr(back) == text
    with pytest.raises(TypeError):
        cls(*args, gamma=1.0)
    # dataclasses.replace raised TypeError here
    with pytest.raises(ValueError):
        p._replace(gamma=1.0)
    assert type(cls.from_classical(*p.to_classical())) is cls


_ZS = [0.4, complex(0.3, 0.5), complex(-0.6, 0.2), complex(-0.25, -0.45)]


@pytest.mark.parametrize("alpha", [0.6, -0.35, 1.7, complex(0.3, 0.2)])
@pytest.mark.parametrize("z", _ZS)
def test_f0_generic_reference(alpha, z):
    c = alpha + 1
    want = complex(mp.hyp0f1(_mpc(complex(c)), _mpc(complex(z)))
                   / mp.gamma(_mpc(complex(c))))
    got = f_norm(F0(alpha=alpha), z).value
    assert _rel(got, want) < 1e-13


@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("z", _ZS)
def test_f0_degenerate_direct_sum(m, z):
    want = sum(complex(z) ** n / (math.factorial(m + n) * math.factorial(n))
               for n in range(40))
    got = f_norm(F0(alpha=m), z).value
    assert _rel(got, want) < 1e-14


@pytest.mark.parametrize("m", [-1, -3])
@pytest.mark.parametrize("z", _ZS)
def test_f0_negative_m_starts_at_pole_order(m, z):
    # the n < -m coefficients vanish through the 1/(m+n)! factor
    want = sum(complex(z) ** n / (math.factorial(m + n) * math.factorial(n))
               for n in range(-m, 44))
    got = f_norm(F0(alpha=m), z).value
    assert _rel(got, want) < 1e-14


@pytest.mark.parametrize("theta,alpha", [(0.7, 0.4), (1.9, -0.6), (0.3, 2.3)])
@pytest.mark.parametrize("z", _ZS)
def test_f1_generic_reference(theta, alpha, z):
    a = (1 + alpha + theta) / 2
    c = 1 + alpha
    want = complex(mp.hyp1f1(a, c, _mpc(complex(z))) / mp.gamma(c))
    got = f_norm(F1(theta=theta, alpha=alpha), z).value
    assert _rel(got, want) < 1e-13


@pytest.mark.parametrize("m", [-2, 0, 2])
def test_f1_degenerate_direct_sum(m):
    theta = 0.7
    a = (1 + m + theta) / 2
    z = complex(0.35, -0.2)
    n0 = max(0, -m)
    want = sum(complex(pochhammer(a, n)) * z ** n
               / (math.factorial(m + n) * math.factorial(n))
               for n in range(n0, n0 + 45))
    got = f_norm(F1(theta=theta, alpha=m), z).value
    assert _rel(got, want) < 1e-13


@pytest.mark.parametrize("alpha,beta,mu",
                         [(0.4, 0.3, 0.2), (-0.55, 0.45, 0.1), (1.3, -0.2, 0.6)])
@pytest.mark.parametrize("z", _ZS)
def test_f2_generic_reference(alpha, beta, mu, z):
    a = (1 + alpha + beta - mu) / 2
    b = (1 + alpha + beta + mu) / 2
    c = 1 + alpha
    want = complex(mp.hyp2f1(a, b, c, _mpc(complex(z))) / mp.gamma(c))
    got = f_norm(F2(alpha=alpha, beta=beta, mu=mu), z).value
    assert _rel(got, want) < 1e-13


def test_f2_radius_guard():
    p = F2(alpha=0.4, beta=0.3, mu=0.2)
    with pytest.raises(DomainError):
        f_norm(p, 0.97)
    f_norm(p, complex(0.0, F2_SERIES_RADIUS - 1e-3))


def test_classical_round_trip():
    p0 = F0(alpha=0.37)
    assert abs(F0.from_classical(*p0.to_classical()).alpha - p0.alpha) < 1e-15
    p1 = F1(theta=0.7, alpha=-0.4)
    q1 = F1.from_classical(*p1.to_classical())
    assert abs(q1.theta - p1.theta) < 1e-15 and abs(q1.alpha - p1.alpha) < 1e-15
    p2 = F2(alpha=0.5, beta=-0.3, mu=0.8)
    q2 = F2.from_classical(*p2.to_classical())
    assert abs(q2.alpha - p2.alpha) < 1e-15
    assert abs(q2.beta - p2.beta) < 1e-15
    assert abs(q2.mu - p2.mu) < 1e-15


def test_degeneracy_detection_and_snapping():
    p = F0(alpha=2.0 + 0.5 * DEGENERACY_TOL)
    assert p.is_degenerate and p.m == 2
    assert f_norm(p, 0.3).value == f_norm(F0(alpha=2), 0.3).value
    q = F0(alpha=2.1)
    assert not q.is_degenerate
    with pytest.raises(ValueError):
        q.m


@pytest.mark.parametrize("kind", ["0f1", "1f1", "2f1"])
def test_jet_matches_finite_differences(kind):
    p = {"0f1": F0(alpha=0.6),
         "1f1": F1(theta=0.7, alpha=0.6),
         "2f1": F2(alpha=0.6, beta=0.3, mu=0.2)}[kind]
    z = complex(0.3, 0.25)
    h = 1e-4
    f0, f1, f2 = (r.value for r in prepare_f_norm(p).jet(z, 2))
    vals = {s: f_norm(p, z + s * h).value for s in (-2, -1, 0, 1, 2)}
    fd1 = (-vals[2] + 8 * vals[1] - 8 * vals[-1] + vals[-2]) / (12 * h)
    fd2 = (-vals[2] + 16 * vals[1] - 30 * vals[0] + 16 * vals[-1] - vals[-2]) / (12 * h * h)
    assert abs(f0 - vals[0]) == 0.0
    assert abs(f1 - fd1) < 1e-9 * max(1.0, abs(f1))
    assert abs(f2 - fd2) < 1e-6 * max(1.0, abs(f2))


def test_f_second_generic_composition():
    p = F1(theta=0.7, alpha=0.45)
    z = complex(0.5, 0.6)
    want = principal_pow(z, -0.45) * f_norm(F1(theta=0.7, alpha=-0.45), z).value
    got = f_second(p, z).value
    assert _rel(got, want) < 1e-14


def test_f_second_integer_alpha_is_proportional_to_f_norm():
    # 0f1: the proportionality constant is exactly 1
    z = complex(0.4, 0.3)
    for m in (1, 2, 3):
        s = f_second(F0(alpha=m), z).value
        f = f_norm(F0(alpha=m), z).value
        assert _rel(s, f) < 1e-13
    # 1f1: constant ((theta - m + 1)/2)_m
    theta = 0.7
    for m in (1, 2):
        s = f_second(F1(theta=theta, alpha=m), z).value
        f = f_norm(F1(theta=theta, alpha=m), z).value
        cm = complex(pochhammer((theta - m + 1) / 2, m))
        assert _rel(s, cm * f) < 1e-13


@pytest.mark.parametrize("p", [F0(150.3), F1(0.7, 150.3), F2(150.3, 0.3, 0.2)])
def test_f_second_past_a_double_is_a_domain_error_naming_z(p):
    # z^-150.3 times F at the reflected order returned inf with an
    # err_estimate of inf and no flag
    with pytest.raises(DomainError, match=re.escape("result is not finite at z = (0.01+0j): (inf+0j)")):
        f_second(p, 0.01)


def test_f_second_jet_product_rule():
    p = F0(alpha=0.37)
    z = complex(0.8, 0.4)
    g0, g1, g2 = (r.value for r in prepare_f_second(p).jet(z, 2))
    h = 1e-5
    vals = {s: f_second(p, z + s * h).value for s in (-2, -1, 0, 1, 2)}
    fd1 = (-vals[2] + 8 * vals[1] - 8 * vals[-1] + vals[-2]) / (12 * h)
    assert abs(g0 - vals[0]) < 1e-15 * max(1.0, abs(g0))
    assert abs(g1 - fd1) < 1e-9 * max(1.0, abs(g1))
    assert abs(g2) > 0


def test_f2f0_asymptotic_truncation():
    r = f2f0_asymptotic(0.5, 0.5, -0.02)
    want = complex(mp.hyp2f0(0.5, 0.5, -0.02))
    assert abs(r.value - want) <= 2.0 * r.err_estimate + 1e-15
    assert r.err_estimate < 1e-12
    # the kernel refuses a budget below one term
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        f2f0_asymptotic(0.5, 0.5, -0.02, 0)


def test_f2f0_diverged_immediately():
    with pytest.raises(DivergedImmediately):
        f2f0_asymptotic(1.0, 1.0, 2.0)


@pytest.mark.parametrize("args, name", [((math.nan, 1, 0.1), "a"), ((0.5, math.inf, 0.01), "b"),
                                        ((0.5, 1, math.inf), "z")])
def test_f2f0_non_finite_argument_is_a_domain_error(args, name):
    # each ran its 10,000 terms and returned nan+nanj, flagged TruncationMaxed
    with pytest.raises(DomainError, match=f"^{name} must be finite, got {name} = "):
        f2f0_asymptotic(*args)


def test_f2_norm_I_prefactor():
    p = F2(alpha=0.4, beta=0.3, mu=0.2)
    z = 0.3
    a = (1 + 0.4 + 0.3 - 0.2) / 2
    ca = (1 + 0.4 - 0.3 + 0.2) / 2
    want = gamma(a) * gamma(ca) * f_norm(p, z).value
    assert _rel(f2_norm_I(p, z).value, want) < 1e-14
    # the wrong kind is a TypeError, as for d_eval_I
    with pytest.raises(TypeError, match="unsupported parameter type F1"):
        f2_norm_I(F1(0.3, 1), z)


def test_f2_norm_I_singular_prefactor():
    # (1 + alpha + beta - mu)/2 = 0 puts Gamma at a pole
    p = F2(alpha=0.5, beta=-1.2, mu=0.3)
    with pytest.raises(ParameterSingular):
        f2_norm_I(p, 0.2)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.5),
       st.complex_numbers(max_magnitude=0.6, allow_nan=False,
                          allow_infinity=False))
def test_mu_flip_symmetry(alpha, beta, mu, z):
    # F is even in mu: a and b only swap roles
    p = F2(alpha=alpha, beta=beta, mu=mu)
    q = F2(alpha=alpha, beta=beta, mu=-mu)
    got = f_norm(p, z).value
    want = f_norm(q, z).value
    assert abs(got - want) <= 1e-11 * max(1.0, abs(got))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-4, max_value=4),
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=3.0,
                          allow_nan=False, allow_infinity=False))
def test_f0_degenerate_proportionality_property(m, z):
    # F_m = z^(-m) F_(-m)
    lhs = f_norm(F0(alpha=m), z).value
    rhs = principal_pow(z, -m) * f_norm(F0(alpha=-m), z).value
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))
