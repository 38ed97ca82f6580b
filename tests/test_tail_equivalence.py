"""The D tails and the gamma kit against the code they replaced.

dfun._tail reads what depends on the order alone, psi(1+k),
psi(1+m+k) and the divisor (k+1)(m+k+1), from rows kept per order
(dfun._first_rows), and continues past them by one shared row stream
(dfun._rows_past); the 0F1 tail is kept per order as data
(dfun._first_coeffs0) and continued by -0+0j.  _REFERENCE_TAILS below
keeps the three per-arity generators that computed everything per tail,
verbatim.  Every tail must be the same repr for repr over 300
coefficients, past the kept rows: at orders 0 to 25 with real, complex
and signed-zero upper parameters, at every 0F1 order 0 to 170, and at
orders 33 and 170 with upper parameters large enough that the
coefficients past the kept rows are normal doubles.  The same holds
for gammakit._lanczos_sum (which loops over precomputed (k, c) pairs),
near_int (which no longer copies z to a complex) and pochhammer (which
raises DomainError where its result is not finite, and keeps the bits
of every finite one): each old version is kept verbatim below.
"""

import cmath
import itertools
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperd import dfun, gammakit
from hyperd.errors import DomainError, PoleError
from hyperd.ffun import MAX_ORDER
from hyperd.gammakit import EULER_GAMMA, POLE_TOL, _LANCZOS_C, _LANCZOS_G, digamma, harmonic


def _tail0(mm):
    inv = 1.0 / math.factorial(mm)
    p1 = -EULER_GAMMA
    p2 = -EULER_GAMMA + harmonic(mm).real
    k = 0
    while True:
        yield complex(-(p1 + p2) * inv)
        inv /= (k + 1) * (mm + k + 1)
        p1 += 1.0 / (k + 1)
        p2 += 1.0 / (mm + k + 1)
        k += 1


def _tail1(mm, a):
    amp = complex(1.0 / math.factorial(mm))
    pa = digamma(a)
    p1 = -EULER_GAMMA
    p2 = -EULER_GAMMA + harmonic(mm).real
    k = 0
    while True:
        yield amp * (pa - p1 - p2)
        amp *= (a + k) / ((k + 1) * (mm + k + 1))
        pa += 1.0 / (a + k)
        p1 += 1.0 / (k + 1)
        p2 += 1.0 / (mm + k + 1)
        k += 1


def _tail2(mm, a, b):
    amp = complex(1.0 / math.factorial(mm))
    pa = digamma(a)
    pb = digamma(1 - b)  # psi(1-b-k) seed
    p1 = -EULER_GAMMA
    p2 = -EULER_GAMMA + harmonic(mm).real
    k = 0
    while True:
        yield amp * (pa + pb - p1 - p2)
        amp *= (a + k) * (b + k) / ((k + 1) * (mm + k + 1))
        pa += 1.0 / (a + k)
        pb += 1.0 / (b + k)  # psi(w-1) = psi(w) - 1/(w-1), w = 1-b-k
        p1 += 1.0 / (k + 1)
        p2 += 1.0 / (mm + k + 1)
        k += 1


_REFERENCE_TAILS = (_tail0, _tail1, _tail2)


def _lanczos_sum(z):
    zz = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (zz + k)
    return zz, zz + _LANCZOS_G + 0.5, acc


def _near_int(z, tol=POLE_TOL):
    try:
        n = round(z.real) if isinstance(z, complex) else round(z)
    except (ValueError, OverflowError):
        raise DomainError(f"argument {z} is not finite") from None
    if abs(complex(z) - n) <= tol:
        return int(n)
    return None


def _pochhammer(z, k):
    if k != int(k):
        raise ValueError(f"pochhammer index must be an integer, got {k}")
    k = int(k)
    z = complex(z)
    if k >= 0:
        acc = complex(1.0)
        for j in range(k):
            acc *= z + j
        return acc
    acc = complex(1.0)
    for j in range(1, -k + 1):
        d = z - j
        if abs(d) <= POLE_TOL:
            raise PoleError(f"pochhammer denominator pole at z - {j} = {d}")
        acc *= d
    return 1.0 / acc


# coefficients compared per tail: past the kept rows
N = 300

# upper parameters of each arity; -3.0, 0.0 and a = 1 - b = -2 put a
# digamma seed at its pole, 0.25 - 3.0j and 1e-300 are far from the
# real axis or at the edge of a double
UPPERS = ([()]
          + [(a,) for a in (0.35, -0.0, complex(-0.0, 0.0), complex(0.25, -3.0), 7.5, -3.0,
                            complex(2.0, -0.0), 1e-300)]
          + [(a, b) for a, b in ((0.3, 0.7), (-0.0, 0.5), (complex(0.1, 0.4), -0.25),
                                 (complex(-0.0, -0.0), complex(0.0, -0.0)), (12.25, -4.5),
                                 (-2.0, 3.0), (2.5, complex(1.5, 2.0)))])


def _coefficients(tail):
    try:
        return [repr(c) for c in itertools.islice(tail, N)]
    except Exception as exc:
        return repr(exc)


def test_the_shared_rows_give_the_tails_of_the_per_tail_loops():
    assert N > dfun._ROW_CAP
    cases = [(upper, mm) for mm in range(26) for upper in UPPERS]
    for upper, mm in cases:
        got = _coefficients(dfun._tail(upper, mm))
        want = _coefficients(_REFERENCE_TAILS[len(upper)](mm, *upper))
        assert got == want, (upper, mm)
    # the corpus reaches every arity, a pole and coefficients below a double
    tails = [_coefficients(dfun._tail(upper, 25)) for upper in UPPERS]
    assert any(isinstance(t, str) and "PoleError" in t for t in tails)
    assert any(isinstance(t, list) and t[-1] in ("0j", "(-0-0j)", "(0-0j)", "-0j") for t in tails)


# upper parameters whose coefficients past the kept rows are normal
# doubles, so that the row stream past them carries bits; at order 170 a
# 1F1 tail needs |a| in the tens of thousands for that
HIGH_ORDER_UPPERS = {
    33: [(complex(900.5, 120.0),), (-650.25,), (complex(6e4, 1e3),),
         (complex(450.5, 300.0), -380.25), (-520.75, complex(610.5, -90.0))],
    170: [(complex(6e4, 1e3),), (complex(-4.5e4, 0.5),),
          (complex(450.5, 300.0), -380.25), (-520.75, complex(610.5, -90.0))],
}


def test_every_0f1_order_is_the_per_tail_loop():
    for mm in range(MAX_ORDER + 1):
        got = _coefficients(dfun._tail((), mm))
        assert got == _coefficients(_tail0(mm)), mm
        # past the kept coefficients 1/(k! (mm+k)!) has underflowed to 0.0
        assert set(got[dfun._ROW_CAP:]) == {"(-0+0j)"}, mm


def test_the_row_stream_past_the_kept_rows_at_high_orders():
    for mm, uppers in HIGH_ORDER_UPPERS.items():
        for upper in uppers:
            got = list(itertools.islice(dfun._tail(upper, mm), N))
            want = list(itertools.islice(_REFERENCE_TAILS[len(upper)](mm, *upper), N))
            assert list(map(repr, got)) == list(map(repr, want)), (upper, mm)
            past = got[dfun._ROW_CAP:]
            assert sum(abs(c) >= sys.float_info.min for c in past) >= 60, (upper, mm)


def test_the_row_cache_stays_bounded():
    dfun._first_rows.cache_clear()
    for mm in range(171):
        rows = dfun._first_rows(mm)
        assert len(rows) == dfun._ROW_CAP
        assert rows[0][0] == 0 and rows[-1][0] == dfun._ROW_CAP - 1
    info = dfun._first_rows.cache_info()
    assert info.maxsize == dfun._ORDERS_KEPT
    assert info.currsize == dfun._ORDERS_KEPT
    # a tail at an order dropped from the cache is built again, bit for bit
    assert _coefficients(dfun._tail((0.3, 0.7), 3)) == _coefficients(_tail2(3, 0.3, 0.7))


def test_the_0f1_coefficient_cache_stays_bounded():
    dfun._first_coeffs0.cache_clear()
    for mm in range(171):
        coeffs = dfun._first_coeffs0(mm)
        assert type(coeffs) is tuple and len(coeffs) == dfun._ROW_CAP
        assert dfun._first_coeffs0.cache_info().currsize <= dfun._ORDERS_KEPT
    info = dfun._first_coeffs0.cache_info()
    assert info.maxsize == dfun._ORDERS_KEPT
    assert info.currsize == dfun._ORDERS_KEPT
    # a tail at an order dropped from the cache is built again, bit for bit
    assert _coefficients(dfun._tail((), 3)) == _coefficients(_tail0(3))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__


_SPECIAL = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 0.5, 3.0, 3.0 + 5e-10, 3.0 - 2e-9,
            -4.0 + 1e-10, 171.6, -170.5, 2.5e15, 1e16 + 1.0,
            math.inf, -math.inf, math.nan]
_REALS = st.one_of(st.sampled_from(_SPECIAL),
                   st.floats(min_value=-200.0, max_value=200.0),
                   st.floats(allow_nan=True, allow_infinity=True))
_COMPLEX = st.builds(complex, _REALS, _REALS)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_COMPLEX)
@example(complex(-0.0, 0.0))
@example(complex(0.0, -0.0))
@example(complex(-13.0, 0.0))  # zz + k is 0: both divide by zero
@example(complex(math.nan, 1.0))
@example(complex(1e300, -1e300))
def test_lanczos_sum_matches_the_indexed_loop(z):
    assert _outcome(gammakit._lanczos_sum, z) == _outcome(_lanczos_sum, z)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(_REALS, _COMPLEX, st.integers(-10**6, 10**6)),
       st.sampled_from([POLE_TOL, 1e-9, 0.0, 0.25]))
@example(-0.0, POLE_TOL)
@example(complex(-0.0, -0.0), POLE_TOL)
@example(2.9999999996, 1e-9)
@example(complex(3.0, 5e-10), 1e-9)
@example(complex(3.0, math.inf), 1e-9)
@example(complex(math.inf, 0.0), 1e-9)
@example(math.nan, 1e-9)
@example(1e300, 1e-9)
@example(True, 1e-9)
def test_near_int_matches_the_complex_copy(z, tol):
    got = _outcome(gammakit.near_int, z, tol)
    want = _outcome(_near_int, z, tol)
    assert got == want
    if got == "DomainError":
        with pytest.raises(DomainError, match="is not finite"):
            gammakit.near_int(z, tol)


def test_near_int_still_refuses_what_is_not_a_number():
    for z in ("3", None, [3.0]):
        with pytest.raises(TypeError):
            _near_int(z)
        with pytest.raises(TypeError):
            gammakit.near_int(z)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(_REALS, _COMPLEX), st.integers(-180, 420))
@example(0.5, 400)
@example(1e300, 2)
@example(1e300, -2)
@example(complex(1e200, 1e200), -3)
@example(math.inf, -1)
@example(math.nan, 0)
@example(-0.0, 0)
@example(2.0, -3)  # a denominator pole
def test_pochhammer_keeps_every_finite_value(z, k):
    got = _outcome(gammakit.pochhammer, z, k)
    try:
        want = _pochhammer(z, k)
    except Exception as exc:
        assert got == type(exc).__name__
        return
    if cmath.isfinite(want):
        assert got == repr(want)
    else:
        assert got == "DomainError"
