"""ffun.f2f0_asymptotic against its loop before each term's magnitude was
taken once.

_reference below is that loop verbatim, except that its
DivergedImmediately message is the function's, which names z so that
ffun._named can rename it: it takes abs(t_next), abs(t) and abs(t_next)
again at every term.  Both must return the same repr,
or raise the same exception with the same message, on every finite
input: the zero-term, DivergedImmediately and TruncationMaxed exits
included.  A nan or infinite a, b or z, on which the loop ran out its
budget, raises DomainError naming it.  So does a term whose magnitude
is nan: the loop, whose stop test is false for it, added it and ran out
its budget to a nan flagged only TruncationMaxed; the function raises
DomainError instead, naming a, b and z, wherever the loop's terms go
nan.  An infinite term stops both, with the same result.
"""

import cmath
import math
import re
import sys

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperd.errors import DivergedImmediately, DomainError
from hyperd.ffun import f2f0_asymptotic
from hyperd.series import MAX_TERMS, EvalResult

_EPS = sys.float_info.epsilon


def _reference(a, b, z, max_terms=MAX_TERMS):
    # the loop of f2f0_asymptotic with three abs calls a term, verbatim
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    a = complex(a)
    b = complex(b)
    z = complex(z)
    t = complex(1.0)
    total = t
    abs_sum = 1.0
    n = 0
    while n < max_terms:
        t_next = t * (a + n) * (b + n) * z / (n + 1)
        if t_next == 0:
            return EvalResult(total, 0.0, n + 1)
        if abs(t_next) >= abs(t):
            if n == 0 and abs(z) >= 1.0:
                raise DivergedImmediately(
                    f"first term of 2F0 already smallest at z = {z}"
                )
            err = max(abs(t), (n + 1) * _EPS * abs_sum)
            return EvalResult(total, err, n + 1)
        total += t_next
        abs_sum += abs(t_next)
        t = t_next
        n += 1
    return EvalResult(total, abs(t), max_terms, frozenset({"TruncationMaxed"}))


def _a_term_is_nan(a, b, z, max_terms):
    # whether _reference computes a term of nan magnitude before it stops
    a, b, z = complex(a), complex(b), complex(z)
    t = complex(1.0)
    for n in range(max_terms):
        t_next = t * (a + n) * (b + n) * z / (n + 1)
        if math.isnan(abs(t_next)):
            return True
        if t_next == 0 or abs(t_next) >= abs(t):
            return False
        t = t_next
    return False


def _outcome(fn, *args):
    """(the result or exception, its error estimate): a result as
    (repr(value), terms_used, flags) and repr(err_estimate), an exception
    as (type name, message) and None."""
    try:
        return _parts(fn(*args))
    except (DivergedImmediately, DomainError, ValueError) as exc:
        return (type(exc).__name__, str(exc)), None


def _parts(r):
    return (repr(r.value), r.terms_used, r.flags), repr(r.err_estimate)


_PARAMS = st.one_of(
    st.sampled_from([0.5, 1.2, -3.0, 0j, complex(0.85, 0.3), 1e-300, complex("nan"),
                     1e300, -1e300, complex(0.0, 1e160)]),
    st.complex_numbers(max_magnitude=40.0, allow_nan=False, allow_infinity=False),
)
# 1F1 and 0F1 expansion variables (-1/z, -1/(4 sqrt z)) near and far,
# the first-term divergence at |z| >= 1, and 0
_XS = st.one_of(
    st.sampled_from([0j, -1 / 20.3, -1 / 45.0, complex(-0.02, 0.01), 1.0, -2.5 + 1j]),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
_BUDGETS = st.one_of(st.integers(-1, 12), st.just(MAX_TERMS))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_PARAMS, _PARAMS, _XS, _BUDGETS)
@example(0.5, 0.5, -0.02, MAX_TERMS)   # optimal truncation
@example(-3.0, 0.5, -0.1, MAX_TERMS)   # a zero term ends the sum
@example(1.0, 1.0, 2.0, MAX_TERMS)     # first term already smallest
@example(0.5, 0.5, -1e-4, 3)           # TruncationMaxed
@example(0.5, 0.5, -1e-4, 0)           # max_terms < 1
@example(1e-300, 1e-300, 1e-300, MAX_TERMS)  # terms far below the rounding floor
@example(-1e300, 1e300, complex(-0.0069, 0.0089), MAX_TERMS)  # a nan first term
@example(1e300, 1e300, -0.5, MAX_TERMS)  # an overflow that turns nan
@example(-1e-320, 1e308, 1e9, MAX_TERMS)  # an infinite second term
def test_f2f0_matches_the_three_abs_loop(a, b, x, max_terms):
    got, got_est = _outcome(f2f0_asymptotic, a, b, x, max_terms)
    if max_terms >= 1 and not all(map(cmath.isfinite, (a, b, x))):
        assert got[0] == "DomainError"
        return
    if max_terms >= 1 and _a_term_is_nan(a, b, x, max_terms):
        assert got[0] == "DomainError" and "term is not finite" in got[1]
        return
    want, want_est = _outcome(_reference, a, b, x, max_terms)
    assert got == want
    assert got_est == want_est


def test_a_term_that_is_not_finite_raises_domain_error():
    # the finite arguments give a nan first term: the loop added it and ran
    # to max_terms, returning nan+nan*i flagged only TruncationMaxed
    with pytest.raises(DomainError, match=re.escape(
            "2F0 term is not finite at a = (-1e+300+0j), b = (1e+300+0j), "
            "z = (-0.0069+0.0089j): (nan+nanj)")):
        f2f0_asymptotic(-1e300, 1e300, -0.0069 + 0.0089j)
    r = _reference(-1e300, 1e300, -0.0069 + 0.0089j)
    assert r.flags == {"TruncationMaxed"} and not cmath.isfinite(r.value)
    # a second term of -inf+nan*i has magnitude inf: it is the largest, and
    # the sum before it stands, bit for bit
    r = f2f0_asymptotic(-1e-320, 1e308, 1e9)
    (got, got_est), (want, want_est) = _parts(r), _parts(_reference(-1e-320, 1e308, 1e9))
    assert got == want
    assert got_est == want_est
    assert r.value == 0.9990000111328173 and r.terms_used == 2
