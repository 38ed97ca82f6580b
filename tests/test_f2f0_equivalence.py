"""ffun.f2f0_asymptotic against its loop before each term's magnitude was
taken once.

_reference below is that loop verbatim: it takes abs(t_next), abs(t)
and abs(t_next) again at every term.  Both must return the same repr,
or raise the same exception with the same message, on every finite
input: the zero-term, DivergedImmediately and TruncationMaxed exits
included.  A nan or infinite a, b or z, on which the loop ran out its
budget, raises DomainError naming it.
"""

import cmath
import sys

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
                    f"first term of 2F0 already smallest at |z| = {abs(z):.6g}"
                )
            err = max(abs(t), (n + 1) * _EPS * abs_sum)
            return EvalResult(total, err, n + 1)
        total += t_next
        abs_sum += abs(t_next)
        t = t_next
        n += 1
    return EvalResult(total, abs(t), max_terms, frozenset({"TruncationMaxed"}))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (DivergedImmediately, DomainError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_PARAMS = st.one_of(
    st.sampled_from([0.5, 1.2, -3.0, 0j, complex(0.85, 0.3), 1e-300, complex("nan")]),
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
def test_f2f0_matches_the_three_abs_loop(a, b, x, max_terms):
    got = _outcome(f2f0_asymptotic, a, b, x, max_terms)
    if max_terms >= 1 and not all(map(cmath.isfinite, (a, b, x))):
        assert got[0] == "DomainError"
        return
    assert got == _outcome(_reference, a, b, x, max_terms)
