"""The grouped summation loop against a term-by-term reference.

sum_power_series tests the stopping rule once per group of _RUN terms.
_reference below is the loop that tests every term; both must give the
same result or exception and pull the same number of coefficients.  The
intended differences: a partial sum that is not finite raises
DomainError instead of being returned or raised with NoConvergence, and
the kernel raises it as soon as it sees the sum is not finite, so it may
pull fewer coefficients than the reference, which reads on.
"""

import cmath
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperd import dfun, ffun
from hyperd.errors import DomainError, NoConvergence
from hyperd.series import _RUN, REL_TOL, EvalResult, deriv_coeffs, sum_power_series


def _reference(coeff, z, max_terms, start=0):
    # the loop of sum_power_series before grouping, verbatim
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    z = complex(z)
    it = iter(coeff)
    total = 0j
    power = z**start if start else complex(1.0)
    small_run = 0
    used = 0
    for c in itertools.islice(it, max_terms):
        term = c * power
        total += term
        used += 1
        power *= z
        if abs(term) <= REL_TOL * abs(total):
            small_run += 1
            if small_run >= _RUN:
                c = next(it, None)
                return EvalResult(total, 0.0 if c is None else abs(c * power), used)
        else:
            small_run = 0
    if used < max_terms:
        return EvalResult(total, 0.0, max(used, 1))
    raise NoConvergence(
        f"no convergence in {max_terms} terms at z = {z}",
        partial=total,
        err=abs(term),
    )


class _Counted:
    """An iterator over coeffs that counts the coefficients pulled."""

    def __init__(self, coeffs):
        self.it = iter(coeffs)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        c = next(self.it)
        self.pulled += 1
        return c


def _outcome(fn, coeffs, z, max_terms, start):
    """(repr of the result or exception, coefficients pulled); a sum
    that is not finite maps to DomainError."""
    src = _Counted(coeffs)
    try:
        r = fn(src, z, max_terms, start)
    except NoConvergence as exc:
        out = ("NoConvergence", str(exc), repr(exc.partial), repr(exc.err))
        if not cmath.isfinite(exc.partial):
            out = "DomainError"
    except DomainError as exc:
        assert f"at z = {complex(z)}" in str(exc)
        out = "DomainError"
    else:
        out = repr(r) if cmath.isfinite(r.value) else "DomainError"
    return out, src.pulled


def _assert_same(coeffs, z, max_terms, start):
    got, got_pulled = _outcome(sum_power_series, coeffs(), z, max_terms, start)
    want, want_pulled = _outcome(_reference, coeffs(), z, max_terms, start)
    assert got == want
    if got == "DomainError":
        # the kernel stops at the group where the sum turned non-finite
        assert got_pulled <= want_pulled
    else:
        assert got_pulled == want_pulled


_NAN = complex("nan")
_INF = complex("inf")

# ordinary, zero, tiny (about 1e-20) and non-finite coefficients
_PALETTE = (0j, 1 + 0j, -1 + 0j, 2.5 - 1j, 1e-20 + 0j, -1e-20j,
            3e-21 + 1e-21j, 1e-15 + 0j, _NAN, _INF, complex(0, -float("inf")))
_ZS = (0j, 1e-3 + 0j, 1 + 0j, 40 + 0j, 1e4 + 0j, 0.3 - 0.4j, -0.9 + 0.2j, 1j,
       25 + 17j)
_BUDGETS = st.one_of(st.integers(1, 14), st.just(10000))
_STARTS = st.integers(0, 3)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_PALETTE), max_size=14),
       st.sampled_from(_ZS), _BUDGETS, _STARTS)
@example([1, 1e-20, 1e-20, 1e-20, 5], 1 + 0j, 10000, 0)
@example([1, 2, 1e-20, 1e-20, 1e-20, 5], 1 + 0j, 10000, 0)
@example([1, 1e-20, 1e-20, 7, 1e-20, 1e-20, 1e-20, 5], 1 + 0j, 10000, 0)
@example([1, 1e-20, 1e-20, 1e-20, 1e-20, 5], 1 + 0j, 10000, 0)
@example([1, 1e-20, 1e-20, 1e-20], 1 + 0j, 4, 0)
@example([1, 1e-20, 1e-20, 1e-20], 1 + 0j, 10000, 0)
@example([1, 1e-20, 1e-20], 1 + 0j, 10000, 0)
@example([3, 1e-20, 1e-20, 1e-20, 4], 1 + 0j, 10000, 2)
@example([1, 0j, 0j, 0j, 0j], 0j, 10000, 1)
def test_finite_streams(values, z, max_terms, start):
    _assert_same(lambda: iter(values), z, max_terms, start)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_PALETTE), min_size=1, max_size=7),
       st.sampled_from(_ZS), _BUDGETS, _STARTS)
@example([1, 1e-20, 1e-20, 1e-20, 1e-20, 2], 1 + 0j, 10000, 0)
@example([1, 1e-20, 1e-20, 3, 1e-20], 1 + 0j, 10000, 0)
def test_repeating_streams(pattern, z, max_terms, start):
    _assert_same(lambda: itertools.cycle(pattern), z, max_terms, start)


def _package_streams():
    """(name, (start, factory)) for the coefficient streams of F and of
    the D tails, with their derivative streams."""
    seeds = {
        "F0(1.5)": ffun._seed(ffun.F0(1.5)),
        "F0(-2)": ffun._seed(ffun.F0(-2)),
        "F1(0.7,2)": ffun._seed(ffun.F1(0.7, 2)),
        "F1(-3,1.3+0.2j)": ffun._seed(ffun.F1(-3, 1.3 + 0.2j)),
        "F2(1,0.3,0.2)": ffun._seed(ffun.F2(1, 0.3, 0.2)),
        "F2(-2,0.3,0.2)": ffun._seed(ffun.F2(-2, 0.3, 0.2)),
    }
    for p in (ffun.F0(2), ffun.F0(-2), ffun.F1(0.7, 1), ffun.F2(0, 0.3, 0.2)):
        seeds["D%s" % (p,)] = (0, dfun._expand(p)[1])
    out = []
    for name, (start, gen) in seeds.items():
        for order in range(3):
            out.append(("%s'%d" % (name, order),
                        deriv_coeffs(gen, start, order) if order else (start, gen)))
    return out


_STREAMS = _package_streams()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(_STREAMS), st.sampled_from(_ZS + (0.9 - 0.3j, -30 + 0j)),
       _BUDGETS)
def test_package_streams(stream, z, max_terms):
    _, (start, gen) = stream
    _assert_same(gen, z, max_terms, start)
