"""Series summation core and principal-branch elementary functions.

Every public evaluator has one door, where it receives z and hands back
its result: the point callable and .jet that _prepared builds (F, the
second solution, F^I, D, D^I, the log solution), the closures of
ufun.prepare_u, and ufun.bessel.  Arguments are checked on the way in:
the parameter set once, when the evaluator is prepared (ffun._params),
and z at the door (_point).  Results are checked on the way out: a
finite value with a finite err_estimate, or a HyperdError (_checked).
The raw jets behind the doors trust both, and an evaluator that needs
another one composes its raw jet, not its door.

The summation engine is generic: it consumes a coefficient generator and
returns the partial sum together with an honest truncation-error estimate.
All branch handling in the package funnels through principal_log,
log_negated and principal_pow so that every module agrees on the cuts:
log z is cut on (-inf, 0], log(-z) on [0, inf).  Points exactly on a cut
are rejected; we do not adopt a signed-zero side convention.

Coefficient streams depend on the parameters only, never on z.  A
stream is wrapped once in an itertools.tee (_replay), so the sums that
share it (the points of a prepared callable, the sums of a jet)
generate its coefficients, and their gamma/digamma seeds, once; the
tee keeps every value, about 40 bytes a term.  Public functions may be
called from any thread; a prepared callable or a LaurentExpansion
belongs to the thread that made it.

Every coefficient stream in the package yields complex numbers, so the
summation loop multiplies each coefficient as it comes, with no per-term
conversion.  A float coefficient would still sum, but from Python 3.14
on float * complex no longer goes through complex * complex (the zero
imaginary part stays out of the product), which can change bits; the
streams convert at their source instead.

Every convergent series stops by one rule: _RUN consecutive terms each
at most REL_TOL of the partial sum.  The loop tests it once per group
of _RUN terms, not at every term, and stops at the same term (see
sum_power_series): the test costs more than a term's arithmetic.  Every
evaluator sums within the one budget MAX_TERMS; only the two kernels,
sum_power_series and ffun.f2f0_asymptotic, take a max_terms argument,
which their own tests drive.

sum_power_series pulls each group of _RUN coefficients straight from
the stream, with no wrapper per coefficient: a tee of a replayed stream
may be that stream itself, and zip bounds the pull by a range of the
term counts the budget allows.  A second tee copy, back, waits at the
first coefficient; only the cold end reads it, to add the one or two
coefficients zip dropped where the stream ended inside a group, or the
last one or two terms of a budget that is not a multiple of _RUN.  The
error estimate |c| |z|^n of a sum whose z**n has overflowed by the stop
is taken in log space.

Every sum and every point builds an EvalResult, several for a point of
log z F + D or of U, so it is a NamedTuple: immutable, and built in
under half the time of a frozen dataclass.  The sites a table point
passes through (the kernel, scaled, log_combo, D's head, the 2F0
expansion, U's Connection route) skip its Python-level __new__: _result
is tuple.__new__ bound to EvalResult, one C call, 190 ns against 330 ns
on a 2-vCPU Xeon VM.  They pass flags even where empty, so the type,
repr, == and hash are those of EvalResult(...), the public constructor.
LaurentExpansion, the parameter sets and the records of the package are
NamedTuples too, and no module of the package loads dataclasses.
"""

import cmath
import functools
import itertools
import math
import operator
import sys
from typing import NamedTuple

from .errors import BranchCut, DomainError, NoConvergence

REL_TOL = 1e-14
MAX_TERMS = 10000

# consecutive small terms required before a series counts as converged;
# a single test misfires when a coefficient happens to vanish.
# sum_power_series sums in groups of this many terms.
_RUN = 3

_EPS = sys.float_info.epsilon
_ONE = complex(1.0)
_INF = math.inf


def _replay(gen):
    """Factory of iterators over the endless stream gen, each from its
    first value: the __copy__ of one itertools.tee, so a replay runs in C.
    A stream that raised has stopped, and its tee would replay it cut
    short: build a new one instead."""
    return itertools.tee(gen, 1)[0].__copy__


def _kept(box, build, *args):
    """box[0], put there by build(*args) if the list box is empty: built at
    the first call that succeeds, kept until box.clear().  A list costs
    less to set up than functools.cache, which verify would pay per point."""
    if not box:
        box.append(build(*args))
    return box[0]


def _checked(r, z):
    """r where r.value is finite and r.err_estimate < inf (not nan); else DomainError at z."""
    if cmath.isfinite(r.value) and r.err_estimate < _INF:
        return r
    raise DomainError(f"result is not finite at z = {complex(z)}: {r.value}, "
                      f"err_estimate {r.err_estimate}")


def _point(z):
    """complex(z), the point a door receives; DomainError unless it is
    finite, so that no series is summed at a nan or infinite point."""
    z = complex(z)
    if cmath.isfinite(z):
        return z
    raise DomainError(f"z must be finite, got z = {z}")


def _prepared(jet):
    """z -> jet(z, 0)[0] and its .jet, the doors of the raw jet: z through
    _point on the way in, each result through _checked on the way out
    (.jet in a loop, half a comprehension's cost)."""

    def checked_jet(z, order):
        z = _point(z)
        out = jet(z, order)
        for r in out:
            _checked(r, z)
        return out

    at = lambda z: _checked(jet(_point(z), 0)[0], z)
    at.jet = checked_jet
    return at


class EvalResult(NamedTuple):
    """Value of a series or special-function evaluation.

    err_estimate is absolute.  flags is a frozenset, empty or
    {"TruncationMaxed"}.
    """

    value: complex
    err_estimate: float
    terms_used: int
    flags: frozenset = frozenset()

    def scaled(self, c):
        """This result times c: value c*v, error |c|*err, same terms and flags."""
        value, err, terms, flags = self
        return _result((c * value, abs(c) * err, terms, flags))


# EvalResult((value, err_estimate, terms_used, flags)) in one C call, flags
# given even where empty (see the module docstring)
_result = functools.partial(tuple.__new__, EvalResult)
_NO_FLAGS = frozenset()


def log_combo(ell, f, d):
    """ell * F + D from the results f = F and d = D, ell a logarithm.

    The error propagates both truncation errors and adds the rounding
    floor eps * (|ell F| + |D|), since the two terms can cancel.
    """
    fv, fe, fn, ff = f
    dv, de, dn, df = d
    lf = ell * fv
    err = abs(ell) * fe + de + _EPS * (abs(lf) + abs(dv))
    return _result((lf + dv, err, fn + dn, ff | df))


def _product_jet(s, g, d=None):
    """The jet of s g, or of s g + d, at one point: s holds the scale and
    its derivatives there, at least len(g) of them, and g and d are jets.

    Entry 0 is g[0].scaled(s[0]), or log_combo(s[0], g[0], d[0]).  Entry
    k >= 1 is the Leibniz sum of C(k, j) s^(j) g^(k-j) over j, plus d^(k).
    Its error is the sum of C(k, j) |s^(j)| err(g^(k-j)), plus err(d^(k)),
    and the rounding floor of log_combo: eps times the sum of the
    magnitudes of the summands, since they can cancel.
    """
    out = (g[0].scaled(s[0]) if d is None else log_combo(s[0], g[0], d[0]),)
    if len(g) == 1:
        return out
    for k in range(1, len(g)):
        parts = [(math.comb(k, j) * s[j], g[k - j]) for j in range(k + 1)]
        if d is not None:
            parts.append((1.0, d[k]))
        out += (_linear(parts),)
    return out


def _combined_jet(rows, g):
    """The jet whose entry 0 is g[0] and entry k >= 1 is the sum of
    rows[k-1][i] g[i] over i <= k, g a jet: the jet of G(x(z)) when the
    chain rule gives its k-th derivative as that combination of the
    derivatives of G at x.  Errors as in _product_jet."""
    return (g[0],) + tuple([_linear(list(zip(row, g))) for row in rows])


def _linear(parts):
    """The sum of c r over the pairs (c, r) of parts, r EvalResults.  Its
    error is the sum of |c| err(r) plus eps times the sum of the
    magnitudes of the summands, since they can cancel."""
    terms = [c * r.value for c, r in parts]
    err = sum([abs(c) * r.err_estimate for c, r in parts]) + _EPS * sum(map(abs, terms))
    return EvalResult(sum(terms), err, sum([r.terms_used for _, r in parts]),
                      frozenset().union(*[r.flags for _, r in parts]))


class LaurentExpansion(NamedTuple):
    """Coefficients of sum_{k=1}^{m} d_{-k} z^{-k} + sum_{n>=0} d_n z^n.

    principal holds (d_{-1}, ..., d_{-m}); tail_coeff is a zero-argument
    callable returning a fresh iterator over d_0, d_1, ... so that the
    expansion object itself stays immutable and reusable.  For an
    expansion from dfun.d_expand the iterators replay one stream (see
    _replay): the expansion belongs to the thread that made it.
    """

    principal: tuple
    tail_coeff: object

    @property
    def pole_order(self):
        return len(self.principal)

    def tail_list(self, n):
        """First n analytic-part coefficients as a list."""
        gen = self.tail_coeff()
        return [next(gen) for _ in range(n)]


def sum_power_series(coeff, z, max_terms=MAX_TERMS, start=0):
    """Sum c_n z^n for n = start, start+1, ... with truncation control.

    coeff yields c_start, c_start+1, ... in order, complex numbers in
    every stream of the package (see the module docstring).  Stops once _RUN
    consecutive terms each have magnitude <= REL_TOL * |partial sum|;
    err_estimate is the magnitude of the first omitted term c z^n (0 when
    the generator is exhausted), taken in log space, as
    exp(log|c| + n log|z|), where z**n has overflowed by the stop and c
    is finite and not zero.  Raises NoConvergence with the running
    partial attached when max_terms is hit first, and DomainError naming
    z when the partial sum is not finite: where the summation ends, or
    at the end of the first group whose partial sum is inf or nan (the
    stop test reads such a group as small, and the branch that handles a
    small group checks the sum first), where the first power z**start
    overflows, where the error estimate is not finite (it overflows a
    double even in log space, or the first omitted coefficient is not
    finite), or where a finite term, sum or estimate has a modulus past a
    double (abs() raises OverflowError; one try around the loop, no work
    per term).  No coefficient past the first omitted one (or past
    c_{start+max_terms-1}) is read.

    The terms are summed in groups of _RUN = 3 and only the last term of
    a group is tested, which stops at exactly the term where a test of
    every term stops.  While the term before a group is not small, no
    run of _RUN small terms can end at the group's first or second term,
    so the group's last term is read before any stop, as it would be
    term by term.  When the last term is small, the two before it are
    tested from their kept terms and partial sums: if both are small the
    sum stops there; otherwise the loop tests term by term until a term
    is not small, then starts a new round of groups on the budget left.
    The result, the error estimate, the exceptions and the coefficients
    read are those of the term-by-term loop, except that a sum that is
    not finite raises without reading on.

    The groups are pulled straight from the stream: itertools.tee splits
    coeff into src, which the loop reads, and back, which stays at the
    first coefficient.  A tee of a replayed stream (see _replay) may be
    that stream itself, so the loop reads it with no wrapper.  Each round
    zips src with the range of term counts at the end of each whole group
    the budget leaves, and zip pulls the range first, so nothing past
    max_terms is read and the count comes with the group.  Where the
    stream ends inside a group, zip drops the one or two coefficients it
    pulled: the cold end reads them again from back, past the used
    coefficients, as it reads the last one or two terms of a budget that
    is not a multiple of _RUN, and adds them without the stop test, since
    a group cut short cannot stop.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    z = complex(z)
    src, back = itertools.tee(coeff, 2)
    total = 0j
    power = _ONE
    if start:
        try:
            power = z**start
        except OverflowError:
            raise DomainError(f"z**{start} overflows a double at z = {z}") from None
    used = 0
    tol = REL_TOL
    try:
        while True:
            # used is the count at the end of each group
            for used, a, b, c in zip(range(used + _RUN, max_terms + 1, _RUN), src, src, src):
                term_a = a * power
                power *= z
                total_a = total + term_a
                term_b = b * power
                power *= z
                total_b = total_a + term_b
                term = c * power
                power *= z
                total = total_b + term
                # false for a nan term or an inf sum: a sum that is no longer
                # finite comes here and raises
                if not abs(term) > tol * abs(total):
                    break
            else:
                # the cold end: the budget or the stream ended
                for c in itertools.islice(back, used, max_terms):
                    term = c * power
                    total += term
                    used += 1
                    power *= z
                break
            if not cmath.isfinite(total):
                break
            run = 1
            if abs(term_b) <= tol * abs(total_b):
                run = 2 if abs(term_a) > tol * abs(total_a) else _RUN
            # term by term until the run ends (a nan term is not small), or
            # the budget or the stream does; then a new round
            while run < _RUN and used < max_terms:
                c = next(src, None)
                if c is None:
                    break
                term = c * power
                total += term
                used += 1
                power *= z
                if not abs(term) <= tol * abs(total):
                    break
                run += 1
            if run < _RUN:
                continue
            c = next(src, None)
            if not cmath.isfinite(total):
                break
            err = 0.0 if c is None else abs(c * power)
            if not err < _INF:
                # inf or nan where z**n overflowed by the stop, even against
                # a zero c, or where c is not finite; a finite c that is not
                # zero has its magnitude |c| |z|^n in log space
                if c and cmath.isfinite(c):
                    try:
                        err = math.exp(math.log(abs(c)) + (start + used) * math.log(abs(z)))
                    except OverflowError:
                        pass
                if not err < _INF:
                    raise DomainError(f"series error estimate is not finite at z = {z}: {err}")
            return _result((total, err, used, _NO_FLAGS))
        # an overflow (z**n first, at large |z|) or a nan leaves no value
        if not cmath.isfinite(total):
            raise DomainError(f"series sum is not finite at z = {z}: {total}")
        if used < max_terms:
            return _result((total, 0.0, max(used, 1), _NO_FLAGS))
        raise NoConvergence(
            f"no convergence in {max_terms} terms at z = {z}",
            partial=total,
            err=abs(term),
        )
    except OverflowError:
        # abs() of a finite term or sum whose modulus is past a double
        raise DomainError(f"series term or sum has a modulus past a double at z = {z}") from None


def deriv_coeffs(gen_factory, start, order):
    """Coefficient stream of the order-th derivative of sum c_n z^n.

    Returns (new_start, new_factory): coefficients n(n-1)...(n-order+1) c_n
    reindexed to the power n - order, with the terms annihilated by
    differentiation skipped.
    """
    lead = max(start, order)

    def g():
        # ((1.0 * n) * (n-1)) ... * c_n, the arithmetic of a plain loop,
        # chained from C iterators so that a replayed stream stays in C
        f = itertools.repeat(1.0)
        for j in range(order):
            f = map(operator.mul, f, itertools.count(lead - j))
        return map(operator.mul, f, itertools.islice(gen_factory(), lead - start, None))

    return lead - order, g


def principal_log(z):
    """log z with Im in (-pi, pi); cut on (-inf, 0]."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCut(f"principal_log cut at z = {z}")
    return cmath.log(z)


def log_negated(z):
    """log(-z) as the principal logarithm of -z; cut on [0, inf).

    For Im z > 0 this equals principal_log(z) - i pi, for Im z < 0 it is
    principal_log(z) + i pi, and on (-inf, 0) it is real.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise BranchCut(f"log_negated cut at z = {z}")
    return cmath.log(complex(-z.real, -z.imag))


def _int_pow(z, n):
    # binary exponentiation; exact for real z, no branch cut anywhere
    if n < 0:
        return 1.0 / _int_pow(z, -n)
    acc = complex(1.0)
    base = complex(z)
    while n:
        if n & 1:
            acc *= base
        base *= base
        n >>= 1
    return acc


def principal_pow(z, a):
    """z**a via exp(a log z) on the principal branch.

    Integer exponents (including a = 0) are computed by repeated
    multiplication, so they are defined for every z != 0 and keep real
    arguments exactly real.  Where z**a is not finite (it overflows a
    double, or a negative integer power of a z whose positive power
    underflows to 0) DomainError names z and a.
    """
    z = complex(z)
    a = complex(a)
    try:
        if a.imag == 0.0 and a.real == round(a.real):
            n = int(a.real)
            if n == 0:
                return complex(1.0)
            if z == 0:
                if n < 0:
                    raise DomainError("0 cannot be raised to a negative power")
                return complex(0.0)
            w = _int_pow(z, n)
        else:
            w = cmath.exp(a * principal_log(z))
        if cmath.isfinite(w):
            return w
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"z**a is not finite at z = {z}, a = {a}")
