"""Logarithmic companion functions D for the three equation kinds.

Each D is a Laurent-type object: a finite principal part with exact
coefficients plus a digamma-weighted analytic tail,

    D_m(z)           = sum_{k=1}^{m} (-1)^(k-1) (k-1)!/(m-k)! z^(-k)
                       - sum_{k>=0} (psi(k+1) + psi(k+1+m)) z^k/(k! (m+k)!)

    D_{theta,m}(z)   : tail weight psi(a+k) - psi(k+1) - psi(k+m+1) with
                       a = (1+m+theta)/2 and Pochhammer (a)_k on top,
                       principal coefficients (-1)^(k-1) (k-1)! (a)_{-k}/(m-k)!

    D_{m,beta,mu}(z) : tail weight psi(a+k) + psi(1-b-k) - psi(k+1) - psi(m+k+1)
                       with (a)_k (b)_k on top, a,b = (1+m+beta∓mu)/2,
                       principal coefficients (-1)^(k-1) (k-1)! (a)_{-k} (b)_{-k}/(m-k)!

normalized so that log z * F + D (log(-z) * F + D in the 2F1 case) solves
the homogeneous equation.  The normalization constant is pinned to
C = 2 gamma_Euler - H_m; no user override is offered, since the closed
relations to the U functions hold only for this choice.

Negative order is a pure power shift, D_{-m} := z^m D_m, which turns the
principal part into low-order polynomial coefficients and leaves no pole.

Every function here takes the F0, F1 or F2 that F takes, at an alpha
within DEGENERACY_TOL of the integer m: D_m is selected by F0(m),
D_{theta,m} by F1(theta, m) and D_{m,beta,mu} by F2(m, beta, mu).  The
parameters are checked once, when the expansion is built or an
evaluator prepared (_d_params).

As in ffun, every point function is its prepare function called at z:
prepare_d_eval(p)(z) and so on, with the expansion built, the
I-form prefactor computed and the F of log_solution prepared once.  A
prepared callable at carries at.jet(z, order) for order up to 2, as in
ffun: at(z) is at.jet(z, 0)[0].
Public functions may be called from any thread; a prepared callable or
a LaurentExpansion replays its own stream and belongs to the thread
that made it.
"""

import cmath
import itertools
import math
from dataclasses import replace

from .errors import DomainError, ParameterSingular, PoleAtOrigin
from .ffun import (
    DEGENERACY_TOL,
    F2_SERIES_RADIUS,
    F1,
    F2,
    _check_order,
    _check_params,
    _f2_I_prefactor,
    prepare_f_norm,
)
from .gammakit import EULER_GAMMA, digamma, harmonic, near_int, pochhammer
from .series import (
    EvalResult,
    LaurentExpansion,
    _check_finite,
    _check_point,
    _kept,
    _prepared,
    _product_jet,
    _replay,
    deriv_coeffs,
    log_negated,
    principal_log,
    sum_power_series,
)

def _d_params(p):
    """p with alpha set to its integer m, once p is checked to select a D.

    TypeError for an argument that is not a parameter set, DomainError for
    a parameter that is not finite or an alpha farther than
    DEGENERACY_TOL from every integer m, and ParameterSingular where a
    digamma weight or a principal-part Pochhammer of D_|m| sits at a pole:
    an integer (1+|m|+theta)/2 <= |m| for 1F1, an integer
    a, b = (1+|m|+beta∓mu)/2 for 2F1.  An order beyond ffun.MAX_ORDER
    raises DomainError when the expansion is built.
    """
    _check_params(p)
    m = near_int(p.alpha, DEGENERACY_TOL)
    if m is None:
        raise DomainError(f"this function needs integer m, got alpha={p.alpha!r}")
    mm = abs(m)
    if isinstance(p, F1):
        a = (1 + mm + p.theta) / 2
        n = near_int(a, DEGENERACY_TOL)
        if n is not None and n <= mm:
            raise ParameterSingular(f"(1+m+theta)/2 = {a} is an integer <= m; D undefined")
    elif isinstance(p, F2):
        a = (1 + mm + p.beta - p.mu) / 2
        b = (1 + mm + p.beta + p.mu) / 2
        if near_int(a, DEGENERACY_TOL) is not None or near_int(b, DEGENERACY_TOL) is not None:
            raise ParameterSingular(f"integer classical parameter (a, b) = ({a}, {b}); D undefined")
    # a non-finite real part has raised in near_int above
    _check_finite(vars(p))
    return p if type(p.alpha) is int else replace(p, alpha=m)


def _principal(upper, mm):
    """(d_{-1}, ..., d_{-mm}) at order mm for upper parameters (), (a,) or (a, b)."""
    out = []
    sign = 1.0
    fact = 1.0  # (k-1)!
    for k in range(1, mm + 1):
        if k > 1:
            fact *= k - 1
            sign = -sign
        c = sign * fact / math.factorial(mm - k)
        for u in upper:
            c = c * pochhammer(u, -k)
        out.append(complex(c))
    return tuple(out)


def _tail(upper, mm):
    """Generator of the complex d_0, d_1, ... at order mm, upper as in _principal.

    Digamma weights are advanced by psi(z+1) = psi(z) + 1/z, so each
    coefficient costs O(1) after the k = 0 seeds.
    """
    if not upper:

        def gen():
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

        return gen()

    if len(upper) == 1:
        (a,) = upper

        def gen():
            # (a)_k / (k! (mm+k)!) as one amplitude; the factors overflow
            # and underflow separately long before the product does
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

        return gen()

    a, b = upper

    def gen():
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

    return gen()


def d_expand(p):
    """LaurentExpansion of D for any integer order m = alpha of p.

    For m >= 0 the principal part carries exactly m exact coefficients.
    For m < 0 the expansion is the power-shifted z^|m| * (expansion at |m|):
    the former principal coefficients become the leading polynomial part,
    and no pole remains.  The iterators of tail_coeff replay one stream
    (series._replay): the expansion belongs to the thread that made it.
    """
    principal, tail = _expand(_d_params(p))
    return LaurentExpansion(principal=principal, tail_coeff=tail)


def _expand(p):
    # (principal, tail factory) of d_expand, without the wrapper object,
    # for a p that passed _d_params
    m = p.alpha
    _check_order(m)
    mm = abs(m)
    *upper, _ = p._classical(mm)
    principal = _principal(upper, mm)
    tail = _tail(upper, mm)
    if m >= 0:
        return principal, _replay(tail)
    return (), _replay(itertools.chain(reversed(principal), tail))


def prepare_d_eval(p):
    """The callable z -> d_eval(p, z), with its .jet(z, order)
    for order 0, 1 or 2: the principal part differentiated exactly, the
    tail term by term over the same stream.  p is checked (_d_params) and
    the expansion built here."""
    return _prepared(_d_jet(_d_params(p)))


def _d_jet(p):
    # the jet of prepare_d_eval for a p that passed _d_params
    expansion = []
    _kept(expansion, _expand, p)
    disc = isinstance(p, F2)

    def jet(z, order):
        if order > 2:
            raise ValueError(f"D jets go to order 2, got order {order}")
        z = complex(z)
        principal, tail_coeff = _kept(expansion, _expand, p)
        _check_point(z)
        if principal and z == 0:
            raise PoleAtOrigin(f"D with m = {p.alpha} has a pole at z = 0")
        if disc and abs(z) > F2_SERIES_RADIUS:
            raise DomainError(
                f"2F1 D series restricted to |z| <= {F2_SERIES_RADIUS}, got |z| = {abs(z):.6g}"
            )
        heads = (0j, 0j, 0j)
        if principal:
            w = 1.0 / z
            h0 = 0j
            pw = w
            for c in principal:
                h0 += c * pw
                pw *= w
            heads = (h0, *_principal_derivs(principal, w, order)) if order else (h0, 0j, 0j)
            # the terms (k-1)!/(m-k)! z^-k can overflow a double and cancel to nan
            if not all(map(cmath.isfinite, heads)):
                raise DomainError(f"principal part of D with m = {p.alpha} overflows a double at z = {z}")
        try:
            t = sum_power_series(tail_coeff(), z)
            out = (EvalResult(heads[0] + t.value, t.err_estimate, t.terms_used, t.flags),)
            if order:
                for k in range(1, order + 1):
                    s, g = deriv_coeffs(tail_coeff, 0, k)
                    t = sum_power_series(g(), z, start=s)
                    out += (EvalResult(heads[k] + t.value, t.err_estimate, t.terms_used, t.flags),)
        except BaseException:
            # a stream that raised is built anew at the next point
            expansion.clear()
            raise
        return out

    return jet


def d_eval(p, z):
    """Value of D at z: exact principal part plus summed tail.

    err_estimate covers the tail truncation only.
    prepare_d_eval(p)(z).
    """
    return prepare_d_eval(p)(z)


def _principal_derivs(principal, w, order):
    """The first and, at order 2, second derivative of the principal part
    at w = 1/z (0j for the second at order 1).  One that is not finite is
    summed again with the powers of w applied first: at large m, c k (k+1)
    overflows a double before the powers scale it down.  A finite one
    keeps its bits."""
    h1 = h2 = 0j
    pw = w
    for k, c in enumerate(principal, 1):
        h1 += c * (-k) * pw * w
        if order > 1:
            h2 += c * k * (k + 1) * pw * w * w
        pw *= w
    if cmath.isfinite(h1) and cmath.isfinite(h2):
        return h1, h2
    g1 = g2 = 0j
    pw = w
    for k, c in enumerate(principal, 1):
        g1 += c * (pw * w) * (-k)
        g2 += c * (pw * w * w) * (k * (k + 1))
        pw *= w
    return (h1 if cmath.isfinite(h1) else g1, h2 if cmath.isfinite(h2) else g2)


def prepare_log_solution(p):
    """The callable z -> log_solution(p, z), with its
    .jet(z, order) for order 0, 1 or 2 by the product rule over ell F + D,
    where (log z)' = 1/z on either cut.  Entry 0 is
    series.log_combo(ell, F, D)."""
    p = _d_params(p)
    # 0F1/1F1 carry log z, 2F1 carries log(-z)
    log = log_negated if isinstance(p, F2) else principal_log
    f = prepare_f_norm(p).jet
    d = _d_jet(p)

    def jet(z, order):
        ell = log(z)
        fs = f(z, order)
        ds = d(z, order)
        return _product_jet((ell, 1 / z, -1 / (z * z)) if order else (ell,), fs, ds)

    return _prepared(jet)


def log_solution(p, z):
    """log z * F + D (log(-z) * F + D for 2f1) at order m.

    prepare_log_solution(p)(z).
    """
    return prepare_log_solution(p)(z)


def prepare_d_eval_I(p):
    """The callable z -> d_eval_I(p, z), with its
    .jet(z, order): the jet of D, each entry scaled by the prefactor."""
    p = _d_params(p)
    if not isinstance(p, F2):
        raise ValueError("d_eval_I is defined for the 2f1 kind only")
    pref = _f2_I_prefactor(p)
    d = _d_jet(p)
    return _prepared(lambda z, order: tuple([r.scaled(pref) for r in d(z, order)]))


def d_eval_I(p, z):
    """The symmetric form D^I = Gamma(a) Gamma(c-a) D for the 2f1 kind.

    prepare_d_eval_I(p)(z).
    """
    return prepare_d_eval_I(p)(z)
