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
evaluator prepared: ffun._params, which snaps alpha to the int m, then
_d_params.

As in ffun, every point function is its prepare function called at z:
prepare_d_eval(p)(z) and so on, with the expansion built and the I-form
prefactor computed once, and the F and D of log_solution built at the
first point that needs them.  A prepared callable at carries
at.jet(z, order) for order up to 2, as in ffun: at(z) is
at.jet(z, 0)[0], the door of a raw jet.  The raw jets compose: the log
solution's series (_log_jet) reads those of F (ffun._f_jet) and D
(_d_jet), and U's LogPlusD route reads that series.

The prepared log solution of 0F1, and of 1F1 at m >= 0, also reads the
far rule of U, stated in ffun's docstring (ffun._far): where it keeps U,
log z F + D is U over U's LogPlusD prefactor (_log_prefactor), and its
jet U at shifted parameters (_far_log_jet), in place of two series that
cancel.  Every other point, and _log_jet itself, sums log z F + D.

Public functions may be called from any thread; a prepared callable or
a LaurentExpansion replays its own stream and belongs to the thread
that made it.
"""

import cmath
import functools
import itertools
import math
import sys

from .errors import DomainError, HyperdError, ParameterSingular, PoleAtOrigin
from .ffun import (
    DEGENERACY_TOL,
    F0,
    F1,
    F2,
    _check_disc,
    _check_order,
    _f2_I_prefactor,
    _f_jet,
    _far,
    _params,
)
from .gammakit import EULER_GAMMA, digamma, harmonic, near_int, pochhammer, recip_gamma
from .series import (
    LaurentExpansion,
    _kept,
    _prepared,
    _product_jet,
    _replay,
    _result,
    deriv_coeffs,
    log_negated,
    principal_log,
    sum_power_series,
)

_SQRT_PI = math.sqrt(math.pi)


def _d_params(p):
    """p, a parameter set that passed ffun._params, checked to select a D:
    DomainError unless _params snapped its alpha to an int m, and
    ParameterSingular where a digamma weight or a principal-part
    Pochhammer of D_|m| sits at a pole, read from the classical parameters
    at |m|: an integer a = (1+|m|+theta)/2 or (1+|m|+beta-mu)/2 <= |m|
    ((a)_{-k}, and psi(a+k) at a <= 0), and for 2F1 an integer
    b = (1+|m|+beta+mu)/2 (psi(1-b-k)).  That set holds every pole of U's
    LogPlusD prefactor, 1/Gamma(a - |m|) (1F1) and 1/(Gamma(1 - b)
    Gamma(a - |m|)) (2F1).  An order beyond ffun.MAX_ORDER raises
    DomainError naming m first (ffun._check_order): at such an order theta
    is lost in rounding, and a would read as an integer.
    """
    m = p.alpha
    if type(m) is not int:
        raise DomainError(f"this function needs integer m, got alpha={m!r}")
    _check_order(m)
    mm = abs(m)
    if isinstance(p, F1):
        a, _ = p._classical(mm)
        n = near_int(a, DEGENERACY_TOL)
        if n is not None and n <= mm:
            raise ParameterSingular(f"(1+m+theta)/2 = {a} is an integer <= m; D undefined")
    elif isinstance(p, F2):
        a, b, _ = p._classical(mm)
        n = near_int(a, DEGENERACY_TOL)
        if n is not None and n <= mm or near_int(b, DEGENERACY_TOL) is not None:
            raise ParameterSingular(f"integer classical parameter (a, b) = ({a}, {b}); D undefined")
    return p


def _principal(upper, mm):
    """(d_{-1}, ..., d_{-mm}) at order mm for upper parameters (), (a,) or (a, b):
    d_{-k} = (-1)^(k-1) (k-1)!/(mm-k)! times (u)_{-k} for each u.  Where a
    Pochhammer leaves a double (|u| in the hundreds at a high order) or the
    product falls below the normal doubles (a reciprocal Pochhammer that
    underflows gives 0) the coefficient is formed factor by factor
    (_by_factor).  Where that fails too, the Pochhammer's DomainError
    stands, and a product that underflowed is kept."""
    out = []
    sign = 1.0
    fact = 1.0  # (k-1)!
    for k in range(1, mm + 1):
        if k > 1:
            fact *= k - 1
            sign = -sign
        c = sign * fact / math.factorial(mm - k)
        try:
            for u in upper:
                c = c * pochhammer(u, -k)
        except DomainError:
            c = _by_factor(upper, mm, k, sign)
            if c is None:
                raise
        if not abs(c) >= sys.float_info.min:
            c = _by_factor(upper, mm, k, sign) or c
        out.append(complex(c))
    return tuple(out)


def _by_factor(upper, mm, k, sign):
    """d_{-k} of _principal from (-1)^(k-1)/(mm-k)!: each j = 1, ..., k
    multiplies by j - 1 (j > 1) and divides by u - j for each u.  None
    once the product leaves the normal doubles; while it stays one each
    step rounds within eps."""
    c = sign / math.factorial(mm - k)
    for j in range(1, k + 1):
        if j > 1:
            c *= j - 1
        for u in upper:
            c = c / (u - j)
        if not abs(c) >= sys.float_info.min:
            return None
    return c


# rows (and 0F1 coefficients) of an order kept, and orders kept
_ROW_CAP = 128
_ORDERS_KEPT = 32


@functools.lru_cache(maxsize=_ORDERS_KEPT)
def _first_rows(mm):
    """The rows (k, p1, p2, d), k = 0 .. _ROW_CAP - 1, of the tails at
    order mm: the seed row, psi(1) = -gamma and psi(1+mm) = -gamma + H_mm
    with d = mm + 1, and the first _ROW_CAP - 1 rows of _rows_past after
    it.  They depend on the order alone; a tuple of tuples, shared by
    every thread."""
    seed = (0, -EULER_GAMMA, -EULER_GAMMA + harmonic(mm).real, mm + 1)
    return (seed, *itertools.islice(_rows_past(mm, seed), _ROW_CAP - 1))


def _rows_past(mm, last):
    """The rows (k, p1, p2, d) at order mm past the row last, without end:
    p1 = psi(1+k) and p2 = psi(1+mm+k) advanced by psi(w+1) = psi(w) + 1/w,
    and the divisor d = (k+1)(mm+k+1)."""
    k, p1, p2, _ = last
    while True:
        p1 += 1.0 / (k + 1)
        p2 += 1.0 / (mm + k + 1)
        k += 1
        yield k, p1, p2, (k + 1) * (mm + k + 1)


@functools.lru_cache(maxsize=_ORDERS_KEPT)
def _first_coeffs0(mm):
    """d_0 .. d_{_ROW_CAP - 1} of the 0F1 tail at order mm,
    -(psi(1+k) + psi(1+mm+k)) / (k! (mm+k)!): the coefficients of the
    K_mm series, which depend on the order alone; a tuple shared by every
    thread."""
    inv = 1.0 / math.factorial(mm)
    out = []
    for _, p1, p2, d in _first_rows(mm):
        out.append(complex(-(p1 + p2) * inv))
        inv /= d
    return tuple(out)


def _tail(upper, mm):
    """Iterator of the complex d_0, d_1, ... at order mm, upper as in _principal.

    What depends on the order alone, psi(1+k), psi(1+mm+k) and the
    divisor (k+1)(mm+k+1), is read from rows shared per order
    (_first_rows: the first _ROW_CAP = 128 rows of each of the last
    _ORDERS_KEPT = 32 orders).  Digamma weights are advanced by
    psi(z+1) = psi(z) + 1/z, so each coefficient costs O(1) after the
    k = 0 seeds.

    - 0F1: the tail, -(psi(1+k) + psi(1+mm+k)) / (k! (mm+k)!), the
      coefficients of the K_mm series, depends on the order alone and is
      data.  Its first 128 coefficients are kept per order
      (_first_coeffs0), and -0+0j follows for ever.  That continuation
      is exact: 1/(k! (mm+k)!) underflows to 0.0 by k = 102 at order 0,
      and earlier at higher orders (k = 7 at 170), while psi(1+k) +
      psi(1+mm+k) > 0 from k = 1 on, so each coefficient from k = 128
      on is complex(-(p1 + p2) * 0.0) = complex(-0.0) at every order up
      to MAX_ORDER.
    - 1F1 and 2F1: one loop per arity over the kept rows chained with
      _rows_past from the last of them, the step that made them, so a
      row past them is the row a longer keep would hold.

    No tail of verify --suite all reaches past the kept rows (the
    longest has 99 coefficients); a request builds about 1,900 tails.
    One loop per arity, unlike the F step (ffun._terms), since verify
    builds a D at every sweep point: a generic loop took 1.6-3.1x as
    long per 40-coefficient tail, and cost 7-26% of verify_all
    points_per_s.
    """
    if not upper:
        return itertools.chain(_first_coeffs0(mm), itertools.repeat(complex(-0.0)))
    first = _first_rows(mm)
    rows = itertools.chain(first, _rows_past(mm, first[-1]))
    if len(upper) == 1:
        (a,) = upper

        def gen():
            # (a)_k / (k! (mm+k)!) as one amplitude; the factors overflow
            # and underflow separately long before the product does
            amp = complex(1.0 / math.factorial(mm))
            pa = digamma(a)
            for k, p1, p2, d in rows:
                yield amp * (pa - p1 - p2)
                ak = a + k
                amp *= ak / d
                pa += 1.0 / ak

        return gen()

    a, b = upper

    def gen():
        amp = complex(1.0 / math.factorial(mm))
        pa = digamma(a)
        pb = digamma(1 - b)  # psi(1-b-k) seed
        for k, p1, p2, d in rows:
            yield amp * (pa + pb - p1 - p2)
            ak, bk = a + k, b + k
            amp *= ak * bk / d
            pa += 1.0 / ak
            pb += 1.0 / bk  # psi(w-1) = psi(w) - 1/(w-1), w = 1-b-k

    return gen()


def d_expand(p):
    """LaurentExpansion of D for any integer order m = alpha of p.

    For m >= 0 the principal part carries exactly m exact coefficients.
    For m < 0 the expansion is the power-shifted z^|m| * (expansion at |m|):
    the former principal coefficients become the leading polynomial part,
    and no pole remains.  The iterators of tail_coeff replay one stream
    (series._replay): the expansion belongs to the thread that made it.
    """
    principal, tail = _expand(_d_params(_params(p)))
    return LaurentExpansion(principal=principal, tail_coeff=tail)


def _expand(p):
    # (principal, tail factory) of d_expand, without the wrapper object,
    # for a p that passed _d_params
    m = p.alpha
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
    return _prepared(_d_jet(_d_params(_params(p))))


def _d_jet(p):
    # the raw jet of prepare_d_eval for a p that passed _d_params
    expansion = []
    _kept(expansion, _expand, p)
    disc = isinstance(p, F2)

    def jet(z, order):
        if order > 2:
            raise ValueError(f"D jets go to order 2, got order {order}")
        principal, tail_coeff = _kept(expansion, _expand, p)
        if principal and z == 0:
            raise PoleAtOrigin(f"D with m = {p.alpha} has a pole at z = 0")
        if disc:
            _check_disc(z, "D")
        heads = (0j, 0j, 0j)
        if principal:
            w = 1.0 / z
            h0 = 0j
            pw = w
            for c in principal:
                h0 += c * pw
                pw *= w
            heads = (h0, *_principal_derivs(principal, w, order)) if order else (h0, 0j, 0j)
            # the terms (k-1)!/(m-k)! z^-k can overflow a double and cancel
            # to nan; at order 0 the derivative heads are the constant 0j
            if not cmath.isfinite(h0) or (order and not all(map(cmath.isfinite, heads))):
                raise DomainError(f"principal part of D with m = {p.alpha} overflows a double at z = {z}")
        try:
            # heads[0] + value even where there is no principal part: 0j +
            # turns a -0.0 part of the tail's value into +0.0
            value, err, terms, flags = sum_power_series(tail_coeff(), z)
            out = (_result((heads[0] + value, err, terms, flags)),)
            if order:
                for k in range(1, order + 1):
                    s, g = deriv_coeffs(tail_coeff, 0, k)
                    value, err, terms, flags = sum_power_series(g(), z, start=s)
                    out += (_result((heads[k] + value, err, terms, flags)),)
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
    """The callable z -> log_solution(p, z), with its .jet(z, order) for
    order 0, 1 or 2.

    A point of a 0F1 set, or of a 1F1 set at m >= 0, where the far rule
    (ffun._far) keeps U takes U's far value over the LogPlusD prefactor
    (_far_log_jet): there log z F + D cancels more than the expansion
    misses.  Each later entry of its jet is U at shifted parameters where
    the rule keeps that, and the series entry where it does not, so at(z)
    is at.jet(z, k)[0] and at.jet(z, 1) is at.jet(z, 2)[:2].  Every other
    point, and every point of a 2F1 set or of a 1F1 set at m < 0, where
    log z F + D does not cancel, takes the series jet (_log_jet): by the
    product rule over ell F + D, where (log z)' = 1/z on either cut, and
    entry 0 series.log_combo(ell, F, D).
    p and its order are checked here; F's stream and D's expansion are
    built at the first point that needs the series.
    """
    p = _d_params(_params(p))
    if isinstance(p, F2) or isinstance(p, F1) and p.alpha < 0:
        return _prepared(_log_jet(p))
    far = _far_log_jet(p)
    series = []  # _log_jet(p)

    def jet(z, order):
        out = far(z, order) if order <= 2 else None
        if out is None:
            return _kept(series, _log_jet, p)(z, order)
        if None in out:
            s = _kept(series, _log_jet, p)(z, order)
            out = [t if r is None else r for r, t in zip(out, s)]
        return tuple(out)

    return _prepared(jet)


def _prefactor_gammas(p):
    """The arguments q of the 1/Gamma(q) factors of _log_prefactor at p."""
    m = p.alpha
    if p.kind == "0f1":
        return ()
    if p.kind == "1f1":
        return ((1 - m + p.theta) / 2,)
    return ((1 - m - p.beta - p.mu) / 2, (1 - m + p.beta - p.mu) / 2)


def _log_prefactor(p):
    """The thunk of U's LogPlusD prefactor at p, alpha the int m (m >= 0
    but for 0F1): U = prefactor (log z F + D) (log(-z) for 2F1) with
    prefactor (-1)^(m+1) times 1/sqrt(pi) (0F1), 1/Gamma((1-m+theta)/2)
    (1F1, DLMF 13.2.9) or 1/(Gamma((1-m-beta-mu)/2) Gamma((1-m+beta-mu)/2))
    (2F1).  It vanishes only where _d_params refuses p."""
    sign = (-1.0) ** (p.alpha + 1)
    if p.kind == "0f1":
        return lambda: sign / _SQRT_PI
    if p.kind == "1f1":
        (q,) = _prefactor_gammas(p)
        return lambda: sign * recip_gamma(q)
    q1, q2 = _prefactor_gammas(p)
    return lambda: sign * recip_gamma(q1) * recip_gamma(q2)


def _complexed(p):
    """p with every field complex but an int alpha: U's set (ufun.prepare_u, _far_log_jet)."""
    return type(p)(*[v if k == "alpha" and type(v) is int else complex(v)
                     for k, v in zip(p._fields, p)])


def _far_log_jet(p):
    """jet(z, order) of the far rule's entries of the log solution at p, a
    0F1 set or a 1F1 set at m >= 0 that passed _d_params: None where the
    far rule (ffun._far) refuses U at z or the prefactor raises or is 0, and
    otherwise for k <= order the k-th derivative of U / prefactor, None
    for an entry whose U^(k) the rule refuses.  U is taken at the
    parameter set of ufun.prepare_u (_complexed), so entry 0 is u0's or
    u1's far value over the prefactor, and U^(k) is U at shifted
    parameters: U0_alpha^(k) = (-1)^k U0_{alpha+k}, and U_{theta,m}^(k) =
    (-1)^k (a)_k U_{theta+k,m+k}, a = (1+m+theta)/2 (DLMF 13.3.22)."""
    m = p.alpha
    u = _complexed(p)
    if isinstance(u, F1):
        a = (1 + m + u.theta) / 2
        shifted = [u] + [F1(u.theta + k, u.alpha + k) for k in (1, 2)]
        weights = (1.0, -a, a * (a + 1))
    else:
        shifted = [u] + [F0(u.alpha + k) for k in (1, 2)]
        weights = (1.0, -1.0, 1.0)
    try:
        pref = _log_prefactor(u)()
        scales = [w / pref for w in weights]
    except (HyperdError, ZeroDivisionError):
        # 1/Gamma overflows far off the real axis (theta = 0.7+910j) or is 0 (theta = 400)
        return lambda z, order: None
    fars = [_far(s) for s in shifted]

    def jet(z, order):
        r = fars[0](z)
        if r is None:
            return None
        out = [r.scaled(scales[0])]
        for k in range(1, order + 1):
            r = fars[k](z)
            out.append(None if r is None else r.scaled(scales[k]))
        return out

    return jet


def _log_jet(p):
    # the series jet log z F + D of prepare_log_solution, and the raw jet of
    # U's LogPlusD route, for a p that passed _d_params
    # 0F1/1F1 carry log z, 2F1 carries log(-z)
    log = log_negated if isinstance(p, F2) else principal_log
    f = _f_jet(p)
    d = _d_jet(p)

    def jet(z, order):
        ell = log(z)
        fs = f(z, order)
        ds = d(z, order)
        # -inf where z * z underflows to 0 (1/z^2 is past a double); _prepared's gate raises
        s = (ell, 1 / z, -1 / (z * z) if z * z else -math.inf) if order else (ell,)
        return _product_jet(s, fs, ds)

    return jet


def log_solution(p, z):
    """log z * F + D (log(-z) * F + D for 2f1) at order m.

    prepare_log_solution(p)(z).
    """
    return prepare_log_solution(p)(z)


def prepare_d_eval_I(p):
    """The callable z -> d_eval_I(p, z), with its
    .jet(z, order): the jet of D, each entry scaled by the prefactor."""
    p = _d_params(_params(p, F2))
    pref = _f2_I_prefactor(p)
    d = _d_jet(p)
    return _prepared(lambda z, order: tuple([r.scaled(pref) for r in d(z, order)]))


def d_eval_I(p, z):
    """The symmetric form D^I = Gamma(a) Gamma(c-a) D for the 2f1 kind.

    prepare_d_eval_I(p)(z).
    """
    return prepare_d_eval_I(p)(z)
