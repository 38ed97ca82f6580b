"""The point rules of F, D and U at the doubles where they switch.

Each rule compares z with a bound: the 2F1 series of F and D stop at
|z| > 0.95, u0 and u1 and the 0F1 and 1F1 log solutions try their far
value at Re z > 0 and |z| >= U0_FAR_RADIUS or U1_FAR_RADIUS, and u2
takes its 1/z series at |z| >= 1/0.95.  Every point below sits on such
a bound or one ulp to either side of it (the edges of Kummer's and
Pfaff's maps are inputs of test_maps).  Its pins are two digests of
what a lone call returns or raises (the jet to order 2 for F and D):
one of the values, terms and flags, or of the error, and one of the
error estimates, so that a change to the estimates alone fails only the
second.  Its side names the rule it takes there, checked against that
rule's own evaluation.  A prepared u0, u1 or log solution serves near,
far and fall-back points in either order with the bits of a lone call.
ffun._named renames an error raised at an image point, with and
without a scale.
"""

import cmath
import hashlib
import math

import pytest

from hyperd.dfun import _log_jet, _log_prefactor, log_solution, prepare_d_eval, prepare_log_solution
from hyperd.errors import BranchCut, DomainError, HyperdError, NoConvergence
from hyperd.ffun import F0, F1, F2, _named, _params, _seed, prepare_f_norm
from hyperd.series import EvalResult, _prepared, sum_power_series
from hyperd.ufun import U0_FAR_RADIUS, U1_FAR_RADIUS, URoute, prepare_u, u0, u1, u2


def _outcome(call):
    """What call returns, a result or a jet, as two strings: the value,
    terms and flags of each result, and the error estimate of each; or
    the error it raises, and an empty string."""
    try:
        out = call()
    except HyperdError as exc:
        return "%s: %s" % (type(exc).__name__, exc), ""
    rs = (out,) if isinstance(out, EvalResult) else out
    return (repr([(r.value, r.terms_used, sorted(r.flags)) for r in rs]),
            repr([r.err_estimate for r in rs]))


def _same(got, want, z):
    assert got[0] == want[0], z  # values, terms and flags, or the error
    assert got[1] == want[1], z  # error estimates


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned(outs, pin, z=None):
    """The outcomes outs, joined, against pin: a value digest and an
    estimate digest, each in its own assertion."""
    assert _digest("\n".join(o[0] for o in outs)) == pin[0], z
    assert _digest("\n".join(o[1] for o in outs)) == pin[1], z


def _around(x):
    """x - 1 ulp, x and x + 1 ulp."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# ---------------------------------------------------------------------------
# F and D: the 2F1 disc

# 2F1 points at |z| = 0.95 - 1 ulp, 0.95 and 0.95 + 1 ulp, in the right
# half-plane (the series of p) and in the left (Pfaff's map)
DISC = [
    (complex(0.9013878188659972, 0.3), "direct"),
    (complex(0.9013878188659973, 0.3), "direct"),
    (complex(0.9013878188659974, 0.3), "raises"),
    (complex(-0.9013878188659972, 0.3), "map"),
    (complex(-0.9013878188659973, 0.3), "map"),
    (complex(-0.9013878188659974, 0.3), "raises"),
]
# (value digest, estimate digest) per point of DISC; a point that raises
# has the digest of "" for its estimates
DISC_F = {
    F2(0.3, 0.2, 0.1): [("be3a74611306028f", "a5ae52d352c366bc"), ("f02e847e65db3644", "b629311c34cc328d"),
                        ("504cda4f80c892fa", "e3b0c44298fc1c14"), ("fce60f760977620d", "89e4c1c3d54834ba"),
                        ("87faa84c62355203", "491703c352e5cf48"), ("c9dd9120843f4121", "e3b0c44298fc1c14")],
    F2(1, 0.3, 0.2): [("4cb985ae6148caa4", "d445f2ea883f9a3d"), ("e009a2bb59c65d63", "1e8959557a34fe26"),
                      ("504cda4f80c892fa", "e3b0c44298fc1c14"), ("a7c1d655333d7081", "9024f61a387021a1"),
                      ("d8a42fae9deea672", "fd5e79dab97f8468"), ("c9dd9120843f4121", "e3b0c44298fc1c14")],
}
DISC_D = {
    F2(1, 0.3, 0.2): [("3c76041f2730ca1b", "47cb30279b808f4c"), ("eb5050e45099bbb5", "ef64f8afcc5f5341"),
                      ("78148a1fc456475c", "e3b0c44298fc1c14"), ("27380e147028bf04", "ad03ff1b3313126e"),
                      ("807b870f2981c02a", "a1de1eba1c02a69a"), ("2a03017e8b3c00d6", "e3b0c44298fc1c14")],
    F2(-2, 0.3, 0.25): [("5f8d181f823b2153", "bb2ae77716b82418"), ("730589959831089e", "ff8fbe278928dff2"),
                        ("78148a1fc456475c", "e3b0c44298fc1c14"), ("27a165d067371a5c", "995fc4a548958977"),
                        ("a81e1ebc39418fc2", "10dde53afef94126"), ("2a03017e8b3c00d6", "e3b0c44298fc1c14")],
}


def _direct(p, z):
    start, gen = _seed(p)
    return _outcome(lambda: sum_power_series(gen(), z, start=start))


def _f_side(p, z):
    got = _outcome(lambda: prepare_f_norm(p)(z))
    return "direct" if got == _direct(p, z) else "map"


@pytest.mark.parametrize("p", list(DISC_F))
def test_disc_edge_of_f(p):
    assert [abs(z) for z, _ in DISC] == _around(0.95) * 2
    for (z, side), pin in zip(DISC, DISC_F[p]):
        got = _outcome(lambda: prepare_f_norm(p).jet(z, 2))
        if side == "raises":
            assert got[0].startswith("DomainError: 2F1 direct series restricted to |z| <= 0.95"), z
        else:
            assert _f_side(p, z) == side, z
        _pinned([got], pin, z)


@pytest.mark.parametrize("p", list(DISC_D))
def test_disc_edge_of_d(p):
    for (z, side), pin in zip(DISC, DISC_D[p]):
        got = _outcome(lambda: prepare_d_eval(p).jet(z, 2))
        assert got[0].startswith("DomainError: 2F1 D series restricted to |z| <= 0.95") == (side == "raises"), z
        _pinned([got], pin, z)


# ---------------------------------------------------------------------------
# U: the far radii of u0 and u1, and the |z| ladder of u2

def _u_edges(radius, y):
    """Points at |z| = radius - 1 ulp, radius and radius + 1 ulp: on the
    positive real axis and at Im z = y."""
    pts = _around(radius)
    out = [complex(r, 0.0) for r in pts]
    for r in pts:
        x = math.sqrt(radius * radius - y * y)
        # the double x nearest the circle of radius r at Im z = y
        best = min((x + k * math.ulp(x) for k in range(-4, 5)),
                   key=lambda t: abs(abs(complex(t, y)) - r))
        out.append(complex(best, y))
    return out


U0_EDGES = _u_edges(U0_FAR_RADIUS, 5.0)
U1_EDGES = _u_edges(U1_FAR_RADIUS, -4.0)
# Re z = 0.0 (and -0.0) past the radius is a near point; the smallest
# positive Re z is far
PAST = [complex(0.0, 30.0), complex(-0.0, 30.0), complex(5e-324, 30.0)]

# the far value is kept on the radius and past it, but for u1 at
# alpha = 0.37, whose expansion falls short there; the log solution keeps
# it where U does
KEPT = ["near", "far", "far"] * 2 + ["near", "near", "far"]
U_EDGES = [
    (u0, (2,), U0_EDGES + PAST, KEPT, ("ca31a7c7ddb2a7a5", "913203561f14b712")),
    (u0, (0.37,), U0_EDGES + PAST, KEPT, ("0a8b75c4c66dfc61", "86bab988bd15ffda")),
    (u1, (0.7, 2), U1_EDGES + PAST, KEPT, ("b113f6e7178be855", "b6ca5ff21d2c90a6")),
    (u1, (0.7, 0.37), U1_EDGES + PAST, ["near"] * 8 + ["far"], ("f5893a51b086cc42", "7ab9282c13ea6fe2")),
    (log_solution, (F0(2),), U0_EDGES + PAST, KEPT, ("4494787a24d8b05c", "d27a14be04d2f608")),
    (log_solution, (F1(0.7, 2),), U1_EDGES + PAST, KEPT, ("71fb32f046bcc2e0", "4ecc61a00fa0da47")),
]


def _log_sides(p):
    """The far and the near rule of the log solution at p: U's forced
    Asymptotic2F0 value over the LogPlusD prefactor, and the series
    log z F + D."""
    q = _params(p)
    pref = _log_prefactor(type(q)(*map(complex, q))._replace(alpha=q.alpha))()
    far = prepare_u(p, URoute.ASYMPTOTIC_2F0)
    return (lambda z: far(z).scaled(1.0 / pref)), _prepared(_log_jet(q))


def _u_side(fn, args, z):
    got = _outcome(lambda: fn(*args, z))
    if fn is log_solution:
        far, near = _log_sides(*args)
        if got == _outcome(lambda: far(z)):
            return "far"
        _same(got, _outcome(lambda: near(z)), z)
        return "near"
    if got == _outcome(lambda: fn(*args, z, URoute.ASYMPTOTIC_2F0)):
        return "far"
    alpha = args[-1]
    near = URoute.LOG_PLUS_D if alpha == round(alpha) else URoute.CONNECTION
    _same(got, _outcome(lambda: fn(*args, z, near)), z)
    return "near"


@pytest.mark.parametrize("fn, args, zs, sides, pin", U_EDGES)
def test_far_radius_edge(fn, args, zs, sides, pin):
    radius = U0_FAR_RADIUS if fn is u0 or isinstance(args[0], F0) else U1_FAR_RADIUS
    assert [abs(z) for z in zs[:6]] == _around(radius) * 2
    for z, side in zip(zs, sides):
        assert _u_side(fn, args, z) == side, z
    _pinned([_outcome(lambda: fn(*args, z)) for z in zs], pin)


U2_EDGES = [complex(1.0225131984464697, 0.25), complex(1.02251319844647, 0.25),
            complex(1.0225131984464702, 0.25), complex(-1.0225131984464697, 0.25),
            complex(-1.02251319844647, -0.25), complex(-1.0225131984464702, 0.25),
            complex(0.9013878188659972, 0.3), complex(0.9013878188659973, 0.3),
            complex(0.9013878188659974, 0.3)]
U2_SIDES = ["raises", "outer", "outer"] * 2 + ["series", "series", "raises"]
U2_PINS = {(2, 0.3, 0.2): ("2d5aff316e40eecf", "4a9347f69441f793"),
           (0.37, 0.3, 0.2): ("8bb81620939fad7d", "b33145736b145432")}


@pytest.mark.parametrize("args", list(U2_PINS))
def test_ladder_edge_of_u2(args):
    assert [abs(z) for z in U2_EDGES] == _around(1.0 / 0.95) * 2 + _around(0.95)
    outs = []
    for z, side in zip(U2_EDGES, U2_SIDES):
        got = _outcome(lambda: u2(*args, z))
        if side == "raises":
            assert got[0].startswith("DomainError: 1/z series requires |1/z| <= 0.95"), z
        elif side == "outer":
            _same(got, _outcome(lambda: u2(*args, z, URoute.ASYMPTOTIC_2F0)), z)
        else:
            near = URoute.LOG_PLUS_D if args[0] == 2 else URoute.CONNECTION
            _same(got, _outcome(lambda: u2(*args, z, near)), z)
        outs.append(got)
    _pinned(outs, U2_PINS[args])


# ---------------------------------------------------------------------------
# a prepared u0 or u1 keeps the rule per point

# near, far and fall-back points; the fall-back points are far points
# whose expansion falls short or raises
SERVED = [
    (F0(2), u0, (2,), [0.9, 30.0, complex(-25.0, 1.0), complex(25.0, -10.0)]),
    (F0(5), u0, (5,), [60.0, 1.5, complex(21.0, 0.0), complex(25.0, -4.0)]),
    (F1(0.7, 2), u1, (0.7, 2), [1.5, 40.0, complex(-30.0, 5.0), complex(25.0, 10.0)]),
    (F1(0.7, 12), u1, (0.7, 12), [20.0, 1.5, 60.0, complex(18.5, 1.0)]),
    (F1(0.7, 0.37), u1, (0.7, 0.37), [25.0, 0.9, complex(30.0, -2.0), 18.0]),
]


@pytest.mark.parametrize("p, fn, args, zs", SERVED)
def test_a_prepared_u_serves_each_point_as_a_lone_call(p, fn, args, zs):
    want = {z: _outcome(lambda: fn(*args, z)) for z in zs}
    for order in (zs, zs[::-1]):
        at = prepare_u(p)
        for z in order:
            _same(_outcome(lambda: at(z)), want[z], z)


@pytest.mark.parametrize("p, zs", [(p, zs) for p, _, _, zs in SERVED if p.is_degenerate])
def test_a_prepared_log_solution_serves_each_point_as_a_lone_call(p, zs):
    # its series is built at the first point the far rule refuses, and its
    # far entries at the first point the rule takes
    want = {z: _outcome(lambda: prepare_log_solution(p).jet(z, 2)) for z in zs}
    for order in (zs, zs[::-1]):
        at = prepare_log_solution(p)
        for z in order:
            _same(_outcome(lambda: at.jet(z, 2)), want[z], z)
            _same(_outcome(lambda: at(z)), _outcome(lambda: log_solution(p, z)), z)


def test_served_points_take_both_rules():
    # each case of SERVED has a near point and a far point, and the
    # fall-back cases a far point that takes the near route; at theta =
    # -700 the expansion's z**a raises, and so does LogPlusD's 1/Gamma
    for fn, args, z in ((u0, (5,), 21.0), (u1, (0.7, 12), 20.0), (u1, (-700, 2), 30.0)):
        got = _outcome(lambda: fn(*args, z))
        _same(got, _outcome(lambda: fn(*args, z, URoute.LOG_PLUS_D)), z)
        assert got[0] != _outcome(lambda: fn(*args, z, URoute.ASYMPTOTIC_2F0))[0], z
    for fn, args, z in ((u0, (5,), 60.0), (u1, (0.7, 12), 60.0), (u0, (2,), 30.0)):
        _same(_outcome(lambda: fn(*args, z)), _outcome(lambda: fn(*args, z, URoute.ASYMPTOTIC_2F0)), z)


# ---------------------------------------------------------------------------
# an error raised at an image point, renamed to the caller's point


def test_named_keeps_type_and_names_the_point():
    z, x = complex(-0.5, 0.25), complex(0.5, -0.25)
    for exc in (DomainError(f"series sum is not finite at z = {x}: (inf+0j)"),
                BranchCut(f"principal_log cut at z = {x}")):
        got = _named(exc, z, (x,))
        assert type(got) is type(exc)
        assert str(got) == str(exc).replace(str(x), str(z))


def test_named_replaces_every_image_point():
    z = complex(3.0, 1.0)
    w = z * z / 4.0
    for x in (w, -w, z / 2.0):
        got = _named(DomainError(f"z**a is not finite at z = {x}, a = 2"), z, (w, -w, z / 2.0))
        assert str(got) == f"z**a is not finite at z = {z}, a = 2"
    # a message that names another point is left as it is
    assert str(_named(DomainError("at z = 7j"), z, (w, -w))) == "at z = 7j"


@pytest.mark.parametrize("partial", [complex(math.inf, 0.0), complex(1.0, -0.0),
                                     complex(-0.0, math.inf), 2.5 - 1j])
def test_named_without_a_scale_keeps_the_partial_bits(partial):
    exc = NoConvergence("no convergence in 5 terms at z = (2+0j)", partial=partial, err=0.125)
    got = _named(exc, complex(-2.0, 0.0), (complex(2.0, 0.0),))
    assert type(got) is NoConvergence
    assert str(got) == "no convergence in 5 terms at z = (-2+0j)"
    # 1.0 * complex(inf, 0.0) is inf+nanj on Python 3.13 and before, and
    # 1.0 * complex(1.0, -0.0) drops the sign of the zero
    assert repr(got.partial) == repr(partial)
    assert got.err == 0.125


def test_named_with_a_scale_scales_partial_and_error():
    scale = cmath.exp(complex(-0.5, 0.25))
    for partial in (2.5 - 1j, complex(math.inf, 0.0), complex(1.0, -0.0)):
        exc = NoConvergence("no convergence in 5 terms at z = (0.5-0.25j)", partial=partial, err=0.125)
        got = _named(exc, complex(-0.5, 0.25), (complex(0.5, -0.25),), scale)
        assert str(got) == "no convergence in 5 terms at z = (-0.5+0.25j)"
        assert repr(got.partial) == repr(scale * partial)
        assert got.err == abs(scale) * 0.125
