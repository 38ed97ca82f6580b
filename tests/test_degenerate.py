"""An alpha within DEGENERACY_TOL of the integer m is m, at every door.

ffun._params snaps such an alpha to the int m once, where a parameter set
is prepared, and every evaluator reads the snapped set from there: F,
the second solution, F^I, D, D^I, the log solution, U on the automatic
route at a near, a far and an outer point and on each forced route, and
limit_alpha.  Each returns at alpha = m + 1e-10, m - 1e-10 and
m + 1e-10j what it returns at alpha = m, bit for bit, or raises the same
error with the same message.
"""

import pytest

from hyperd import F0, F1, F2, d_eval, d_eval_I, f2_norm_I, f_norm, f_second, log_solution
from hyperd.errors import HyperdError
from hyperd.oracle import limit_alpha
from hyperd.ufun import URoute, u0, u1, u2

ROUTES = [None, *URoute]


def _doors_0f1(a):
    p, near, far = F0(a), 1.5 + 0.5j, 30.0
    yield from _common(p, near)
    for route in ROUTES:
        yield ("u0", route, near), lambda: u0(a, near, route)
        yield ("u0", route, far), lambda: u0(a, far, route)
    yield "limit_alpha", lambda: limit_alpha(p, near)


def _doors_1f1(a):
    p, near, far = F1(0.7, a), 1.5 + 0.5j, 30.0
    yield from _common(p, near)
    for route in ROUTES:
        yield ("u1", route, near), lambda: u1(0.7, a, near, route)
        yield ("u1", route, far), lambda: u1(0.7, a, far, route)
    yield "limit_alpha", lambda: limit_alpha(p, near)


def _doors_2f1(a):
    # -0.5+0.1j inside the disc, summed through Pfaff's map; -3 past
    # 1/0.95, where U takes its series in 1/z
    p, near, outer = F2(a, 0.3, 0.2), -0.5 + 0.1j, -3.0
    yield from _common(p, near)
    yield "FI", lambda: f2_norm_I(p, near)
    yield "DI", lambda: d_eval_I(p, near)
    for route in ROUTES:
        yield ("u2", route, near), lambda: u2(a, 0.3, 0.2, near, route)
        yield ("u2", route, outer), lambda: u2(a, 0.3, 0.2, outer, route)
    yield "limit_alpha", lambda: limit_alpha(p, near)


def _common(p, z):
    for name, f in (("F", f_norm), ("second", f_second), ("D", d_eval), ("logsol", log_solution)):
        yield name, lambda: f(p, z)


def _outcome(call):
    try:
        return repr(call())
    except HyperdError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


@pytest.mark.parametrize("doors", [_doors_0f1, _doors_1f1, _doors_2f1])
@pytest.mark.parametrize("m", [-2, 0, 2])
@pytest.mark.parametrize("offset", [1e-10, -1e-10, 1e-10j])
def test_near_integer_alpha_is_m_at_every_door(doors, m, offset):
    want = [(name, _outcome(call)) for name, call in doors(m)]
    got = [(name, _outcome(call)) for name, call in doors(m + offset)]
    assert len(want) >= 13
    assert got == want
