"""The result contract over the public API.

Every public evaluator returns a finite value with a finite err_estimate,
or raises a HyperdError (series._checked is where a public result is
tested).  One property test draws arguments at the edges of the doubles:
+-0, 1e+-300, subnormals, orders up to +-170 and complex parameters, for
F, the second solution, F^I, D, D^I and the log solution (each at a
point and as a 2-jet), U on the automatic route and on each given one,
the Bessel family and the 2F0 expansion.
"""

import cmath
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperd.dfun import (d_eval, d_eval_I, log_solution, prepare_d_eval, prepare_d_eval_I,
                         prepare_log_solution)
from hyperd.errors import HyperdError
from hyperd.ffun import (F0, F1, F2, f2_norm_I, f2f0_asymptotic, f_norm, f_second,
                         prepare_f2_norm_I, prepare_f_norm, prepare_f_second)
from hyperd.ufun import URoute, bessel, u0, u1, u2

_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
          2.2250738585072014e-308, 1e-9, 1e3]
_REALS = st.one_of(st.sampled_from(_EDGES), st.floats(-8.0, 8.0),
                   st.floats(-1e300, 1e300, allow_subnormal=True))
_POINTS = st.one_of(_REALS, st.builds(complex, _REALS, _REALS))
_ORDERS = st.one_of(st.integers(-170, 170), st.sampled_from([-170, -2, -1, 0, 1, 2, 170]))
# integer orders, generic ones, and the band between the two U routes
_ALPHAS = st.one_of(_ORDERS, _ORDERS.map(lambda m: m + 1e-7), st.floats(-171.0, 171.0),
                    st.builds(complex, st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
_PARAMS = st.one_of(_REALS, st.builds(complex, st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
_F2 = st.builds(F2, _ALPHAS, _PARAMS, _PARAMS)
_ANY = st.one_of(st.builds(F0, _ALPHAS), st.builds(F1, _PARAMS, _ALPHAS), _F2)
_ROUTES = st.sampled_from([None, *URoute])

_POINT_CALLS = {"f_norm": (f_norm, prepare_f_norm), "f_second": (f_second, prepare_f_second),
                "f2_norm_I": (f2_norm_I, prepare_f2_norm_I), "d_eval": (d_eval, prepare_d_eval),
                "d_eval_I": (d_eval_I, prepare_d_eval_I),
                "log_solution": (log_solution, prepare_log_solution)}
_CALLS = {"u0": u0, "u1": u1, "u2": u2, "bessel": bessel, "f2f0_asymptotic": f2f0_asymptotic}


def _point_call(name, params):
    return st.tuples(st.just(name), st.tuples(params, _POINTS), st.booleans())


_DRAWS = st.one_of(
    _point_call("f_norm", _ANY), _point_call("f_second", _ANY), _point_call("f2_norm_I", _F2),
    _point_call("d_eval", _ANY), _point_call("d_eval_I", _F2), _point_call("log_solution", _ANY),
    st.tuples(st.just("u0"), st.tuples(_ALPHAS, _POINTS, _ROUTES), st.just(False)),
    st.tuples(st.just("u1"), st.tuples(_PARAMS, _ALPHAS, _POINTS, _ROUTES), st.just(False)),
    st.tuples(st.just("u2"), st.tuples(_ALPHAS, _PARAMS, _PARAMS, _POINTS, _ROUTES), st.just(False)),
    st.tuples(st.just("bessel"), st.tuples(st.sampled_from("I J K H1 H2".split()), _ORDERS, _POINTS),
              st.just(False)),
    st.tuples(st.just("f2f0_asymptotic"), st.tuples(_PARAMS, _PARAMS, _POINTS), st.just(False)),
)


def _results(name, args, jet):
    """The results of one call: the value, or each entry of the 2-jet of
    the prepared callable."""
    if name not in _POINT_CALLS:
        return (_CALLS[name](*args),)
    point, prepare = _POINT_CALLS[name]
    if jet:
        p, z = args
        return prepare(p).jet(z, 2)
    return (point(*args),)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_DRAWS)
# these returned nan+nan*i or inf, with an estimate of nan or inf and no flag
@example(("u1", (48.90585505674359, 32.30558002883016,
                 -9.584309545943686e-10 + 7.908336494787592e-10j, None), False))
@example(("u1", (1e8, 30.868458108400773, 1e-9, None), False))
@example(("u2", (48.42756891142909, -34.297148222321674, -0.0,
                 -2.603876011600534e-06 - 4.478709690252065e-06j, None), False))
@example(("f_second", (F0(150.3), 0.01), False))
@example(("f_second", (F1(0.7, 150.3), 0.01), True))
@example(("f_second", (F2(150.3, 0.3, 0.2), 0.01), False))
# this raised DomainError for the finite 7.12e176
@example(("u1", (0.3, -170, -0.017 - 0.0575j, None), False))
# raw ZeroDivisionErrors: z * z underflows to 0 in the log solution's
# 2-jet, and the 1F1 expansion about infinity divided by z = 0
@example(("log_solution", (F0(0), 8.5e-249), True))
@example(("u1", (0.0, -111, 0.0, URoute.ASYMPTOTIC_2F0), False))
def test_every_public_result_is_finite_or_a_typed_error(draw):
    name, args, jet = draw
    try:
        results = _results(name, args, jet)
    except HyperdError:
        return
    for r in results:
        assert cmath.isfinite(r.value) and math.isfinite(r.err_estimate), (name, args, r)
