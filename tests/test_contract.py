"""The result contract over the public API.

Every public evaluator returns a finite value with a finite err_estimate,
or raises a HyperdError (series._checked is where a public result is
tested).  One property test draws arguments at the edges of the doubles:
+-0, 1e+-300, subnormals, orders up to +-170 and complex parameters, for
F, the second solution, F^I, D, D^I and the log solution (each at a
point and as a 2-jet), U on the automatic route and on each given one,
the Bessel family, the 2F0 expansion, limit_alpha at an integer alpha,
and check_relation (its residual) and apply_ladder over the catalog.
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
from hyperd.oracle import limit_alpha
from hyperd.relations import apply_ladder, build_catalog, check_relation
from hyperd.series import EvalResult
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
_INTEGER = st.one_of(st.builds(F0, _ORDERS), st.builds(F1, _PARAMS, _ORDERS),
                     st.builds(F2, _ORDERS, _PARAMS, _PARAMS))
_CATALOG = build_catalog()
# a relation's parameters by key: m an order, alpha any alpha
_KEYS = {"m": _ORDERS, "alpha": _ALPHAS, "theta": _PARAMS, "beta": _PARAMS, "mu": _PARAMS}


def _residual(rec_id, params, z):
    """check_relation's residual as the value of a result."""
    return EvalResult(check_relation(rec_id, params, z, _CATALOG), 0.0, 0, frozenset())


_POINT_CALLS = {"f_norm": (f_norm, prepare_f_norm), "f_second": (f_second, prepare_f_second),
                "f2_norm_I": (f2_norm_I, prepare_f2_norm_I), "d_eval": (d_eval, prepare_d_eval),
                "d_eval_I": (d_eval_I, prepare_d_eval_I),
                "log_solution": (log_solution, prepare_log_solution)}
_CALLS = {"u0": u0, "u1": u1, "u2": u2, "bessel": bessel, "f2f0_asymptotic": f2f0_asymptotic,
          "limit_alpha": limit_alpha, "check_relation": _residual,
          "apply_ladder": lambda *args: apply_ladder(*args, _CATALOG)}


def _point_call(name, params):
    return st.tuples(st.just(name), st.tuples(params, _POINTS), st.booleans())


def _relation_call(name):
    return st.sampled_from(sorted(_CATALOG)).flatmap(lambda rec_id: st.tuples(
        st.just(name), st.tuples(st.just(rec_id), st.fixed_dictionaries(
            {k: _KEYS[k] for k in _CATALOG[rec_id].signature.split(",")}), _POINTS),
        st.just(False)))


_DRAWS = st.one_of(
    _point_call("f_norm", _ANY), _point_call("f_second", _ANY), _point_call("f2_norm_I", _F2),
    _point_call("d_eval", _ANY), _point_call("d_eval_I", _F2), _point_call("log_solution", _ANY),
    st.tuples(st.just("u0"), st.tuples(_ALPHAS, _POINTS, _ROUTES), st.just(False)),
    st.tuples(st.just("u1"), st.tuples(_PARAMS, _ALPHAS, _POINTS, _ROUTES), st.just(False)),
    st.tuples(st.just("u2"), st.tuples(_ALPHAS, _PARAMS, _PARAMS, _POINTS, _ROUTES), st.just(False)),
    st.tuples(st.just("bessel"), st.tuples(st.sampled_from("I J K H1 H2".split()), _ORDERS, _POINTS),
              st.just(False)),
    st.tuples(st.just("f2f0_asymptotic"), st.tuples(_PARAMS, _PARAMS, _POINTS), st.just(False)),
    st.tuples(st.just("limit_alpha"), st.tuples(_INTEGER, _POINTS), st.just(False)),
    _relation_call("check_relation"), _relation_call("apply_ladder"),
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
# raw ZeroDivisionErrors: the log solution's far scales over a prefactor
# 1/Gamma((1-m+theta)/2) that is 0 at a large real theta, taken at a far
# point or, where they are taken at prepare, at a near one
@example(("log_solution", (F1(400.0, 0), 1000.0), False))
@example(("log_solution", (F1(400.0, 0), 0.5), False))
# raw OverflowErrors: (1/Gamma)'(w) = (-1)^k k! at a pole past k = 170
@example(("limit_alpha", (F1(-2001.0, 0), 0.5), False))
@example(("limit_alpha", (F1(-1e20, 0), 0.5), False))
@example(("limit_alpha", (F1(-200001.0, 0), 0.5), False))
# raw ZeroDivisionErrors: a companion row's c1/z at z = 0 where D has no
# pole, q.sasa5's map at z = 1/2, a ladder whose coefficient is 0
@example(("apply_ladder", ("f0.recurD.raise", {"m": 0}, 0.0), False))
@example(("check_relation", ("f0.recurD.lower", {"m": -1}, 0.0), False))
@example(("check_relation", ("f1.recurD.z-raise-theta2", {"m": 0, "theta": 0.7}, 0.0), False))
@example(("apply_ladder", ("f2.recurDI.pp0", {"m": 0, "beta": 0.3, "mu": 0.2}, 0.0), False))
@example(("check_relation", ("q.sasa5", {"alpha": 0.2, "beta": 0.3}, 0.5), False))
@example(("apply_ladder", ("f2.recurFI.m0m", {"alpha": 1, "beta": 0.0, "mu": 0.0}, 0.0), False))
# raw ValueErrors from math.factorial at m < 0, OverflowErrors from
# (2m)!/m! past an order of 170 and from exp(-2z), and a TypeError at a
# complex alpha
@example(("check_relation", ("q.double5", {"m": -1}, 0.5), False))
@example(("check_relation", ("q.sasa3", {"m": -1, "beta": 0.3}, 0.3), False))
@example(("check_relation", ("q.double5", {"m": 169}, 4.126893476972221 + 2.254705573705141e-105j),
          False))
@example(("check_relation", ("q.double2", {"alpha": 4.23032112948356e-173 - 1j},
                             -2.721703805782419e+16), False))
@example(("check_relation", ("f0.recurF.raise", {"alpha": 0.3 + 0.1j}, 0.3), False))
# nan: the weight c1/z of a companion row overflows
@example(("check_relation", ("f0.recurD.raise", {"m": -99}, 5e-324), False))
@example(("apply_ladder", ("f2.recurDI.pm0", {"m": 0, "mu": 0.0,
                                               "beta": -2.2250738585e-313 - 2.2250738585e-313j},
                           -2.2250738585e-313), False))
def test_every_public_result_is_finite_or_a_typed_error(draw):
    name, args, jet = draw
    try:
        results = _results(name, args, jet)
    except HyperdError:
        return
    for r in results:
        assert cmath.isfinite(r.value) and math.isfinite(r.err_estimate), (name, args, r)
