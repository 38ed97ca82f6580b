"""Prepared evaluators: a table equals its points evaluated one by one.

`hyperd table` prepares its parameter set once and calls the prepared
callable at every grid point; `hyperd eval --z` and the public point
functions prepare afresh for each point.  Rows, exit codes and error
records must agree across the three, including a request that fails at
a later point, and every point must raise what a lone call at that point
raises: the faults of the parameters that a lone call meets only after a
check of z must not be raised ahead of that check.
"""

import json
import math
import re

import pytest

from hyperd import (
    F0,
    F1,
    F2,
    d_eval,
    d_eval_I,
    f2_norm_I,
    f_norm,
    f_second,
    log_solution,
    u0,
    u1,
    u2,
)
from hyperd import cli
from hyperd.errors import HyperdError
from hyperd.oracle import limit_alpha
from hyperd.ufun import URoute

PARAMS = {"0f1": F0, "1f1": F1, "2f1": F2}

# Lie parameters per kind: integer m, m < 0, alpha within 1e-11 of an
# integer, generic alpha
EXTRA = {"0f1": {}, "1f1": {"theta": 0.7}, "2f1": {"beta": 0.3, "mu": 0.2}}
ALPHAS = (2.0, -2.0, 1.0 + 1e-11, 0.37)

# grids per kind, re0:re1:n,im0:im1:m (row-major, imaginary outer).  The
# 0F1/1F1 grid's second row lies on the negative real axis, the cut of the
# logarithms; the first 2F1 grid switches U between the series and the
# 1/z route from point to point, the second straddles 0.95 < |z| < 1.053
# and fails at its second point, the third starts on the cut of U
GRIDS = {
    "0f1": ("0.25:1.35:3,0.1:0.5:2", "-0.6:0.9:4,-0.3:0.0:2"),
    "1f1": ("0.25:1.35:3,0.1:0.5:2", "-0.6:0.9:4,-0.3:0.0:2"),
    "2f1": ("-1.5:-0.5:2,0.1:0.3:2", "-1.2:-0.4:5,0.1:0.1:1",
            "0.2:0.6:2,0:0.2:2"),
}


def _main(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _rows(out, fmt):
    """The records of an eval/table output, as written."""
    if fmt == "json":
        return re.findall(r'\{"z_re":.*?\]\}', out)
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    return lines[1:]


def _public(func, eq, lie, route):
    """The public point function that the request names, as z -> result."""
    alpha = lie["alpha"]
    extra = {k: v for k, v in lie.items() if k != "alpha"}
    if func != "U":
        p = PARAMS[eq](alpha=alpha, **extra)
        fn = {"F": f_norm, "second": f_second, "FI": f2_norm_I, "D": d_eval,
              "DI": d_eval_I, "logsol": log_solution}[func]
        return lambda z: fn(p, z)
    if eq == "0f1":
        return lambda z: u0(alpha, z, route)
    if eq == "1f1":
        return lambda z: u1(extra["theta"], alpha, z, route)
    return lambda z: u2(alpha, extra["beta"], extra["mu"], z, route)


def _record(z, res, fmt):
    # the record of a public result as the CLI writes it: 17 digits,
    # non-finite floats null in JSON
    def num(x):
        if fmt == "json" and not math.isfinite(x):
            return "null"
        return format(x, ".17g")

    fields = [num(z.real), num(z.imag), num(res.value.real),
              num(res.value.imag), num(res.err_estimate),
              str(res.terms_used)]
    flags = sorted(res.flags)
    if fmt == "json":
        keys = ("z_re", "z_im", "value_re", "value_im", "err_estimate",
                "terms_used")
        items = ['"%s":%s' % kv for kv in zip(keys, fields)]
        items.append('"flags":[%s]' % ",".join('"%s"' % f for f in flags))
        return "{%s}" % ",".join(items)
    return ",".join(fields + ["|".join(flags)])


def _error(err):
    return json.loads(err)["error"]


def _check_request(func, eq, lie, route, grid, fmt, capsys):
    """Table against per-point eval and the public function; returns the
    error record of the table, or None when it succeeds."""
    argv = ["--eq", eq, "--func", func]
    for k, v in lie.items():
        argv.append("--%s=%r" % (k, v))
    if route is not None:
        argv += ["--route", route]
    argv += ["--format", fmt]
    code, out, err = _main(["table"] + argv + ["--grid=" + grid], capsys)

    rows, failure = [], None
    for z in cli._parse_grid(grid):
        c, o, e = _main(["eval"] + argv + ["--z=" + repr(z)], capsys)
        if c != 0:
            failure = (c, _error(e))
            break
        (row,) = _rows(o, fmt)
        rows.append(row)
    if failure is None:
        assert (code, err) == (0, "")
        assert _rows(out, fmt) == rows
    else:
        # the table writes nothing and reports the first failing point
        assert (code, out) == (failure[0], "")
        assert _error(err) == failure[1]

    request_fault = (func in ("FI", "DI") and eq != "2f1") or (
        func in ("D", "DI", "logsol")
        and abs(lie["alpha"] - round(lie["alpha"])) > 1e-9)
    if request_fault:
        assert failure is not None and not rows
        return failure[1]
    fn = _public(func, eq, lie, route)
    for i, z in enumerate(cli._parse_grid(grid)):
        try:
            res = fn(z)
        except HyperdError as exc:
            assert i == len(rows)
            assert failure[1] == {"type": type(exc).__name__,
                                  "message": str(exc)}
            return failure[1]
        assert rows[i] == _record(z, res, fmt)
    assert failure is None
    return None


CASES = ([(func, eq, None) for func in ("F", "second", "D", "logsol", "FI",
                                        "DI") for eq in PARAMS]
         + [("U", eq, r) for eq in PARAMS
            for r in [None] + [route.value for route in URoute]])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("func,eq,route", CASES)
def test_table_rows_equal_point_evaluations(func, eq, route, fmt, capsys):
    for alpha in ALPHAS:
        lie = {"alpha": alpha, **EXTRA[eq]}
        for grid in GRIDS[eq]:
            _check_request(func, eq, lie, route, grid, fmt, capsys)


# Requests whose first point fails a check of z while the parameters have
# a fault of their own that a lone call meets only after that check, or
# before it.  (func, eq, lie, route, grid, error type, message start).
PRECEDENCE = [
    # the U route is prepared after the cut check: a point on the cut is a
    # BranchCut even where the LogPlusD prefactor 1/Gamma(-1) vanishes
    ("U", "2f1", {"alpha": 1.0, "beta": 1.5, "mu": 0.5}, None,
     "0.2:0.6:2,0:0:1", "BranchCut", "2f1 U is cut"),
    ("U", "2f1", {"alpha": 1.0, "beta": 1.5, "mu": 0.5}, "LogPlusD",
     "0.2:0.6:2,0:0:1", "BranchCut", "2f1 U is cut"),
    # ... and the same parameters off the cut fail in D's check, since the
    # prefactor vanishes only where D is undefined (b = 2)
    ("U", "2f1", {"alpha": 1.0, "beta": 1.5, "mu": 0.5}, None,
     "-0.6:-0.2:2,0.1:0.1:1", "ParameterSingular", "integer classical parameter (a, b) = "),
    # the F^I prefactor comes before the disc check of the series
    ("FI", "2f1", {"alpha": 0.5, "beta": -3.3, "mu": 0.2}, None,
     "-1.2:-0.4:2,0.1:0.1:1", "ParameterSingular", "F^I prefactor"),
    # the 2F1 coefficient stream, whose 1/Gamma(c) overflows at
    # c = -399.5, is built after the disc check
    ("F", "2f1", {"alpha": -400.5, "beta": 0.3, "mu": 0.2}, None,
     "-1.2:-0.4:2,0.1:0.1:1", "DomainError", "2F1 direct series"),
    ("F", "2f1", {"alpha": -400.5, "beta": 0.3, "mu": 0.2}, None,
     "-0.5:-0.4:2,0.1:0.1:1", "DomainError",
     "Gamma(z) ** -1 overflows a double at z = (-399.5+0j)"),
    # the Connection weights 1/Gamma((1+theta-+alpha)/2) overflow, but
    # are taken after z^-alpha, which is cut on the negative axis
    ("U", "1f1", {"alpha": 0.5, "theta": -400.0}, None,
     "-0.6:-0.2:2,0:0:1", "BranchCut", "principal_log cut"),
    ("U", "1f1", {"alpha": 0.5, "theta": -400.0}, None,
     "0.2:0.6:2,0.1:0.1:1", "DomainError",
     "Gamma(z) ** -1 overflows a double at z = (-199.25+0j)"),
    # the LogPlusD prefactor 1/Gamma(q) overflows at q = -250.25 and is
    # taken after the logarithmic solution
    ("U", "1f1", {"alpha": 1.0, "theta": -500.5}, None,
     "-0.6:-0.2:2,0:0:1", "BranchCut", "principal_log cut"),
    ("U", "1f1", {"alpha": 1.0, "theta": -500.5}, None,
     "0.2:0.6:2,0.1:0.1:1", "DomainError",
     "Gamma(z) ** -1 overflows a double at z = (-250.25+0j)"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("func,eq,lie,route,grid,etype,message", PRECEDENCE)
def test_precedence_of_point_and_parameter_faults(func, eq, lie, route, grid,
                                                  etype, message, fmt,
                                                  capsys):
    rec = _check_request(func, eq, lie, route, grid, fmt, capsys)
    assert rec["type"] == etype
    assert rec["message"].startswith(message)


# ---------------------------------------------------------------------------
# the jet of a prepared callable: at(z) is at.jet(z, 0)[0]

JET_ZS = (0.3 + 0.2j, complex(0.6, 0.0), complex(0.6, -0.0),
          complex(-0.45, 0.0), complex(-0.45, -0.0), -0.45 + 0.1j, 0.0,
          2.5 - 1.5j)
JET_PARAMS = (F0(2), F0(-2), F0(0.37), F0(complex(-0.5, -0.0)), F1(0.7, 2),
              F1(0.7, -1), F1(complex(0.7, -0.0), 0.4), F2(1, 0.3, 0.2),
              F2(-2, 0.3, 0.25), F2(0.4, complex(0.3, -0.0), 0.2))
JET_D_PARAMS = (F0(3), F0(-2), F1(0.7, 2), F1(complex(0.7, -0.0), -1),
                F2(1, 0.3, 0.2), F2(-2, complex(0.3, -0.0), 0.2))


def _outcome(call):
    try:
        return repr(call())
    except (HyperdError, ValueError, TypeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _prepared_corpus():
    from hyperd.dfun import prepare_d_eval, prepare_d_eval_I, prepare_log_solution
    from hyperd.ffun import prepare_f2_norm_I, prepare_f_norm, prepare_f_second

    for p in JET_PARAMS:
        yield from ((prepare, p) for prepare in (prepare_f_norm, prepare_f_second))
        if isinstance(p, F2):
            yield prepare_f2_norm_I, p
    for p in JET_D_PARAMS:
        yield from ((prepare, p) for prepare in (prepare_d_eval, prepare_log_solution))
        if isinstance(p, F2):
            yield prepare_d_eval_I, p


@pytest.mark.parametrize("prepare,arg", list(_prepared_corpus()))
def test_jet_entry_zero_is_the_point_value(prepare, arg):
    at = prepare(arg)
    for z in JET_ZS:
        want = _outcome(lambda: at(z))
        for k in (0, 1, 2):
            got = _outcome(lambda: at.jet(z, k))
            if want.startswith("EvalResult"):
                assert got.startswith("(" + want), (k, z)
                assert len(at.jet(z, k)) == k + 1
            else:
                # a point that raises raises the same from the jet
                assert got == want, (k, z)
        assert _outcome(lambda: at.jet(z, 1)) == _outcome(lambda: at.jet(z, 2)[:2])


def test_prepared_routes_stay_per_point():
    # one prepared u2 serves points on either side of the annulus and
    # raises for the point inside it without losing the other routes
    from hyperd.ufun import prepare_u

    at = prepare_u(F2(1, 0.3, 0.2))
    zs = (-0.5 + 0.1j, -1.5 + 0.1j, -1.0 + 0.1j, -0.5 + 0.3j, -1.5 + 0.3j)
    for z in zs:
        try:
            want = repr(u2(1, 0.3, 0.2, z))
        except HyperdError as exc:
            want = type(exc).__name__
        try:
            got = repr(at(z))
        except HyperdError as exc:
            got = type(exc).__name__
        assert got == want


# ---------------------------------------------------------------------------
# non-finite input: parameters are checked when a parameter set is
# prepared, z at each point, and neither reaches a summation loop.  Each
# case names the argument it reports: a parameter by its field, and a
# parameter before z where both are not finite

NAN = float("nan")
INF = float("inf")

NON_FINITE = [
    ("f_norm alpha", lambda: f_norm(F0(NAN), 0.5), "alpha"),
    ("f_norm theta", lambda: f_norm(F1(NAN, 0.5), 0.5), "theta"),
    ("f_norm mu", lambda: f_norm(F2(0.5, 0.3, INF), 0.5), "mu"),
    ("f_norm z", lambda: f_norm(F0(0.5), NAN), "z"),
    ("f_norm inf z", lambda: f_norm(F1(0.7, 2), complex(INF, 1.0)), "z"),
    ("f_norm alpha and z", lambda: f_norm(F0(NAN), NAN), "alpha"),
    ("f_second alpha", lambda: f_second(F0(NAN), 0.5), "alpha"),
    ("f_second alpha and z", lambda: f_second(F0(NAN), NAN), "alpha"),
    ("f2_norm_I beta", lambda: f2_norm_I(F2(0.5, NAN, 0.2), 0.5), "beta"),
    ("f2_norm_I inf beta", lambda: f2_norm_I(F2(0.5, INF, 0.2), 0.5), "beta"),
    ("d_eval theta", lambda: d_eval(F1(NAN, 1), 0.5), "theta"),
    ("d_eval alpha", lambda: d_eval(F0(NAN), 0.5), "alpha"),
    ("d_eval z", lambda: d_eval(F0(1), NAN), "z"),
    ("d_eval_I beta", lambda: d_eval_I(F2(1, NAN, 0.2), 0.5), "beta"),
    ("log_solution theta", lambda: log_solution(F1(NAN, 1), 0.5), "theta"),
    ("log_solution z", lambda: log_solution(F1(0.7, 1), complex(1.0, INF)), "z"),
    ("limit_alpha alpha", lambda: limit_alpha(F0(NAN), 0.5), "alpha"),
    ("u0 alpha", lambda: u0(NAN, 0.5), "alpha"),
    ("u0 alpha asymptotic", lambda: u0(NAN, 0.5, URoute.ASYMPTOTIC_2F0), "alpha"),
    ("u0 z asymptotic", lambda: u0(0.5, INF, URoute.ASYMPTOTIC_2F0), "z"),
    ("u1 alpha", lambda: u1(0.7, NAN, 2), "alpha"),
    ("u1 theta asymptotic", lambda: u1(NAN, 1, 2, URoute.ASYMPTOTIC_2F0), "theta"),
    ("u1 z", lambda: u1(0.7, 1, NAN), "z"),
    ("u2 mu", lambda: u2(0.5, 0.3, NAN, -0.4), "mu"),
    ("u2 z", lambda: u2(1, 0.3, 0.2, complex(-INF, 1.0)), "z"),
]


@pytest.mark.parametrize("name,call,field", NON_FINITE, ids=[n for n, _, _ in NON_FINITE])
def test_non_finite_input_is_a_domain_error(name, call, field, monkeypatch):
    from hyperd import dfun, ffun
    from hyperd.errors import DomainError

    def no_sum(*args, **kwargs):
        raise AssertionError("summed at a non-finite input")

    for mod, fn in ((ffun, "sum_power_series"), (dfun, "sum_power_series"),
                    (ffun, "f2f0_asymptotic")):
        monkeypatch.setattr(mod, fn, no_sum)
    with pytest.raises(DomainError, match=f"^{field} must be finite, got {field} = "):
        call()


# ---------------------------------------------------------------------------
# integer orders beyond |m| = 170, where |m|! overflows a double

@pytest.mark.parametrize("call", [
    lambda: f_norm(F0(171), 0.5),
    lambda: f_norm(F0(200), 0.5),
    lambda: f_norm(F1(0.7, -171), 0.5),
    lambda: f_second(F2(171, 0.3, 0.2), 0.5),
    lambda: d_eval(F0(200), 0.5),
    lambda: d_eval(F1(0.7, -171), 0.5),
    lambda: u0(200, 0.5),
])
def test_order_beyond_factorial_range_is_a_domain_error(call):
    from hyperd.errors import DomainError

    with pytest.raises(DomainError, match=r"m = -?1[7-9]\d|m = 200"):
        call()


@pytest.mark.parametrize("call, m", [
    (lambda: d_eval(F1(0.7, 1e19), 1.0), "10000000000000000000"),
    (lambda: u1(0.7, 2e20, 1.0), "200000000000000000000"),
])
def test_order_beyond_factorial_range_is_named_before_the_singular_set(call, m):
    # at such an order theta is lost in rounding, so a = (1+m+theta)/2
    # reads as an integer <= m; the order is the fault, and is named
    from hyperd.errors import DomainError

    with pytest.raises(DomainError, match=f"integer order m = {m} is out of range"):
        call()


def test_order_at_factorial_limit_keeps_its_value():
    import mpmath as mp

    # F_170(z) = sum z^n / ((170+n)! n!); its leading coefficient 1/170!
    # is a normal double
    got = f_norm(F0(170), 0.5).value
    want = mp.hyper([], [171], 0.5) / mp.factorial(170)
    assert abs(got - complex(want)) <= 1e-14 * abs(complex(want))
