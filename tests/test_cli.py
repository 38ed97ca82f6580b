"""Command line surface: schemas, formats, exit codes, stability."""

import csv
import functools
import io
import json
import math

import pytest

from hyperd import cli, ffun, relations, series
from hyperd.series import EvalResult, MAX_TERMS, REL_TOL


def run(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(argv, capsys, expect=0):
    code, out, err = run(argv, capsys)
    assert code == expect, err or out
    return json.loads(out)


RECORD_KEYS = {"z_re", "z_im", "value_re", "value_im",
               "err_estimate", "terms_used", "flags"}


# ---------------------------------------------------------------------------
# eval

def test_eval_classical_exponential(capsys):
    doc = run_json(["eval", "--eq", "1f1", "--a", "1", "--c", "1",
                    "--z", "0.3"], capsys)
    assert doc["command"] == "eval"
    assert doc["eq"] == "1f1"
    assert doc["func"] == "F"
    assert doc["params"] == {"alpha": 0.0, "theta": 1.0}
    assert doc["classical"] == {"a": 1.0, "c": 1.0}
    (rec,) = doc["records"]
    assert set(rec) == RECORD_KEYS
    # F with a = c = 1 collapses to exp(z)
    assert abs(rec["value_re"] - math.exp(0.3)) < 1e-14
    assert rec["value_im"] == 0.0
    assert rec["err_estimate"] >= 0.0
    assert rec["terms_used"] > 0
    assert rec["flags"] == []


def test_eval_lie_parameters_and_complex_literal(capsys):
    doc = run_json(["eval", "--eq", "2f1", "--m", "1", "--beta", "0.3",
                    "--mu", "0.2", "--z", "0.2+0.1i"], capsys)
    (rec,) = doc["records"]
    assert rec["z_re"] == 0.2
    assert rec["z_im"] == 0.1
    assert doc["params"]["alpha"] == 1.0
    assert abs(doc["classical"]["c"] - 2.0) < 1e-15


def test_eval_d_function_value(capsys):
    doc = run_json(["eval", "--eq", "0f1", "--func", "D", "--m", "2",
                    "--z", "0.5"], capsys)
    (rec,) = doc["records"]
    assert abs(rec["value_re"] - (-2.3258700592553354)) < 1e-12


def test_eval_u_route_echoed(capsys):
    doc = run_json(["eval", "--eq", "2f1", "--func", "U", "--m", "1",
                    "--beta", "0.3", "--mu", "0.2",
                    "--route", "LogPlusD", "--z", "-0.4"], capsys)
    assert doc["route"] == "LogPlusD"
    (rec,) = doc["records"]
    assert abs(rec["value_re"] - 2.0822876489523252) < 1e-12


def test_eval_multiple_z_flags(capsys):
    doc = run_json(["eval", "--eq", "0f1", "--alpha", "0.5",
                    "--z", "0.1", "--z", "0.2", "--z", "0.3"], capsys)
    assert [r["z_re"] for r in doc["records"]] == [0.1, 0.2, 0.3]


def test_eval_grid_row_major(capsys):
    doc = run_json(["eval", "--eq", "0f1", "--alpha", "0.5",
                    "--grid", "0.1:0.2:2,0.3:0.4:2"], capsys)
    got = [(r["z_re"], r["z_im"]) for r in doc["records"]]
    # imaginary part is the outer loop
    assert got == [(0.1, 0.3), (0.2, 0.3), (0.1, 0.4), (0.2, 0.4)]


def test_eval_output_is_bit_stable(capsys):
    argv = ["eval", "--eq", "1f1", "--func", "logsol", "--m", "1",
            "--theta", "0.7", "--z", "0.6+0.2i", "--z", "1.1"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_table_csv_matches_eval_json(capsys):
    grid = "0.2:0.6:3,0.0:0.1:2"
    base = ["--eq", "1f1", "--m", "1", "--theta", "0.7"]
    jdoc = run_json(["eval"] + base + ["--grid", grid], capsys)
    code, out, _ = run(["table"] + base + ["--grid", grid], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == len(jdoc["records"]) == 6
    for row, rec in zip(rows, jdoc["records"]):
        # the 17-digit serialization must agree field for field
        for key in ("z_re", "z_im", "value_re", "value_im", "err_estimate"):
            assert float(row[key]) == rec[key]
        assert int(row["terms_used"]) == rec["terms_used"]


def test_table_header_names_the_command(capsys):
    code, out, _ = run(["table", "--eq", "0f1", "--alpha", "0.3",
                        "--grid", "0.1:0.2:2,0:0:1"], capsys)
    assert code == 0
    assert any(ln.startswith("# command=table") for ln in out.splitlines())


def test_seventeen_digit_round_trip(capsys):
    doc = run_json(["eval", "--eq", "0f1", "--alpha", "0.5",
                    "--z", "0.7"], capsys)
    (rec,) = doc["records"]
    from hyperd.ffun import F0, f_norm
    want = f_norm(F0(alpha=0.5), complex(0.7)).value
    assert rec["value_re"] == want.real


def test_non_finite_floats_are_null_in_json_and_kept_in_csv(capsys, monkeypatch):
    # an evaluator whose result is inf+nanj with an infinite err_estimate;
    # no real input is known to return one
    monkeypatch.setattr(cli, "_evaluator", lambda args, lie: lambda z: EvalResult(
        complex(math.inf, math.nan), math.inf, 1))
    argv = ["--eq", "1f1", "--func", "U", "--theta", "0.7", "--alpha", "-170"]
    code, out, err = run(["eval"] + argv + ["--z", "150"], capsys)
    assert code == 0, err

    def reject(name):
        raise ValueError("non-standard JSON constant %s" % name)

    (rec,) = json.loads(out, parse_constant=reject)["records"]
    assert rec["err_estimate"] is None
    code, out, err = run(["table"] + argv + ["--grid=150:150:1,0:0:1"], capsys)
    assert code == 0, err
    assert out.splitlines()[-1].split(",")[4] == "inf"


# z -> result pairs with every float the writers treat apart: +-inf,
# nan, -0.0, a subnormal, values that need all 17 digits; two flags and
# none.  The last three points repeat z parts of the first three, with
# +0.0 where those have -0.0 and a nan part, as grid points repeat
# their axis values.
_ODD_RESULTS = (
    (complex(0.1 + 0.2, -0.0),
     EvalResult(complex(math.inf, -math.inf), math.nan, 7,
                frozenset({"TruncationMaxed", "NearPole"}))),
    (complex(-0.0, 0.25), EvalResult(complex(-0.0, 5e-324), 2.0 / 3.0, 1)),
    (complex(1.5, 1.0 / 3.0),
     EvalResult(complex(math.nan, -0.0), math.inf, 12345,
                frozenset({"OnBranchCut"}))),
    (complex(0.0, 0.25), EvalResult(complex(1.0, 0.0), 0.0, 3)),
    (complex(0.1 + 0.2, 0.0), EvalResult(complex(0.5, -0.5), 1e-300, 4)),
    (complex(math.nan, 1.0 / 3.0), EvalResult(complex(2.0, 0.0), 0.0, 5)),
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["eval", "table"])
def test_eval_rows_match_the_generic_writer(command, fmt, monkeypatch):
    # the results in point order: +0.0 and -0.0 are equal dict keys
    results = iter([r for _, r in _ODD_RESULTS])
    monkeypatch.setattr(cli, "_points", lambda args: [z for z, _ in _ODD_RESULTS])
    monkeypatch.setattr(cli, "_evaluator", lambda args, lie: lambda z: next(results))
    args = cli._parser().parse_args(
        [command, "--eq", "1f1", "--m", "2", "--theta", "0.5",
         "--grid", "0:1:2,0:0:1", "--format", fmt])
    out = io.StringIO()
    assert cli.cmd_eval(args, out) == 0

    lie, classical = cli._resolve_params(args)
    doc = {"command": command, "eq": "1f1", "func": "F", "params": lie,
           "classical": classical, "rel_tol": REL_TOL,
           "max_terms": MAX_TERMS}
    records = [{"z_re": z.real, "z_im": z.imag,
                "value_re": r.value.real, "value_im": r.value.imag,
                "err_estimate": r.err_estimate, "terms_used": r.terms_used,
                "flags": sorted(r.flags)} for z, r in _ODD_RESULTS]
    want = io.StringIO()
    cli._emit(doc, records, fmt, want)
    assert out.getvalue() == want.getvalue()
    if fmt == "json":
        def reject(name):
            raise ValueError("non-standard JSON constant %s" % name)

        got = json.loads(out.getvalue(), parse_constant=reject)["records"]
        assert [r["flags"] for r in got] == [["NearPole", "TruncationMaxed"],
                                             [], ["OnBranchCut"], [], [], []]
        assert got[0]["value_re"] is None and got[0]["err_estimate"] is None
        assert got[5]["z_re"] is None
        assert '{"z_re":-0,"z_im":0.25,"value_re":-0,' in out.getvalue()
        assert '{"z_re":0,"z_im":0.25,"value_re":1,' in out.getvalue()
    else:
        rows = out.getvalue().splitlines()[-6:]
        assert rows == [
            "0.30000000000000004,-0,inf,-inf,nan,7,NearPole|TruncationMaxed",
            "-0,0.25,-0,4.9406564584124654e-324,0.66666666666666663,1,",
            "1.5,0.33333333333333331,nan,-0,inf,12345,OnBranchCut",
            "0,0.25,1,0,0,3,",
            "0.30000000000000004,0,0.5,-0.5,1e-300,4,",
            "nan,0.33333333333333331,2,0,0,5,"]


def test_parser_is_reused_across_requests(capsys):
    base = ["--eq", "0f1", "--alpha", "0.5"]

    def z_re(argv):
        return [r["z_re"] for r in run_json(argv, capsys)["records"]]

    assert z_re(["eval"] + base + ["--z", "0.5"]) == [0.5]
    parser = cli._parser()
    with pytest.raises(SystemExit):
        cli.main(["eval", "--eq", "3f1", "--z", "0.1"])
    assert z_re(["eval"] + base + ["--z", "0.7", "--z", "0.9"]) == [0.7, 0.9]
    with pytest.raises(SystemExit):
        cli.main(["table"] + base + ["--z", "0.2"])
    code, out, err = run(["table"] + base + ["--grid", "0.1:0.2:2,0:0:1"],
                         capsys)
    assert code == 0, err
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert [float(ln.split(",")[0]) for ln in rows[1:]] == [0.1, 0.2]
    assert z_re(["eval"] + base + ["--z", "0.3"]) == [0.3]
    assert cli._parser() is parser


# ---------------------------------------------------------------------------
# parameter validation

def test_mixed_conventions_rejected(capsys):
    code, out, err = run(["eval", "--eq", "1f1", "--m", "1",
                          "--theta", "0.7", "--a", "1.0",
                          "--z", "0.3"], capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "DomainError"
    assert "not both" in payload["error"]["message"]


def test_missing_parameters_rejected(capsys):
    code, _, err = run(["eval", "--eq", "1f1", "--m", "1",
                        "--z", "0.3"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_d_needs_integer_m(capsys):
    code, _, err = run(["eval", "--eq", "0f1", "--func", "D",
                        "--alpha", "0.5", "--z", "0.3"], capsys)
    assert code == 2
    assert "integer m" in json.loads(err)["error"]["message"]


def test_u2_power_overflow_is_a_domain_error(capsys):
    # (-z)^(-alpha) at z = -1e-300 overflows; it was a raw OverflowError
    code, out, err = run(["eval", "--eq", "2f1", "--func", "U", "--alpha", "2.5",
                          "--beta", "0.3", "--mu", "0.2", "--z=-1e-300"], capsys)
    assert (code, out) == (2, "")
    rec = json.loads(err)["error"]
    assert rec["type"] == "DomainError" and "a = (-2.5-0j)" in rec["message"]


def test_fi_requires_2f1(capsys):
    code, _, err = run(["eval", "--eq", "0f1", "--func", "FI",
                        "--alpha", "0.5", "--z", "0.3"], capsys)
    assert code == 2


@pytest.mark.parametrize("func, grid, message", [
    # a fault of the request comes first, then one of the point list, then
    # one of the parameter set, which is prepared at the first point
    ("FI", "bad", "--func FI is defined for --eq 2f1 only"),
    ("D", "bad", "bad grid spec 'bad'"),
    ("D", "0:1:2,0:0:1", "this function needs integer m, got alpha=0.5"),
])
def test_fault_order_request_then_points_then_parameters(func, grid, message, capsys):
    code, out, err = run(["table", "--eq", "0f1", "--func", func, "--alpha", "0.5",
                          f"--grid={grid}"], capsys)
    assert (code, out) == (2, "")
    rec = json.loads(err)["error"]
    assert rec["type"] == "DomainError" and rec["message"].startswith(message)


@pytest.mark.parametrize("command", ["eval", "table"])
@pytest.mark.parametrize("argv, message", [
    # each of these flags was dropped and the request answered
    (["--eq", "1f1", "--func", "F", "--m", "2", "--theta", "0.7", "--route", "Connection"],
     "--eq 1f1 --func F does not use --route"),
    (["--eq", "2f1", "--func", "D", "--m", "1", "--beta", "0.3", "--mu", "0.2", "--route", "LogPlusD"],
     "--eq 2f1 --func D does not use --route"),
    (["--eq", "0f1", "--func", "U", "--m", "2", "--alpha", "0.37"], "give --m or --alpha, not both"),
    (["--eq", "0f1", "--m", "2", "--theta", "0.7", "--beta", "0.3", "--mu", "0.2"],
     "--eq 0f1 --func F does not use --theta, --beta, --mu"),
    (["--eq", "1f1", "--m", "2", "--theta", "0.7", "--beta", "0.3"], "--eq 1f1 --func F does not use --beta"),
    (["--eq", "1f1", "--m", "2", "--theta", "0.7", "--mu", "0.2"], "--eq 1f1 --func F does not use --mu"),
    (["--eq", "2f1", "--m", "2", "--theta", "0.7", "--beta", "0.3", "--mu", "0.2"],
     "--eq 2f1 --func F does not use --theta"),
    (["--eq", "1f1", "--a", "1", "--b", "2", "--c", "3"], "--eq 1f1 --func F does not use --b"),
    (["--eq", "0f1", "--a", "1", "--b", "2", "--c", "3"], "--eq 0f1 --func F does not use --a, --b"),
    (["--eq", "0f1", "--func", "U", "--b", "2", "--c", "3", "--route", "LogPlusD"],
     "--eq 0f1 --func U does not use --b"),
    # and a parameter the request needs is named where it is missing
    (["--eq", "1f1", "--a", "0.5"], "1f1 classical form needs --a, --c"),
    (["--eq", "0f1"], "missing --m or --alpha"),
])
def test_an_unused_flag_is_an_error(command, argv, message, capsys):
    code, out, err = run([command] + argv + ["--grid=0.2:0.6:2,0:0:1"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "DomainError", "message": message}


def test_bad_complex_literal(capsys):
    code, _, err = run(["eval", "--eq", "0f1", "--alpha", "0.5",
                        "--z", "nope"], capsys)
    assert code == 2


def test_no_points_is_an_error(capsys):
    code, _, err = run(["eval", "--eq", "0f1", "--alpha", "0.5"], capsys)
    assert code == 2
    assert "--z or --grid" in json.loads(err)["error"]["message"]


def test_pole_maps_to_exit_2(capsys):
    # second solution at integer alpha hits a Gamma pole upstream only
    # for routes that need it; an on-cut U evaluation is the simple case
    code, _, err = run(["eval", "--eq", "2f1", "--func", "U", "--m", "1",
                        "--beta", "0.3", "--mu", "0.2", "--z", "0.5"],
                       capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "BranchCut"


def test_large_alpha_underflows_instead_of_overflow_error(capsys):
    # 1/Gamma(191.5) is below the smallest subnormal; the Lanczos power
    # behind it used to raise a raw OverflowError (exit 2)
    doc = run_json(["eval", "--eq", "0f1", "--alpha", "190.5", "--z", "0.3"],
                   capsys)
    (rec,) = doc["records"]
    assert rec["value_re"] == 0.0 and rec["value_im"] == 0.0


def test_a_value_past_a_double_exits_2_with_a_domain_error(capsys):
    # z^-150.3 times F at the reflected order overflows; this exited 0
    # and wrote "value_re":null
    code, out, err = run(["eval", "--eq", "0f1", "--func", "second", "--alpha", "150.3",
                          "--z", "0.01"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "DomainError",
        "message": "result is not finite at z = (0.01+0j): (inf+0j), err_estimate inf"}


@pytest.mark.parametrize("argv,needle", [
    (["eval", "--eq", "0f1", "--alpha", "nan", "--z", "0.5"], "alpha must be finite"),
    (["eval", "--eq", "0f1", "--func", "D", "--alpha", "nan", "--z", "0.5"],
     "alpha must be finite"),
    (["eval", "--eq", "1f1", "--func", "U", "--theta", "0.7", "--alpha", "nan",
      "--z", "0.5"], "alpha must be finite"),
    (["eval", "--eq", "1f1", "--m", "1", "--theta", "0.7", "--z", "nan"],
     "z must be finite"),
    (["eval", "--eq", "0f1", "--func", "logsol", "--m", "1",
      "--grid", "0.5:1e309:2,0.5:0.5:1"], "z must be finite"),
    (["eval", "--eq", "0f1", "--alpha", "0.5", "--grid=0:1:0,0:0:1"],
     "bad grid spec '0:1:0,0:0:1' (want re0:re1:n,im0:im1:m): grid axis needs at least one point"),
    (["eval", "--eq", "0f1", "--m", "200", "--z", "0.5"], "m = 200"),
    (["eval", "--eq", "0f1", "--func", "U", "--m", "-171", "--z", "0.5"],
     "m = -171"),
    (["eval", "--eq", "2f1", "--func", "DI", "--m", "1", "--beta", "nan", "--mu", "0.2",
      "--z", "0.5"], "beta must be finite"),
    # an i inside a word is not the imaginary unit: inf is a point, refused
    # as every non-finite one is (it was "cannot parse complex literal")
    (["eval", "--eq", "0f1", "--alpha", "0.5", "--z", "inf"], "z must be finite, got z = (inf+0j)"),
    (["eval", "--eq", "0f1", "--alpha", "0.5", "--z=-Infinity"],
     "z must be finite, got z = (-inf+0j)"),
    (["eval", "--eq", "0f1", "--alpha", "0.5", "--z", "1+infi"], "z must be finite, got z = (1+infj)"),
    (["eval", "--eq", "0f1", "--alpha", "0.5", "--z", "1e400"], "z must be finite, got z = (inf+0j)"),
    # a tolerance that is not finite or is negative decides no check; a nan
    # one failed a residual of 1.1e-16, and went unnoticed where no catalog
    # check ran
    (["verify", "--id", "f0.recurF.raise", "--tol", "nan", "--points", "2"],
     "--tol must be finite and at least 0, got nan"),
    (["verify", "--suite", "theorems", "--tol", "nan"], "--tol must be finite and at least 0, got nan"),
    (["verify", "--suite", "theorems", "--tol", "inf"], "--tol must be finite and at least 0, got inf"),
    (["verify", "--suite", "theorems", "--tol=-1e-3"], "--tol must be finite and at least 0, got -0.001"),
])
def test_non_finite_and_out_of_range_input_is_a_domain_error(argv, needle,
                                                            capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    rec = json.loads(err)["error"]
    assert rec["type"] == "DomainError"
    assert needle in rec["message"]


def test_argparse_rejects_unknown_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--eq", "3f1", "--alpha", "0.5", "--z", "0.1"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify

def test_verify_single_id(capsys):
    doc = run_json(["verify", "--id", "q.sasa3"], capsys)
    assert doc["command"] == "verify"
    assert doc["suite"] == "q.sasa3"
    assert doc["relations_checked"] == 1
    assert doc["failures"] == []
    (rec,) = doc["records"]
    assert rec["id"] == "q.sasa3"
    assert rec["family"] == "Quadratic"
    assert rec["points"] == 25
    assert rec["status"] == "ok"
    assert rec["max_scaled_residual"] <= 1e-8


def test_verify_tightened_tolerance_fails(capsys):
    doc = run_json(["verify", "--id", "q.sasa3", "--tol", "1e-18"],
                   capsys, expect=1)
    assert doc["failures"]
    assert doc["records"][0]["status"] == "FAIL"


def test_verify_suite_and_id_conflict(capsys):
    code, _, err = run(["verify", "--suite", "all", "--id", "q.sasa3"],
                       capsys)
    assert code == 2
    assert "not both" in json.loads(err)["error"]["message"]
    code, _, err = run(["verify", "--id", "no.such"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UnknownRelation"


def test_verify_points_below_one_rejected(capsys):
    for argv in (["verify", "--points", "0"],
                 ["verify", "--suite", "bessel", "--points", "-3"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "--points" in error["message"]


def test_verify_quadratic_suite(capsys):
    doc = run_json(["verify", "--suite", "quadratic", "--points", "5"],
                   capsys)
    assert doc["relations_checked"] == 9
    assert all(r["family"] == "Quadratic" for r in doc["records"])
    assert doc["failures"] == []


def test_verify_kind_suite_partition(capsys):
    seen = []
    for suite in ("0f1", "1f1", "2f1"):
        doc = run_json(["verify", "--suite", suite, "--points", "3"],
                       capsys)
        assert doc["failures"] == []
        seen.extend(r["id"] for r in doc["records"])
    assert len(seen) == len(set(seen)) == 52


def test_verify_kummer_suite(capsys):
    doc = run_json(["verify", "--suite", "kummer", "--points", "3"], capsys)
    kummer = sorted(k for k, r in relations.build_catalog().items()
                    if r.family == "Kummer")
    assert kummer
    assert [r["id"] for r in doc["records"]] == kummer
    assert doc["failures"] == []


def test_verify_bessel_suite(capsys):
    doc = run_json(["verify", "--suite", "bessel"], capsys)
    assert doc["failures"] == []
    assert all(r["family"] == "Consistency" for r in doc["records"])
    assert doc["relations_checked"] >= 20
    ids = [r["id"] for r in doc["records"]]
    assert ids == sorted(ids)


def test_verify_csv_format(capsys):
    code, out, _ = run(["verify", "--id", "f0.contiguity",
                        "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert any(ln.startswith("# command=verify") for ln in lines)
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert data[0].split(",")[0] == "id"
    assert data[1].split(",")[0] == "f0.contiguity"


def _csv_field(v):
    """A JSON record field as the CSV writer renders it."""
    if v is None:  # a float that is not finite, null in JSON
        return ("nan", "inf", "-inf")
    if isinstance(v, bool):
        return ("true" if v else "false",)
    if isinstance(v, float):
        return (format(v, ".17g"),)
    if isinstance(v, list):
        return ("|".join(str(x) for x in v),)
    return (str(v),)


@pytest.mark.parametrize("argv", [["catalog"], ["verify", "--suite", "all", "--points", "7"]])
def test_csv_reads_back_as_the_json_records(argv, capsys):
    # every row parses to as many fields as the header has, each field the
    # JSON record's: signatures such as "m,theta" and statements with commas
    # are quoted
    doc = run_json(argv, capsys)
    code, out, err = run(argv + ["--format", "csv"], capsys)
    assert code == 0, err
    rows = list(csv.reader(ln for ln in out.splitlines(True) if not ln.startswith("#")))
    keys = list(doc["records"][0])
    assert rows[0] == keys
    assert len(rows) == len(doc["records"]) + 1
    for row, rec in zip(rows[1:], doc["records"]):
        assert len(row) == len(keys), row
        for k, cell in zip(keys, row):
            assert cell in _csv_field(rec[k]), (rec["id"], k)


# ---------------------------------------------------------------------------
# catalog

def test_catalog_listing(capsys):
    doc = run_json(["catalog"], capsys)
    assert doc["count"] == 61
    ids = [r["id"] for r in doc["records"]]
    assert ids == sorted(ids)
    assert len(ids) == 61
    for rec in doc["records"]:
        assert set(rec) == {"id", "kind", "family", "signature",
                            "constant", "statement"}


# ---------------------------------------------------------------------------
# term budget

def test_env_max_terms_budget(capsys, monkeypatch):
    # a series that runs out of its budget is a NoConvergence record
    monkeypatch.setattr(ffun, "sum_power_series",
                        functools.partial(series.sum_power_series, max_terms=5))
    code, _, err = run(["eval", "--eq", "1f1", "--m", "1", "--theta", "0.7",
                        "--z", "9+4i"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NoConvergence"


@pytest.mark.parametrize("command,where", [("eval", ["--z", "0.3"]),
                                           ("table", ["--grid=0.3:0.3:1,0:0:1"])],
                         ids=["eval", "table"])
def test_max_terms_is_not_an_option(command, where, capsys):
    # every series sums within the fixed MAX_TERMS; the header echoes it
    argv = [command, "--eq", "0f1", "--m", "1"] + where
    with pytest.raises(SystemExit) as ei:
        cli.main(argv + ["--max-terms", "5"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --max-terms" in capsys.readouterr().err
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 0, err
    assert MAX_TERMS == 10000
    assert '"rel_tol":1e-14,"max_terms":10000,' in out


def test_rel_tol_is_not_an_option(capsys):
    # every series stops at the fixed REL_TOL; the header still echoes it
    with pytest.raises(SystemExit) as ei:
        cli.main(["eval", "--eq", "0f1", "--m", "1", "--z", "0.3",
                  "--rel-tol", "1e-10"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --rel-tol" in capsys.readouterr().err
    doc = run_json(["eval", "--eq", "0f1", "--m", "1", "--z", "0.3"], capsys)
    assert doc["rel_tol"] == REL_TOL


def test_a_sum_that_is_not_finite_is_a_domain_error_record(capsys):
    # z**n overflows at z = 1e4 long before the 0F1 series converges
    code, out, err = run(["eval", "--eq", "0f1", "--alpha", "0.5",
                          "--z", "10000"], capsys)
    assert code == 2
    assert out == ""
    rec = json.loads(err)["error"]
    assert rec["type"] == "DomainError"
    assert "at z = (10000+0j)" in rec["message"]


def test_verify_takes_no_max_terms(capsys):
    # the catalog sweep sums at the default budget, so verify offers none
    with pytest.raises(SystemExit) as ei:
        cli.main(["verify", "--max-terms", "5"])
    assert ei.value.code == 2
    assert "--max-terms" in capsys.readouterr().err
