"""Benchmark of the hyperd command line, end to end and layer by layer.

    python3 perfbench/run.py --workload table_log --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see perfbench/README.md): table_log, table_f,
verify_all.  A fresh child process (worker.py) drives
``hyperd.cli.main(argv)`` in process, one request at a time, for
--seconds; this script measures set-up in fresh interpreters, checks the
outputs against mpmath outside every timed region, and prints a report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (and the tracing overhead).  Times are in
reference CPU seconds (see calibration.py).
"""

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 15         # fresh interpreters timed for setup_s
IMPORT_REPS = 5         # fresh interpreters under -X importtime
CHECKS_PER_REQUEST = 2  # table points checked against mpmath per request
# Misses at |z| beyond this are ROADMAP items 2 and 3 (cancellation in
# the 1F1 series for Re z < 0, and U / log-solution values summed as
# log*F + D far outside the series disc); they count in wrong_frac but
# do not fail the run.  Inside it every function is a well-conditioned
# convergent series and any miss fails the run.
TRUSTED_RADIUS = 8.0
CHILD_TIMEOUT_S = 170

# the first lines of every set-up child: the kernel time of this moment
_CALIBRATE = """
import sys, time
sys.path.append(%r)
from calibration import kernel_seconds
k = kernel_seconds(3)
""" % HERE
_SETUP_CODE = _CALIBRATE + """
t0 = time.perf_counter()
import hyperd, hyperd.cli
hyperd.relations.build_catalog()
print(time.perf_counter() - t0, k)
"""
_IMPORT_CODE = _CALIBRATE + """
sys.stderr.write("<start> %r\\n" % k)
import hyperd.cli
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _python(args, stdin=None):
    proc = subprocess.run([sys.executable] + args, input=stdin,
                          capture_output=True, text=True, env=_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("child %r failed (%d): %s"
                           % (args[:2], proc.returncode, proc.stderr[-2000:]))
    return proc


# ---------------------------------------------------------------------------
# set-up

def setup_seconds():
    """Times to import hyperd + hyperd.cli and build the catalog, each in
    a fresh interpreter, in reference CPU seconds."""
    out = []
    for _ in range(SETUP_REPS):
        t, k = map(float, _python(["-c", _SETUP_CODE]).stdout.split())
        out.append(calibration.normalize(t, k))
    return out


def import_breakdown():
    """Self time (reference us) of each module imported by
    ``import hyperd.cli``, the median over IMPORT_REPS fresh interpreters."""
    reps = []
    for _ in range(IMPORT_REPS):
        err = _python(["-X", "importtime", "-c", _IMPORT_CODE]).stderr
        marker, lines = err.split("<start> ", 1)[1].split("\n", 1)
        scale = calibration.normalize(1.0, float(marker))
        selfs = {}
        for line in lines.splitlines():
            if not line.startswith("import time:"):
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "hyperd":
                key = "import.hyperd.__init__.self_us"
            elif name.startswith("hyperd."):
                key = "import.%s.self_us" % name
            else:
                key = "import.other.self_us"
            selfs[key] = selfs.get(key, 0.0) + float(self_us) * scale
        reps.append(selfs)
    return {k: statistics.median(r.get(k, 0.0) for r in reps)
            for k in reps[0]}


# ---------------------------------------------------------------------------
# checking

def _grid_ok(recs, req):
    want = workloads.grid_points(req["grid"])
    return len(recs) == len(want) and all(
        abs(r["z"] - w) <= 1e-12 * max(1.0, abs(w))
        for r, w in zip(recs, want))


def check(workload, seed, reqs, warm):
    """Correctness of the warm-up outputs; mpmath only imported here."""
    import reference

    rng = random.Random("check/%s/%d" % (workload, seed))
    out = {"errors": 0, "checked": 0, "wrong": 0, "failing": 0,
           "terms_used": 0, "points": 0, "records": 0, "problems": []}
    for req, w in zip(reqs, warm):
        try:
            # verify exits 1 when a check fails: a wrong answer, not an error
            if w["code"] not in ((0, 1) if req["kind"] == "verify" else (0,)):
                raise ValueError("exit code %r: %s" % (w["code"], w["stderr"]))
            if req["kind"] == "verify":
                recs = json.loads(w["stdout"])["records"]
            else:
                recs = reference.parse_table(w["stdout"], req["format"])
                if not _grid_ok(recs, req):
                    raise ValueError("records do not match the requested grid")
        except (ValueError, KeyError) as exc:
            out["errors"] += 1
            out["problems"].append({"argv": req["argv"], "error": str(exc)})
            continue
        out["records"] += len(recs)
        if req["kind"] == "verify":
            bad = sum(r["status"] != "ok" for r in recs)
            out["points"] += sum(r["points"] for r in recs)
            out["checked"] += len(recs)
            out["wrong"] += bad
            out["failing"] += bad
            continue
        out["points"] += len(recs)
        out["terms_used"] += sum(r["terms_used"] for r in recs)
        for r in rng.sample(recs, CHECKS_PER_REQUEST):
            want = reference.reference(req["eq"], req["func"], req["params"],
                                       r["z"])
            err = reference.rel_error(r["value"], want)
            out["checked"] += 1
            if err > reference.REL_TOL:
                out["wrong"] += 1
                if abs(r["z"]) <= TRUSTED_RADIUS:
                    out["failing"] += 1
                    out["problems"].append({"argv": req["argv"],
                                            "z": repr(r["z"]),
                                            "rel_err": err})
    return out


# ---------------------------------------------------------------------------
# metrics

def _percentile(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def request_costs_s(per_pass, kernel):
    """The cost of each request of the pass, in reference CPU seconds.

    Every pass repeats the same requests, each timed together with the
    calibration kernel just before it; a request's cost is the median
    over the passes of its normalized time.
    """
    return [statistics.median(map(calibration.normalize, ts, ks))
            for ts, ks in zip(zip(*per_pass), zip(*kernel))]


def tail_quantile(n, want=0.90):
    """The highest quantile <= want with at least 10 samples beyond it."""
    q = want
    while q > 0.5 and n - math.ceil(q * n) < 10:
        q = round(q - 0.01, 2)
    return q


def run_workload(workload, seed, seconds, trace):
    reqs = workloads.build(workload, seed)
    argvs = [r["argv"] for r in reqs]
    job = json.dumps({"argvs": argvs, "seconds": seconds, "trace": trace})
    _python(["-c", _SETUP_CODE])  # fills the bytecode cache, untimed
    res = json.loads(_python([os.path.join(HERE, "worker.py")],
                             stdin=job).stdout)
    if not os.path.abspath(res["hyperd_file"]).startswith(SRC + os.sep):
        raise RuntimeError("imported hyperd from %s, not ./src"
                           % res["hyperd_file"])
    warm = res["warm"]
    chk = check(workload, seed, reqs, warm)
    stdout_all = "".join(w["stdout"] for w in warm)
    passes = len(res["latency_s"]) + len(res.get("traced_latency_s", ()))
    attempted = len(reqs) * (passes + 1)
    failed = chk["errors"] * (passes + 1) + res["mismatches"]
    rep = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "requests_per_pass": len(reqs),
        "passes": passes, "points_per_pass": chk["points"],
        "stdout_sha256": hashlib.sha256(stdout_all.encode()).hexdigest(),
        "stdout_bytes_per_pass": len(stdout_all.encode()),
        "terms_used_sum": chk["terms_used"],
        "error_frac": failed / attempted,
        "wrong_frac": chk["wrong"] / chk["checked"] if chk["checked"] else 0.0,
        "checked": chk["checked"], "wrong": chk["wrong"],
        "wrong_inside_trusted_radius": chk["failing"],
        "problems": chk["problems"][:20],
        "output_mismatches": res["mismatches"],
        "latency_s_by_pass": res["latency_s"],
        "traced_latency_s_by_pass": res.get("traced_latency_s"),
        "kernel_s_by_pass": res["kernel_s"],
        "traced_kernel_s_by_pass": res.get("traced_kernel_s"),
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and chk["failing"] == 0,
    }
    declared = _declared("per_layer" if trace else "end_to_end")
    if not trace:
        metrics = _end_to_end(rep, res, chk["points"])
    else:
        metrics = _per_layer(rep, res, chk["records"], dict(declared))
    # the JSON line carries exactly the metrics BENCHMARK.json declares;
    # anything else measured stays in the report
    rep["metrics"] = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                      for name, unit in declared}
    rep["undeclared"] = {k: v for k, v in metrics.items()
                         if k not in dict(declared)}
    return rep


def _latencies_ms(costs, repeats):
    """One sample per timed request, each at its request's cost."""
    return sorted(c * 1e3 for c in costs for _ in range(repeats))


def _end_to_end(rep, res, points):
    lat_s, kernel_s = res["latency_s"], res["kernel_s"]
    costs = request_costs_s(lat_s, kernel_s)
    lat = _latencies_ms(costs, len(lat_s))
    q = tail_quantile(len(lat))
    rep["latency_samples"] = len(lat)
    rep["tail_percentile"] = "p%d" % round(q * 100)
    setup = setup_seconds()
    # the same figures in wall-clock seconds of this host, as measured
    wall = [statistics.median(ts) for ts in zip(*lat_s)]
    wall_lat = _latencies_ms(wall, len(lat_s))
    return {
        "setup_s": statistics.median(setup),
        "points_per_s": points / sum(costs),
        "request_ms_p50": _percentile(lat, 0.5),
        "request_ms_p90": _percentile(lat, q),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "wall.points_per_s": points / sum(wall),
        "wall.request_ms_p50": _percentile(wall_lat, 0.5),
        "wall.request_ms_p90": _percentile(wall_lat, q),
        "kernel_us_median": 1e6 * statistics.median(
            k for ks in kernel_s for k in ks),
    }


def _per_layer(rep, res, records, units):
    # span times in reference CPU seconds, at the median kernel time of
    # the traced passes
    scale = calibration.normalize(1.0, statistics.median(
        k for ks in res["traced_kernel_s"] for k in ks))
    layers = {k: v * scale if units.get(k) in ("s", "ms", "us", "ns") else v
              for k, v in res["layers"].items()}
    layers["cli.us_per_record"] = (layers["cli.self_s"] / records * 1e6
                                   if records else 0.0)
    layers["cli.bytes_out"] = float(rep["stdout_bytes_per_pass"])
    layers.update(import_breakdown())
    layers["trace.overhead_pct"] = 100.0 * (
        sum(request_costs_s(res["traced_latency_s"], res["traced_kernel_s"]))
        / sum(request_costs_s(res["latency_s"], res["kernel_s"])) - 1.0)
    return layers


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _print_report(rep):
    p = lambda *a: print(*a, flush=True)  # noqa: E731
    p("== %s seed=%d seconds=%g trace=%d: %d requests/pass, %d passes, "
      "%d points/pass" % (rep["workload"], rep["seed"], rep["seconds"],
                          rep["trace"], rep["requests_per_pass"],
                          rep["passes"], rep["points_per_pass"]))
    for name, m in rep["metrics"].items():
        note = ""
        if name.startswith("request_ms_"):
            note = "  (%s of n=%d timed requests: %d distinct, each at " \
                   "the median of its %d repeats)" % (
                       "p50" if name.endswith("p50") else
                       rep["tail_percentile"], rep["latency_samples"],
                       rep["requests_per_pass"],
                       rep["latency_samples"] // rep["requests_per_pass"])
        p("  %-40s %14.6g %s%s" % (name, m["value"], m["unit"], note))
    p("  %-40s %14.6g    (%d failed of %d requests)" % (
        "error_frac", rep["error_frac"], rep["failed"], rep["attempted"]))
    p("  %-40s %14.6g    (%d of %d checked outputs; %d inside |z| <= %g)"
      % ("wrong_frac", rep["wrong_frac"], rep["wrong"], rep["checked"],
         rep["wrong_inside_trusted_radius"], TRUSTED_RADIUS))
    p("  %-40s %s" % ("stdout_sha256", rep["stdout_sha256"]))
    p("  %-40s %d" % ("terms_used_sum", rep["terms_used_sum"]))
    for name, value in rep["undeclared"].items():
        p("  %-40s %14.6g    (not in BENCHMARK.json)" % (name, value))
    p("  %-40s %s" % ("correct", rep["correct"]))
    for problem in rep["problems"]:
        p("  problem: %s" % json.dumps(problem))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", default=None,
                    help="also write the full report as JSON to this path")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperd", "cli.py")):
        sys.stderr.write("perfbench: no hyperd sources under %s\n" % SRC)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reps = []
    for name in names:
        rep = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(rep)
        reps.append(rep)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(reps, fh, indent=1)
    if len(reps) == 1:
        metrics = reps[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v
                   for r in reps for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in reps),
                      "attempted": sum(r["attempted"] for r in reps),
                      "failed": sum(r["failed"] for r in reps),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
