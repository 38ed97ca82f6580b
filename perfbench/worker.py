"""Closed-loop client: one process, one thread, one request at a time.

Reads a JSON job from stdin -- the argv list of one pass, the seconds to
measure and whether to trace -- and drives ``hyperd.cli.main`` in
process with stdout and stderr captured.  Writes one JSON result to its
real stdout.  Run by run.py as a fresh child, so its peak RSS is the
memory of the workload alone.

Order of work:
  1. one warm-up pass (untimed); its outputs go back for checking;
  2. timed passes without tracing, until the time is up; the
     calibration kernel is timed just before each request, outside the
     request's own timer;
  3. with tracing: the wrappers are installed and traced passes follow,
     so per-layer numbers never come from the timed passes.
Only whole passes are timed, so every pass holds the same work.
"""

import io
import json
import resource
import sys
import time

import calibration


def _call(main, argv):
    """(exit code or "raised", seconds, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raise out of the CLI is a failed request
        code = "raised"
        err.write("%s: %s" % (type(exc).__name__, exc))
    finally:
        dt = time.perf_counter() - t0
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return code, dt, out.getvalue(), err.getvalue()


def _passes(main, argvs, seconds, expect, on_request=None):
    """Whole passes until `seconds` have gone by (at least one).

    Returns (per-pass lists of request seconds, per-pass lists of the
    kernel time just before each request, mismatches): a mismatch is an
    output or exit code that differs from the warm-up.
    """
    lat, cal = [], []
    mismatches = 0
    start = time.perf_counter()
    while not lat or time.perf_counter() - start < seconds:
        times, speeds = [], []
        for argv, (code0, text0) in zip(argvs, expect):
            speeds.append(calibration.kernel_seconds())
            code, dt, text, _ = _call(main, argv)
            if on_request is not None:
                on_request()
            times.append(dt)
            if code != code0 or text != text0:
                mismatches += 1
        lat.append(times)
        cal.append(speeds)
    return lat, cal, mismatches


def peak_rss_kb():
    """Peak resident set size of this process image, in KiB.

    VmHWM where /proc has it: ru_maxrss also counts the memory of the
    process that launched this one, which Linux carries across exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(job):
    from hyperd import cli

    argvs = job["argvs"]
    warm = [_call(cli.main, argv) for argv in argvs]
    expect = [(code, text) for code, _, text, _ in warm]
    result = {
        "hyperd_file": sys.modules["hyperd"].__file__,
        "warm": [{"code": code, "stdout": text, "stderr": err}
                 for code, _, text, err in warm],
    }
    seconds = job["seconds"]
    if not job["trace"]:
        lat, cal, bad = _passes(cli.main, argvs, seconds, expect)
        result.update(latency_s=lat, kernel_s=cal, mismatches=bad,
                      maxrss_kb=peak_rss_kb())
        return result

    import tracing

    # half the time untraced, half traced: the ratio is the overhead
    lat, cal, bad = _passes(cli.main, argvs, seconds / 2.0, expect)
    tracer = tracing.Tracer()
    tracer.install()
    traced, traced_cal, bad_traced = _passes(cli.main, argvs, seconds / 2.0,
                                             expect, tracer.fold)
    result.update(latency_s=lat, kernel_s=cal, traced_latency_s=traced,
                  traced_kernel_s=traced_cal, mismatches=bad + bad_traced,
                  layers=tracer.metrics(len(traced)))
    return result


def main():
    json.dump(run(json.load(sys.stdin)), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
