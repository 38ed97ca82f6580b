"""The accuracy ledger: hyperd against committed mpmath references.

    python tools/accuracy_ledger.py refs   # needs mpmath
    PYTHONPATH=src python tools/accuracy_ledger.py counts [--write]

The cases are seeded draws of three families of the 1F1 kind: F
(f_norm), U on the automatic route (u1) and the log solution log z F + D
(log_solution, m >= 0), drawn at SEED.  Each family has PER_CELL cases
(17) in each |z| band of BANDS and each quadrant of the plane, so 612
in all.  alpha
is an integer m half the time and m +- 1e-7 otherwise (the log solution,
defined at integer order alone, always takes m); theta is real half the
time and complex otherwise.

`refs` draws the cases and computes each reference with mpmath at 40
digits, checked against a second evaluation at 60 digits, and writes
them to tests/accuracy_refs.json:

- F = 1F1(a; c; z) / Gamma(c), a = (1 + alpha + theta)/2, c = 1 + alpha;
  at an integer c = 1 - k <= 0 as (a)_k z^k 1F1(a + k; 1 + k; z) / k!;
- U = U(a, c, z), Tricomi's function (mpmath.hyperu);
- log z F + D = (-1)^(m+1) Gamma(a - m) U(a, m + 1, z) (DLMF 13.2.9).

`counts` evaluates every case with the package and needs no mpmath.  It
sorts each outcome into one of OUTCOMES and prints the counts per family
and band, with the median and largest |error| / err_estimate of the
bounded outcomes; with --write it rewrites ACCURACY.json, which
tests/test_accuracy.py reads as the ratchet: no count of silently wrong
outcomes may rise and no count of bounded ones may fall.
"""

import argparse
import json
import math
import pathlib
import random
import statistics
import sys
from decimal import Decimal, localcontext

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFS = ROOT / "tests" / "accuracy_refs.json"
LEDGER = ROOT / "ACCURACY.json"

FAMILIES = ("F1", "U1", "logsol1")
# |z| bands, [lo, hi) but the last, which holds its upper end
BANDS = (("0-8", 0.0, 8.0), ("8-20", 8.0, 20.0), ("20-60", 20.0, 60.0))
# bounded: |error| <= err_estimate; unbounded: not bounded, but within
# WRONG_REL relative or flagged; typed_error: a HyperdError; wrong: off by
# more than WRONG_REL relative, above its estimate and unflagged, or any
# other exception
OUTCOMES = ("bounded", "unbounded", "typed_error", "wrong")
WRONG_REL = 1e-8
NEAR_INT = 1e-7
DIGITS = 40
# the draw: tests/test_accuracy.py and ACCURACY.json hold for these alone
SEED = 2020
PER_CELL = 17


def _draw(rng, family, band, quadrant):
    # one case: (theta, alpha, z) in the given band and quadrant
    _, lo, hi = band
    r = math.exp(rng.uniform(math.log(0.05), math.log(hi))) if lo == 0.0 else rng.uniform(lo, hi)
    phase = (quadrant + rng.random()) * math.pi / 2
    z = complex(r * math.cos(phase), r * math.sin(phase))
    if family == "logsol1":
        alpha = float(rng.randint(0, 5))
    else:
        alpha = float(rng.randint(-3, 5))
        if rng.random() < 0.5:
            alpha += rng.choice((-NEAR_INT, NEAR_INT))
    theta = complex(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0) if rng.random() < 0.5 else 0.0)
    return theta, alpha, z


def draw_cases():
    """The cases as dicts of family, band, theta, alpha and z, in order."""
    rng = random.Random(SEED)
    cases = []
    for family in FAMILIES:
        for band in BANDS:
            for quadrant in range(4):
                for _ in range(PER_CELL):
                    theta, alpha, z = _draw(rng, family, band, quadrant)
                    cases.append({"family": family, "band": band[0], "theta": [theta.real, theta.imag],
                                  "alpha": alpha, "z": [z.real, z.imag]})
    return cases


def _reference(mp, family, theta, alpha, z):
    # the mpmath value at the working precision of mp (module docstring)
    theta, alpha, z = mp.mpc(*theta), mp.mpf(alpha), mp.mpc(*z)
    a, c = (1 + alpha + theta) / 2, 1 + alpha
    if family == "U1":
        return mp.hyperu(a, c, z)
    if family == "logsol1":
        m = int(alpha)
        return (-1) ** (m + 1) * mp.gamma(a - m) * mp.hyperu(a, m + 1, z)
    if c == int(c) and c <= 0:
        k = 1 - int(c)
        return mp.rf(a, k) * z ** k * mp.hyp1f1(a + k, 1 + k, z) / mp.factorial(k)
    return mp.hyp1f1(a, c, z) * mp.rgamma(c)


def write_refs():
    import mpmath as mp

    cases = draw_cases()
    for case in cases:
        args = (case["family"], case["theta"], case["alpha"], case["z"])
        with mp.workdps(DIGITS + 20):
            check = _reference(mp, *args)
        with mp.workdps(DIGITS):
            ref = _reference(mp, *args)
            if abs(ref - check) > mp.mpf(10) ** (10 - DIGITS) * abs(check):
                raise SystemExit(f"reference unstable at {case}: {ref} against {check}")
            case["ref"] = [mp.nstr(ref.real, DIGITS), mp.nstr(ref.imag, DIGITS)]
    head = json.dumps({"seed": SEED, "per_cell": PER_CELL, "digits": DIGITS})[:-1]
    REFS.write_text(head + ', "cases": [\n' + ",\n".join(json.dumps(c) for c in cases) + "\n]}\n")
    print(f"{len(cases)} references written to {REFS.relative_to(ROOT)}")


def _evaluator(family):
    from hyperd.dfun import log_solution
    from hyperd.ffun import F1, f_norm
    from hyperd.ufun import u1

    if family == "F1":
        return lambda theta, alpha, z: f_norm(F1(theta, alpha), z)
    if family == "U1":
        return lambda theta, alpha, z: u1(theta, alpha, z)
    return lambda theta, alpha, z: log_solution(F1(theta, alpha), z)


def outcome(case):
    """(outcome, |error| / err_estimate or None) of the package at case."""
    from hyperd.errors import HyperdError

    theta, alpha, z = complex(*case["theta"]), case["alpha"], complex(*case["z"])
    try:
        r = _evaluator(case["family"])(theta, alpha, z)
    except HyperdError:
        return "typed_error", None
    except Exception:  # a raw exception breaks the result contract
        return "wrong", None
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        ref_re, ref_im = (Decimal(s) for s in case["ref"])
        err = ((Decimal(r.value.real) - ref_re) ** 2 + (Decimal(r.value.imag) - ref_im) ** 2).sqrt()
        size = (ref_re ** 2 + ref_im ** 2).sqrt()
        bounded = err <= Decimal(r.err_estimate)
        close = err <= Decimal(WRONG_REL) * size
    ratio = float(err) / r.err_estimate if r.err_estimate else (0.0 if not err else math.inf)
    if bounded:
        return "bounded", ratio
    return ("unbounded" if close or r.flags else "wrong"), ratio


def counts(cases):
    """{family: {band: {outcome: count}}} over cases, and the bounded
    |error| / err_estimate ratios of each family and band."""
    table = {f: {b[0]: dict.fromkeys(OUTCOMES, 0) for b in BANDS} for f in FAMILIES}
    ratios = {f: {b[0]: [] for b in BANDS} for f in FAMILIES}
    for case in cases:
        kind, ratio = outcome(case)
        table[case["family"]][case["band"]][kind] += 1
        if kind == "bounded":
            ratios[case["family"]][case["band"]].append(ratio)
    return table, ratios


def load_cases():
    return json.loads(REFS.read_text())["cases"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("refs", help="draw the cases and write their mpmath references")
    cnt = sub.add_parser("counts", help="count the package's outcomes over the cases")
    cnt.add_argument("--write", action="store_true", help=f"rewrite {LEDGER.name}")
    args = ap.parse_args(argv)
    if args.command == "refs":
        write_refs()
        return 0
    table, ratios = counts(load_cases())
    print(f"{'family':8} {'band':6} " + " ".join(f"{o:>11}" for o in OUTCOMES)
          + "   bounded |err|/est: median, max")
    for family, bands in table.items():
        for band, row in bands.items():
            r = ratios[family][band]
            spread = f"{statistics.median(r):.2g}, {max(r):.2g}" if r else "-"
            print(f"{family:8} {band:6} " + " ".join(f"{row[o]:>11}" for o in OUTCOMES) + f"   {spread}")
    if args.write:
        LEDGER.write_text(json.dumps({"cases": str(REFS.relative_to(ROOT)), "outcomes": list(OUTCOMES),
                                      "counts": table}, indent=2) + "\n")
        print(f"written to {LEDGER.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
