"""Command-line front end.

Subcommands:

  eval     evaluate a function at points (--z, repeatable) or a --grid
  table    same as eval but grid-only, CSV by default
  verify   run identity suites; exit 0 iff every check passes
  catalog  list the relation-key namespace

Numbers are serialized with 17 significant digits so output round-trips
doubles exactly and is bit-stable across runs: identical requests give
byte-identical output, and the CSV and JSON encodings of one run carry
identical numeric fields.  The one exception is a non-finite float, which
JSON has no literal for: JSON writes it as null, CSV as inf, -inf or nan.
Only a verify residual can be one; an evaluator raises DomainError instead.
Exit codes: 0 success, 1 verification failure, 2 domain/parameter errors
(a structured error record goes to stderr), a flag the request does not
use among them.  Every series stops by the fixed tolerance REL_TOL within
the fixed budget MAX_TERMS; no subcommand takes an option for either, and
the eval/table header echoes both.

The argument parser is built once per process, on the first main()
call, and reused by every later call; each eval/table record is written
by one format string, the same bytes the generic writer gives it.  A
request formats each distinct real or imaginary part of z once, since a
grid repeats its axis values from point to point.

verify sweeps the selected catalog records through
relations.sweep_catalog and adds the Bessel and theorem consistency
checks; both kinds of check become records of one shape.
"""

import argparse
import functools
import json
import math
import sys

from .errors import DomainError, HyperdError
from .ffun import (F0, F1, F2, PARAMS_BY_KIND, prepare_f2_norm_I,
                   prepare_f_norm, prepare_f_second)
from .dfun import prepare_d_eval, prepare_d_eval_I, prepare_log_solution
from .series import MAX_TERMS, REL_TOL
from .ufun import URoute, bessel, prepare_u, u0
from . import oracle, relations

__all__ = ["main"]


# ---------------------------------------------------------------------------
# serialization

def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _json_float(x):
    return "%.17g" % x if math.isfinite(x) else "null"


def _json_str(s):
    return json.dumps(s, ensure_ascii=False)


def _to_json(obj):
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, (bool, int)):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = ("%s:%s" % (_to_json(str(k)), _to_json(v))
                 for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    raise TypeError("cannot serialize %r" % (type(obj),))


def _cell(v):
    return v if isinstance(v, str) else _fmt(v)


def _flat(d):
    return " ".join("%s=%s" % (k, _cell(v)) for k, v in d.items())


def _csv_cell(v):
    """v as one CSV field, quoted as RFC 4180 asks where it holds a comma,
    a quote, CR or LF, with every quote inside doubled."""
    s = "|".join(str(x) for x in v) if isinstance(v, (list, tuple)) else _cell(v)
    if any(c in s for c in ',"\r\n'):
        return '"%s"' % s.replace('"', '""')
    return s


def _emit(doc, records, fmt, stream):
    """doc: header mapping; records: list of flat dicts (same keys)."""
    keys = list(records[0]) if records else []
    if fmt == "json":
        rows = [_to_json(rec) for rec in records]
    else:
        rows = [",".join(_csv_cell(rec[k]) for k in keys) + "\n"
                for rec in records]
    _write(doc, keys, rows, fmt, stream)


def _write(doc, keys, rows, fmt, stream):
    """doc: header mapping; rows: records already rendered in fmt, JSON
    objects or CSV lines (newline included) with the columns keys."""
    if fmt == "json":
        # _to_json(doc) with a records member appended
        stream.write('%s,"records":[%s]}\n' % (_to_json(doc)[:-1], ",".join(rows)))
        return
    for k, v in doc.items():
        if isinstance(v, dict):
            stream.write("# %s %s\n" % (k, _flat(v)))
        elif isinstance(v, (list, tuple)):
            parts = (_flat(x) if isinstance(x, dict) else _cell(x) for x in v)
            stream.write("# %s=%s\n" % (k, "|".join(parts)))
        else:
            stream.write("# %s=%s\n" % (k, _cell(v)))
    if rows:
        stream.write(",".join(keys) + "\n")
        stream.write("".join(rows))


def _error(exc):
    sys.stderr.write(_to_json({"error": {"type": type(exc).__name__,
                                         "message": str(exc)}}) + "\n")
    return 2


# ---------------------------------------------------------------------------
# request parsing

def _parse_complex(text):
    t = text.strip()
    t = t[:-1] + "j" if t[-1:] in ("i", "I") else t  # only the imaginary unit: inf, nan stay
    try:
        return complex(t)
    except ValueError:
        raise DomainError("cannot parse complex literal %r "
                          "(use forms like 0.5, -0.4, 1+0.5i)" % (text,))


def _linspace(a, b, n):
    if n < 1:
        raise DomainError("grid axis needs at least one point")
    if n == 1:
        return [a]
    step = (b - a) / (n - 1)
    return [a + step * k for k in range(n)]


def _parse_grid(spec):
    """re0:re1:n,im0:im1:m -> row-major points (imaginary axis outer)."""
    try:
        re_part, im_part = spec.split(",")
        r0, r1, rn = re_part.split(":")
        i0, i1, im = im_part.split(":")
        res = _linspace(float(r0), float(r1), int(rn))
        ims = _linspace(float(i0), float(i1), int(im))
    except (ValueError, DomainError) as exc:
        raise DomainError("bad grid spec %r (want re0:re1:n,im0:im1:m): %s"
                          % (spec, exc))
    return [complex(re, imv) for imv in ims for re in res]


# classical parameter names of each kind, in from_classical order
_CLASSICAL = {"0f1": ("c",), "1f1": ("a", "c"), "2f1": ("a", "b", "c")}


def _flags(names):
    return ", ".join("--" + k for k in names)


def _resolve_params(args):
    """Returns (lie params dict, classical echo dict).

    Exactly one convention may be given; the other is derived once.  A
    flag the request does not use is a DomainError naming it: --m
    together with --alpha, a parameter the kind lacks, and --route for a
    --func other than U.  So is a --func that the --eq does not take.
    """
    lie_given = [k for k in ("alpha", "m", "theta", "beta", "mu")
                 if getattr(args, k) is not None]
    cls_given = [k for k in ("a", "b", "c") if getattr(args, k) is not None]
    if lie_given and cls_given:
        raise DomainError("give either Lie-algebraic (--m/--alpha/--theta/"
                          "--beta/--mu) or classical (--a/--b/--c) "
                          "parameters, not both")
    if args.m is not None and args.alpha is not None:
        raise DomainError("give --m or --alpha, not both")
    eq = args.eq
    cls = PARAMS_BY_KIND[eq]
    names = _CLASSICAL[eq]
    extra = [k for k in cls.__match_args__ if k != "alpha"]
    unused = [k for k in lie_given + cls_given if k not in ("m", "alpha", *extra, *names)]
    if args.route is not None and args.func != "U":
        unused.append("route")
    if unused:
        raise DomainError("--eq %s --func %s does not use %s" % (eq, args.func, _flags(unused)))
    if cls_given:
        values = [getattr(args, k) for k in names]
        if None in values:
            raise DomainError("%s classical form needs %s" % (eq, _flags(names)))
        p = cls.from_classical(*values)
    else:
        alpha = args.alpha if args.m is None else float(args.m)
        if alpha is None:
            raise DomainError("missing --m or --alpha")
        values = {k: getattr(args, k) for k in extra}
        if None in values.values():
            raise DomainError("%s needs %s" % (eq, _flags(extra)))
        p = cls(alpha=alpha, **values)
    if args.func in ("FI", "DI") and eq != "2f1":
        raise DomainError("--func %s is defined for --eq 2f1 only" % (args.func,))
    lie = {"alpha": p.alpha, **{k: getattr(p, k) for k in extra}}
    return lie, dict(zip(names, p.to_classical()))


# --func -> the prepare function of the point function it names, each
# taking the parameter set of the request; U takes the route too
_PREPARE = {"F": prepare_f_norm, "second": prepare_f_second,
            "FI": prepare_f2_norm_I, "D": prepare_d_eval,
            "DI": prepare_d_eval_I, "logsol": prepare_log_solution,
            "U": prepare_u}


def _evaluator(args, lie):
    """The request's callable of one point, prepared here: the parameter
    set's faults (a D order that is not an integer, a singular D) come
    after those of the request and of its point list, as when each point
    is evaluated alone."""
    prepare, p = _PREPARE[args.func], PARAMS_BY_KIND[args.eq](**lie)
    return prepare(p, args.route) if args.func == "U" else prepare(p)


# ---------------------------------------------------------------------------
# eval / table

def _points(args):
    pts = []
    if args.z:
        pts.extend(_parse_complex(s) for s in args.z)
    if args.grid:
        pts.extend(_parse_grid(args.grid))
    if not pts:
        raise DomainError("no evaluation points: give --z or --grid")
    return pts


# one eval/table record per point, each written by one format string;
# the fields and their rendering are those _emit gives the same record
# as a dict, non-finite floats included (null in JSON)
_EVAL_KEYS = ("z_re", "z_im", "value_re", "value_im", "err_estimate",
              "terms_used", "flags")
_CSV_ROW = "%s,%s,%.17g,%.17g,%.17g,%d,%s\n"
_JSON_ROW = ('{"z_re":%s,"z_im":%s,"value_re":%s,"value_im":%s,'
             '"err_estimate":%s,"terms_used":%d,"flags":[%s]}')


def cmd_eval(args, stream):
    lie, classical = _resolve_params(args)
    points = _points(args)
    evaluate = _evaluator(args, lie)
    as_json = args.format == "json"
    label = _json_float if as_json else "%.17g".__mod__
    # z part -> its text.  0.0 == -0.0, so a zero is keyed by its str;
    # a nan key matches no other key.
    labels = {}
    rows = []
    for z in points:
        res = evaluate(z)
        v = res.value
        x, y = z.real, z.imag
        kx, ky = x or str(x), y or str(y)
        zx = labels.get(kx) or labels.setdefault(kx, label(x))
        zy = labels.get(ky) or labels.setdefault(ky, label(y))
        if as_json:
            flags = ",".join(map(_json_str, sorted(res.flags))) if res.flags else ""
            rows.append(_JSON_ROW % (
                zx, zy, _json_float(v.real), _json_float(v.imag),
                _json_float(res.err_estimate), res.terms_used, flags))
        else:
            flags = "|".join(sorted(res.flags)) if res.flags else ""
            rows.append(_CSV_ROW % (zx, zy, v.real, v.imag, res.err_estimate,
                                    res.terms_used, flags))
    doc = {"command": args.command, "eq": args.eq, "func": args.func,
           "params": lie, "classical": classical,
           "rel_tol": REL_TOL, "max_terms": MAX_TERMS}
    if args.route:
        doc["route"] = args.route
    _write(doc, _EVAL_KEYS, rows, args.format, stream)
    return 0


# ---------------------------------------------------------------------------
# verify

def _theorem_checks():
    """LogPlusD values of the degenerate theorems against the paper's own
    limit: the Connection formula differentiated in alpha at alpha = m
    (de l'Hospital's rule, oracle.limit_alpha), at a scaled tolerance of
    1e-12.  Each case prepares both sides once for its two points."""
    checks = []
    z0, z1 = complex(0.7, 0.0), complex(-0.4, 0.6)
    zneg = complex(-0.5, 0.0)
    for m in range(0, 4):
        for name, p, zs in (("th1", F0(m), (z0, z1)), ("th2", F1(0.7, m), (z0, z1)),
                            ("udef", F2(m, 0.3, 0.2), (zneg, z1))):
            direct = prepare_u(p, URoute.LOG_PLUS_D)
            limit = oracle._prepare_limit_alpha(p)
            for j, z in enumerate(zs):
                checks.append(("theorem.%s.m%d.z%d" % (name, m, j), direct(z).value,
                               limit(z).value))
    return [(key, abs(a - b) / max(1.0, abs(a), abs(b)), 1e-12)
            for key, a, b in checks]


def _bessel_series(kind, m, z, terms=40):
    # direct product-form expansions, independent of the library series
    s = 0.0 + 0j
    sign = -1.0 if kind == "J" else 1.0
    for k in range(terms):
        s += (sign ** k) * (z / 2.0) ** (2 * k + m) / \
            (math.factorial(k) * math.factorial(k + m))
    return s


def _bessel_checks():
    out = []
    zs = (0.6, 1.3)
    zc = complex(0.8, 0.5)
    for m in range(0, 4):
        for j, z in enumerate(zs):
            # modified Bessel function of the second kind two ways
            k_log = bessel("K", m, z).value
            k_u = 0.5 * math.sqrt(math.pi) * (z / 2.0) ** m * \
                u0(m, z * z / 4.0, URoute.LOG_PLUS_D).value
            out.append(("bessel.K.route.m%d.z%d" % (m, j),
                        abs(k_log - k_u) / max(1.0, abs(k_log), abs(k_u)),
                        1e-8))
            for kind in ("I", "J"):
                v = bessel(kind, m, z).value
                w = _bessel_series(kind, m, z)
                out.append(("bessel.%s.series.m%d.z%d" % (kind, m, j),
                            abs(v - w) / max(1.0, abs(v), abs(w)), 1e-9))
        h1 = bessel("H1", m, zc).value
        h2 = bessel("H2", m, zc).value
        jj = bessel("J", m, zc).value
        out.append(("bessel.H.sum.m%d" % (m,),
                    abs(h1 + h2 - 2.0 * jj) /
                    max(1.0, abs(h1), abs(h2), abs(jj)), 1e-9))
    return out


def _suite_ids(suite, catalog):
    if suite in ("all", "catalog"):
        return sorted(catalog)
    if suite in ("0f1", "1f1", "2f1"):
        return sorted(k for k, r in catalog.items() if r.kind == suite)
    if suite == "kummer":
        return sorted(k for k, r in catalog.items() if r.family == "Kummer")
    if suite == "quadratic":
        return sorted(k for k, r in catalog.items()
                      if r.family == "Quadratic")
    if suite in ("bessel", "theorems"):
        return []
    raise DomainError("unknown suite %r" % (suite,))


def cmd_verify(args, stream, catalog=None):
    if args.points < 1:
        raise DomainError("--points must be at least 1, got %d" % args.points)
    if not 0.0 <= args.tol < math.inf:
        raise DomainError("--tol must be finite and at least 0, got %s" % args.tol)
    catalog = catalog if catalog is not None else relations.build_catalog()
    records = []
    failures = []
    max_residual = 0.0
    extra = []

    if args.id:
        if args.suite:
            raise DomainError("give --suite or --id, not both")
        ids = [args.id]
    else:
        suite = args.suite or "all"
        ids = _suite_ids(suite, catalog)
        if suite in ("all", "bessel"):
            extra += _bessel_checks()
        if suite in ("all", "theorems"):
            extra += _theorem_checks()

    worst = relations.sweep_catalog(catalog, n=args.points, ids=ids)
    checks = [(key, catalog[key].family, args.points, worst[key], args.tol)
              for key in ids]
    checks += [(key, "Consistency", 1, w, tol) for key, w, tol in sorted(extra)]
    for key, family, points, w, tol in checks:
        ok = w <= tol
        records.append({"id": key, "family": family, "points": points,
                        "max_scaled_residual": w,
                        "status": "ok" if ok else "FAIL"})
        max_residual = max(max_residual, w)
        if not ok:
            failures.append({"id": key, "max_scaled_residual": w})

    doc = {"command": "verify",
           "suite": args.id or args.suite or "all",
           "points": args.points, "tolerance": args.tol,
           "relations_checked": len(records),
           "max_residual": max_residual,
           "failures": failures}
    _emit(doc, records, args.format, stream)
    return 1 if failures else 0


def cmd_catalog(args, stream):
    catalog = relations.build_catalog()
    records = []
    for key in sorted(catalog):
        rec = catalog[key]
        records.append({"id": rec.id, "kind": rec.kind,
                        "family": rec.family, "signature": rec.signature,
                        "constant": rec.constant,
                        "statement": rec.statement})
    _emit({"command": "catalog", "count": len(records)}, records,
          args.format, stream)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _add_param_args(sp):
    sp.add_argument("--eq", required=True, choices=("0f1", "1f1", "2f1"))
    sp.add_argument("--func", default="F",
                    choices=("F", "second", "D", "logsol", "U", "FI", "DI"))
    sp.add_argument("--m", type=int, default=None,
                    help="integer parameter (Lie convention)")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--a", type=float, default=None,
                    help="classical parameter a")
    sp.add_argument("--b", type=float, default=None,
                    help="classical parameter b")
    sp.add_argument("--c", type=float, default=None,
                    help="classical parameter c")
    sp.add_argument("--route", default=None,
                    choices=tuple(r.value for r in URoute),
                    help="force a U evaluation route")


# built on the first main() call and reused after that: each parse
# returns a fresh namespace, and building the 42 actions takes about a
# tenth of a 294-point F table request
@functools.cache
def _parser():
    ap = argparse.ArgumentParser(
        prog="hyperd",
        description="normalized hypergeometric solutions, their "
                    "logarithmic companions, and identity verification")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a function at points")
    _add_param_args(pe)
    pe.add_argument("--z", action="append", default=[],
                    help="complex point a+bi (repeatable)")
    pe.add_argument("--grid", default=None,
                    help="re0:re1:n,im0:im1:m (row-major, imaginary outer)")
    pe.add_argument("--format", default="json", choices=("json", "csv"))

    pt = sub.add_parser("table", help="evaluate over a grid, CSV by default")
    _add_param_args(pt)
    pt.add_argument("--grid", required=True,
                    help="re0:re1:n,im0:im1:m (row-major, imaginary outer)")
    pt.add_argument("--format", default="csv", choices=("json", "csv"))

    pv = sub.add_parser("verify", help="run identity suites")
    pv.add_argument("--suite", default=None,
                    choices=("all", "catalog", "0f1", "1f1", "2f1",
                             "kummer", "quadratic", "bessel", "theorems"))
    pv.add_argument("--id", default=None,
                    help="single relation key (see `hyperd catalog`)")
    pv.add_argument("--points", type=int, default=relations.SWEEP_POINTS)
    pv.add_argument("--tol", type=float, default=relations.TOL_SWEEP)
    pv.add_argument("--format", default="json", choices=("json", "csv"))

    pc = sub.add_parser("catalog", help="list relation records")
    pc.add_argument("--format", default="json", choices=("json", "csv"))
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args, sys.stdout)
        if args.command == "table":
            args.z = []
            return cmd_eval(args, sys.stdout)
        if args.command == "verify":
            return cmd_verify(args, sys.stdout)
        if args.command == "catalog":
            return cmd_catalog(args, sys.stdout)
        raise DomainError("unknown command %r" % (args.command,))
    except (HyperdError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
