"""Spans around the public functions of every hyperd layer.

Used by the traced run only; the timed run never loads this module's
wrappers.  Each public function of a layer module is replaced by a
wrapper in every hyperd namespace that binds it (``from .ffun import
f_norm`` in dfun, ufun, relations, oracle and cli, and the defining
module itself), so calls between layers are seen wherever they start.

A span records the function, its parent span, its duration and the time
its child spans took, so self time = duration - children.  Spans of one
request are kept in memory and folded into per-pass totals when the
request ends.
"""

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("series", "gammakit", "ffun", "dfun", "ufun", "relations",
          "oracle", "cli")
U_FUNCS = ("u0", "u1", "u2")
ROUTES = ("LogPlusD", "Connection", "Asymptotic2F0")
# position of z among the positional arguments of u0, u1, u2
_U_Z_ARG = {"u0": 1, "u1": 2, "u2": 3}
# functions whose inclusive durations are kept for percentiles
_TIMED = ("ffun.f_norm", "dfun.d_eval", "relations.sweep_record",
          "oracle.limit_alpha")

# span fields
_FID, _PARENT, _DUR, _CHILD, _ARGS, _RAISED, _OUT = range(7)


def _terms(res):
    return res.terms_used


# per-function result extractors: terms summed by the kernel, points
# drawn by a sweep
_EXTRACT = {"series.sum_power_series": _terms,
            "relations.sweep_record": len}


class Tracer:
    def __init__(self):
        self.names = []          # fid -> "layer.function"
        self.spans = []          # spans of the current request
        self.stack = []          # indices of the open spans
        self.calls = {}          # "layer.function" -> count
        self.self_s = {}         # layer -> self seconds
        self.raised = {layer: 0 for layer in LAYERS}
        self.durations = {name: [] for name in _TIMED}
        self.routes = {r: [] for r in ROUTES}
        self.route_other = 0
        self.terms = 0
        self.sweep_points = 0
        self.kernel_self_s = 0.0

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap every public function of every layer, in every namespace."""
        modules = [m for n, m in sys.modules.items()
                   if n == "hyperd" or n.startswith("hyperd.")]
        for layer in LAYERS:
            mod = sys.modules["hyperd." + layer]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap("%s.%s" % (layer, name), fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        extract = _EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [fid, parent, 0.0, 0.0, (args, kwargs), False, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[_RAISED] = True
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                rec[_DUR] = dur
                if parent >= 0:
                    spans[parent][_CHILD] += dur
            if extract is not None:
                rec[_OUT] = extract(out)
            return out

        return traced

    # --- folding ---------------------------------------------------------

    def fold(self):
        """Add the spans of the finished request to the totals."""
        spans, names = self.spans, self.names
        n = len(spans)
        fname = [names[s[_FID]] for s in spans]
        is_u = [f.startswith("ufun.u") and f[5:] in U_FUNCS for f in fname]
        # route evidence, propagated from every span to its ancestors
        bits = [0] * n
        n_fnorm = [0] * n
        for i in range(n - 1, -1, -1):
            s = spans[i]
            f = fname[i]
            p = s[_PARENT]
            if f == "dfun.d_eval":
                bits[i] |= 1
            elif f == "ffun.f2f0_asymptotic":
                bits[i] |= 2
            elif f == "ffun.f_norm" and p >= 0 and is_u[p]:
                n_fnorm[p] += 1
                if _f_norm_z(s) == 1.0 / _u_z(spans[p], fname[p]):
                    bits[i] |= 2  # the 1/z series of the 2F1 U
            if p >= 0:
                bits[p] |= bits[i]

        self_s = self.self_s
        calls = self.calls
        for i, s in enumerate(spans):
            f = fname[i]
            layer = f.split(".", 1)[0]
            own = s[_DUR] - s[_CHILD]
            calls[f] += 1
            self_s[layer] = self_s.get(layer, 0.0) + own
            if s[_RAISED]:
                self.raised[layer] += 1
            if f in self.durations:
                self.durations[f].append(s[_DUR])
            if f == "series.sum_power_series":
                self.kernel_self_s += own
                if s[_OUT] is not None:
                    self.terms += s[_OUT]
            elif f == "relations.sweep_record" and s[_OUT] is not None:
                self.sweep_points += s[_OUT]
            if is_u[i] and not (s[_PARENT] >= 0 and is_u[s[_PARENT]]):
                route = _route(bits[i], n_fnorm[i])
                if route is None:
                    self.route_other += 1
                else:
                    self.routes[route].append(s[_DUR])
        spans.clear()

    def metrics(self, passes):
        """Per-layer metrics per pass of the request list."""
        per = 1.0 / passes

        def count(name):
            return self.calls.get(name, 0) * per

        def q_us(name, q, scale=1e6):
            vals = self.durations[name]
            return _quantile(vals, q) * scale

        def layer_s(layer):
            return self.self_s.get(layer, 0.0) * per

        gk_calls = sum(v for k, v in self.calls.items()
                       if k.startswith("gammakit.")) * per
        out = {
            "series.sum_calls": count("series.sum_power_series"),
            "series.terms": self.terms * per,
            "series.self_s": layer_s("series"),
            "series.ns_per_term": (self.kernel_self_s / self.terms * 1e9
                                   if self.terms else 0.0),
            "ffun.f_norm.calls": count("ffun.f_norm"),
            "ffun.f_norm.us_p50": q_us("ffun.f_norm", 0.5),
            "ffun.f_norm.us_p99": q_us("ffun.f_norm", 0.99),
            "ffun.f_norm_jet.calls": count("ffun.f_norm_jet"),
            "ffun.f2f0_asymptotic.calls": count("ffun.f2f0_asymptotic"),
            "ffun.self_s": layer_s("ffun"),
            "dfun.d_eval.calls": count("dfun.d_eval"),
            "dfun.d_eval.us_p50": q_us("dfun.d_eval", 0.5),
            "dfun.d_eval.us_p99": q_us("dfun.d_eval", 0.99),
            "dfun.d_eval_jet.calls": count("dfun.d_eval_jet"),
            "dfun.log_solution.calls": count("dfun.log_solution"),
            "dfun.self_s": layer_s("dfun"),
            "gammakit.calls": gk_calls,
            "gammakit.self_s": layer_s("gammakit"),
            "gammakit.us_per_call": (layer_s("gammakit") / gk_calls * 1e6
                                     if gk_calls else 0.0),
        }
        for route in ROUTES:
            vals = self.routes[route]
            out["ufun.%s.calls" % route] = len(vals) * per
            out["ufun.%s.us_p50" % route] = _quantile(vals, 0.5) * 1e6
        out.update({
            "ufun.other_route.calls": self.route_other * per,
            "ufun.bessel.calls": count("ufun.bessel"),
            "ufun.self_s": layer_s("ufun"),
            "relations.sweep_record.calls": count("relations.sweep_record"),
            "relations.sweep_record.ms_p50":
                q_us("relations.sweep_record", 0.5, 1e3),
            "relations.points": self.sweep_points * per,
            "relations.self_s": layer_s("relations"),
            "oracle.limit_alpha.calls": count("oracle.limit_alpha"),
            "oracle.limit_alpha.us_p50": q_us("oracle.limit_alpha", 0.5),
            "oracle.self_s": layer_s("oracle"),
            "cli.self_s": layer_s("cli"),
        })
        for layer in LAYERS:
            out["%s.raised" % layer] = self.raised[layer] * per
        return out


def _quantile(vals, q):
    if len(vals) < 2:
        return vals[0] if vals else 0.0
    return statistics.quantiles(vals, n=100, method="inclusive")[
        round(q * 100) - 1]


def _u_z(span, fname):
    args, kwargs = span[_ARGS]
    pos = _U_Z_ARG[fname[5:]]
    return complex(args[pos] if len(args) > pos else kwargs["z"])


def _f_norm_z(span):
    args, kwargs = span[_ARGS]
    return complex(args[1] if len(args) > 1 else kwargs["z"])


def _route(bits, n_fnorm):
    """The U route, read off the spans below the U call."""
    if bits & 1:
        return "LogPlusD"
    if bits & 2:
        return "Asymptotic2F0"
    if n_fnorm == 2:
        return "Connection"
    return None
