"""Seeded request lists for the three workloads.

A workload is one *pass*: a list of requests, each an argv for
``hyperd.cli.main`` plus the metadata the checker needs (equation,
function, parameters, grid).  The worker sees only the argv.  Every pass
is built from a fixed list of templates, each used a fixed number of
times, so the mix of work is the same for every seed; the seed only
draws parameters and grid corners inside each template's ranges.  That
keeps throughput and latency comparable across seeds.
"""

import random

WORKLOADS = ("table_log", "table_f", "verify_all")

# Copies of every template in one pass: about 80-100 distinct requests,
# so the latency percentiles rest on many requests.
REPEATS = {"table_log": 6, "table_f": 9}
# verify_all: the --points of the requests of one pass, in the order the
# seed draws.  A fixed mix around 25 keeps the median request the same
# for every seed.
VERIFY_POINTS = (24, 24, 24, 25, 25, 25, 25, 26, 26, 26)
# grid points per table request, the same for every seed: a few hundred
GRID_RE, GRID_IM = 21, 14


def linspace(a, b, n):
    """The grid axis as ``hyperd table --grid`` builds it."""
    if n == 1:
        return [a]
    step = (b - a) / (n - 1)
    return [a + step * k for k in range(n)]


def grid_points(grid):
    r0, r1, nr, i0, i1, ni = grid
    return [complex(re, im) for im in linspace(i0, i1, ni)
            for re in linspace(r0, r1, nr)]


def _num(x):
    # short decimal text; the checker reads the same text back, so the
    # program and the reference see bit-identical parameters
    return float("%.6g" % x)


class _Draw:
    def __init__(self, rng):
        self.rng = rng

    def u(self, lo, hi):
        return _num(self.rng.uniform(lo, hi))

    def sign(self):
        return self.rng.choice((-1.0, 1.0))

    def generic_alpha(self, lo, hi):
        # at least 0.15 away from every integer: the Connection route
        while True:
            a = self.u(lo, hi)
            if abs(a - round(a)) >= 0.15:
                return a

    # --- grids -----------------------------------------------------------

    def right_half(self, rmax):
        """0F1/1F1 under a log: Re z > 0, reaching |z| ~ rmax."""
        half = self.u(4.0, 12.0)
        return (self.u(0.3, 1.0), self.u(rmax - 8.0, rmax - 2.0), GRID_RE,
                -half, half, GRID_IM)

    def disc_2f1_in(self):
        """2F1 with a log: |z| <= 0.9, one half-plane, never on the cut."""
        re = self.u(0.5, 0.6)
        lo, hi = self.u(0.05, 0.15), self.u(0.55, 0.62)
        if self.sign() < 0:
            lo, hi = -hi, -lo
        return (-re, re, GRID_RE, lo, hi, GRID_IM)

    def disc_2f1_out(self):
        """2F1 U outside the disc: |z| >= 1.1, off the cut [0, inf)."""
        if self.sign() > 0:
            lo, hi = self.u(0.1, 0.3), self.u(2.0, 3.0)
            if self.sign() < 0:
                lo, hi = -hi, -lo
            return (self.u(1.15, 1.3), self.u(3.0, 4.0), GRID_RE, lo, hi,
                    GRID_IM)
        half = self.u(1.5, 2.5)
        return (-self.u(3.0, 4.0), -self.u(1.15, 1.3), GRID_RE, -half, half,
                GRID_IM)

    def square_2f1(self, upper=False):
        """2F1 series up to |z| = 0.95 at the corners (300-500+ terms)."""
        h = self.u(0.64, 0.67)
        lo = self.u(0.05, 0.1) if upper else -h
        return (-h, h, GRID_RE, lo, h, GRID_IM)

    def plane(self, rmax, upper=False):
        """0F1/1F1 F over both half-planes out to |z| ~ rmax."""
        re = self.u(rmax - 8.0, rmax - 3.0)
        half = self.u(8.0, 15.0)
        lo = self.u(0.3, 1.0) if upper else -half
        return (-re, re, GRID_RE, lo, half, GRID_IM)

    # --- parameters ------------------------------------------------------

    def params(self, eq, integer):
        p = {}
        if integer:
            p["m"] = self.rng.randint(-2, 3)
        else:
            p["alpha"] = self.generic_alpha(-1.85, 2.85)
        if eq == "1f1":
            p["theta"] = self.u(0.15, 1.85)
        elif eq == "2f1":
            # keep a, b = (1+m+beta-+mu)/2 clear of the integers, where
            # the D companion is undefined
            while True:
                p["beta"] = self.u(0.1, 0.6)
                p["mu"] = self.u(0.05, 0.45)
                if (abs(p["beta"] - p["mu"]) > 0.02
                        and abs(p["beta"] + p["mu"] - 1.0) > 0.02):
                    break
        return p


def _argv(eq, func, params, grid, fmt):
    argv = ["table", "--eq", eq, "--func", func]
    for key in ("m", "alpha", "theta", "beta", "mu"):
        if key in params:
            argv.append("--%s=%r" % (key, params[key]))
    r0, r1, nr, i0, i1, ni = grid
    argv.append("--grid=%r:%r:%d,%r:%r:%d" % (r0, r1, nr, i0, i1, ni))
    if fmt == "json":
        argv += ["--format", "json"]
    return argv


def _table_request(eq, func, params, grid, fmt):
    lie = dict(params)
    if "m" in lie:
        lie["alpha"] = float(lie.pop("m"))
    return {"argv": _argv(eq, func, params, grid, fmt), "kind": "table",
            "eq": eq, "func": func, "params": lie, "grid": list(grid),
            "format": fmt}


# (eq, func, integer alpha?, grid maker) -- the table_log templates
def _table_log_templates(d):
    return [
        ("0f1", "U", True, lambda: d.right_half(40.0)),
        ("1f1", "U", True, lambda: d.right_half(40.0)),
        ("2f1", "U", True, d.disc_2f1_in),
        ("2f1", "U", True, d.disc_2f1_out),
        ("0f1", "D", True, lambda: d.right_half(40.0)),
        ("1f1", "D", True, lambda: d.right_half(40.0)),
        ("2f1", "D", True, d.disc_2f1_in),
        ("0f1", "logsol", True, lambda: d.right_half(40.0)),
        ("1f1", "logsol", True, lambda: d.right_half(40.0)),
        ("2f1", "logsol", True, d.disc_2f1_in),
        # the minority at non-integer alpha: automatic route = Connection
        ("0f1", "U", False, lambda: d.right_half(40.0)),
        ("1f1", "U", False, lambda: d.right_half(40.0)),
        ("2f1", "U", False, d.disc_2f1_in),
    ]


def _table_f_templates(d):
    return [
        ("2f1", "F", True, d.square_2f1),
        ("2f1", "F", False, d.square_2f1),
        ("2f1", "FI", False, d.square_2f1),
        ("2f1", "second", True, lambda: d.square_2f1(upper=True)),
        ("2f1", "second", False, lambda: d.square_2f1(upper=True)),
        ("1f1", "F", True, lambda: d.plane(50.0)),
        ("1f1", "F", False, lambda: d.plane(50.0)),
        ("1f1", "second", False, lambda: d.plane(50.0, upper=True)),
        ("0f1", "F", True, lambda: d.plane(50.0)),
        ("0f1", "F", False, lambda: d.plane(50.0)),
        ("0f1", "second", True, lambda: d.plane(50.0, upper=True)),
    ]


def _tables(rng, templates, repeats):
    d = _Draw(rng)
    reqs = []
    for rep in range(repeats):
        for k, (eq, func, integer, grid) in enumerate(templates(d)):
            params = d.params(eq, integer)
            fmt = "json" if (k + rep) % 4 == 0 else "csv"
            reqs.append(_table_request(eq, func, params, grid(), fmt))
    rng.shuffle(reqs)
    return reqs


def _verify(rng):
    points = rng.sample(VERIFY_POINTS, len(VERIFY_POINTS))
    return [{"argv": ["verify", "--suite", "all", "--points", str(p)],
             "kind": "verify"} for p in points]


def build(workload, seed):
    """The request list of one pass of `workload` for `seed`."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "table_log":
        return _tables(rng, _table_log_templates, REPEATS[workload])
    if workload == "table_f":
        return _tables(rng, _table_f_templates, REPEATS[workload])
    if workload == "verify_all":
        return _verify(rng)
    raise ValueError("unknown workload %r" % (workload,))
