"""Reading ``hyperd table`` output back, and mpmath reference values.

The references mirror the formulas of the test suite
(tests/test_ffun.py, tests/test_ufun.py) and share no code with the
package: the normalized F is mpmath's regularized pFq, U is Tricomi's
function / Macdonald's K / the 1/z solution of the Gauss equation, and
the logarithmic companion is recovered from the degenerate relation
U = prefactor * (log * F + D), solved for D at mpmath precision.
"""

import json
import math

import mpmath as mp

# working precision of every reference value (decimal digits)
DPS = 40
# a checked value misses when its relative error exceeds this; fixed,
# independent of the program's own err_estimate
REL_TOL = 1e-8


def parse_table(text, fmt):
    """Records of one ``hyperd table`` output as dicts of numbers."""
    if fmt == "json":
        recs = json.loads(text)["records"]
        return [{"z": complex(r["z_re"], r["z_im"]),
                 "value": complex(r["value_re"], r["value_im"]),
                 "terms_used": int(r["terms_used"])} for r in recs]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    keys = lines[0].split(",")
    out = []
    for ln in lines[1:]:
        r = dict(zip(keys, ln.split(",")))
        out.append({"z": complex(float(r["z_re"]), float(r["z_im"])),
                    "value": complex(float(r["value_re"]),
                                     float(r["value_im"])),
                    "terms_used": int(r["terms_used"])})
    return out


def _mpc(z):
    return mp.mpc(z.real, z.imag)


def _upper(eq, p):
    """Classical upper parameters and c for the Lie parameters p."""
    al = mp.mpf(p["alpha"])
    if eq == "0f1":
        return [], 1 + al
    if eq == "1f1":
        return [(1 + al + mp.mpf(p["theta"])) / 2], 1 + al
    beta, mu = mp.mpf(p["beta"]), mp.mpf(p["mu"])
    return [(1 + al + beta - mu) / 2, (1 + al + beta + mu) / 2], 1 + al


def f_norm(eq, p, z):
    """pFq(upper; c; z) / Gamma(c), finite at every c."""
    upper, c = _upper(eq, p)
    return mp.hypercomb(lambda c: [([], [], [], [c], upper, [c], z)], [c])


def _reflected(eq, p):
    q = dict(p, alpha=-p["alpha"])
    if eq == "2f1":
        q["mu"] = -p["mu"]
    return q


def _power(z, a):
    n = int(a)
    return z ** n if a == n else mp.power(z, a)


def second(eq, p, z):
    return _power(z, -mp.mpf(p["alpha"])) * f_norm(eq, _reflected(eq, p), z)


def f_norm_I(eq, p, z):
    al, beta, mu = (mp.mpf(p[k]) for k in ("alpha", "beta", "mu"))
    pref = mp.gamma((1 + al + beta - mu) / 2) \
        * mp.gamma((1 + al - beta + mu) / 2)
    return pref * f_norm(eq, p, z)


def u(eq, p, z):
    al = mp.mpf(p["alpha"])
    if eq == "0f1":
        # U_alpha(z) = (2/sqrt(pi)) z^(-alpha/2) K_alpha(2 sqrt z)
        return 2 / mp.sqrt(mp.pi) * z ** (-al / 2) \
            * mp.besselk(al, 2 * mp.sqrt(z))
    upper, c = _upper(eq, p)
    if eq == "1f1":
        return mp.hyperu(upper[0], c, z)
    a, b = upper
    # the solution (-z)^(-a) 2F1(a, a-c+1; a-b+1; 1/z) / Gamma(a-b+1)
    return (-z) ** (-a) * mp.hyp2f1(a, a - c + 1, a - b + 1, 1 / z) \
        / mp.gamma(a - b + 1)


def _log(eq, z):
    # 0F1/1F1 carry log z, 2F1 carries log(-z)
    return mp.log(-z) if eq == "2f1" else mp.log(z)


def _prefactor(eq, p, m):
    sign = (-1) ** (m + 1)
    if eq == "0f1":
        return sign / mp.sqrt(mp.pi)
    if eq == "1f1":
        return sign * mp.rgamma((1 - m + mp.mpf(p["theta"])) / 2)
    beta, mu = mp.mpf(p["beta"]), mp.mpf(p["mu"])
    return sign * mp.rgamma((1 - m - beta - mu) / 2) \
        * mp.rgamma((1 - m + beta - mu) / 2)


def d_companion(eq, p, z):
    """D at integer alpha = m; D at -m is z^m times D at m."""
    m = int(p["alpha"])
    mm = abs(m)
    q = dict(p, alpha=float(mm))
    d = u(eq, q, z) / _prefactor(eq, p, mm) - _log(eq, z) * f_norm(eq, q, z)
    return d * z ** mm if m < 0 else d


def log_solution(eq, p, z):
    return _log(eq, z) * f_norm(eq, p, z) + d_companion(eq, p, z)


_FUNCS = {"F": f_norm, "second": second, "FI": f_norm_I, "U": u,
          "D": d_companion, "logsol": log_solution}


def reference(eq, func, params, z):
    """The exact value of ``hyperd table --func func`` at z, as a complex."""
    with mp.workdps(DPS):
        return complex(_FUNCS[func](eq, params, _mpc(z)))


def rel_error(got, want):
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return math.inf
    if want == 0:
        return abs(got)
    return abs(got - want) / abs(want)
