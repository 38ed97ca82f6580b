"""Executable catalog of recurrence, contiguity, Kummer and quadratic
identities.

Every identity the library claims is represented by one RelationRecord
with a stable string key.  A record knows how to evaluate its two sides
independently (series differentiation only, no finite differences), how
to draw applicable pseudo-random sample points, and, for the recurrence
ladders, how to produce the shifted-parameter value from the unshifted
one.

Key namespace (public, consumed by the CLI):

  0f1:  f0.recurF.{raise,lower}   f0.recurD.{raise,lower}   f0.contiguity
  1f1:  f1.recurF.<row>  f1.recurD.<row>
            rows: raise-up raise-down lower-down lower-up
                  z-raise-theta2 z-lower-theta2
        f1.contig.{alpha-up,alpha-down,theta}
  2f1:  f2.recurFI.<sig>  f2.recurDI.<sig>
            sigs: pp0 mm0 pm0 mp0 0pp 0pm 0mp 0mm p0p p0m m0p m0m
            (shift of (alpha, beta, mu) by +1/-1/0)
        f2.contigDI.c1 .. c6
        f2.kummer.pow  f2.kummer.powU
  quadratic: q.double1 q.double2 q.double5
             q.sasa q.sasa2 q.sasa1 q.sasa5 q.uu0 q.sasa3
"""

import cmath
import math
import random
from dataclasses import dataclass, field

from .errors import (BranchCut, DomainError, Inapplicable, ParameterSingular,
                     PoleAtOrigin, PoleError, UnknownRelation)
from .ffun import (F0, F1, F2, PARAMS_BY_KIND, f2_norm_I, f2_norm_I_jet, f_norm,
                   f_norm_jet)
from .dfun import DSpec, d_eval, d_eval_I, d_eval_I_jet, d_eval_jet
from .gammakit import gamma
from .series import EvalResult, MAX_TERMS, REL_TOL, principal_log, principal_pow
from .ufun import u0, u1, u2

__all__ = [
    "RelationRecord",
    "SweepPoint",
    "build_catalog",
    "check_relation",
    "apply_ladder",
    "sweep_record",
    "sweep_catalog",
    "TOL_SWEEP",
    "SWEEP_POINTS",
]

TOL_SWEEP = 1e-8
SWEEP_POINTS = 25

# Seed prefix for the fixed sweep grid; bump to regenerate every grid.
_GRID_VERSION = "grid-v1"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RelationRecord:
    """One identity, evaluatable as residual |LHS - constant*RHS|.

    constant is the scalar prefactor of the right side kept as explicit
    data (1.0 where the identity has none); the verify machinery reads
    it, so tampering with a stored constant is detectable by the sweep.
    lhs/rhs take (params, z) with params a mapping whose keys are given
    by signature.  ladder/shifted are populated for recurrence rows
    only.
    """

    id: str
    kind: str
    family: str
    signature: str
    statement: str
    constant: float
    lhs: object
    rhs: object
    sample: object
    applicable: object
    ladder: object = None
    shifted: object = None


@dataclass(frozen=True)
class SweepPoint:
    params: dict
    z: complex
    residual: float
    scale: float

    @property
    def scaled(self):
        return self.residual / self.scale


# ---------------------------------------------------------------------------
# samplers

def _disk(rng, r0, r1, phi0=0.0, phi1=_TWO_PI):
    r = rng.uniform(r0, r1)
    phi = rng.uniform(phi0, phi1)
    return complex(r * math.cos(phi), r * math.sin(phi))


def _off_int(rng, lo, hi, margin=1e-3):
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) > margin:
            return x


def _sample_f1_generic(rng):
    return {"theta": rng.uniform(0.1, 1.9), "alpha": _off_int(rng, 0.1, 1.7)}


def _sample_f2_generic(rng):
    while True:
        al = rng.uniform(0.1, 0.9)
        be = rng.uniform(0.05, 0.6)
        mu = rng.uniform(-0.45, 0.45)
        a = 0.5 * (1.0 + al + be - mu)
        ca = 0.5 * (1.0 + al - be + mu)
        if abs(a - round(a)) < 1e-3 or abs(ca - round(ca)) < 1e-3:
            continue
        return {"alpha": al, "beta": be, "mu": mu}


def _sample_d1(rng, m_lo, m_hi):
    while True:
        m = rng.randint(m_lo, m_hi)
        theta = rng.uniform(0.1, 1.9)
        a = 0.5 * (1.0 + m + theta)
        if abs(a - round(a)) < 1e-3:
            continue
        return {"m": m, "theta": theta}


def _sample_d2(rng, m_lo, m_hi):
    while True:
        m = rng.randint(m_lo, m_hi)
        be = rng.uniform(0.05, 0.6)
        mu = rng.uniform(-0.45, 0.45)
        a = 0.5 * (1.0 + m + be - mu)
        b = 0.5 * (1.0 + m + be + mu)
        if abs(a - round(a)) < 1e-3 or abs(b - round(b)) < 1e-3:
            continue
        return {"m": m, "beta": be, "mu": mu}


def _keys_ok(params, signature):
    want = set(signature.split(","))
    return want <= set(params)


# ---------------------------------------------------------------------------
# parameter plumbing for the recurrence tables

def _al(d):
    return float(d["alpha"]) if "alpha" in d else float(d["m"])


def _f1_a(d):
    return 0.5 * (1.0 + _al(d) + d["theta"])


def _f1_ab(d):
    return 0.5 * (1.0 + _al(d) - d["theta"])


def _f2_A(d):
    # b = (1 + alpha + beta + mu)/2
    return 0.5 * (1.0 + _al(d) + d["beta"] + d["mu"])


def _f2_B(d):
    # a = (1 + alpha + beta - mu)/2
    return 0.5 * (1.0 + _al(d) + d["beta"] - d["mu"])


# Each row: (name, shift tuple, c1(d,z), c0(d,z), coeff(d)).
# The row encodes  c1*df + c0*f = coeff * f_shifted  for the normalized
# solution, and the same operator applied to the companion picks up the
# commutator term -(c1/z)*f on the right.

_ROWS_0F1 = (
    ("raise", (1,),
     lambda d, z: 1.0, lambda d, z: 0.0, lambda d: 1.0,
     "dF_a = F_{a+1}"),
    ("lower", (-1,),
     lambda d, z: z, lambda d, z: _al(d), lambda d: 1.0,
     "(z d + a) F_a = F_{a-1}"),
)

_ROWS_1F1 = (
    ("raise-up", (1, 1),
     lambda d, z: 1.0, lambda d, z: 0.0, _f1_a,
     "dF_{t,a} = ((1+a+t)/2) F_{t+1,a+1}"),
    ("raise-down", (-1, 1),
     lambda d, z: 1.0, lambda d, z: -1.0, lambda d: -_f1_ab(d),
     "(d - 1) F_{t,a} = ((-1-a+t)/2) F_{t-1,a+1}"),
    ("lower-down", (-1, -1),
     lambda d, z: z, lambda d, z: _al(d) - z, lambda d: 1.0,
     "(z d + a - z) F_{t,a} = F_{t-1,a-1}"),
    ("lower-up", (1, -1),
     lambda d, z: z, lambda d, z: _al(d), lambda d: 1.0,
     "(z d + a) F_{t,a} = F_{t+1,a-1}"),
    ("z-raise-theta2", (2, 0),
     lambda d, z: z, lambda d, z: _f1_a(d), _f1_a,
     "(z d + (1+a+t)/2) F_{t,a} = ((1+a+t)/2) F_{t+2,a}"),
    ("z-lower-theta2", (-2, 0),
     lambda d, z: z, lambda d, z: _f1_ab(d) - z, _f1_ab,
     "(z d + (1+a-t)/2 - z) F_{t,a} = ((1+a-t)/2) F_{t-2,a}"),
)

_ROWS_2F1 = (
    ("pp0", (1, 1, 0),
     lambda d, z: 1.0, lambda d, z: 0.0, _f2_A,
     "d FI = ((1+a+b+u)/2) FI_{a+1,b+1,u}"),
    ("mm0", (-1, -1, 0),
     lambda d, z: z * (1.0 - z),
     lambda d, z: _al(d) * (1.0 - z) - d["beta"] * z,
     lambda d: _f2_B(d) - 1.0,
     "(z(1-z) d + a(1-z) - b z) FI = ((-1+a+b-u)/2) FI_{a-1,b-1,u}"),
    ("pm0", (1, -1, 0),
     lambda d, z: 1.0 - z, lambda d, z: -d["beta"],
     lambda d: 0.5 * (1.0 + _al(d) - d["beta"] - d["mu"]),
     "((1-z) d - b) FI = ((1+a-b-u)/2) FI_{a+1,b-1,u}"),
    ("mp0", (-1, 1, 0),
     lambda d, z: z, lambda d, z: _al(d),
     lambda d: 0.5 * (-1.0 + _al(d) - d["beta"] + d["mu"]),
     "(z d + a) FI = ((-1+a-b+u)/2) FI_{a-1,b+1,u}"),
    ("0pp", (0, 1, 1),
     lambda d, z: z, lambda d, z: _f2_A(d), _f2_A,
     "(z d + (1+a+b+u)/2) FI = ((1+a+b+u)/2) FI_{a,b+1,u+1}"),
    ("0pm", (0, 1, -1),
     lambda d, z: z, lambda d, z: _f2_B(d),
     lambda d: 0.5 * (-1.0 + _al(d) - d["beta"] + d["mu"]),
     "(z d + (1+a+b-u)/2) FI = ((-1+a-b+u)/2) FI_{a,b+1,u-1}"),
    ("0mp", (0, -1, 1),
     lambda d, z: z * (1.0 - z),
     lambda d, z: -d["beta"] + _f2_A(d) * (1.0 - z),
     lambda d: _f2_B(d) - 1.0,
     "(z(1-z) d - b + (1+a+b+u)/2 (1-z)) FI = ((-1+a+b-u)/2) FI_{a,b-1,u+1}"),
    ("0mm", (0, -1, -1),
     lambda d, z: z * (1.0 - z),
     lambda d, z: -d["beta"] + _f2_B(d) * (1.0 - z),
     lambda d: 0.5 * (1.0 + _al(d) - d["beta"] - d["mu"]),
     "(z(1-z) d - b + (1+a+b-u)/2 (1-z)) FI = ((1+a-b-u)/2) FI_{a,b-1,u-1}"),
    ("p0p", (1, 0, 1),
     lambda d, z: z - 1.0, lambda d, z: _f2_A(d), _f2_A,
     "((z-1) d + (1+a+b+u)/2) FI = ((1+a+b+u)/2) FI_{a+1,b,u+1}"),
    ("p0m", (1, 0, -1),
     lambda d, z: z - 1.0, lambda d, z: _f2_B(d),
     lambda d: 0.5 * (1.0 + _al(d) - d["beta"] - d["mu"]),
     "((z-1) d + (1+a+b-u)/2) FI = ((1+a-b-u)/2) FI_{a+1,b,u-1}"),
    ("m0p", (-1, 0, 1),
     lambda d, z: z * (1.0 - z),
     lambda d, z: _al(d) - _f2_A(d) * z,
     lambda d: _f2_B(d) - 1.0,
     "(z(1-z) d + a - (1+a+b+u)/2 z) FI = ((-1+a+b-u)/2) FI_{a-1,b,u+1}"),
    ("m0m", (-1, 0, -1),
     lambda d, z: z * (1.0 - z),
     lambda d, z: _al(d) - _f2_B(d) * z,
     lambda d: 0.5 * (-1.0 + _al(d) - d["beta"] + d["mu"]),
     "(z(1-z) d + a - (1+a+b-u)/2 z) FI = ((-1+a-b+u)/2) FI_{a-1,b,u-1}"),
)


# ---------------------------------------------------------------------------
# evaluators behind the table rows

def _shifted(kind, d, shift, alpha):
    """Fields of kind's parameter class at d with the given alpha, plus
    shift, which lists one offset per field in field order."""
    names = PARAMS_BY_KIND[kind].__match_args__
    return {k: (alpha if k == "alpha" else d[k]) + (shift[i] if shift else 0)
            for i, k in enumerate(names)}


def _f_params(kind, d, shift=None):
    return PARAMS_BY_KIND[kind](**_shifted(kind, d, shift, _al(d)))


def _d_spec(kind, d, shift=None):
    p = _shifted(kind, d, shift, int(d["m"]))
    return DSpec(kind, p.pop("alpha"), **p)


def _f_jet(kind, d, z):
    if kind == "2f1":
        return f2_norm_I_jet(_f_params(kind, d), z)
    return f_norm_jet(_f_params(kind, d), z)


def _f_value(kind, d, z, shift=None):
    p = _f_params(kind, d, shift)
    if kind == "2f1":
        return f2_norm_I(p, z).value
    return f_norm(p, z).value


def _d_jet(kind, d, z):
    if kind == "2f1":
        return d_eval_I_jet(_d_spec(kind, d), z)
    return d_eval_jet(_d_spec(kind, d), z)


def _d_value(kind, d, z, shift=None):
    sp = _d_spec(kind, d, shift)
    if kind == "2f1":
        return d_eval_I(sp, z).value
    return d_eval(sp, z).value


def _d_applicable(kind, d, shifts):
    if "m" not in d:
        return False
    try:
        _d_spec(kind, d)
        for s in shifts:
            _d_spec(kind, d, s)
    except (ParameterSingular, ValueError):
        return False
    return True


# ---------------------------------------------------------------------------
# record builders

def _recurrence_f_record(kind, prefix, row, sampler, z_sampler, signature):
    name, shift, c1, c0, coeff, stmt = row

    def lhs(d, z, _c1=c1, _c0=c0, _kind=kind):
        f0v, f1v, _ = _f_jet(_kind, d, z)
        return _c1(d, z) * f1v + _c0(d, z) * f0v

    def rhs(d, z, _coeff=coeff, _kind=kind, _shift=shift):
        return _coeff(d) * _f_value(_kind, d, z, _shift)

    def ladder(d, z, _c1=c1, _c0=c0, _coeff=coeff, _kind=kind):
        f0v, f1v, _ = _f_jet(_kind, d, z)
        return (_c1(d, z) * f1v + _c0(d, z) * f0v) / _coeff(d)

    def shifted(d, _kind=kind, _shift=shift):
        return _f_params(_kind, d, _shift)

    def sample(rng, _ps=sampler, _zs=z_sampler):
        return _ps(rng), _zs(rng)

    def applicable(d, _sig=signature):
        return _keys_ok(d, _sig)

    return RelationRecord(
        id="%s.recurF%s.%s" % (prefix, "I" if kind == "2f1" else "", name),
        kind=kind, family="RecurrenceF", signature=signature,
        statement=stmt, constant=1.0, lhs=lhs, rhs=rhs,
        sample=sample, applicable=applicable, ladder=ladder, shifted=shifted)


def _recurrence_d_record(kind, prefix, row, sampler, z_sampler, signature,
                         m_lo=None):
    name, shift, c1, c0, coeff, fstmt = row
    tag = "DI" if kind == "2f1" else "D"
    stmt = fstmt.replace("FI", "DI").replace("F_", "D_") + \
        "  (companion form: subtract (c1/z) F at the unshifted parameters)"

    def lhs(d, z, _c1=c1, _c0=c0, _kind=kind):
        d0v, d1v, _ = _d_jet(_kind, d, z)
        return _c1(d, z) * d1v + _c0(d, z) * d0v

    def rhs(d, z, _c1=c1, _coeff=coeff, _kind=kind, _shift=shift):
        base = _f_value(_kind, d, z)
        return _coeff(d) * _d_value(_kind, d, z, _shift) - \
            (_c1(d, z) / z) * base

    def ladder(d, z, _c1=c1, _c0=c0, _coeff=coeff, _kind=kind):
        d0v, d1v, _ = _d_jet(_kind, d, z)
        base = _f_value(_kind, d, z)
        op = _c1(d, z) * d1v + _c0(d, z) * d0v
        return (op + (_c1(d, z) / z) * base) / _coeff(d)

    def shifted(d, _kind=kind, _shift=shift):
        return _d_spec(_kind, d, _shift)

    def sample(rng, _ps=sampler, _zs=z_sampler):
        return _ps(rng), _zs(rng)

    def applicable(d, _kind=kind, _shift=shift, _sig=signature, _lo=m_lo):
        if not (_keys_ok(d, _sig) and _d_applicable(_kind, d, (_shift,))):
            return False
        return _lo is None or int(d["m"]) >= _lo

    return RelationRecord(
        id="%s.recur%s.%s" % (prefix, tag, name),
        kind=kind, family="RecurrenceD", signature=signature,
        statement=stmt, constant=1.0, lhs=lhs, rhs=rhs,
        sample=sample, applicable=applicable, ladder=ladder, shifted=shifted)


def _record(id, kind, family, signature, statement, lhs, rhs, sample,
            applicable=None, constant=1.0):
    if applicable is None:
        def applicable(d, _sig=signature):
            return _keys_ok(d, _sig)
    return RelationRecord(id=id, kind=kind, family=family,
                          signature=signature, statement=statement,
                          constant=constant, lhs=lhs, rhs=rhs, sample=sample,
                          applicable=applicable)


# ---------------------------------------------------------------------------
# z samplers

def _z_0f1(rng):
    return _disk(rng, 0.3, 1.6)


def _z_1f1(rng):
    return _disk(rng, 0.3, 1.6)


def _z_2f1(rng):
    return _disk(rng, 0.1, 0.6)


def _z_right_half(rng):
    return _disk(rng, 0.25, 0.8, -math.pi / 3.0, math.pi / 3.0)


def _z_offcut(rng):
    return _disk(rng, 0.15, 0.55, 0.25, _TWO_PI - 0.25)


# ---------------------------------------------------------------------------
# contiguity records

def _contig_records():
    recs = []

    def f0_lhs(d, z):
        return d["m"] * _d_value("0f1", d, z)

    def f0_rhs(d, z):
        return _d_value("0f1", d, z, (-1,)) - z * _d_value("0f1", d, z, (1,))

    recs.append(_record(
        "f0.contiguity", "0f1", "Contiguity", "m",
        "m D_m = D_{m-1} - z D_{m+1}",
        f0_lhs, f0_rhs,
        lambda rng: ({"m": rng.randint(1, 3)}, _z_0f1(rng)),
        applicable=lambda d: "m" in d and int(d["m"]) >= 1))

    # (theta, m) shifts: (dtheta, dm)
    def c1f1(shift_plus, shift_minus, cplus, cminus, lmul):
        def lhs(d, z):
            return lmul(d, z) * _d_value("1f1", d, z)

        def rhs(d, z):
            return cplus(d) * _d_value("1f1", d, z, shift_plus) + \
                cminus(d) * _d_value("1f1", d, z, shift_minus)
        return lhs, rhs

    a1 = _f1_a
    ab1 = _f1_ab

    lhs, rhs = c1f1((1, 1), (-1, 1), a1, ab1, lambda d, z: 1.0)
    recs.append(_record(
        "f1.contig.alpha-up", "1f1", "Contiguity", "m,theta",
        "D_{t,m} = ((1+m+t)/2) D_{t+1,m+1} + ((1+m-t)/2) D_{t-1,m+1}",
        lhs, rhs,
        lambda rng: (_sample_d1(rng, 0, 3), _z_1f1(rng)),
        applicable=lambda d: _d_applicable("1f1", d, ((1, 1), (-1, 1)))))

    lhs, rhs = c1f1((1, -1), (-1, -1), lambda d: 1.0, lambda d: -1.0,
                    lambda d, z: z)
    recs.append(_record(
        "f1.contig.alpha-down", "1f1", "Contiguity", "m,theta",
        "z D_{t,m} = D_{t+1,m-1} - D_{t-1,m-1}",
        lhs, rhs,
        lambda rng: (_sample_d1(rng, 1, 3), _z_1f1(rng)),
        applicable=lambda d: int(d.get("m", -1)) >= 1 and
        _d_applicable("1f1", d, ((1, -1), (-1, -1)))))

    lhs, rhs = c1f1((2, 0), (-2, 0), a1, lambda d: -ab1(d),
                    lambda d, z: d["theta"] + z)
    recs.append(_record(
        "f1.contig.theta", "1f1", "Contiguity", "m,theta",
        "(t + z) D_{t,m} = ((1+m+t)/2) D_{t+2,m} - ((1+m-t)/2) D_{t-2,m}",
        lhs, rhs,
        lambda rng: (_sample_d1(rng, 0, 3), _z_1f1(rng)),
        applicable=lambda d: _d_applicable("1f1", d, ((2, 0), (-2, 0)))))

    # 2f1 contiguities in the I normalization; shifts are (dm, dbeta, dmu)
    def c2f1(id, stmt, lmul, cplus, splus, cminus, sminus, m_lo):
        def lhs(d, z):
            return lmul(d, z) * _d_value("2f1", d, z)

        def rhs(d, z):
            return cplus(d, z) * _d_value("2f1", d, z, splus) + \
                cminus(d, z) * _d_value("2f1", d, z, sminus)

        recs.append(_record(
            id, "2f1", "Contiguity", "m,beta,mu", stmt, lhs, rhs,
            lambda rng, _lo=m_lo: (_sample_d2(rng, _lo, 3), _z_2f1(rng)),
            applicable=lambda d, _lo=m_lo, _sp=splus, _sm=sminus:
                int(d.get("m", -9)) >= _lo and
                _d_applicable("2f1", d, (_sp, _sm))))

    def C(expr):
        # coefficient helpers reading (m, beta, mu)
        return {
            "+m-b+u": lambda d, z: 0.5 * (-1 + d["m"] - d["beta"] + d["mu"]),
            "1+m+b+u": lambda d, z: 0.5 * (1 + d["m"] + d["beta"] + d["mu"]),
            "+m+b-u": lambda d, z: 0.5 * (-1 + d["m"] + d["beta"] - d["mu"]),
            "1+m-b-u": lambda d, z: 0.5 * (1 + d["m"] - d["beta"] - d["mu"]),
        }[expr]

    c2f1("f2.contigDI.c1",
         "m DI_{m,b,u} = ((-1+m-b+u)/2) DI_{m-1,b+1,u}"
         " - ((1+m+b+u)/2) z DI_{m+1,b+1,u}",
         lambda d, z: d["m"],
         C("+m-b+u"), (-1, 1, 0),
         lambda d, z: -z * C("1+m+b+u")(d, z), (1, 1, 0), 1)
    c2f1("f2.contigDI.c2",
         "m (1-z) DI_{m,b,u} = ((-1+m+b-u)/2) DI_{m-1,b-1,u}"
         " - ((1+m-b-u)/2) z DI_{m+1,b-1,u}",
         lambda d, z: d["m"] * (1.0 - z),
         C("+m+b-u"), (-1, -1, 0),
         lambda d, z: -z * C("1+m-b-u")(d, z), (1, -1, 0), 1)
    c2f1("f2.contigDI.c3",
         "u DI_{m,b,u} = ((1+m+b+u)/2) DI_{m,b+1,u+1}"
         " - ((-1+m-b+u)/2) DI_{m,b+1,u-1}",
         lambda d, z: d["mu"],
         C("1+m+b+u"), (0, 1, 1),
         lambda d, z: -C("+m-b+u")(d, z), (0, 1, -1), 0)
    c2f1("f2.contigDI.c4",
         "u (1-z) DI_{m,b,u} = ((-1+m+b-u)/2) DI_{m,b-1,u+1}"
         " - ((1+m-b-u)/2) DI_{m,b-1,u-1}",
         lambda d, z: d["mu"] * (1.0 - z),
         C("+m+b-u"), (0, -1, 1),
         lambda d, z: -C("1+m-b-u")(d, z), (0, -1, -1), 0)
    c2f1("f2.contigDI.c5",
         "u DI_{m,b,u} = ((1+m+b+u)/2) DI_{m+1,b,u+1}"
         " - ((1+m-b-u)/2) DI_{m+1,b,u-1}",
         lambda d, z: d["mu"],
         C("1+m+b+u"), (1, 0, 1),
         lambda d, z: -C("1+m-b-u")(d, z), (1, 0, -1), 0)
    c2f1("f2.contigDI.c6",
         "u z DI_{m,b,u} = ((-1+m-b+u)/2) DI_{m-1,b,u-1}"
         " - ((-1+m+b-u)/2) DI_{m-1,b,u+1}",
         lambda d, z: d["mu"] * z,
         C("+m-b+u"), (-1, 0, -1),
         lambda d, z: -C("+m+b-u")(d, z), (-1, 0, 1), 1)
    return recs


# ---------------------------------------------------------------------------
# Kummer records

def _kummer_records():
    recs = []

    def pow_lhs(d, z):
        return f_norm(F2(alpha=d["alpha"], beta=d["beta"], mu=d["mu"]),
                      z).value

    def pow_rhs(d, z):
        w = principal_pow(1.0 - z, -d["beta"])
        return w * f_norm(F2(alpha=d["alpha"], beta=-d["beta"],
                             mu=d["mu"]), z).value

    recs.append(_record(
        "f2.kummer.pow", "2f1", "Kummer", "alpha,beta,mu",
        "F_{a,b,u}(z) = (1-z)^(-b) F_{a,-b,u}(z)",
        pow_lhs, pow_rhs,
        lambda rng: (_sample_f2_generic(rng), _z_2f1(rng))))

    def powU_lhs(d, z):
        return u2(d["alpha"], d["beta"], d["mu"], z).value

    def powU_rhs(d, z):
        w = principal_pow(1.0 - z, -d["beta"])
        return w * u2(d["alpha"], -d["beta"], d["mu"], z).value

    def powU_sample(rng):
        while True:
            d = _sample_f2_generic(rng)
            if abs(d["alpha"] - round(d["alpha"])) > 1e-3:
                return d, _z_offcut(rng)

    recs.append(_record(
        "f2.kummer.powU", "2f1", "Kummer", "alpha,beta,mu",
        "U_{a,b,u}(z) = (1-z)^(-b) U_{a,-b,u}(z)",
        powU_lhs, powU_rhs, powU_sample))
    return recs


# ---------------------------------------------------------------------------
# quadratic records

def _quadratic_records():
    recs = []

    def d1_lhs(d, z):
        return gamma(1.0 + d["alpha"]) * \
            f_norm(F0(alpha=d["alpha"]), z * z).value

    def d1_rhs(d, z):
        return cmath.exp(-2.0 * z) * gamma(1.0 + 2.0 * d["alpha"]) * \
            f_norm(F1(theta=0.0, alpha=2.0 * d["alpha"]), 4.0 * z).value

    recs.append(_record(
        "q.double1", "quadratic", "Quadratic", "alpha",
        "G(1+a) F_a(z^2) = exp(-2z) G(1+2a) F_{0,2a}(4z)",
        d1_lhs, d1_rhs,
        lambda rng: ({"alpha": rng.uniform(0.05, 0.7)}, _disk(rng, 0.1, 0.8))))

    def d2_lhs(d, z):
        return u0(d["alpha"], z * z).value

    def d2_rhs(d, z):
        return 4.0 ** d["alpha"] * cmath.exp(-2.0 * z) * \
            u1(0.0, 2.0 * d["alpha"], 4.0 * z).value

    def d2_sample(rng):
        while True:
            al = rng.uniform(0.07, 0.9)
            if min(abs(al - round(al)), abs(2 * al - round(2 * al))) > 1e-3:
                return {"alpha": al}, _z_right_half(rng)

    recs.append(_record(
        "q.double2", "quadratic", "Quadratic", "alpha",
        "U_a(z^2) = 2 4^a exp(-2z) U_{0,2a}(4z)",
        d2_lhs, d2_rhs, d2_sample, constant=2.0))

    _LOG4 = math.log(4.0)

    def d5_lhs(d, z):
        return d_eval(DSpec(kind="0f1", m=int(d["m"])), z * z).value

    def d5_rhs(d, z):
        m = int(d["m"])
        scale = math.factorial(2 * m) / math.factorial(m)
        w = 4.0 * z
        f = f_norm(F1(theta=0.0, alpha=2 * m), w).value
        dd = d_eval(DSpec(kind="1f1", m=2 * m, theta=0.0), w).value
        return scale * cmath.exp(-2.0 * z) * (_LOG4 * f + dd)

    recs.append(_record(
        "q.double5", "quadratic", "Quadratic", "m",
        "D_m(z^2) = (2 (2m)!/m!) exp(-2z) (log4 F_{0,2m}(4z) + D_{0,2m}(4z))",
        d5_lhs, d5_rhs,
        lambda rng: ({"m": rng.randint(0, 3)}, _disk(rng, 0.2, 0.8)),
        constant=2.0))

    def sasa_pair(rng):
        while True:
            al = rng.uniform(0.05, 0.45)
            be = rng.uniform(0.05, 0.45)
            if abs(al - 0.25) > 1e-3 and abs(al - be) > 1e-3:
                return {"alpha": al, "beta": be}

    def sasa_lhs(d, z):
        return gamma(1.0 + 2.0 * d["alpha"]) * \
            f_norm(F2(alpha=2.0 * d["alpha"], beta=d["beta"],
                      mu=-d["beta"]), z).value

    def sasa_rhs(d, z):
        w = z * z / ((2.0 - z) * (2.0 - z))
        pref = principal_pow(2.0 / (2.0 - z),
                             0.5 + d["alpha"] + d["beta"])
        return pref * gamma(1.0 + d["alpha"]) * \
            f_norm(F2(alpha=d["alpha"], beta=d["beta"], mu=-0.5), w).value

    recs.append(_record(
        "q.sasa", "quadratic", "Quadratic", "alpha,beta",
        "G(1+2a) F_{2a,b,-b}(z) = (2/(2-z))^(1/2+a+b) G(1+a)"
        " F_{a,b,-1/2}(z^2/(2-z)^2)",
        sasa_lhs, sasa_rhs,
        lambda rng: (sasa_pair(rng), _disk(rng, 0.1, 0.55))))

    def sasa2_rhs(d, z):
        w = z * z / (4.0 * (z - 1.0))
        pref = principal_pow(1.0 - z,
                             -0.25 - 0.5 * d["alpha"] - 0.5 * d["beta"])
        return pref * gamma(1.0 + d["alpha"]) * \
            f_norm(F2(alpha=d["alpha"], beta=-0.5, mu=-d["beta"]), w).value

    recs.append(_record(
        "q.sasa2", "quadratic", "Quadratic", "alpha,beta",
        "G(1+2a) F_{2a,b,-b}(z) = (1-z)^(-1/4-a/2-b/2) G(1+a)"
        " F_{a,-1/2,-b}(z^2/(4(z-1)))",
        sasa_lhs, sasa2_rhs,
        lambda rng: (sasa_pair(rng), _disk(rng, 0.1, 0.55))))

    def sasa1_lhs(d, z):
        return f_norm(F2(alpha=d["beta"], beta=d["beta"],
                         mu=2.0 * d["alpha"]), z).value

    def sasa1_rhs(d, z):
        return f_norm(F2(alpha=d["beta"], beta=-0.5, mu=d["alpha"]),
                      4.0 * z * (1.0 - z)).value

    recs.append(_record(
        "q.sasa1", "quadratic", "Quadratic", "alpha,beta",
        "F_{b,b,2a}(z) = F_{b,-1/2,a}(4z(1-z))",
        sasa1_lhs, sasa1_rhs,
        lambda rng: (sasa_pair(rng), _disk(rng, 0.02, 0.15))))

    def sasa5_rhs(d, z):
        q = 1.0 - 2.0 * z
        w = 4.0 * z * (z - 1.0) / (q * q)
        pref = principal_pow(q, -0.5 - d["beta"] - d["alpha"])
        return pref * f_norm(F2(alpha=d["beta"], beta=d["alpha"],
                                mu=-0.5), w).value

    recs.append(_record(
        "q.sasa5", "quadratic", "Quadratic", "alpha,beta",
        "F_{b,b,2a}(z) = (1-2z)^(-1/2-b-a) F_{b,a,-1/2}(4z(z-1)/(1-2z)^2)",
        sasa1_lhs, sasa5_rhs,
        lambda rng: (sasa_pair(rng), _disk(rng, 0.02, 0.1))))

    def uu0_lhs(d, z):
        return u2(2.0 * d["alpha"], d["beta"], -d["beta"], z).value

    def uu0_rhs(d, z):
        w = z * z / (4.0 * (z - 1.0))
        pref = principal_pow(4.0 * (1.0 - z),
                             -0.25 - 0.5 * d["alpha"] - 0.5 * d["beta"])
        return pref * u2(d["alpha"], -0.5, -d["beta"], w).value

    def uu0_zone(z):
        # principal branches on both sides agree only while the map
        # z -> z^2/(4(z-1)) stays in the half-plane of z (the limit
        # z < 0, where both arguments sit on the real axis, included)
        w = z * z / (4.0 * (z - 1.0))
        if z.imag == 0.0:
            return z.real < 0.0
        return z.imag * w.imag > 0.0

    def uu0_sample(rng):
        while True:
            z = _z_offcut(rng)
            if uu0_zone(z):
                return sasa_pair(rng), z

    recs.append(_record(
        "q.uu0", "quadratic", "Quadratic", "alpha,beta",
        "U_{2a,b,-b}(z) = (4(1-z))^(-1/4-a/2-b/2) U_{a,-1/2,-b}"
        "(z^2/(4(z-1)))  [Im z and Im z^2/(4(z-1)) of one sign]",
        uu0_lhs, uu0_rhs, uu0_sample))

    def sasa3_lhs(d, z):
        return d_eval(DSpec(kind="2f1", m=2 * int(d["m"]), beta=d["beta"],
                            mu=-d["beta"]), z).value

    def sasa3_rhs(d, z):
        m = int(d["m"])
        w = z * z / (4.0 * (z - 1.0))
        spec = DSpec(kind="2f1", m=m, beta=-0.5, mu=-d["beta"])
        pref = principal_pow(1.0 - z, -0.25 - 0.5 * m - 0.5 * d["beta"])
        bracket = d_eval(spec, w).value - \
            principal_log(4.0 * (1.0 - z)) * f_norm(spec.params, w).value
        return (math.factorial(m) / math.factorial(2 * m)) * pref * bracket

    recs.append(_record(
        "q.sasa3", "quadratic", "Quadratic", "m,beta",
        "D_{2m,b,-b}(z) = (m!/(2 (2m)!)) (1-z)^(-1/4-m/2-b/2)"
        " (D_{m,-1/2,-b}(w) - log(4(1-z)) F_{m,-1/2,-b}(w)), w = z^2/(4(z-1))",
        sasa3_lhs, sasa3_rhs,
        lambda rng: ({"m": rng.randint(0, 2),
                      "beta": rng.uniform(0.05, 0.45)},
                     _disk(rng, 0.1, 0.55)),
        constant=0.5))
    return recs


# ---------------------------------------------------------------------------
# catalog assembly

def build_catalog():
    """Fresh id -> RelationRecord mapping (callers may copy and patch)."""
    recs = []
    for row in _ROWS_0F1:
        recs.append(_recurrence_f_record(
            "0f1", "f0", row,
            lambda rng: {"alpha": _off_int(rng, 0.1, 1.7)},
            _z_0f1, "alpha"))
    for row in _ROWS_0F1:
        recs.append(_recurrence_d_record(
            "0f1", "f0", row,
            lambda rng: {"m": rng.randint(-2, 3)},
            _z_0f1, "m"))
    for row in _ROWS_1F1:
        recs.append(_recurrence_f_record(
            "1f1", "f1", row, _sample_f1_generic, _z_1f1, "alpha,theta"))
    for row in _ROWS_1F1:
        # rows that lower m are false at m = 0 (the shifted companion is
        # the power-shifted one, not the alpha-derivative limit)
        m_lo = 1 if row[1][1] < 0 else 0
        recs.append(_recurrence_d_record(
            "1f1", "f1", row,
            lambda rng, _lo=m_lo: _sample_d1(rng, _lo, 3),
            _z_1f1, "m,theta", m_lo=m_lo))
    for row in _ROWS_2F1:
        recs.append(_recurrence_f_record(
            "2f1", "f2", row, _sample_f2_generic, _z_2f1, "alpha,beta,mu"))
    for row in _ROWS_2F1:
        m_lo = 1 if row[1][0] < 0 else 0
        recs.append(_recurrence_d_record(
            "2f1", "f2", row,
            lambda rng, _lo=m_lo: _sample_d2(rng, _lo, 3),
            _z_2f1, "m,beta,mu", m_lo=m_lo))
    recs.extend(_contig_records())
    recs.extend(_kummer_records())
    recs.extend(_quadratic_records())
    cat = {}
    for r in recs:
        if r.id in cat:
            raise ValueError("duplicate relation id %r" % (r.id,))
        cat[r.id] = r
    return cat


def _resolve(rec_or_id, catalog):
    if isinstance(rec_or_id, RelationRecord):
        return rec_or_id
    cat = catalog if catalog is not None else build_catalog()
    try:
        return cat[rec_or_id]
    except KeyError:
        raise UnknownRelation("no relation with id %r" % (rec_or_id,)) \
            from None


def _sides(rec, params, z):
    lhs = complex(rec.lhs(params, z))
    rhs = rec.constant * complex(rec.rhs(params, z))
    return lhs, rhs


def check_relation(rec_or_id, params, z, catalog=None):
    """|LHS - RHS| for one identity at one point, both sides independent."""
    rec = _resolve(rec_or_id, catalog)
    if not rec.applicable(params):
        raise Inapplicable("relation %s not applicable at %r" %
                           (rec.id, params))
    lhs, rhs = _sides(rec, params, complex(z))
    return abs(lhs - rhs)


def apply_ladder(rec_or_id, params, z, catalog=None):
    """Shifted-parameter function value computed through the relation."""
    rec = _resolve(rec_or_id, catalog)
    if rec.ladder is None:
        raise Inapplicable("relation %s is not a ladder" % (rec.id,))
    if not rec.applicable(params):
        raise Inapplicable("relation %s not applicable at %r" %
                           (rec.id, params))
    value = complex(rec.ladder(params, complex(z)))
    return EvalResult(value=value,
                      err_estimate=5e-14 * max(1.0, abs(value)),
                      terms_used=0, flags=frozenset())


_SKIPPABLE = (BranchCut, DomainError, Inapplicable, ParameterSingular,
              PoleAtOrigin, PoleError)


def sweep_record(rec, n=SWEEP_POINTS, catalog=None):
    """Fixed pseudo-random grid of n applicable points for one record.

    The grid is deterministic: each record gets its own generator seeded
    from the grid version and the record id, and rejected draws (domain
    or branch-cut misses) consume the stream in a reproducible way.
    """
    rec = _resolve(rec, catalog)
    rng = random.Random("%s/%s" % (_GRID_VERSION, rec.id))
    points = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > 80 * n:
            raise Inapplicable("cannot draw %d applicable points for %s"
                               % (n, rec.id))
        params, z = rec.sample(rng)
        if not rec.applicable(params):
            continue
        try:
            lhs, rhs = _sides(rec, params, z)
        except _SKIPPABLE:
            continue
        res = abs(lhs - rhs)
        scale = max(1.0, abs(lhs), abs(rhs))
        points.append(SweepPoint(params=dict(params), z=z,
                                 residual=res, scale=scale))
    return points


def sweep_catalog(catalog=None, n=SWEEP_POINTS, ids=None):
    """{id: worst scaled residual} over the fixed grid."""
    cat = catalog if catalog is not None else build_catalog()
    keys = sorted(cat) if ids is None else list(ids)
    out = {}
    for key in keys:
        pts = sweep_record(cat[key], n=n, catalog=cat)
        out[key] = max(p.scaled for p in pts)
    return out
