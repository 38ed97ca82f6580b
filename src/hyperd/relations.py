"""Executable catalog of recurrence, contiguity, Kummer and quadratic
identities.

Every identity the library claims is represented by one RelationRecord
with a stable string key.  A record knows how to evaluate its two sides
independently (series differentiation only, no finite differences), how
to draw applicable pseudo-random sample points, and, for the recurrence
ladders, how to produce the shifted-parameter value from the unshifted
one.

The recurrence and contiguity records are built from row tables: each
row of _ROWS_0F1/_ROWS_1F1/_ROWS_2F1 yields one F record and one D
record, D picking up the commutator term -(c1/z) F, and each row of
_CONTIGUITY yields one companion contiguity record.  Every record
shares one applicability rule: the keys of its signature are given,
m is at least the row's lower bound where it has one, and for the
companion relations the D at the unshifted parameters and at every
shift is regular (dfun._d_params).  An inapplicable point raises
Inapplicable.

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
from dataclasses import dataclass
from functools import partial

from .errors import (BranchCut, DomainError, Inapplicable, ParameterSingular,
                     PoleAtOrigin, PoleError, UnknownRelation)
from .ffun import (F0, F1, F2, PARAMS_BY_KIND, f_norm, prepare_f2_norm_I,
                   prepare_f_norm)
from .dfun import _d_params, d_eval, prepare_d_eval, prepare_d_eval_I
from .gammakit import gamma
from .series import EvalResult, principal_log, principal_pow
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


def _sample_f0_generic(rng):
    return {"alpha": _off_int(rng, 0.1, 1.7)}


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


# the companion samplers draw m in [m_lo, 3]

def _sample_d0(rng, m_lo):
    return {"m": rng.randint(m_lo, 3)}


def _sample_d1(rng, m_lo):
    while True:
        m = rng.randint(m_lo, 3)
        theta = rng.uniform(0.1, 1.9)
        a = 0.5 * (1.0 + m + theta)
        if abs(a - round(a)) < 1e-3:
            continue
        return {"m": m, "theta": theta}


def _sample_d2(rng, m_lo):
    while True:
        m = rng.randint(m_lo, 3)
        be = rng.uniform(0.05, 0.6)
        mu = rng.uniform(-0.45, 0.45)
        a = 0.5 * (1.0 + m + be - mu)
        b = 0.5 * (1.0 + m + be + mu)
        if abs(a - round(a)) < 1e-3 or abs(b - round(b)) < 1e-3:
            continue
        return {"m": m, "beta": be, "mu": mu}


def _z_confluent(rng):
    return _disk(rng, 0.3, 1.6)


def _z_2f1(rng):
    return _disk(rng, 0.1, 0.6)


def _z_right_half(rng):
    return _disk(rng, 0.25, 0.8, -math.pi / 3.0, math.pi / 3.0)


def _z_offcut(rng):
    return _disk(rng, 0.15, 0.55, 0.25, _TWO_PI - 0.25)


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

# Per kind: the parameter signature of F (D has m in place of alpha), the
# z sampler, and the prepare functions of F and of D: the records read
# the value and the 1-jet .jet(z, 1), never the second derivative.  The
# 2F1 rows read the I normalization.
_SIGNATURE = {"0f1": "alpha", "1f1": "alpha,theta", "2f1": "alpha,beta,mu"}
_Z_SAMPLER = {"0f1": _z_confluent, "1f1": _z_confluent, "2f1": _z_2f1}
_F_PREPARE = {"0f1": prepare_f_norm, "1f1": prepare_f_norm,
              "2f1": prepare_f2_norm_I}
_D_PREPARE = {"0f1": prepare_d_eval, "1f1": prepare_d_eval,
              "2f1": prepare_d_eval_I}


def _f_params(kind, d, shift=None):
    """kind's parameter set at d, alpha read as _al(d) (m for a D), plus
    shift, which lists one offset per field in field order."""
    cls = PARAMS_BY_KIND[kind]
    return cls(**{k: (_al(d) if k == "alpha" else d[k]) + (shift[i] if shift else 0)
                  for i, k in enumerate(cls.__match_args__)})


def _f_value(kind, d, z, shift=None):
    return _F_PREPARE[kind](_f_params(kind, d, shift))(z).value


def _d_value(kind, d, z, shift=None):
    return _D_PREPARE[kind](_f_params(kind, d, shift))(z).value


def _applicable(signature, kind=None, shifts=(), m_lo=None):
    """Applicability predicate of a record: every key of signature is
    given, m is an integer >= m_lo, and for a companion relation of the
    given kind the D at the unshifted parameters and at each shift is
    regular."""
    keys = set(signature.split(","))

    def applicable(d):
        if not keys <= set(d):
            return False
        if "m" in keys and not _is_int(d["m"]):
            return False
        if kind is not None:
            try:
                for s in (None,) + shifts:
                    _d_params(_f_params(kind, d, s))
            except ParameterSingular:
                return False
        return m_lo is None or d["m"] >= m_lo
    return applicable


def _is_int(m):
    try:
        return m == int(m)
    except (TypeError, ValueError, OverflowError):
        return False


# ---------------------------------------------------------------------------
# record builders

def _record(id, kind, family, signature, statement, lhs, rhs, sample,
            applicable=None, constant=1.0):
    return RelationRecord(id=id, kind=kind, family=family,
                          signature=signature, statement=statement,
                          constant=constant, lhs=lhs, rhs=rhs, sample=sample,
                          applicable=applicable or _applicable(signature))


def _recurrence_record(kind, prefix, row, sampler, companion, m_lo=None):
    """One recurrence row as a record for F or, with companion set, for D.

    Applied to D the row's operator picks up the commutator -(c1/z) F at
    the unshifted parameters on the right; the ladder solves the
    relation for the shifted value.  sampler draws the parameters.
    """
    name, shift, c1, c0, coeff, stmt = row
    prepare = _D_PREPARE[kind] if companion else _F_PREPARE[kind]
    signature = _SIGNATURE[kind]
    if companion:
        signature = signature.replace("alpha", "m")
        stmt = stmt.replace("FI", "DI").replace("F_", "D_") + \
            "  (companion form: subtract (c1/z) F at the unshifted parameters)"

    def lhs(d, z):
        g0, g1 = prepare(_f_params(kind, d)).jet(z, 1)
        return c1(d, z) * g1.value + c0(d, z) * g0.value

    def rhs(d, z):
        if not companion:
            return coeff(d) * _f_value(kind, d, z, shift)
        base = _f_value(kind, d, z)
        return coeff(d) * _d_value(kind, d, z, shift) - (c1(d, z) / z) * base

    def ladder(d, z):
        op = lhs(d, z)
        if companion:
            op = op + (c1(d, z) / z) * _f_value(kind, d, z)
        return op / coeff(d)

    return RelationRecord(
        id="%s.recur%s%s.%s" % (prefix, "D" if companion else "F",
                                "I" if kind == "2f1" else "", name),
        kind=kind, family="RecurrenceD" if companion else "RecurrenceF",
        signature=signature, statement=stmt, constant=1.0, lhs=lhs, rhs=rhs,
        sample=lambda rng: (sampler(rng), _Z_SAMPLER[kind](rng)),
        applicable=_applicable(signature, kind if companion else None,
                               (shift,), m_lo),
        ladder=ladder, shifted=lambda d: _f_params(kind, d, shift))


# ---------------------------------------------------------------------------
# contiguity records

def _half(d, s0, sb, su):
    """(s0 + m + sb beta + su mu)/2, the coefficients of the 2F1 rows."""
    return 0.5 * (s0 + d["m"] + sb * d["beta"] + su * d["mu"])


# Each row: (id, kind, statement, lmul(d,z), (c_plus(d,z), shift_plus),
# (c_minus(d,z), shift_minus), sampler, m_lo), encoding
#   lmul D = c_plus D_{shift_plus} + c_minus D_{shift_minus}
# in the field order of the kind's shifts: (m) for 0F1, (theta, m) for
# 1F1 and (m, beta, mu) for 2F1 in the I normalization.  Parameters are
# drawn with m in [m_lo, 3], and the identity holds for m >= m_lo.
_CONTIGUITY = (
    ("f0.contiguity", "0f1", "m D_m = D_{m-1} - z D_{m+1}",
     lambda d, z: d["m"],
     (lambda d, z: 1.0, (-1,)), (lambda d, z: -z, (1,)), _sample_d0, 1),
    ("f1.contig.alpha-up", "1f1",
     "D_{t,m} = ((1+m+t)/2) D_{t+1,m+1} + ((1+m-t)/2) D_{t-1,m+1}",
     lambda d, z: 1.0,
     (lambda d, z: _f1_a(d), (1, 1)), (lambda d, z: _f1_ab(d), (-1, 1)),
     _sample_d1, 0),
    ("f1.contig.alpha-down", "1f1", "z D_{t,m} = D_{t+1,m-1} - D_{t-1,m-1}",
     lambda d, z: z,
     (lambda d, z: 1.0, (1, -1)), (lambda d, z: -1.0, (-1, -1)),
     _sample_d1, 1),
    ("f1.contig.theta", "1f1",
     "(t + z) D_{t,m} = ((1+m+t)/2) D_{t+2,m} - ((1+m-t)/2) D_{t-2,m}",
     lambda d, z: d["theta"] + z,
     (lambda d, z: _f1_a(d), (2, 0)), (lambda d, z: -_f1_ab(d), (-2, 0)),
     _sample_d1, 0),
    ("f2.contigDI.c1", "2f1",
     "m DI_{m,b,u} = ((-1+m-b+u)/2) DI_{m-1,b+1,u}"
     " - ((1+m+b+u)/2) z DI_{m+1,b+1,u}",
     lambda d, z: d["m"],
     (lambda d, z: _half(d, -1, -1, 1), (-1, 1, 0)),
     (lambda d, z: -z * _half(d, 1, 1, 1), (1, 1, 0)), _sample_d2, 1),
    ("f2.contigDI.c2", "2f1",
     "m (1-z) DI_{m,b,u} = ((-1+m+b-u)/2) DI_{m-1,b-1,u}"
     " - ((1+m-b-u)/2) z DI_{m+1,b-1,u}",
     lambda d, z: d["m"] * (1.0 - z),
     (lambda d, z: _half(d, -1, 1, -1), (-1, -1, 0)),
     (lambda d, z: -z * _half(d, 1, -1, -1), (1, -1, 0)), _sample_d2, 1),
    ("f2.contigDI.c3", "2f1",
     "u DI_{m,b,u} = ((1+m+b+u)/2) DI_{m,b+1,u+1}"
     " - ((-1+m-b+u)/2) DI_{m,b+1,u-1}",
     lambda d, z: d["mu"],
     (lambda d, z: _half(d, 1, 1, 1), (0, 1, 1)),
     (lambda d, z: -_half(d, -1, -1, 1), (0, 1, -1)), _sample_d2, 0),
    ("f2.contigDI.c4", "2f1",
     "u (1-z) DI_{m,b,u} = ((-1+m+b-u)/2) DI_{m,b-1,u+1}"
     " - ((1+m-b-u)/2) DI_{m,b-1,u-1}",
     lambda d, z: d["mu"] * (1.0 - z),
     (lambda d, z: _half(d, -1, 1, -1), (0, -1, 1)),
     (lambda d, z: -_half(d, 1, -1, -1), (0, -1, -1)), _sample_d2, 0),
    ("f2.contigDI.c5", "2f1",
     "u DI_{m,b,u} = ((1+m+b+u)/2) DI_{m+1,b,u+1}"
     " - ((1+m-b-u)/2) DI_{m+1,b,u-1}",
     lambda d, z: d["mu"],
     (lambda d, z: _half(d, 1, 1, 1), (1, 0, 1)),
     (lambda d, z: -_half(d, 1, -1, -1), (1, 0, -1)), _sample_d2, 0),
    ("f2.contigDI.c6", "2f1",
     "u z DI_{m,b,u} = ((-1+m-b+u)/2) DI_{m-1,b,u-1}"
     " - ((-1+m+b-u)/2) DI_{m-1,b,u+1}",
     lambda d, z: d["mu"] * z,
     (lambda d, z: _half(d, -1, -1, 1), (-1, 0, -1)),
     (lambda d, z: -_half(d, -1, 1, -1), (-1, 0, 1)), _sample_d2, 1),
)


def _contiguity_record(id, kind, stmt, lmul, plus, minus, sampler, m_lo):
    (c_plus, s_plus), (c_minus, s_minus) = plus, minus

    def lhs(d, z):
        return lmul(d, z) * _d_value(kind, d, z)

    def rhs(d, z):
        return c_plus(d, z) * _d_value(kind, d, z, s_plus) + \
            c_minus(d, z) * _d_value(kind, d, z, s_minus)

    signature = _SIGNATURE[kind].replace("alpha", "m")
    return _record(
        id, kind, "Contiguity", signature, stmt, lhs, rhs,
        lambda rng: (sampler(rng, m_lo), _Z_SAMPLER[kind](rng)),
        _applicable(signature, kind, (s_plus, s_minus), m_lo))


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
        return d_eval(F0(int(d["m"])), z * z).value

    def d5_rhs(d, z):
        m = int(d["m"])
        scale = math.factorial(2 * m) / math.factorial(m)
        w = 4.0 * z
        f = f_norm(F1(theta=0.0, alpha=2 * m), w).value
        dd = d_eval(F1(theta=0.0, alpha=2 * m), w).value
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
        return d_eval(F2(2 * int(d["m"]), d["beta"], -d["beta"]), z).value

    def sasa3_rhs(d, z):
        m = int(d["m"])
        w = z * z / (4.0 * (z - 1.0))
        p = F2(m, -0.5, -d["beta"])
        pref = principal_pow(1.0 - z, -0.25 - 0.5 * m - 0.5 * d["beta"])
        bracket = d_eval(p, w).value - \
            principal_log(4.0 * (1.0 - z)) * f_norm(p, w).value
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
    # m_at: where m sits in a row's shift; None for 0F1, whose companion
    # rows hold at every m and are drawn from m >= -2
    for kind, prefix, rows, sample_f, sample_d, m_at in (
            ("0f1", "f0", _ROWS_0F1, _sample_f0_generic, _sample_d0, None),
            ("1f1", "f1", _ROWS_1F1, _sample_f1_generic, _sample_d1, 1),
            ("2f1", "f2", _ROWS_2F1, _sample_f2_generic, _sample_d2, 0)):
        recs += [_recurrence_record(kind, prefix, row, sample_f, False)
                 for row in rows]
        for row in rows:
            # rows that lower m are false at m = 0 (the shifted companion is
            # the power-shifted one, not the alpha-derivative limit)
            m_lo = None if m_at is None else (1 if row[1][m_at] < 0 else 0)
            sampler = partial(sample_d, m_lo=-2 if m_lo is None else m_lo)
            recs.append(_recurrence_record(kind, prefix, row, sampler, True,
                                           m_lo))
    recs += [_contiguity_record(*row) for row in _CONTIGUITY]
    recs += _kummer_records() + _quadratic_records()
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


def _check_points(n):
    if n < 1:
        raise DomainError("a sweep needs n >= 1 points, got n = %r" % (n,))


def sweep_record(rec, n=SWEEP_POINTS, catalog=None):
    """Fixed pseudo-random grid of n applicable points for one record.

    The grid is deterministic: each record gets its own generator seeded
    from the grid version and the record id, and rejected draws (domain
    or branch-cut misses) consume the stream in a reproducible way.
    """
    _check_points(n)
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
    _check_points(n)
    cat = catalog if catalog is not None else build_catalog()
    keys = sorted(cat) if ids is None else list(ids)
    out = {}
    for key in keys:
        pts = sweep_record(key, n=n, catalog=cat)
        out[key] = max(p.scaled for p in pts)
    return out
