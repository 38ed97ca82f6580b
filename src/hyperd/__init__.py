"""Normalized hypergeometric solutions at integer parameters.

The classical second solutions of the 0F1, 1F1 and 2F1 equations break
down when the first exponent difference is an integer.  This package
evaluates the normalized series F (entire in the parameters), the
explicit second solutions with logarithms and their Laurent companions
D, and the recessive solutions U, together with a machine-checkable
catalog of the identities that connect them.

>>> import hyperd
>>> hyperd.f_norm(hyperd.F0(alpha=0.5), 0.25).value   # doctest: +ELLIPSIS
(1.32...
"""

from .errors import (
    BranchCut,
    DivergedImmediately,
    DomainError,
    ExtrapolationUnstable,
    HyperdError,
    Inapplicable,
    NoConvergence,
    ParameterSingular,
    PoleAtOrigin,
    PoleError,
    RouteInapplicable,
    RoutesDisagree,
    UnknownRelation,
)
from .series import EvalResult, LaurentExpansion, MAX_TERMS, REL_TOL
from .gammakit import (
    EULER_GAMMA,
    digamma,
    gamma,
    harmonic,
    near_int,
    pochhammer,
    recip_gamma,
)
from .ffun import (
    F0,
    F1,
    F2,
    f2_norm_I,
    f2f0_asymptotic,
    f_norm,
    f_second,
)
from .dfun import (
    d_eval,
    d_eval_I,
    d_expand,
    log_solution,
)
from .ufun import URoute, bessel, u0, u1, u2
from .oracle import (
    ResidualReport,
    alpha_derivative,
    d_from_alpha_derivative,
    inhom_residual,
    limit_alpha,
    ode_residual,
)
from .relations import (
    RelationRecord,
    SweepPoint,
    apply_ladder,
    build_catalog,
    check_relation,
    sweep_catalog,
    sweep_record,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCut", "DivergedImmediately", "DomainError",
    "ExtrapolationUnstable", "HyperdError", "Inapplicable", "NoConvergence",
    "ParameterSingular", "PoleAtOrigin", "PoleError", "RouteInapplicable",
    "RoutesDisagree", "UnknownRelation",
    "EvalResult", "LaurentExpansion", "MAX_TERMS", "REL_TOL",
    "EULER_GAMMA", "digamma", "gamma", "harmonic", "near_int", "pochhammer",
    "recip_gamma",
    "F0", "F1", "F2", "f_norm", "f_second", "f2_norm_I", "f2f0_asymptotic",
    "d_eval", "d_eval_I", "d_expand", "log_solution",
    "URoute", "bessel", "u0", "u1", "u2",
    "ResidualReport", "alpha_derivative", "d_from_alpha_derivative",
    "inhom_residual", "limit_alpha", "ode_residual",
    "RelationRecord", "SweepPoint", "apply_ladder", "build_catalog",
    "check_relation", "sweep_catalog", "sweep_record",
    "__version__",
]
