"""Exception types shared across the package.

Every public evaluator raises one of these instead of returning a value or
estimate that is not finite (series._checked), so callers can tell "the
input is outside the domain" from "the algorithm failed to converge".
"""


class HyperdError(Exception):
    """Base class for all package errors."""


class PoleError(HyperdError):
    """Argument at (or within tolerance of) a pole of Gamma or a
    vanishing denominator factor."""


class NoConvergence(HyperdError):
    """Series summation hit its term budget (series.MAX_TERMS for every
    evaluator) without meeting the stopping criterion."""

    flag = "TruncationMaxed"

    def __init__(self, message, partial=None, err=None):
        super().__init__(message)
        self.partial = partial
        self.err = err


class BranchCut(HyperdError):
    """Evaluation point exactly on a branch cut; no signed-zero side
    convention is offered."""


class DomainError(HyperdError):
    """Point outside the convergence/validity domain of the requested
    representation."""


class DivergedImmediately(HyperdError):
    """Asymptotic series whose first term is already the smallest."""


class ParameterSingular(HyperdError):
    """Parameter combination puts a prefactor Gamma at a pole or makes
    a coefficient denominator vanish."""


class PoleAtOrigin(HyperdError):
    """z = 0 requested for a function with a genuine pole there."""


class RouteInapplicable(HyperdError):
    """The requested evaluation route does not cover this point or
    parameter set."""


class UnknownRelation(HyperdError):
    """Relation key not present in the catalog."""


class Inapplicable(HyperdError):
    """Relation exists but its applicability predicate rejects the
    supplied parameters."""
