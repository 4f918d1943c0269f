"""Exception hierarchy for the qipsolve package."""


class QipError(Exception):
    """Base class for all qipsolve errors."""


class InvalidMatrix(QipError):
    """Input matrix is non-finite or not symmetric within tolerance."""


class DecompositionFailure(QipError):
    """Eigensolver failed to converge."""


class DomainViolation(QipError):
    """Argument left the open domain of a barrier/generator (e.g. X not PD)."""


class ShapeError(QipError):
    """Incompatible matrix/operator dimensions."""


class SingularKKT(QipError):
    """KKT/Schur linear system is singular or numerically unusable."""

    def __init__(self, msg, condition=None):
        super().__init__(msg)
        self.condition = condition


class LineSearchFailure(QipError):
    """No decreasing step found within the backtracking budget."""


class InfeasibleStart(QipError):
    """Supplied starting point is not strictly feasible."""


class ConstraintError(QipError):
    """Constraint data is invalid (e.g. rank-deficient equality rows)."""


class ParseError(QipError):
    """Problem file is malformed."""

    def __init__(self, msg, location=None):
        super().__init__(msg if location is None else f"{msg} (at {location})")
        self.location = location


class ValidationError(QipError):
    """Problem data violates a declared invariant."""


class NotFound(QipError):
    """Unknown canonical problem name."""


class OracleInconclusive(QipError):
    """Reference optimizer failed to converge; cross-check must be skipped."""


class SizeGuard(QipError):
    """Instance too large for a brute-force reference path."""


class IterCap(QipError):
    """Iteration budget exhausted."""
