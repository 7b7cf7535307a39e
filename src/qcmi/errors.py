"""Exception types shared across the package."""


class QcmiError(Exception):
    """Base class for all library errors."""


class NotHermitianError(QcmiError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSDError(QcmiError):
    """Input matrix has a genuinely negative eigenvalue."""


class NoConvergenceError(QcmiError):
    """The eigensolver failed to converge."""


class TraceNotOneError(QcmiError):
    """Candidate density matrix does not have unit trace."""


class DimensionMismatchError(QcmiError):
    """Operands have incompatible shapes or subsystem dimensions."""


class SingularMatrixError(QcmiError):
    """A full-rank operand is required but the input is singular."""


class NotDistributionError(QcmiError):
    """Weights are not a probability distribution."""


class ValidationError(QcmiError):
    """File contents violate the declared schema or state invariants."""


class NotFiniteError(ValidationError):
    """An input has a NaN or infinite entry."""


class ParseError(QcmiError):
    """File contents could not be parsed."""


class ConfigError(QcmiError):
    """A scan or conjecture configuration is invalid."""


class InequalityViolationError(QcmiError):
    """A proven inequality failed beyond tolerance during a run.

    When the offending state was written to disk, ``artifact_path`` points
    at the diagnostic file.
    """

    def __init__(self, message: str, artifact_path: str | None = None):
        super().__init__(message)
        self.artifact_path = artifact_path
