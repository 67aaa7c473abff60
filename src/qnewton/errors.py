"""Exception types shared across the package."""


class QNewtonError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(QNewtonError, ValueError):
    """Malformed input: non-finite entries, asymmetric matrix, bad shapes."""


class NoConvergenceError(QNewtonError, RuntimeError):
    """LAPACK's symmetric eigensolver (``eigh``) failed to converge."""


class SingularMatrixError(QNewtonError, RuntimeError):
    """A matrix required to be invertible has a zero (or rejected) eigenvalue."""


class NoValidDeltaError(QNewtonError, RuntimeError):
    """Every delta in the schedule failed the invertibility/floor test."""


class StalledLineSearchError(QNewtonError, RuntimeError):
    """Armijo backtracking exhausted its reduction budget without acceptance."""


class DomainError(QNewtonError, ValueError):
    """Objective evaluated outside its domain (non-finite value, pole, overlap).

    Carries the offending point in ``point`` when known.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point
