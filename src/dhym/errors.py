"""Exception types shared across the package."""


class DhymError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DhymError):
    """Matrix or field dimensions are inconsistent or unsupported."""


class NotPositiveDefinite(DhymError):
    """A matrix required to be Hermitian positive-definite is not."""


class DegenerateSpectrum(DhymError):
    """Eigenvalues are too close for the distinct-spectrum derivative formulas."""


class BadIndex(DhymError):
    """Index outside the valid range (e.g. symmetric polynomial order)."""


class PhaseOutOfRange(DhymError):
    """A phase value leaves the admissible supercritical band."""


class PreconditionFailed(DhymError):
    """A geometric precondition (containment, boundedness) does not hold."""


class BadRange(DhymError):
    """Invalid numeric range, e.g. conformal factor bounds with m > M."""


class UnknownSurface(DhymError):
    """Requested surface model is not in the catalog."""


class SolverError(DhymError):
    """Base class for solver failures."""


class LinearSolveStalled(SolverError):
    """Inner Krylov solve failed to reduce the residual as configured."""


class PhaseFloorViolated(SolverError):
    """No step keeps the pointwise phase above the supercritical floor."""


class MaxItersExceeded(SolverError):
    """Newton iteration budget exhausted before reaching tolerance."""


class PathStalled(SolverError):
    """Continuation step size underflowed its lower bound."""


class ConfigError(DhymError):
    """Invalid or unknown configuration input."""
