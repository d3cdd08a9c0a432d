"""Exception types shared across the package."""


class BetheLabError(Exception):
    """Base class for all package errors."""


class PoleError(BetheLabError):
    """An evaluation point fell on (or too close to) a pole of a rational kernel."""


class DomainError(BetheLabError):
    """Arguments violate a structural precondition (index ranges, admissibility)."""


class CapacityError(BetheLabError):
    """A size cap was exceeded (Hilbert-space dimension, number of q-symmetrized variables)."""


class SamplingExhaustedError(BetheLabError):
    """Random-point sampling failed repeatedly to avoid the declared pole locus."""


class SingularCoordinateError(BetheLabError):
    """A diagonal Gauss coordinate is numerically non-invertible at this point."""


class DegenerateVectorError(BetheLabError):
    """A constructed Bethe vector has numerically vanishing norm."""


class IllPosedDecompositionError(BetheLabError):
    """The unwanted-term candidate basis is numerically rank deficient."""


class ConfigError(BetheLabError):
    """Invalid run configuration."""
