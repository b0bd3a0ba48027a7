"""Exception types shared across the package."""


class SiegelError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetric(SiegelError):
    """Input matrix is not complex symmetric within tolerance."""


class NotHermitian(SiegelError):
    """Input matrix is not Hermitian within tolerance."""


class NotAntiHermitian(SiegelError):
    """Input matrix is not anti-Hermitian within tolerance."""


class ConvergenceFailure(SiegelError):
    """An iterative eigensolver did not converge."""


class SingularShift(SiegelError):
    """A matrix inverse required by the cross-ratio does not exist."""


class DegenerateSpectrum(SiegelError):
    """Spectral data has collided or vanishing entries."""


class OutOfChamber(SiegelError):
    """A point lies outside the open ordered chamber or model domain."""


class ChamberExit(SiegelError):
    """A proposed integrator step left the ordered chamber."""


class DomainExit(SiegelError):
    """A proposed integrator step left the model domain."""


class OriginHit(SiegelError):
    """A sphere-model path reached the origin."""


class EmptySample(SiegelError):
    """A statistical routine received an empty sample."""


class ShapeMismatch(SiegelError):
    """Two ensembles are not comparable (different n, beta or time grid)."""


class ConfigInvalid(SiegelError):
    """A simulation configuration failed validation."""


class RecordInvalid(SiegelError):
    """A trajectories.jsonl line is not a record in write_jsonl's layout."""
