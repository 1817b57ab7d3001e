"""Exception taxonomy shared across the package."""


class LandauError(Exception):
    """Base class for all library-specific failures."""


class QuadratureFailure(LandauError):
    """Adaptive quadrature did not reach the requested tolerance."""


class UnboundedSet(LandauError):
    """A superlevel set escapes the configured radial reach."""


class DegenerateWeight(LandauError):
    """Counting measure vanishes on the whole grid for the requested sign."""


class MeshMismatch(LandauError):
    """Gauge data and mesh do not share nodes."""


class ConvergenceFailure(LandauError):
    """Tridiagonal eigensolver failed to converge."""


class InconsistentProvenance(LandauError):
    """Channel results from different meshes or kinds cannot be merged."""


class TrustRegionEmpty(LandauError):
    """No lambda value satisfies all trust constraints."""


class ConfigError(LandauError):
    """Run configuration failed validation."""
