"""Exception types raised by the geometry and verification modules."""


class SphereGeometryError(Exception):
    """Base class for all library-specific errors."""


class DomainError(SphereGeometryError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class DegeneratePair(SphereGeometryError):
    """Two points coincide or are antipodal where a unique construction is needed."""


class PoleDegenerate(SphereGeometryError):
    """The point is (numerically) a pole of the circle, so its foot is undefined."""


class ParameterOutOfRange(SphereGeometryError):
    """An arc parameter lies outside [0, 1]."""


class InvalidPolygon(SphereGeometryError):
    """Vertex data does not describe a convex spherical polygon."""


class TooFewPoints(SphereGeometryError):
    """A spherical hull needs at least three input points."""


class NoHemisphere(SphereGeometryError):
    """No open hemisphere strictly contains all the input points."""


class DegenerateHull(SphereGeometryError):
    """The input points all lie on one great circle, so the hull has no interior."""


class DiameterOutOfRange(SphereGeometryError):
    """The polygon diameter is outside the range the lower bound applies to."""


class ConfigError(SphereGeometryError, ValueError):
    """A verification-campaign configuration field is invalid."""


class SamplingExhausted(SphereGeometryError, RuntimeError):
    """A seeded sampler used up its attempts without an acceptable draw."""
