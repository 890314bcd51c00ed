"""Primitives for points, great circles, arcs, and angles on the unit sphere.

All types are immutable values and all operations are pure functions, so
everything here is safe to share between threads.  Distances and angles are
in radians throughout.

The vectors behind the values (``SpherePoint.v``, ``GreatCircle.n``, and the
vertex and cached arrays of ``SphericalPolygon``) are read-only ndarrays.  Code that
passes one to a routine that needs a writeable buffer, such as scipy 1.17's
``Rotation.apply``, must pass a copy: ``np.array(p.v)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegeneratePair,
    DomainError,
    ParameterOutOfRange,
    PoleDegenerate,
)
from . import vecmath

# Unit-norm validation; constructors re-normalize rather than reject, to
# tolerate accumulated rounding in caller arithmetic.
EPS_UNIT = 1e-12
# Incidence tests (point on circle, point on arc).
EPS_ON = 1e-10
# Degeneracy rejection for near-equal / near-antipodal pairs, where the
# cross-product conditioning collapses.
EPS_ANTIPODE = 1e-9


def _as_unit_vector(v) -> np.ndarray:
    w = np.asarray(v, dtype=float)
    if w.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DomainError("vector has non-finite coordinates")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(w))
    if not math.isfinite(n):
        raise DomainError("vector norm overflows float64; it cannot be normalized")
    if n < 1e-8:
        raise DomainError("vector is too close to zero to normalize")
    if abs(n - 1.0) > EPS_UNIT:
        w = w / n
    else:
        w = w.copy()
    w.flags.writeable = False
    return w


def _as_unit_rows(points) -> np.ndarray:
    """A fresh (n,3) array of unit rows from an (n,3) array or a sequence of
    SpherePoints and 3-sequences, each row checked as by _as_unit_vector.

    Rows all within EPS_UNIT/2 of unit norm (so within EPS_UNIT by
    _as_unit_vector's own norm, and kept as they are) pass in one vectorised
    test; any other input goes through _as_unit_vector row by row."""
    if not isinstance(points, np.ndarray):
        points = [p.v if isinstance(p, SpherePoint) else p for p in points]
    try:
        arr = np.array(points, dtype=float)
    except ValueError:  # ragged or non-numeric rows: the row checks say which
        arr = np.empty(0)
    with np.errstate(over="ignore"):  # an overflowing norm fails the test; its row check raises
        if arr.shape[1:] == (3,) and np.all(np.abs(np.linalg.norm(arr, axis=1) - 1.0) <= 0.5 * EPS_UNIT):
            return arr
    return np.array([_as_unit_vector(p) for p in points]).reshape(-1, 3)


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """A point of the unit sphere, stored as a unit 3-vector."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _as_unit_vector(self.v))

    @classmethod
    def from_lonlat(cls, lon_deg: float, lat_deg: float) -> "SpherePoint":
        lon = math.radians(lon_deg)
        lat = math.radians(lat_deg)
        return cls((math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)))

    def to_lonlat(self) -> tuple[float, float]:
        """(longitude, latitude) in degrees."""
        x, y, z = self.v
        lon = math.degrees(math.atan2(y, x))
        lat = math.degrees(math.atan2(z, math.hypot(x, y)))
        return lon, lat

    @classmethod
    def from_json(cls, obj) -> "SpherePoint":
        """Accept either [x, y, z] or {"lon_deg": ..., "lat_deg": ...}."""
        if isinstance(obj, dict):
            return cls.from_lonlat(float(obj["lon_deg"]), float(obj["lat_deg"]))
        return cls(obj)

    def tolist(self) -> list[float]:
        return [float(c) for c in self.v]

    def __repr__(self) -> str:
        x, y, z = self.v
        return f"SpherePoint(({x:.17g}, {y:.17g}, {z:.17g}))"


@dataclass(frozen=True, eq=False)
class GreatCircle:
    """An oriented great circle, stored as the unit normal of its plane."""

    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _as_unit_vector(self.n))

    def contains(self, p: SpherePoint, tol: float = EPS_ON) -> bool:
        return abs(float(np.dot(p.v, self.n))) <= tol


@dataclass(frozen=True, eq=False)
class GeodesicArc:
    """The shorter geodesic segment between two non-antipodal points."""

    a: SpherePoint
    b: SpherePoint

    def __post_init__(self):
        d = distance(self.a, self.b)
        if d >= math.pi - EPS_ANTIPODE:
            raise DegeneratePair("arc endpoints are antipodal or nearly so")

    @cached_property
    def length(self) -> float:
        return distance(self.a, self.b)

    @cached_property
    def circle(self) -> GreatCircle:
        return great_circle_through(self.a, self.b)


@dataclass(frozen=True, eq=False)
class Semicircle:
    """Half of a great circle: the points within pi/2 of a center on it."""

    circle: GreatCircle
    center: SpherePoint

    def __post_init__(self):
        if not self.circle.contains(self.center):
            raise DomainError("semicircle center does not lie on its circle")

    @cached_property
    def endpoints(self) -> tuple[SpherePoint, SpherePoint]:
        e = vecmath.unit(vecmath.cross(self.circle.n, self.center.v))
        return SpherePoint(e), SpherePoint(-e)

    def contains(self, p: SpherePoint, tol: float = EPS_ON) -> bool:
        return self.circle.contains(p, tol) and distance(self.center, p) <= math.pi / 2 + tol


def distance(p: SpherePoint, q: SpherePoint) -> float:
    """Spherical distance in [0, pi] between two points."""
    return float(vecmath.ang(p.v, q.v))


def antipode(p: SpherePoint) -> SpherePoint:
    return SpherePoint(-p.v)


def great_circle_through(p: SpherePoint, q: SpherePoint) -> GreatCircle:
    """The unique great circle through two distinct, non-antipodal points.

    Raises DegeneratePair when the points coincide or are antipodal within
    EPS_ANTIPODE, where the defining plane is not unique.
    """
    d = distance(p, q)
    if d <= EPS_ANTIPODE or d >= math.pi - EPS_ANTIPODE:
        raise DegeneratePair("points are equal or antipodal; the great circle is not unique")
    return GreatCircle(vecmath.cross(p.v, q.v))


def arc_point(arc: GeodesicArc, t: float) -> SpherePoint:
    """Point at parameter t in [0, 1] along the arc, proportional to arc length."""
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"parameter {t} outside [0, 1]")
    return SpherePoint(vecmath.slerp(arc.a.v, arc.b.v, np.float64(t)))


def foot_of_perpendicular(p: SpherePoint, c: GreatCircle) -> SpherePoint:
    """The point of the circle nearest to p.

    The great circle through p and the foot is orthogonal to c, and the point
    of c farthest from p is the antipode of the foot.  Raises PoleDegenerate
    when p is (numerically) a pole of c, where every point of c is
    equidistant.
    """
    h = float(np.dot(p.v, c.n))
    if abs(h) >= 1.0 - EPS_ANTIPODE:
        raise PoleDegenerate("point is a pole of the circle; the foot is not unique")
    return SpherePoint(p.v - h * c.n)


def angle_at(vertex: SpherePoint, p: SpherePoint, q: SpherePoint) -> float:
    """Interior angle in [0, pi] at `vertex` between the geodesics to p and q.

    Computed from the tangent vectors at the vertex (Gram-Schmidt against the
    vertex direction), so it stays accurate for tiny and straight angles.
    """
    tp = _tangent_at(vertex, p)
    tq = _tangent_at(vertex, q)
    return float(vecmath.ang(tp, tq))


def _tangent_at(vertex: SpherePoint, target: SpherePoint) -> np.ndarray:
    w = vecmath.reject(target.v, vertex.v)
    n = float(np.linalg.norm(w))
    if n <= EPS_ANTIPODE:
        raise DegeneratePair("target coincides with the vertex or its antipode")
    return w / n
