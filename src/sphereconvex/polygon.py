"""Convex spherical polygons: hulls, extreme points, and boundary diameter.

Polygons are modeled as ordered vertex cycles strictly contained in an open
hemisphere (hence free of antipodal pairs), with the interior on the
non-negative side of each edge normal V_i x V_{i+1}.  Hull construction
projects the input gnomonically onto the tangent plane at a hemisphere
center; since the projection maps great circles to straight lines, planar
convexity inside the chart coincides with spherical convexity.

The boundary diameter is computed by exact candidate enumeration rather than
sampling: for diameters above pi/2 one point of the farthest boundary pair
may sit in the interior of an edge, where the connecting geodesic meets that
edge orthogonally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull as _PlanarHull
from scipy.spatial import QhullError

from . import vecmath
from .core import EPS_ANTIPODE, EPS_ON, SpherePoint, _as_unit_rows
from .errors import (
    DegenerateHull,
    DiameterOutOfRange,
    DomainError,
    InvalidPolygon,
    NoHemisphere,
    SamplingExhausted,
    TooFewPoints,
)
from .quad import phi

# Strict open-hemisphere containment margin for vertices.
EPS_HEMI = 1e-6
# A vertex whose turn is at most this (interior angle within this of pi) lies
# on the arc joining its neighbours and is not an extreme point.
EPS_ANGLE = 1e-9

# Slack for "point lies on this edge arc" membership in candidate tests;
# kept well below reporting tolerances so off-arc candidates cannot inflate
# the diameter by more than ~1e-10.
_ARC_SLACK = 1e-10

# Inclusive range of the number of cap samples behind each random polygon.
NUM_POINTS_RANGE = (5, 50)

VERTEX_VERTEX = "vertex-vertex"
VERTEX_EDGE = "vertex-edge"


def _chart_basis(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed orthonormal tangent basis at center (e1 x e2 == center)."""
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(center)))] = 1.0
    e1 = vecmath.unit(vecmath.cross(axis, center))
    e2 = vecmath.cross(center, e1)
    return e1, e2


def _hemisphere_center(pts: np.ndarray) -> np.ndarray:
    """A unit vector with strictly positive dot against every input point.

    Tries the normalized vector sum first; if that fails, solves the linear
    program max t s.t. pts @ c >= t, |c_i| <= 1, which certifies whether an
    open hemisphere exists.  Raises NoHemisphere when it does not (or when
    the margin cannot beat EPS_HEMI).
    """
    s = pts.sum(axis=0)
    ns = float(np.linalg.norm(s))
    if ns > 1e-12:
        c = s / ns
        if float(np.min(pts @ c)) > EPS_HEMI:
            return c
    from scipy.optimize import linprog  # costly import; uniform caps never get here
    n = pts.shape[0]
    res = linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([-pts, np.ones((n, 1))]),
        b_ub=np.zeros(n),
        bounds=[(-1.0, 1.0)] * 3 + [(None, None)],
        method="highs",
    )
    if not res.success or res.x[3] <= 1e-9:
        raise NoHemisphere("no open hemisphere strictly contains all points")
    c = res.x[:3]
    nc = float(np.linalg.norm(c))
    if nc < 1e-12:
        raise NoHemisphere("no open hemisphere strictly contains all points")
    c = c / nc
    if float(np.min(pts @ c)) <= EPS_HEMI:
        raise NoHemisphere("hemisphere containment margin below EPS_HEMI")
    return c


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False, init=False)
class SphericalPolygon:
    """Ordered vertex cycle of a convex spherical polygon.

    The interior lies on the non-negative side of each edge normal
    V_i x V_{i+1}, and every vertex strictly inside the open hemisphere about
    hemisphere_center.  The signed turn at each vertex decides convexity,
    winding and extreme points; a vertex that does not turn sits on the arc
    between its neighbours and is valid but not extreme.

    Takes the vertices as an (n, 3) array or a sequence of SpherePoints or
    3-sequences, each row checked as SpherePoint checks it, and keeps them as
    a read-only (n, 3) array; `vertices` wraps its rows in SpherePoints on
    first access.
    """

    _varr: np.ndarray
    hemisphere_center: SpherePoint

    def __init__(self, vertices: np.ndarray | Sequence[SpherePoint], hemisphere_center: SpherePoint):
        V = _frozen(_as_unit_rows(vertices))
        object.__setattr__(self, "_varr", V)
        object.__setattr__(self, "hemisphere_center", hemisphere_center)
        if V.shape[0] < 3:
            raise InvalidPolygon("a polygon needs at least 3 vertices")
        c = hemisphere_center.v
        Vc = V @ c
        if float(np.min(Vc)) <= EPS_HEMI:
            raise InvalidPolygon("a vertex is not strictly inside the open hemisphere")
        L = self._edge_lengths
        if np.any(L <= EPS_ANTIPODE) or np.any(L >= math.pi - EPS_ANTIPODE):
            raise InvalidPolygon("consecutive vertices equal or antipodal")
        t = self._turns
        # a reversal along an edge turns by +pi or -pi, as rounding falls
        if np.any(np.abs(t) >= math.pi - 1e-12):
            raise InvalidPolygon("zero interior angle")
        if np.any(t < -1e-9):
            raise InvalidPolygon("vertices are not in convex counterclockwise order")
        # Gauss-Bonnet: turns plus area make 2*pi iff the cycle winds once.  The
        # area is the fan of signed triangles (c, V_i, V_{i+1}); c.(V_i x V_{i+1})
        # is sin(L_i) c.N_i, and atan2's x > 0 as every vertex is in c's hemisphere.
        fan = 2.0 * np.arctan2(np.sin(L) * (self._edge_normals @ c), 1.0 + Vc + np.roll(Vc, -1) + np.cos(L))
        if abs(float(np.sum(t) + np.sum(fan)) - 2.0 * math.pi) > 1e-6:
            raise InvalidPolygon("vertex cycle does not wind once around the polygon")

    @cached_property
    def vertices(self) -> tuple[SpherePoint, ...]:
        return tuple(SpherePoint(v) for v in self._varr)

    @cached_property
    def _edge_normals(self) -> np.ndarray:
        return _frozen(vecmath.unit(vecmath.cross(self._varr, np.roll(self._varr, -1, axis=0))))

    @cached_property
    def _edge_lengths(self) -> np.ndarray:
        V = self._varr
        return _frozen(vecmath.ang(V, np.roll(V, -1, axis=0)))

    @cached_property
    def _turns(self) -> np.ndarray:
        """Turn from N_{i-1} to N_i about V_i, positive to the left: pi - interior angle."""
        N = self._edge_normals
        Np = np.roll(N, 1, axis=0)
        return _frozen(np.arctan2(np.sum(vecmath.cross(Np, N) * self._varr, axis=1), np.sum(Np * N, axis=1)))

    @cached_property
    def _extreme(self) -> np.ndarray:
        return _frozen(self._turns > EPS_ANGLE)

    def to_dict(self) -> dict:
        return {"vertices": self._varr.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "SphericalPolygon":
        """Polygon from {"vertices": [...]}, each vertex [x, y, z] or
        {"lon_deg": ..., "lat_deg": ...}; raises InvalidPolygon on any other
        shape of data."""
        try:
            V = _as_unit_rows([SpherePoint.from_json(v) for v in obj["vertices"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidPolygon(f"malformed polygon data: {type(exc).__name__}: {exc}") from exc
        if V.shape[0] < 3:
            raise InvalidPolygon("a polygon needs at least 3 vertices")
        return cls(V, SpherePoint(_hemisphere_center(V)))


@dataclass(frozen=True, eq=False)
class DiameterWitness:
    """A farthest pair of boundary points and how the maximum is attained."""

    p: SpherePoint
    q: SpherePoint
    value: float
    attainment: str

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "p": self.p.tolist(),
            "q": self.q.tolist(),
            "attainment": self.attainment,
        }


def convex_hull(points: np.ndarray | Sequence[SpherePoint]) -> SphericalPolygon:
    """Spherical convex hull of at least three points in an open hemisphere.

    Takes an (n, 3) array or a sequence of SpherePoints or 3-sequences, each
    row checked as SpherePoint checks it.  Projects gnomonically to the
    tangent plane at a hemisphere center, takes the planar hull there, and
    maps the hull ring back.  Near-duplicate neighbours and the vertices its
    polygon finds not extreme (interior angle within EPS_ANGLE of pi) are
    dropped until every vertex is extreme.
    """
    arr = _as_unit_rows(points)
    if arr.shape[0] < 3:
        raise TooFewPoints(f"need at least 3 points, got {arr.shape[0]}")
    center = _hemisphere_center(arr)
    e1, e2 = _chart_basis(center)
    d = arr @ center
    try:
        hull = _PlanarHull(np.stack([(arr @ e1) / d, (arr @ e2) / d], axis=-1))
    except QhullError as exc:
        raise DegenerateHull("points are collinear in the chart (one great circle)") from exc
    c = SpherePoint(center)
    ring = arr[hull.vertices]  # counterclockwise in the chart
    while ring.shape[0] >= 3:
        keep = vecmath.ang(ring, np.roll(ring, -1, axis=0)) > EPS_ANTIPODE
        if np.all(keep):
            try:
                P = SphericalPolygon(ring, c)
            except InvalidPolygon:  # a sliver: its ends turn by pi and the rest is flat
                break
            if np.all(P._extreme):
                return P
            keep = P._extreme
        ring = ring[keep]
    raise DegenerateHull("hull collapsed to fewer than 3 vertices")


def contains(P: SphericalPolygon, p: SpherePoint, tol: float = EPS_ON) -> bool:
    """Whether p lies in the polygon (boundary included, residual tol)."""
    if float(np.dot(p.v, P.hemisphere_center.v)) <= 0.0:
        return False
    return float(np.min(P._edge_normals @ p.v)) >= -tol


def extreme_points(P: SphericalPolygon) -> list[SpherePoint]:
    """Vertices that are not interior to the arc joining their neighbours."""
    return [SpherePoint(v) for v in P._varr[P._extreme]]


def extreme_diameter(P: SphericalPolygon) -> float:
    """Largest pairwise distance between extreme points."""
    return _farthest_pair(P._varr[P._extreme])[2]


def _farthest_pair(V: np.ndarray) -> tuple[int, int, float]:
    """Rows i < j of V at the largest distance, first in row-major order."""
    iu, ju = np.triu_indices(V.shape[0], k=1)
    G = vecmath.ang(V[iu], V[ju])
    k = int(np.argmax(G))
    return int(iu[k]), int(ju[k]), float(G[k])


def boundary_diameter(P: SphericalPolygon) -> DiameterWitness:
    """Farthest pair of boundary points, by exact candidate enumeration.

    Candidates: (a) vertex-vertex pairs; (b) for each vertex and edge the
    point of the edge circle farthest from the vertex (the antipode of the
    perpendicular foot), kept when it lies on the edge arc.

    No pair with both points inside edges is farthest: at a critical such
    pair at distance D, with arclengths s, t along the two edges,
    cos d = cos s cos t cos D + sin s sin t, whose Hessian [[-cos D, 1],
    [1, -cos D]] has determinant cos^2 D - 1 < 0 for D in (0, pi).  It is a
    saddle, so classes (a) and (b) hold the diameter.

    Ties resolve to (a) before (b), and within a class to the first pair in
    scan order, so the witness is deterministic.
    """
    V = P._varr
    B = np.roll(V, -1, axis=0)
    N = P._edge_normals
    L = P._edge_lengths

    i, j, value = _farthest_pair(V)  # (a) vertex-vertex

    # (b) vertex-edge: farthest point of each edge circle from each vertex
    W = V[:, None, :] - (V @ N.T)[:, :, None] * N[None, :, :]  # (vertex, edge, 3)
    wn = np.linalg.norm(W, axis=-1)
    far = -W / np.maximum(wn, 1e-300)[:, :, None]
    # kept where the vertex is not a pole of the edge circle and far, already
    # on that circle, lies on the edge arc
    on_arc = vecmath.ang(V[None, :, :], far) + vecmath.ang(far, B[None, :, :]) <= L + _ARC_SLACK
    vi, ei = np.nonzero((wn > 1e-9) & on_arc)  # row-major, the scan order for ties
    if vi.size:
        dist = vecmath.ang(V[vi], far[vi, ei])
        k = int(np.argmax(dist))
        if float(dist[k]) > value:
            p, q = SpherePoint(V[vi[k]]), SpherePoint(far[vi[k], ei[k]])
            return DiameterWitness(p=p, q=q, value=float(dist[k]), attainment=VERTEX_EDGE)
    return DiameterWitness(p=SpherePoint(V[i]), q=SpherePoint(V[j]), value=value, attainment=VERTEX_VERTEX)


def regular_triangle(side: float) -> SphericalPolygon:
    """Equilateral spherical triangle of the given side, centered on (0,0,1).

    The circumradius r satisfies cos(r) = sqrt((2 cos(side) + 1) / 3), which
    requires side < 2*pi/3 for the vertices to stay inside an open
    hemisphere.
    """
    if not 0.0 < side:
        raise DomainError(f"side={side} must be positive")
    q = (2.0 * math.cos(side) + 1.0) / 3.0
    if q <= EPS_HEMI**2:
        raise DomainError(f"side={side} too long for a hemisphere-contained regular triangle")
    ct = math.sqrt(q)
    st = math.sqrt(1.0 - q)
    verts = np.array(
        [(st * math.cos(2.0 * math.pi * k / 3.0), st * math.sin(2.0 * math.pi * k / 3.0), ct) for k in range(3)]
    )
    return SphericalPolygon(verts, SpherePoint((0.0, 0.0, 1.0)))


def extreme_diameter_margin(P: SphericalPolygon) -> float:
    """Slack of the extreme-point diameter over its sharp lower bound.

    Returns extreme_diameter(P) - 2*phi(boundary_diameter(P)); this is
    non-negative (up to rounding) for every convex polygon whose boundary
    diameter lies in (pi/2, pi).  Raises DiameterOutOfRange outside that
    interval, where the bound does not apply: for diameter at most pi/2 the
    extreme and boundary diameters agree outright.
    """
    w = boundary_diameter(P)
    if not math.pi / 2 < w.value < math.pi:
        raise DiameterOutOfRange(f"boundary diameter {w.value} outside (pi/2, pi)")
    return extreme_diameter(P) - 2.0 * phi(w.value)


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0)
    az = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return np.array([r * math.cos(az), r * math.sin(az), z])


def _sample_cap(rng: np.random.Generator, center: np.ndarray, radius: float, count: int) -> np.ndarray:
    """Uniform-in-area samples of the spherical cap around center."""
    e1, e2 = _chart_basis(center)
    z = 1.0 - rng.uniform(size=count) * (1.0 - math.cos(radius))
    az = rng.uniform(0.0, 2.0 * math.pi, size=count)
    st = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return (
        st[:, None] * np.cos(az)[:, None] * e1
        + st[:, None] * np.sin(az)[:, None] * e2
        + z[:, None] * center
    )


def random_polygon(
    seed: int,
    index: int,
    *,
    stream: int = 0,
    cap_radius_range: tuple[float, float] = (math.pi / 4 + 0.05, math.pi / 2 - 0.05),
    diameter_range: tuple[float, float] = (math.pi / 2 + 1e-4, math.pi - 1e-4),
    max_attempts: int = 1000,
) -> tuple[SphericalPolygon, DiameterWitness]:
    """Seeded random convex polygon with boundary diameter in a target range.

    Draws a cap center uniformly on the sphere, a cap radius uniformly from
    cap_radius_range, and N points uniformly in the cap, N uniform in
    NUM_POINTS_RANGE; then keeps the hull if its boundary diameter falls
    inside diameter_range (redrawing otherwise).  The generator is PCG64
    keyed by SeedSequence([seed, stream, index]), so trial `index` of a stream
    is reproducible in isolation and across machines; `stream` separates
    independent trial families sharing one seed.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream, index])))
    for _ in range(max_attempts):
        center = _random_unit(rng)
        radius = rng.uniform(*cap_radius_range)
        count = int(rng.integers(NUM_POINTS_RANGE[0], NUM_POINTS_RANGE[1] + 1))
        try:
            P = convex_hull(_sample_cap(rng, center, radius, count))
        except (DegenerateHull, NoHemisphere, TooFewPoints):
            continue
        w = boundary_diameter(P)
        if diameter_range[0] < w.value < diameter_range[1]:
            return P, w
    raise SamplingExhausted(
        f"no polygon with diameter in {diameter_range} after {max_attempts} attempts"
    )
