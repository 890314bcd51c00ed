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

Every stage works on a stack of K rings at once: a (K, m, 3) array in which
ring k repeats its n_k vertices cyclically up to the width m, so each padded
row is a copy of a real vertex, edge or turn, and any, all, min and max over
a padded row are those of the ring.  Sums and argmax ties take the ring's own
length and mask.  Products go through stacked np.matmul, which gives each
ring the bits of its own (n, 3) product; so every ring of a stack gets the
values it gets alone, and the scalar functions are the stacked ones at K = 1.
Only the random draws run once per ring; the planar hulls too are taken on
the padded stack.  Hulls are charted at a center the caller gives: a random
polygon at its sampling cap's center, and other point sets at the center
`_hemisphere_center` searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
# numpy imports numpy.random on first use; imported with this module, it is
# loaded once before the trial pool forks rather than again in every worker
from numpy.random import PCG64, Generator, SeedSequence

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

# Roundoff of a cloud's chart, in units in the last place of the largest
# distance of its points from the chart's origin: chart points nearer each
# other than this are one point, and a hull ring whose every vertex lies this
# near the chord of its neighbours is a segment, the chart of points on one
# great circle.
_CHART_ULPS = 16

# Slack for "point lies on this edge arc" membership in candidate tests;
# kept well below reporting tolerances so off-arc candidates cannot inflate
# the diameter by more than ~1e-10.
_ARC_SLACK = 1e-10

# Inclusive range of the number of cap samples behind each random polygon.
NUM_POINTS_RANGE = (5, 50)

VERTEX_VERTEX = "vertex-vertex"
VERTEX_EDGE = "vertex-edge"

# What a vertex cycle fails, in the order the checks run.
_FAULTS = (
    "a vertex is not strictly inside the open hemisphere",
    "consecutive vertices equal or antipodal",
    "zero interior angle",
    "vertices are not in convex counterclockwise order",
    "vertex cycle does not wind once around the polygon",
)


def _chart_basis(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed orthonormal tangent bases at the rows of center (e1 x e2 == center)."""
    axis = np.eye(3)[np.argmin(np.abs(center), axis=-1)]
    e1 = vecmath.unit(vecmath.cross(axis, center))
    e2 = vecmath.cross(center, e1)
    return e1, e2


def _dots(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(K, m) products A[k] @ c[k] of a (K, m, 3) stack with one vector per ring."""
    return np.matmul(A, c[:, :, None])[:, :, 0]


def _shift(n: np.ndarray, m: int, s: int) -> np.ndarray:
    """(K, m) indices of the vertex s places on from each row of a padded stack."""
    return (np.arange(m) + s) % n[:, None]


def _take(A: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx[k] of each A[k]."""
    return A[np.arange(len(A))[:, None], idx]


def _cyclic(parts: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack of the arrays in parts, each repeated cyclically to the longest length, and their lengths."""
    n = np.array([len(a) for a in parts])
    off = np.cumsum(n) - n
    return np.concatenate(parts)[off[:, None] + np.arange(n.max()) % n[:, None]], n


class _Rings(NamedTuple):
    """A padded stack of K vertex cycles: the vertices V (K, m, 3), their counts
    n, hemisphere centers c (K, 3), edge lengths L (K, m) from V_i to V_{i+1},
    unit edge normals N (K, m, 3) and signed turns t (K, m)."""

    V: np.ndarray
    n: np.ndarray
    c: np.ndarray
    L: np.ndarray
    N: np.ndarray
    t: np.ndarray


def _rings(V: np.ndarray, n: np.ndarray, c: np.ndarray) -> _Rings:
    """The edges and turns of each vertex cycle in a padded stack.

    The turn at V_i, from N_{i-1} to N_i and positive to the left, is
    pi minus the interior angle.
    """
    m = V.shape[1]
    B = _take(V, _shift(n, m, 1))
    with np.errstate(invalid="ignore"):  # a zero edge has no normal; its cycle fails on its length
        N = vecmath.unit(vecmath.cross(V, B))
    Np = _take(N, _shift(n, m, -1))
    t = np.arctan2(vecmath.dot(vecmath.cross(Np, N), V), vecmath.dot(Np, N))
    return _Rings(V, n, c, vecmath.ang(V, B), N, t)


def _ring_sums(A: np.ndarray, n: np.ndarray) -> np.ndarray:
    """np.sum of each A[k, :n[k]], by ring length: pairwise summation groups by length."""
    out = np.empty(len(n))
    for length in set(n.tolist()):  # not np.unique, whose first call imports numpy.ma
        rows = n == length
        out[rows] = A[rows, :length].sum(axis=1)
    return out


def _ring_faults(R: _Rings) -> np.ndarray:
    """Index into _FAULTS of the first check each cycle fails; -1 for a polygon.

    A reversal along an edge turns by +pi or -pi, as rounding falls: a zero
    interior angle either way.  By Gauss-Bonnet, turns plus area make 2*pi iff
    the cycle winds once.  The area is the fan of signed triangles
    (c, V_i, V_{i+1}); c.(V_i x V_{i+1}) is sin(L_i) c.N_i, and atan2's x > 0 as
    every vertex is in c's hemisphere.
    """
    Vc = _dots(R.V, R.c)
    fan = 2.0 * np.arctan2(
        np.sin(R.L) * _dots(R.N, R.c), 1.0 + Vc + _take(Vc, _shift(R.n, Vc.shape[1], 1)) + np.cos(R.L)
    )
    fails = np.stack(
        [
            Vc.min(axis=1) <= EPS_HEMI,
            np.any((R.L <= EPS_ANTIPODE) | (R.L >= math.pi - EPS_ANTIPODE), axis=1),
            np.any(np.abs(R.t) >= math.pi - 1e-12, axis=1),
            np.any(R.t < -1e-9, axis=1),
            np.abs(_ring_sums(R.t, R.n) + _ring_sums(fan, R.n) - 2.0 * math.pi) > 1e-6,
        ]
    )
    return np.where(fails.any(axis=0), fails.argmax(axis=0), -1)


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
    first access.  The edge lengths, edge normals and turns that validate the
    cycle are kept beside it as read-only arrays.
    """

    _varr: np.ndarray
    hemisphere_center: SpherePoint
    _edge_lengths: np.ndarray = field(repr=False)
    _edge_normals: np.ndarray = field(repr=False)
    _turns: np.ndarray = field(repr=False)
    _extreme: np.ndarray = field(repr=False)

    def __init__(self, vertices: np.ndarray | Sequence[SpherePoint], hemisphere_center: SpherePoint):
        V = _as_unit_rows(vertices)
        if V.shape[0] < 3:
            raise InvalidPolygon("a polygon needs at least 3 vertices")
        R = _rings(V[None], np.array([V.shape[0]]), hemisphere_center.v[None])
        fault = _ring_faults(R)[0]
        if fault >= 0:
            raise InvalidPolygon(_FAULTS[fault])
        self._fill(R, 0, hemisphere_center)

    @classmethod
    def _of(cls, R: _Rings, k: int) -> "SphericalPolygon":
        """Ring k of a stack that passed _ring_faults, as a polygon."""
        P = object.__new__(cls)
        P._fill(R, k, SpherePoint(R.c[k]))
        return P

    def _fill(self, R: _Rings, k: int, hemisphere_center: SpherePoint) -> None:
        n = R.n[k]
        object.__setattr__(self, "hemisphere_center", hemisphere_center)
        for name, a in (("_varr", R.V), ("_edge_lengths", R.L), ("_edge_normals", R.N), ("_turns", R.t)):
            object.__setattr__(self, name, _frozen(a[k, :n]))
        object.__setattr__(self, "_extreme", _frozen(self._turns > EPS_ANGLE))

    def _as_stack(self) -> _Rings:
        """This polygon as a stack of one."""
        return _Rings(
            *(a[None] for a in (self._varr, np.array(self._varr.shape[0]), self.hemisphere_center.v)),
            *(a[None] for a in (self._edge_lengths, self._edge_normals, self._turns)),
        )

    @cached_property
    def vertices(self) -> tuple[SpherePoint, ...]:
        return tuple(SpherePoint(v) for v in self._varr)

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


def _lp_center(pts: np.ndarray) -> np.ndarray:
    """Center of the open hemisphere that holds pts with the largest margin.

    Solves the linear program max t s.t. pts @ c >= t, |c_i| <= 1, which
    certifies whether an open hemisphere exists.  Raises NoHemisphere when it
    does not (or when the margin cannot beat EPS_HEMI).
    """
    from scipy.optimize import linprog  # costly import; uniform caps rarely get here
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


def _hemisphere_center(pts: np.ndarray) -> np.ndarray:
    """A unit vector with dot above EPS_HEMI against every point of pts.

    Tries the normalized vector sum first and falls back to `_lp_center`,
    which raises NoHemisphere when there is none.
    """
    s = pts.sum(axis=0)
    ns = float(np.linalg.norm(s))
    if ns > 1e-12:
        c = s / ns
        if float(np.min(pts @ c)) > EPS_HEMI:
            return c
    return _lp_center(pts)


def _extreme_rings(R: _Rings) -> tuple[_Rings, np.ndarray]:
    """The polygons of extreme vertices left from counterclockwise hull rings.

    Drops the vertices that end a near-duplicate edge (length at most
    EPS_ANTIPODE), or in a ring without one, the vertices that do not turn,
    until every vertex turns.  A ring that fails validation first (a sliver,
    whose ends turn by pi and the rest is flat) or falls below 3 vertices
    has collapsed.  Returns the final rings, at the input width, and whether
    each is a polygon.
    """
    K, m = R.V.shape[:2]
    out = R  # the rings finished in a later round overwrite their rows
    ok = np.zeros(K, dtype=bool)
    live = np.arange(K)
    while live.size:
        dup = R.L <= EPS_ANTIPODE
        has_dup = dup.any(axis=1)
        ext = R.t > EPS_ANGLE
        valid = ~has_dup & (_ring_faults(R) < 0)  # a ring with a short edge is filtered, not validated
        done = valid & ext.all(axis=1)
        again = has_dup | (valid & ~done)
        if R is not out:
            for a, b in zip(out, R):
                a[live[done]] = b[done]
        ok[live[done]] = True
        if not again.any():
            break
        keep = np.where(has_dup[:, None], ~dup, ext)[again] & (np.arange(m) < R.n[again][:, None])
        n = keep.sum(axis=1)
        order = np.argsort(~keep, axis=1, kind="stable")  # kept vertices first, in ring order
        V = _take(R.V[again], _take(order, np.arange(m) % np.maximum(n, 1)[:, None]))
        rows = n >= 3
        live = live[again][rows]
        R = _rings(V[rows], n[rows], R.c[again][rows])
    return out, ok


def _planar_hulls(Z: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counterclockwise hull rings of K planar clouds.

    Z is a padded (K, m) stack of the clouds, each point x + iy, and n their
    sizes.  Sorted by azimuth about its centroid, a point inside its hull,
    each cloud is a star-shaped ring through every hull vertex.  Each round
    then drops at once every vertex at which its ring does not turn left; a
    hull vertex turns left whatever its neighbours, so only the hull is left
    when every vertex turns.  A vertex within the chart's roundoff
    (`_CHART_ULPS`) of the one before it is that point again and is dropped.
    Returns the rings as a cyclically padded (K, w) stack of rows of the
    clouds and their lengths, 0 for a cloud whose ring is a point or a
    segment.

    A round costs O(K m).  Cap samples and near-circular clouds take a few
    rounds, but a convex chain of points inside the hull loses only its two
    end vertices per round, so a chain of L points takes about L / 2 rounds.
    """
    K, m = Z.shape
    rows, cols = np.arange(K)[:, None], np.arange(-1, m + 1)
    real = cols[1:-1] < n[:, None]
    # a where= reduction runs the plain loop on each run of real rows, so
    # every cloud gets the centroid and scale it has alone
    D = Z - (np.add.reduce(Z, axis=1, where=real) / n)[:, None]
    tol = _CHART_ULPS * np.finfo(float).eps * np.max(np.abs(Z), axis=1, where=real, initial=0.0)[:, None]
    ring = np.argsort(np.where(real, np.angle(D), np.inf), axis=1, kind="stable")
    while True:
        idx = ring[rows, cols[: m + 2] % np.maximum(n, 1)[:, None]]  # each vertex between its neighbours
        A = Z[rows, idx]
        E = A[:, 1:] - A[:, :-1]  # E[:, i] runs from vertex i - 1 to vertex i
        far = np.abs(E) > tol
        left = (E[:, :-1].conj() * E[:, 1:]).imag
        # the first of a run of near points stays, to be tested once the rest are gone
        keep = (left > 0) | ~far[:, 1:]
        keep &= far[:, :-1] & real
        kept = keep.sum(axis=1)
        if kept.sum() == n.sum():  # no ring lost a vertex
            break
        n, m = kept, max(kept.max(), 1)
        real = cols[1 : m + 1] < n[:, None]
        ring = idx[:, 1:-1][rows, np.argsort(~keep, axis=1, kind="stable")[:, :m]]
    flat = (left <= tol * np.abs(A[:, 2:] - A[:, :-2])) | ~keep
    return idx[:, 1:-1], np.where((n < 3) | flat.all(axis=1), 0, n)


def _hulls(P: np.ndarray, n: np.ndarray, c: np.ndarray) -> tuple[_Rings | None, list]:
    """Spherical convex hulls of K clouds of at least three unit points.

    P is a padded (K, m, 3) stack of the clouds, n their sizes and c (K, 3)
    unit vectors with dot above EPS_HEMI against every point of their cloud.
    Each cloud is projected gnomonically to the tangent plane at its c, its
    planar hull is taken there by `_planar_hulls`, and the hull ring is
    mapped back and reduced to extreme vertices by `_extreme_rings`.
    Returns the hulls of the clouds that have one, in input order (None when
    no cloud has one), and per cloud the DegenerateHull it raised, or None.
    """
    e1, e2 = _chart_basis(c)
    d = _dots(P, c)
    ring, size = _planar_hulls(_dots(P, e1) / d + 1j * (_dots(P, e2) / d), n)
    hulled = size > 0
    errors = [None if h else DegenerateHull("points are collinear in the chart (one great circle)") for h in hulled]
    if not hulled.any():
        return None, errors
    R, ok = _extreme_rings(_rings(_take(P[hulled], ring[hulled]), size[hulled], c[hulled]))
    for k in np.flatnonzero(hulled)[~ok]:
        errors[k] = DegenerateHull("hull collapsed to fewer than 3 vertices")
    return _Rings(*(a[ok] for a in R)), errors


def convex_hull(points: np.ndarray | Sequence[SpherePoint]) -> SphericalPolygon:
    """Spherical convex hull of at least three points in an open hemisphere.

    Takes an (n, 3) array or a sequence of SpherePoints or 3-sequences, each
    row checked as SpherePoint checks it.  Projects gnomonically to the
    tangent plane at the hemisphere center `_hemisphere_center` finds, takes
    the planar hull there (`_planar_hulls`, the kernel of random polygons
    too), and maps the hull ring back.  Near-duplicate neighbours and the
    vertices its polygon finds not extreme (interior angle within EPS_ANGLE
    of pi) are dropped until every vertex is extreme.
    """
    arr = _as_unit_rows(points)
    if arr.shape[0] < 3:
        raise TooFewPoints(f"need at least 3 points, got {arr.shape[0]}")
    R, errors = _hulls(arr[None], np.array([arr.shape[0]]), _hemisphere_center(arr)[None])
    if errors[0] is not None:
        raise errors[0]
    return SphericalPolygon._of(R, 0)


def contains(P: SphericalPolygon, p: SpherePoint, tol: float = EPS_ON) -> bool:
    """Whether p lies in the polygon (boundary included, residual tol)."""
    if float(np.dot(p.v, P.hemisphere_center.v)) <= 0.0:
        return False
    return float(np.min(P._edge_normals @ p.v)) >= -tol


def extreme_points(P: SphericalPolygon) -> list[SpherePoint]:
    """Vertices that are not interior to the arc joining their neighbours."""
    return [SpherePoint(v) for v in P._varr[P._extreme]]


def _pair_angles(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows i < j of a padded stack in row-major order, and each ring's (K, pairs) angles between them."""
    iu, ju = np.triu_indices(V.shape[1], k=1)
    return iu, ju, vecmath.ang(V[:, iu], V[:, ju])


def _farthest(pairs: tuple, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per ring, the first pair i < j < n of `_pair_angles` at the largest
    angle: rows i, rows j and the angle."""
    iu, ju, G = pairs
    k = np.where(ju < n[:, None], G, -np.inf).argmax(axis=1)
    return iu[k], ju[k], G[np.arange(len(k)), k]


def extreme_diameter(P: SphericalPolygon) -> float:
    """Largest pairwise distance between extreme points."""
    V = P._varr[P._extreme][None]
    return float(_farthest(_pair_angles(V), np.array([V.shape[1]]))[2][0])


def _boundary_diameters(R: _Rings, pairs: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Farthest pair of boundary points of each ring; see `boundary_diameter`.

    Returns the (K,) diameters, whether each is attained vertex-edge, and the
    (K, 3) witness points p and q.
    """
    V, L, N = R.V, R.L, R.N
    K, m = L.shape
    valid = np.arange(m) < R.n[:, None]
    i, j, value = _farthest(pairs, R.n)  # (a) vertex-vertex

    # (b) vertex-edge: farthest point of each edge circle from each vertex
    W = V[:, :, None, :] - np.matmul(V, N.transpose(0, 2, 1))[..., None] * N[:, None, :, :]  # (ring, vertex, edge, 3)
    wn = vecmath.norm(W)
    far = -W / np.maximum(wn, 1e-300)[..., None]
    # kept where the vertex is not a pole of the edge circle and far, already
    # on that circle, lies on the edge arc
    B = _take(V, _shift(R.n, m, 1))
    on_arc = vecmath.ang(V[:, None], far) + vecmath.ang(far, B[:, None]) <= L[:, None, :] + _ARC_SLACK
    ki, vi, ei = np.nonzero((wn > 1e-9) & on_arc & valid[:, :, None] & valid[:, None, :])
    dist = np.full((K, m * m), -np.inf)
    dist[ki, vi * m + ei] = vecmath.ang(V[ki, vi], far[ki, vi, ei])
    kk = np.arange(K)
    e = dist.argmax(axis=1)  # row-major, the scan order for ties
    edge = dist[kk, e] > value
    vi, ei = np.divmod(e, m)
    p = np.where(edge[:, None], V[kk, vi], V[kk, i])
    q = np.where(edge[:, None], far[kk, vi, ei], V[kk, j])
    return np.where(edge, dist[kk, e], value), edge, p, q


def _witness(value, edge, p, q) -> DiameterWitness:
    return DiameterWitness(
        p=SpherePoint(p), q=SpherePoint(q), value=float(value), attainment=VERTEX_EDGE if edge else VERTEX_VERTEX
    )


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
    R = P._as_stack()
    return _witness(*(a[0] for a in _boundary_diameters(R, _pair_angles(R.V))))


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


def _random_unit(rng: Generator) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0)
    az = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return np.array([r * math.cos(az), r * math.sin(az), z])


def _draw(rng: Generator, cap_radius_range: tuple[float, float]) -> tuple:
    """One attempt's draws: a cap center, 1 - cos of its radius, and the height and azimuth draws of its samples."""
    center = _random_unit(rng)
    radius = rng.uniform(*cap_radius_range)
    count = int(rng.integers(NUM_POINTS_RANGE[0], NUM_POINTS_RANGE[1] + 1))
    return center, 1.0 - math.cos(radius), rng.uniform(size=count), rng.uniform(0.0, 2.0 * math.pi, size=count)


def _sample_caps(center: np.ndarray, sag: np.ndarray, u: np.ndarray, az: np.ndarray) -> np.ndarray:
    """Uniform-in-area samples of spherical caps: heights 1 - u * sag and azimuths az in each cap's chart."""
    e1, e2 = _chart_basis(center)
    z = 1.0 - u * sag[:, None]
    st = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return (
        st[..., None] * np.cos(az)[..., None] * e1[:, None]
        + st[..., None] * np.sin(az)[..., None] * e2[:, None]
        + z[..., None] * center[:, None]
    )


class RandomPolygons(NamedTuple):
    """Trials of one stream drawn together by `random_polygons`, in index order.

    For each trial: the boundary diameter, whether it is attained
    vertex-edge, its witness points p and q as (K, 3) arrays, the extreme
    diameter, the hull vertex count, and the polygon as a (stack, row) pair
    that `SphericalPolygon._of` turns into a value.
    """

    diameter: np.ndarray
    vertex_edge: np.ndarray
    p: np.ndarray
    q: np.ndarray
    extreme: np.ndarray
    vertices: np.ndarray
    polygons: list


def random_polygons(
    seed: int,
    indices: Sequence[int],
    *,
    stream: int = 0,
    cap_radius_range: tuple[float, float] = (math.pi / 4 + 0.05, math.pi / 2 - 0.05),
    diameter_range: tuple[float, float] = (math.pi / 2 + 1e-4, math.pi - 1e-4),
    max_attempts: int = 1000,
) -> RandomPolygons:
    """Trials `indices` of one stream of `random_polygon`, advanced in lockstep.

    Each round, every trial not yet accepted draws one attempt from its own
    generator; the attempts' cap samples, hulls and diameters are computed
    as one stack.  A trial is accepted on the first attempt whose hull
    exists and whose boundary diameter falls inside diameter_range, so its
    result is the one it gets alone, whatever the other trials are.  Each
    hull is charted at its cap's center, the polygon's hemisphere_center, so
    a cap_radius_range that reaches the horizon raises DomainError, as does
    a seed, stream or index that is not a non-negative integer.
    """
    indices = list(indices)
    for name, key in (("seed", seed), ("stream", stream), *(("index", i) for i in indices)):
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or key < 0:
            raise DomainError(f"{name}={key!r} must be a non-negative integer")
    lo, hi = cap_radius_range
    if not (0.0 < lo <= hi < math.pi / 2 and math.cos(hi) > EPS_HEMI):
        raise DomainError(f"cap_radius_range={cap_radius_range} needs 0 < lo <= hi < pi/2 and cos(hi) > EPS_HEMI")
    rngs = [Generator(PCG64(SeedSequence([seed, stream, i]))) for i in indices]
    K = len(rngs)
    diameter, extreme = np.empty(K), np.empty(K)
    vertex_edge = np.zeros(K, dtype=bool)
    p, q = np.empty((K, 3)), np.empty((K, 3))
    vertices = np.zeros(K, dtype=int)
    polygons = [None] * K
    todo = np.arange(K)
    for _ in range(max_attempts):
        if not todo.size:
            break
        center, sag, u, az = zip(*(_draw(rngs[k], cap_radius_range) for k in todo))
        center = np.array(center)
        u, count = _cyclic(u)
        # cap samples are unit to a few ulps, well inside the EPS_UNIT / 2 that
        # `_as_unit_rows` keeps as it is, so they go to the hull kernel directly;
        # each has dot at least cos(radius) > EPS_HEMI with its cap's center
        R, errors = _hulls(_sample_caps(center, np.array(sag), u, _cyclic(az)[0]), count, center)
        if R is None:
            continue
        hulled = todo[[k for k, e in enumerate(errors) if e is None]]
        pairs = _pair_angles(R.V)
        value, edge, wp, wq = _boundary_diameters(R, pairs)
        hit = (diameter_range[0] < value) & (value < diameter_range[1])
        done = hulled[hit]
        diameter[done], vertex_edge[done], p[done], q[done] = value[hit], edge[hit], wp[hit], wq[hit]
        # every vertex of a hull is extreme: its vertex-vertex diameter is the extreme one
        extreme[done], vertices[done] = _farthest(pairs, R.n)[2][hit], R.n[hit]
        for k, row in zip(done, np.flatnonzero(hit)):
            polygons[k] = (R, row)
        todo = np.setdiff1d(todo, done, assume_unique=True)  # without np.unique, which imports numpy.ma
    if todo.size:
        raise SamplingExhausted(f"no polygon with diameter in {diameter_range} after {max_attempts} attempts")
    return RandomPolygons(diameter, vertex_edge, p, q, extreme, vertices, polygons)


def random_polygon(seed: int, index: int, *, stream: int = 0, **ranges) -> tuple[SphericalPolygon, DiameterWitness]:
    """Seeded random convex polygon with boundary diameter in a target range.

    Draws a cap center uniformly on the sphere, a cap radius uniformly from
    cap_radius_range, and N points uniformly in the cap, N uniform in
    NUM_POINTS_RANGE; then keeps the hull if its boundary diameter falls
    inside diameter_range (redrawing otherwise, up to max_attempts times).
    The polygon's hemisphere_center is the cap center.  The generator is
    PCG64 keyed by SeedSequence([seed, stream, index]), so trial `index` of a
    stream is reproducible in isolation and across machines; `stream`
    separates independent trial families sharing one seed.  This is
    `random_polygons` for one trial, with its keyword ranges.
    """
    T = random_polygons(seed, [index], stream=stream, **ranges)
    return SphericalPolygon._of(*T.polygons[0]), _witness(T.diameter[0], T.vertex_edge[0], T.p[0], T.q[0])
