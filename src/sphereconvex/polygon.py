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
edge orthogonally.  Stacked dot products first drop the candidates that
provably lose, so the O(n^2) work is a few products per pair, and angles
are taken for the few that remain.

Every stage works on a stack of K rings at once: a (K, m, 3) array in which
ring k repeats its n_k vertices cyclically up to the width m, so each padded
row is a copy of a real vertex, edge or turn, and any, all, min and max over
a padded row are those of the ring.  Sums and argmax ties take the ring's own
length and mask.  Products go through stacked np.matmul, which gives each
ring the bits of its own (n, 3) product; so every ring of a stack gets the
values it gets alone, and the scalar functions are the stacked ones at K = 1.
A stage reports failure as an int code per row, -1 for none: `_ring_faults`
indexes _FAULTS for each ring and `_hulls` _HULL_FAULTS for each cloud, and
only the scalar functions raise.  The random draws are arrays too:
`streams.Streams` draws a round's attempts for all its trials at once, each
with the bits of the trial's own numpy Generator, and the planar hulls are
taken on the padded stack.  A random polygon is trial (seed, stream, index)
of a stream of STREAMS, which holds the ranges each stream samples, so the
key alone picks the polygon; `random_polygons` returns the rows `verify`
reads beside the polygons.  Hulls are charted at a center the caller gives:
a random polygon at its sampling cap's center, and other point sets at the
center `_hemisphere_center` searches: their normalized vector sum or, where
some point has a dot of at most EPS_HEMI with it, the center of largest
margin, the direction of the point of the set's convex hull in R^3 nearest
the origin, which Wolfe's nearest-point algorithm finds in plain numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

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
from .streams import Streams

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

# Major cycles of `_nearest_center` before it gives up; in R^3 its support
# has at most four points, and it settles in a few cycles.
_NEAREST_CYCLES = 100

# Inclusive range of the number of cap samples behind each random polygon.
NUM_POINTS_RANGE = (5, 50)
# Attempts each random polygon draws before it raises SamplingExhausted.
MAX_ATTEMPTS = 1000

# Trial streams: the key of each family of random polygons and the
# (cap_radius_range, diameter_range) it samples.  The cap center charts each
# hull, so every cap radius range lies in (0, pi/2) with cos(hi) > EPS_HEMI.
STREAM_WIDE = 0  # boundary diameter in (pi/2, pi), where the bound applies
STREAM_SMALL = 1  # boundary diameter at most pi/2, where the two diameters agree
STREAMS = {
    STREAM_WIDE: ((math.pi / 4 + 0.05, math.pi / 2 - 0.05), (math.pi / 2 + 1e-4, math.pi - 1e-4)),
    STREAM_SMALL: ((0.05, math.pi / 4 - 0.01), (1e-6, math.pi / 2)),
}

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
# Why a cloud has no hull: `_hulls`' fault codes.
_HULL_FAULTS = (
    "points are collinear in the chart (one great circle)",
    "hull collapsed to fewer than 3 vertices",
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


def _ring_faults(R: _Rings) -> np.ndarray:
    """Index into _FAULTS of the first check each cycle fails; -1 for a polygon.

    A reversal along an edge turns by +pi or -pi, as rounding falls: a zero
    interior angle either way.  By Gauss-Bonnet, turns plus area make 2*pi iff
    the cycle winds once.  The area is the fan of signed triangles
    (c, V_i, V_{i+1}); c.(V_i x V_{i+1}) is sin(L_i) c.N_i, and atan2's x > 0 as
    every vertex is in c's hemisphere.

    Turns plus fan are summed once, masked to each ring's own entries.  The
    sum's bits never decide anything: for a cycle that passes the first four
    checks, it is 2*pi times the winding number up to rounding (~1e-13), so
    the test at 1e-6 gives the same answer in any order of summation.
    """
    Vc = _dots(R.V, R.c)
    m = Vc.shape[1]
    fan = 2.0 * np.arctan2(np.sin(R.L) * _dots(R.N, R.c), 1.0 + Vc + _take(Vc, _shift(R.n, m, 1)) + np.cos(R.L))
    total = np.add.reduce(R.t + fan, axis=1, where=np.arange(m) < R.n[:, None])
    fails = np.stack(
        [
            Vc.min(axis=1) <= EPS_HEMI,
            np.any((R.L <= EPS_ANTIPODE) | (R.L >= math.pi - EPS_ANTIPODE), axis=1),
            np.any(np.abs(R.t) >= math.pi - 1e-12, axis=1),
            np.any(R.t < -1e-9, axis=1),
            np.abs(total - 2.0 * math.pi) > 1e-6,
        ]
    )
    return np.where(fails.any(axis=0), fails.argmax(axis=0), -1)


def _validated(R: _Rings) -> _Rings:
    """R, or InvalidPolygon with the first fault of its first ring that fails."""
    faults = _ring_faults(R)
    if np.any(faults >= 0):
        raise InvalidPolygon(_FAULTS[faults[faults >= 0][0]])
    return R


@dataclass(frozen=True, eq=False, init=False)
class SphericalPolygon:
    """Ordered vertex cycle of a convex spherical polygon.

    The interior lies on the non-negative side of each edge normal
    V_i x V_{i+1}, and every vertex strictly inside the open hemisphere about
    hemisphere_center.  The signed turn at each vertex decides convexity,
    winding and extreme points; a vertex that does not turn sits on the arc
    between its neighbours and is valid but not extreme.

    Takes the vertices as an (n, 3) array or a sequence of SpherePoints or
    3-sequences, each row checked as SpherePoint checks it.  It keeps only the
    ring it was validated in, `_ring`: a stack of one, sliced to its n
    vertices, with every array read-only.  `vertices` and `hemisphere_center`
    wrap its rows in SpherePoints on first access.
    """

    _ring: _Rings

    def __init__(self, vertices: np.ndarray | Sequence[SpherePoint], hemisphere_center: SpherePoint):
        V = _as_unit_rows(vertices)
        if V.shape[0] < 3:
            raise InvalidPolygon("a polygon needs at least 3 vertices")
        self._view(_validated(_rings(V[None], np.array([V.shape[0]]), hemisphere_center.v[None])), 0)

    @classmethod
    def _of(cls, R: _Rings, k: int) -> "SphericalPolygon":
        """Ring k of a stack that passed _ring_faults, as a polygon."""
        P = object.__new__(cls)
        P._view(R, k)
        return P

    def _view(self, R: _Rings, k: int) -> None:
        n, rows = R.n[k], slice(k, k + 1)
        ring = _Rings(R.V[rows, :n], R.n[rows], R.c[rows], R.L[rows, :n], R.N[rows, :n], R.t[rows, :n])
        for a in ring:
            a.flags.writeable = False
        object.__setattr__(self, "_ring", ring)

    @cached_property
    def hemisphere_center(self) -> SpherePoint:
        return SpherePoint(self._ring.c[0])

    @cached_property
    def vertices(self) -> tuple[SpherePoint, ...]:
        return tuple(SpherePoint(v) for v in self._ring.V[0])

    def to_dict(self) -> dict:
        return {"vertices": self._ring.V[0].tolist()}

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


def _nearest_center(pts: np.ndarray) -> np.ndarray:
    """Center of the open hemisphere that holds pts with the largest margin.

    Let x* be the point of the convex hull of pts (in R^3) nearest the
    origin.  Every p of the hull has p . x* >= |x*|^2, so c = x*/|x*| gives
    every point a dot of at least |x*|, and no unit c does better, as
    min_i pts_i . c <= x* . c <= |x*|.  So the best margin is |x*|, and no
    open hemisphere holds pts when x* is the origin.

    Wolfe's nearest-point algorithm (1976) finds x* as a convex combination
    lam of a support S of at most four points.  Each major cycle adds the
    point least in the direction of the iterate x; each minor cycle moves x
    to the point of the affine hull of S nearest the origin, or, where that
    point leaves the convex hull of S, as far toward it as the hull allows,
    dropping a support point.  It stops when no point is below x by more
    than 1e-13 |x| (x . x - p . x), which puts c's margin within 1e-13 of
    |x*|.  Raises NoHemisphere when |x| falls below 1e-12, when c's margin
    is at most EPS_HEMI, or when `_NEAREST_CYCLES` major cycles do not
    settle.
    """
    S, lam = [0], np.ones(1)
    for _ in range(_NEAREST_CYCLES):
        x = lam @ pts[S]
        nx = float(np.linalg.norm(x))
        if nx < 1e-12:
            raise NoHemisphere("no open hemisphere strictly contains all points")
        d = pts @ x
        j = int(np.argmin(d))
        if nx * nx - d[j] <= 1e-13 * nx or j in S:
            break
        S, lam = S + [j], np.append(lam, 0.0)
        while True:  # each pass that does not end the cycle drops a point, and one point ends it
            # the nearest point Q[0] + (Q[1:] - Q[0]).T @ beta of the affine
            # hull, by least squares on the differences, whose condition is
            # the flatness of S and not its square, as a Gram matrix's would
            # be; a flatter S than rounding resolves is taken as its plane
            Q = pts[S]
            beta = np.linalg.lstsq((Q[1:] - Q[0]).T, -Q[0], rcond=None)[0]
            alpha = np.concatenate([[1.0 - beta.sum()], beta])
            if np.all(alpha > 0.0):
                lam = alpha
                break
            out = alpha <= 0.0
            step = np.where(out, lam / np.where(out & (lam > alpha), lam - alpha, 1.0), np.inf)
            r = int(np.argmin(step))
            lam = lam + step[r] * (alpha - lam)
            keep = (lam > 0.0) & (np.arange(len(S)) != r)
            S, lam = [s for s, kept in zip(S, keep) if kept], lam[keep]
    else:
        raise NoHemisphere(f"nearest-point search did not settle in {_NEAREST_CYCLES} cycles")
    c = x / nx
    if float(np.min(pts @ c)) <= EPS_HEMI:
        raise NoHemisphere("hemisphere containment margin below EPS_HEMI")
    return c


def _hemisphere_center(pts: np.ndarray) -> np.ndarray:
    """A unit vector with dot above EPS_HEMI against every point of pts.

    Tries the normalized vector sum first and falls back to
    `_nearest_center`, the center of largest margin, which raises
    NoHemisphere when there is none.
    """
    s = pts.sum(axis=0)
    ns = float(np.linalg.norm(s))
    if ns > 1e-12:
        c = s / ns
        if float(np.min(pts @ c)) > EPS_HEMI:
            return c
    return _nearest_center(pts)


def _extreme_rings(R: _Rings) -> tuple[_Rings, np.ndarray]:
    """The polygons of extreme vertices left from counterclockwise hull rings.

    Drops the vertex V_i that starts each near-duplicate edge (|V_i V_{i+1}|
    at most EPS_ANTIPODE), or in a ring without one, the vertices that do
    not turn, until every vertex turns.  A ring that fails validation first
    (a sliver, whose ends turn by pi and the rest is flat) or falls below 3
    vertices has collapsed.  Returns the final rings, at the input width,
    and whether each is a polygon; the rings that finish in a later round
    are written into the rows of R's own arrays.
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


def _hulls(P: np.ndarray, n: np.ndarray, c: np.ndarray) -> tuple[_Rings, np.ndarray]:
    """Spherical convex hulls of K clouds of at least three unit points.

    P is a padded (K, m, 3) stack of the clouds, n their sizes and c (K, 3)
    unit vectors with dot above EPS_HEMI against every point of their cloud.
    Each cloud is projected gnomonically to the tangent plane at its c, its
    planar hull is taken there by `_planar_hulls`, and the hull ring is
    mapped back and reduced to extreme vertices by `_extreme_rings`.
    Returns the stack of the hulls, in input order and empty when no cloud
    has one, and per cloud its fault code: -1 for a hull, else the index
    into _HULL_FAULTS of why it has none.
    """
    e1, e2 = _chart_basis(c)
    d = _dots(P, c)
    ring, size = _planar_hulls(_dots(P, e1) / d + 1j * (_dots(P, e2) / d), n)
    hulled = size > 0
    R, ok = _extreme_rings(_rings(_take(P[hulled], ring[hulled]), size[hulled], c[hulled]))
    fault = np.zeros(len(n), dtype=int)
    fault[hulled] = np.where(ok, -1, 1)
    return _Rings(*(a[ok] for a in R)), fault


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
    R, fault = _hulls(arr[None], np.array([arr.shape[0]]), _hemisphere_center(arr)[None])
    if fault[0] >= 0:
        raise DegenerateHull(_HULL_FAULTS[fault[0]])
    return SphericalPolygon._of(R, 0)


def contains(P: SphericalPolygon, p: SpherePoint, tol: float = EPS_ON) -> bool:
    """Whether p lies in the polygon (boundary included, residual tol)."""
    if float(np.dot(p.v, P._ring.c[0])) <= 0.0:
        return False
    return float(np.min(P._ring.N[0] @ p.v)) >= -tol


def extreme_points(P: SphericalPolygon) -> list[SpherePoint]:
    """Vertices that are not interior to the arc joining their neighbours."""
    return [SpherePoint(v) for v in P._ring.V[0][P._ring.t[0] > EPS_ANGLE]]


def _pair_angles(V: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(K, m, m) angles between rows i < j < n of each ring of a padded stack.

    Only the pairs that may be farthest get their angle; every other entry
    is -inf, which no farthest pair has.  The cosines of the rows as unit
    vectors, one stacked product, are within a few ulps of the true ones,
    and `vecmath.ang` is within a few ulps of the true angle.  A pair whose
    cosine is above the ring's least by more than 1e-12 is so at least
    1e-12 - 1e-15 truly, so it is truly nearer by as much (|d cos| <= |d
    angle|), and its angle rounds below that of the pair of least cosine:
    it neither is the farthest pair nor ties with it.  The padded rows are
    copies, so each ring's least cosine over the padded square is its own.
    """
    r = np.arange(V.shape[1])
    U = vecmath.unit(V)
    D = np.matmul(U, U.transpose(0, 2, 1))
    ki, i, j = np.nonzero((D <= D.min(axis=(1, 2), keepdims=True) + 1e-12) & (r[:, None] < r) & (r < n[:, None, None]))
    D.fill(-np.inf)  # the cosines' array holds the angles
    D[ki, i, j] = vecmath.ang(V[ki, i], V[ki, j])
    return D


def _farthest(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per ring, the first pair i < j in row-major order at the largest
    angle of `_pair_angles`: rows i, rows j and the angle."""
    K, m = G.shape[:2]
    i, j = np.divmod(G.reshape(K, m * m).argmax(axis=1), m)
    return i, j, G[np.arange(K), i, j]


def extreme_diameter(P: SphericalPolygon) -> float:
    """Largest pairwise distance between extreme points."""
    V = P._ring.V[:, P._ring.t[0] > EPS_ANGLE]
    return float(_farthest(_pair_angles(V, np.array([V.shape[1]])))[2][0])


def _boundary_diameters(R: _Rings) -> tuple[np.ndarray, ...]:
    """Farthest pair of boundary points of each ring; see `boundary_diameter`.

    Returns the (K,) diameters, whether each is attained vertex-edge, the
    (K, 3) witness points p and q, and the vertex-vertex diameters.

    Only the (vertex v, edge AB) pairs that pass the side tests,
    v.(N x A) <= 1e-9 and v.(B x N) <= 1e-9, get a far point.  Rows of V are
    unit to EPS_UNIT and the products are good to a few ulps, so the slack
    is far above their rounding, and a dropped pair has no say in the
    result: far is -W/|W|, with W the part of v in the edge's plane and
    |W| <= |v|, so where either is above 1e-9, far lies beyond an end of the
    arc by more than 9.9e-10 rad (rounding moves W.(N x A) = v.(N x A) by a
    few ulps, and a far off the circle only adds), ang(A, far) + ang(far, B)
    exceeds L by more than 1.9e-9, and the on-arc test, with its slack of
    1e-10, drops the pair anyway.
    """
    V, L, N = R.V, R.L, R.N
    K, m = L.shape
    valid = np.arange(m) < R.n[:, None]
    i, j, value = _farthest(_pair_angles(V, R.n))  # (a) vertex-vertex
    vertex = value.copy()  # the extreme diameters where every vertex is extreme

    # (b) vertex-edge: the point of each edge circle farthest from each
    # vertex, for the (ring, vertex, edge) pairs the side tests keep
    B = _take(V, _shift(R.n, m, 1))
    # two (K, m, m) products, not one (K, m, 2m), to hold less at once; a
    # product's bits may differ with its shape, which the docstring shows
    # cannot move the result
    sides = np.matmul(V, vecmath.cross(N, V).transpose(0, 2, 1)) <= 1e-9
    sides &= np.matmul(V, vecmath.cross(B, N).transpose(0, 2, 1)) <= 1e-9
    sides &= valid[:, :, None] & valid[:, None, :]
    ki, vi, ei = np.nonzero(sides)
    # the (K, m, m) product v.N is taken once the side tests are done with theirs
    W = V[ki, vi] - np.matmul(V, N.transpose(0, 2, 1))[ki, vi, ei][:, None] * N[ki, ei]
    wn = vecmath.norm(W)
    far = -W / np.maximum(wn, 1e-300)[:, None]
    # kept where the vertex is not a pole of the edge circle and far, already
    # on that circle, lies on the edge arc
    on_arc = vecmath.ang(V[ki, ei], far) + vecmath.ang(far, B[ki, ei]) <= L[ki, ei] + _ARC_SLACK
    keep = (wn > 1e-9) & on_arc
    ki, vi, far = ki[keep], vi[keep], far[keep]
    dist = vecmath.ang(V[ki, vi], far)
    # the largest candidate of each ring, the first in row-major order on a
    # tie: nonzero lists them in that order and lexsort is stable
    order = np.lexsort((-dist, ki))
    first = order[np.diff(ki[order], prepend=-1) != 0]
    first = first[dist[first] > value[ki[first]]]
    rings = ki[first]
    edge = np.zeros(K, dtype=bool)
    edge[rings] = True
    kk = np.arange(K)
    p, q = V[kk, i], V[kk, j]
    p[rings], q[rings], value[rings] = V[rings, vi[first]], far[first], dist[first]
    return value, edge, p, q, vertex


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

    Stacked dot products first drop the candidates that provably lose, each
    test with a slack far above its rounding: the vertex pairs outside the
    window of `_pair_angles`, and the vertex-edge pairs whose far point the
    two side tests of `_boundary_diameters` put past an end of the edge,
    where the on-arc check drops it anyway.  The rest get the full
    enumeration's formulas, so the result is the same to the bit.
    """
    value, edge, p, q, _ = (a[0] for a in _boundary_diameters(P._ring))
    return DiameterWitness(SpherePoint(p), SpherePoint(q), float(value), VERTEX_EDGE if edge else VERTEX_VERTEX)


def _regular_triangles(sides: Sequence[float]) -> _Rings:
    """The validated rings of `regular_triangle` for each side, as one stack."""
    q = []
    for side in sides:
        if not 0.0 < side:
            raise DomainError(f"side={side} must be positive")
        q.append((2.0 * math.cos(side) + 1.0) / 3.0)
        if q[-1] <= EPS_HEMI**2:
            raise DomainError(f"side={side} too long for a hemisphere-contained regular triangle")
    q = np.array(q)
    K = len(q)
    azimuths = np.array([(math.cos(2.0 * math.pi * k / 3.0), math.sin(2.0 * math.pi * k / 3.0)) for k in range(3)])
    st = np.sqrt(1.0 - q)[:, None, None]
    V = np.concatenate([st * azimuths, np.broadcast_to(np.sqrt(q)[:, None, None], (K, 3, 1))], axis=2)
    c = np.tile([0.0, 0.0, 1.0], (K, 1))
    return _validated(_rings(_as_unit_rows(V.reshape(-1, 3)).reshape(K, 3, 3), np.full(K, 3), c))


def regular_triangle(side: float) -> SphericalPolygon:
    """Equilateral spherical triangle of the given side, centered on (0,0,1).

    The circumradius r satisfies cos(r) = sqrt((2 cos(side) + 1) / 3), which
    requires side < 2*pi/3 for the vertices to stay inside an open
    hemisphere.  This is `triangle_diameters`' stack for one side.
    """
    return SphericalPolygon._of(_regular_triangles([side]), 0)


def triangle_diameters(sides: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Boundary and extreme diameters of `regular_triangle` for each side,
    with the bits of `boundary_diameter(...).value` and `extreme_diameter`,
    taken on one stack of the triangles.  Every vertex of a regular triangle
    turns by more than 3e-6, far above EPS_ANGLE, so all three are extreme and
    the vertex-vertex diameter is the extreme one.
    """
    value, *_, extreme = _boundary_diameters(_regular_triangles(sides))
    return value, extreme


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


def _draw_attempts(streams: Streams, rows: np.ndarray, cap_radius_range: tuple[float, float]) -> tuple:
    """One attempt's draws for each of rows: the cap centers (k, 3), 1 - cos
    of their radii, the height and azimuth draws of their samples as padded
    (k, m) stacks, each row repeating its own cyclically, and the sample
    counts.  Each row's draws are, and leave its generator as, a
    `random(3)` for the center's height and azimuth and the radius,
    `integers` for the count and a `random(2 * count)` for the samples, whose
    heights are the first half and azimuths the second; `uniform(lo, hi)` is
    lo + (hi - lo) u of the same next double.  The center and radius take
    their cosines and sines from `math`, one row at a time, as a trial drawn
    alone does: numpy's vectorized cos and sin need not round as `math`'s."""
    uz, uaz, ur = streams.random(rows, 3).reshape(-1, 3).T
    z, az = -1.0 + 2.0 * uz, 2.0 * math.pi * uaz
    lo, hi = cap_radius_range
    count = streams.integers(rows, NUM_POINTS_RANGE[0], NUM_POINTS_RANGE[1] + 1)
    u = streams.random(rows, 2 * count)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    center = np.stack([r * _math_map(math.cos, az), r * _math_map(math.sin, az), z], axis=1)
    sag = 1.0 - _math_map(math.cos, lo + (hi - lo) * ur)
    first = (np.cumsum(2 * count) - 2 * count)[:, None] + np.arange(count.max()) % count[:, None]
    return center, sag, u[first], 2.0 * math.pi * u[first + count[:, None]], count


def _math_map(f, x: np.ndarray) -> np.ndarray:
    """The scalar `math` function f of each entry of x."""
    return np.array(list(map(f, x.tolist())))


def _sample_caps(center: np.ndarray, sag: np.ndarray, u: np.ndarray, az: np.ndarray) -> np.ndarray:
    """Uniform-in-area samples of spherical caps: heights 1 - u * sag and azimuths az in each cap's chart."""
    e1, e2 = _chart_basis(center)
    z = 1.0 - u * sag[:, None]
    st = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    # one (K, m, 3) sum, added to in place in the order (a + b) + c
    out = st[..., None] * np.cos(az)[..., None] * e1[:, None]
    out += st[..., None] * np.sin(az)[..., None] * e2[:, None]
    out += z[..., None] * center[:, None]
    return out


def random_polygons(seed: int, indices: Sequence[int], *, stream: int = STREAM_WIDE) -> tuple[np.ndarray, list]:
    """Trials `indices` of one stream of `random_polygon`, advanced in lockstep.

    Each round, every trial not yet accepted draws one attempt from its own
    generator, a row of one `streams.Streams` for all the trials; the
    attempts' cap samples, hulls and diameters are computed as one stack.
    A trial is accepted on the first attempt whose hull exists and whose
    boundary diameter falls inside its stream's diameter range, so its result
    is the one it gets alone, whatever the other trials are.  A seed or index
    that is not a non-negative integer, or a stream that is not a key of
    STREAMS, raises DomainError before any draw.

    Returns, in index order, the (K, 3) rows (boundary diameter, extreme
    diameter, hull vertex count) of the trials, every vertex of a hull being
    extreme, and their polygons as (stack, row) pairs that
    `SphericalPolygon._of` turns into values.
    """
    indices = list(indices)
    for name, key in (("seed", seed), ("stream", stream), *(("index", i) for i in indices)):
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or key < 0:
            raise DomainError(f"{name}={key!r} must be a non-negative integer")
    if stream not in STREAMS:
        raise DomainError(f"stream={stream!r} is not a trial stream, expected one of {sorted(STREAMS)}")
    cap_radius_range, (lo, hi) = STREAMS[stream]
    streams = Streams(seed, stream, indices)
    rows = np.empty((len(indices), 3))
    polygons = [None] * len(indices)
    todo = np.arange(len(indices))
    for _ in range(MAX_ATTEMPTS):
        if not todo.size:
            break
        center, sag, u, az, count = _draw_attempts(streams, todo, cap_radius_range)
        # cap samples are unit to a few ulps, well inside the EPS_UNIT / 2 that
        # `_as_unit_rows` keeps as it is, so they go to the hull kernel directly;
        # each has dot at least cos(radius) > EPS_HEMI with its cap's center
        R, fault = _hulls(_sample_caps(center, sag, u, az), count, center)
        value, *_, extreme = _boundary_diameters(R)
        hit = (lo < value) & (value < hi)
        done = todo[fault < 0][hit]
        rows[done] = np.stack([value[hit], extreme[hit], R.n[hit]], axis=1)
        for k, row in zip(done, np.flatnonzero(hit)):
            polygons[k] = (R, row)
        todo = np.setdiff1d(todo, done, assume_unique=True)  # without np.unique, which imports numpy.ma
    if todo.size:
        raise SamplingExhausted(f"no polygon with diameter in {(lo, hi)} after {MAX_ATTEMPTS} attempts")
    return rows, polygons


def random_polygon(seed: int, index: int, *, stream: int = STREAM_WIDE) -> tuple[SphericalPolygon, DiameterWitness]:
    """Seeded random convex polygon of a trial stream, with its boundary diameter.

    With the stream's (cap_radius_range, diameter_range) from STREAMS: draws
    a cap center uniformly on the sphere, a cap radius uniformly from
    cap_radius_range, and N points uniformly in the cap, N uniform in
    NUM_POINTS_RANGE; then keeps the hull if its boundary diameter falls
    inside diameter_range (redrawing otherwise, up to MAX_ATTEMPTS times).
    The polygon's hemisphere_center is the cap center.  The generator is
    PCG64 keyed by SeedSequence([seed, stream, index]), so trial `index` of a
    stream is reproducible in isolation and across machines.  This is
    `random_polygons` for one trial, and the witness is `boundary_diameter`
    of its polygon.
    """
    _, polygons = random_polygons(seed, [index], stream=stream)
    P = SphericalPolygon._of(*polygons[0])
    return P, boundary_diameter(P)
