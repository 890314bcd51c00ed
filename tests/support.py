"""Sampling-based oracles used to cross-check the geometry engines.

These deliberately re-implement the primitives they need (distance,
interpolation, chart projection) so a defect in the production code cannot
hide inside its own oracle.  The exception is `dense_boundary_diameters`,
the unfiltered enumeration the prefilters must match to the bit, which
therefore runs the library's own formulas; so do
`dense_min_sampled_distance`, the full grid behind the lune clearance
window, `scalar_quad_sides`, the one-pair embedding behind the stacked
quadrilaterals, and `reference_ring_faults`, the cycle checks with the
winding sum taken per ring length, whose decisions the one masked sum of
`pg._ring_faults` must give.  `generator_draw` is one attempt's draws from
numpy's own Generator, the reference whose bits and generator state the
array sampler `pg._draw_attempts` must give, and `six_call_draw` that
attempt as one generator call per draw.  `no_child_left` checks that a
test reaped every process it forked.
"""

import math
import os

import numpy as np

from sphereconvex import DomainError, SpherePoint, distance
from sphereconvex import lune as ln, polygon as pg


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def sphere_angle(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.arctan2(np.linalg.norm(np.cross(u, v), axis=-1), np.sum(u * v, axis=-1))


def arc_points(a, b, t):
    """Points along the shorter arc a -> b at parameters t in [0, 1]."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    theta = float(sphere_angle(a, b))
    if theta < 1e-12:
        return np.tile(a, (len(t), 1))
    return (np.sin((1.0 - t)[:, None] * theta) * a + np.sin(t[:, None] * theta) * b) / np.sin(theta)


def vertex_array(P):
    return np.array([p.v for p in P.vertices])


def boundary_samples(P, total):
    """(points, edge_index, param) spread along the boundary by edge length."""
    V = vertex_array(P)
    B = np.roll(V, -1, axis=0)
    lengths = sphere_angle(V, B)
    counts = np.maximum(2, np.round(lengths / lengths.sum() * total).astype(int))
    pts, eidx, ts = [], [], []
    for e in range(len(V)):
        t = np.linspace(0.0, 1.0, counts[e], endpoint=False)
        pts.append(arc_points(V[e], B[e], t))
        eidx.append(np.full(counts[e], e, dtype=int))
        ts.append(t)
    return np.vstack(pts), np.concatenate(eidx), np.concatenate(ts)


def sampled_diameter(P, total=320):
    """Max pairwise distance over boundary samples (a lower bound on truth).

    Returns (value, (edge, t), (edge, t)) for the attaining sample pair.
    """
    pts, eidx, ts = boundary_samples(P, total)
    D = sphere_angle(pts[:, None, :], pts[None, :, :])
    k = int(np.argmax(D))
    i, j = divmod(k, len(pts))
    return float(D[i, j]), (int(eidx[i]), float(ts[i])), (int(eidx[j]), float(ts[j]))


def _refine_pair(V, B, pair1, pair2, rounds=24, width=0.6, grid=9):
    (e1, t1), (e2, t2) = pair1, pair2
    best = -1.0
    for _ in range(rounds):
        g1 = np.clip(np.linspace(t1 - width, t1 + width, grid), 0.0, 1.0)
        g2 = np.clip(np.linspace(t2 - width, t2 + width, grid), 0.0, 1.0)
        P1 = arc_points(V[e1], B[e1], g1)
        P2 = arc_points(V[e2], B[e2], g2)
        D = sphere_angle(P1[:, None, :], P2[None, :, :])
        k = int(np.argmax(D))
        i, j = divmod(k, grid)
        best = float(D[i, j])
        t1, t2 = float(g1[i]), float(g2[j])
        width /= 3.0
    return best


def oracle_diameter(P, total=320, top_k=5):
    """Sampled diameter locally refined around the best few edge pairs.

    Approaches the true boundary diameter from below; the midpoint of every
    zoom window is re-evaluated, so refinement never decreases the value.
    """
    pts, eidx, ts = boundary_samples(P, total)
    V = vertex_array(P)
    B = np.roll(V, -1, axis=0)
    D = sphere_angle(pts[:, None, :], pts[None, :, :])
    order = np.argsort(D, axis=None)[::-1]
    best = -1.0
    seen = set()
    for k in order:
        i, j = divmod(int(k), len(pts))
        key = (int(eidx[i]), int(eidx[j]))
        if key in seen:
            continue
        seen.add(key)
        val = _refine_pair(V, B, (int(eidx[i]), float(ts[i])), (int(eidx[j]), float(ts[j])))
        best = max(best, val)
        if len(seen) >= top_k:
            break
    return best


def edge_edge_candidates(P, slack=1e-10):
    """Distances of all edge-edge critical pairs of the polygon.

    For each pair of edges, the two crossings of their common-perpendicular
    great circle with each edge circle, kept when both lie on their arcs.
    This is the candidate class boundary_diameter no longer enumerates: such
    a pair is a saddle of the distance, so it never exceeds the diameter.
    """
    V = vertex_array(P)
    B = np.roll(V, -1, axis=0)
    N = np.cross(V, B)
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    lengths = sphere_angle(V, B)
    i, j = np.triu_indices(len(V), k=1)
    M = np.cross(N[i], N[j])
    mn = np.linalg.norm(M, axis=1)
    ok = mn > 1e-12  # edges on one great circle have no common perpendicular
    i, j, M = i[ok], j[ok], M[ok] / mn[ok, None]
    U1 = np.cross(N[i], M)
    U2 = np.cross(N[j], M)

    def on_arc(x, e):
        return sphere_angle(V[e], x) + sphere_angle(x, B[e]) <= lengths[e] + slack

    vals = []
    for p in (U1, -U1):
        for q in (U2, -U2):
            keep = on_arc(p, i) & on_arc(q, j)
            vals.append(sphere_angle(p[keep], q[keep]))
    return np.concatenate(vals)


def chart_contains(P, p, tol=1e-9):
    """Planar point-in-convex-polygon test in the tangent chart at the
    polygon's hemisphere center (an independent inside test)."""
    c = P.hemisphere_center.v
    if float(np.dot(p.v, c)) <= 0.0:
        return False
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(c)))] = 1.0
    e1 = np.cross(axis, c)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)

    def chart(x):
        d = x @ c
        return np.stack([(x @ e1) / d, (x @ e2) / d], axis=-1)

    Z = chart(vertex_array(P))
    z = chart(p.v)
    e = np.roll(Z, -1, axis=0) - Z
    w = z - Z
    cr = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
    scale = np.linalg.norm(e, axis=1) * (np.linalg.norm(w, axis=1) + 1e-300)
    return bool(np.all(cr >= -tol * scale))


def on_boundary(P, p, tol=1e-9):
    """Whether p lies on some edge arc of the polygon (within tol)."""
    V = vertex_array(P)
    B = np.roll(V, -1, axis=0)
    N = np.cross(V, B)
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    lengths = sphere_angle(V, B)
    on_circle = np.abs(N @ p.v) <= tol
    on_arc = sphere_angle(V, p.v) + sphere_angle(p.v, B) <= lengths + 1e-8
    return bool(np.any(on_circle & on_arc))


def dense_boundary_diameters(R) -> tuple:
    """Both candidate classes enumerated over every pair, with no prefilter:
    the reference that `pg._pair_angles` and `pg._boundary_diameters` must
    match to the bit.  Returns the vertex-vertex (i, j, angle) and the
    boundary diameter's (value, vertex-edge, p, q)."""
    V, L, N = R.V, R.L, R.N
    K, m = L.shape
    valid = np.arange(m) < R.n[:, None]
    upper = (np.arange(m)[:, None] < np.arange(m)) & (np.arange(m) < R.n[:, None, None])
    A = np.where(upper, pg.vecmath.ang(V[:, :, None], V[:, None, :]), -np.inf).reshape(K, m * m)
    i, j = np.divmod(A.argmax(axis=1), m)  # row-major, the scan order for ties
    value = A[np.arange(K), i * m + j]
    W = V[:, :, None, :] - np.matmul(V, N.transpose(0, 2, 1))[..., None] * N[:, None, :, :]
    wn = pg.vecmath.norm(W)
    far = -W / np.maximum(wn, 1e-300)[..., None]
    B = pg._take(V, pg._shift(R.n, m, 1))
    on_arc = pg.vecmath.ang(V[:, None], far) + pg.vecmath.ang(far, B[:, None]) <= L[:, None, :] + pg._ARC_SLACK
    ki, vi, ei = np.nonzero((wn > 1e-9) & on_arc & valid[:, :, None] & valid[:, None, :])
    dist = np.full((K, m * m), -np.inf)
    dist[ki, vi * m + ei] = pg.vecmath.ang(V[ki, vi], far[ki, vi, ei])
    kk = np.arange(K)
    e = dist.argmax(axis=1)
    edge = dist[kk, e] > value
    vi, ei = np.divmod(e, m)
    p = np.where(edge[:, None], V[kk, vi], V[kk, i])
    q = np.where(edge[:, None], far[kk, vi, ei], V[kk, j])
    return (i, j, value), (np.where(edge, dist[kk, e], value), edge, p, q)


def cyclic(parts) -> tuple:
    """Stack of the arrays in parts, each repeated cyclically to the longest length, and their lengths."""
    n = np.array([len(a) for a in parts])
    off = np.cumsum(n) - n
    return np.concatenate(parts)[off[:, None] + np.arange(n.max()) % n[:, None]], n


def ring_sums(A: np.ndarray, n: np.ndarray) -> np.ndarray:
    """np.sum of each A[k, :n[k]], by ring length: pairwise summation groups by length."""
    out = np.empty(len(n))
    for length in set(n.tolist()):
        rows = n == length
        out[rows] = A[rows, :length].sum(axis=1)
    return out


def reference_ring_faults(R: pg._Rings) -> np.ndarray:
    """`pg._ring_faults` with turns and fan summed apart, each pairwise over
    the ring alone (`ring_sums`): the decisions its one masked sum must give."""
    Vc = pg._dots(R.V, R.c)
    fan = 2.0 * np.arctan2(
        np.sin(R.L) * pg._dots(R.N, R.c), 1.0 + Vc + pg._take(Vc, pg._shift(R.n, Vc.shape[1], 1)) + np.cos(R.L)
    )
    fails = np.stack(
        [
            Vc.min(axis=1) <= pg.EPS_HEMI,
            np.any((R.L <= pg.EPS_ANTIPODE) | (R.L >= math.pi - pg.EPS_ANTIPODE), axis=1),
            np.any(np.abs(R.t) >= math.pi - 1e-12, axis=1),
            np.any(R.t < -1e-9, axis=1),
            np.abs(ring_sums(R.t, R.n) + ring_sums(fan, R.n) - 2.0 * math.pi) > 1e-6,
        ]
    )
    return np.where(fails.any(axis=0), fails.argmax(axis=0), -1)


def stack_of(polys) -> pg._Rings:
    Vs, n = cyclic([P._ring.V[0] for P in polys])
    return pg._rings(Vs, n, np.array([P.hemisphere_center.v for P in polys]))


def dense_min_sampled_distance(lune, samples_k, samples_l) -> float:
    """`ln.min_sampled_distance` over the full (nk, nl, 3) grid, with no
    window: the reference it must match to the bit."""
    ln._require_wide(lune.thickness)
    if samples_k < 2 or samples_l < 2:
        raise DomainError("need at least 2 samples on each arc")
    vecmath = ln.vecmath
    i, j = ln.equilateral_points(lune)
    h = lune.side_b.center.v
    n_b = lune.side_b.circle.n

    t = np.linspace(0.0, 1.0, samples_k)
    chord = vecmath.slerp(i.v, j.v, t)  # (nk, 3)

    w = chord - (chord @ n_b)[:, None] * n_b
    w -= (w @ n_b)[:, None] * n_b
    feet = vecmath.unit(w)
    flip = np.where(feet @ h >= 0.0, 1.0, -1.0)
    drops = feet * flip[:, None]  # (nk, 3)

    lengths = vecmath.ang(h, drops)  # (nk,)
    s = np.linspace(0.0, 1.0, samples_l)
    num = (
        np.sin((1.0 - s)[None, :, None] * lengths[:, None, None]) * h
        + np.sin(s[None, :, None] * lengths[:, None, None]) * drops[:, None, :]
    )
    degenerate = lengths < 1e-12
    num[degenerate] = h
    arcs = vecmath.unit(num)  # (nk, nl, 3)

    dists = vecmath.ang(chord[:, None, :], arcs)
    return float(dists.min())


def scalar_quad_sides(kappa, lam) -> list:
    """The sides (kappa, lam, mu, nu, xi) of the quadrilateral embedding of
    one pair, computed pair by pair with `math`'s trigonometry and the 1-D
    `np.linalg.norm` and `np.dot`, with d turned to a + c's side, where the
    kernel's d lies by construction: the reference whose bits
    `quad.measure_quads` must give every row."""
    b = np.array([1.0, 0.0, 0.0])
    c = np.array([math.cos(lam), math.sin(lam), 0.0])
    a = np.array([math.cos(kappa), 0.0, math.sin(kappa)])
    n_a = np.array([math.sin(kappa), 0.0, -math.cos(kappa)])
    n_c = np.array([math.sin(lam), -math.cos(lam), 0.0])
    w = pg.vecmath.cross(n_c, n_a)
    d = w / float(np.linalg.norm(w))
    if float(np.dot(d, a + c)) < 0.0:
        d = -d
    a, b, c, d = (SpherePoint(v) for v in (a, b, c, d))
    return [distance(a, b), distance(b, c), distance(c, d), distance(d, a), distance(b, d)]


def generator_draw(rng, cap_radius_range) -> tuple:
    """One attempt's draws from a numpy Generator: a cap center, 1 - cos of
    its radius, and the height and azimuth draws of its samples.  The
    center's height and azimuth and the radius come from one `random(3)`,
    the count from `integers`, and the samples' draws from one
    `random(2 * count)`."""
    uz, uaz, ur = rng.random(3).tolist()
    z, az = -1.0 + 2.0 * uz, 2.0 * math.pi * uaz
    lo, hi = cap_radius_range
    count = int(rng.integers(pg.NUM_POINTS_RANGE[0], pg.NUM_POINTS_RANGE[1] + 1))
    u = rng.random(2 * count)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    center = np.array([r * math.cos(az), r * math.sin(az), z])
    return center, 1.0 - math.cos(lo + (hi - lo) * ur), u[:count], 2.0 * math.pi * u[count:]


def six_call_draw(rng, cap_radius_range) -> tuple:
    """`generator_draw` as one generator call per draw (a `uniform` each for
    the center's height and azimuth, the radius and the two sample arrays,
    and `integers` for the count): it must give the same bits and leave the
    generator in the same state."""
    z = rng.uniform(-1.0, 1.0)
    az = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    center = np.array([r * math.cos(az), r * math.sin(az), z])
    radius = rng.uniform(*cap_radius_range)
    count = int(rng.integers(pg.NUM_POINTS_RANGE[0], pg.NUM_POINTS_RANGE[1] + 1))
    return center, 1.0 - math.cos(radius), rng.uniform(size=count), rng.uniform(0.0, 2.0 * math.pi, size=count)
