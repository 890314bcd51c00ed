import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereconvex import (
    EPS_ANTIPODE,
    ConfigError,
    DegenerateHull,
    DiameterOutOfRange,
    DomainError,
    GeodesicArc,
    InvalidPolygon,
    NoHemisphere,
    SamplingExhausted,
    SpherePoint,
    SphericalPolygon,
    TooFewPoints,
    antipode,
    arc_point,
    boundary_diameter,
    contains,
    convex_hull,
    distance,
    extreme_diameter,
    extreme_diameter_margin,
    extreme_points,
    random_polygon,
    regular_triangle,
    replay,
    phi,
)
from sphereconvex import polygon as pg
from sphereconvex.campaign import STREAM_RANGES, STREAM_SMALL, STREAM_WIDE
from support import (
    chart_contains,
    edge_edge_candidates,
    on_boundary,
    oracle_diameter,
    sampled_diameter,
    sphere_angle,
)
from strategies import rotate, rotations

OCTANT = [SpherePoint((1, 0, 0)), SpherePoint((0, 1, 0)), SpherePoint((0, 0, 1))]
# seven points on the great circle through (1, 2, 2) / 3 and (2, 1, -2) / 3
_ARC = np.linspace(0.0, 1.0, 7)
GREAT_CIRCLE_ARC = np.outer(np.cos(_ARC), [1.0, 2.0, 2.0]) / 3 + np.outer(np.sin(_ARC), [2.0, 1.0, -2.0]) / 3


def cap_points(seed, count, radius, center=(0.0, 0.0, 1.0)):
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(center)))] = 1.0
    e1 = np.cross(axis, center)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    z = 1.0 - rng.uniform(size=count) * (1.0 - math.cos(radius))
    az = rng.uniform(0.0, 2.0 * math.pi, size=count)
    st_ = np.sqrt(1.0 - z**2)
    pts = st_[:, None] * np.cos(az)[:, None] * e1 + st_[:, None] * np.sin(az)[:, None] * e2 + z[:, None] * center
    return [SpherePoint(p) for p in pts]


def near_circle_points(seed, count, radius, jitter=1e-4):
    """Points just inside the circle of the given radius about (0, 0, 1);
    nearly all of them are hull vertices."""
    rng = np.random.default_rng(seed)
    az = rng.uniform(0.0, 2.0 * math.pi, count)
    theta = radius * (1.0 - jitter * rng.uniform(size=count))
    return np.stack([np.sin(theta) * np.cos(az), np.sin(theta) * np.sin(az), np.cos(theta)], axis=-1)


def spherical_square(colat=0.8):
    z = math.cos(colat)
    s = math.sin(colat)
    return [SpherePoint((s * math.cos(k * math.pi / 2), s * math.sin(k * math.pi / 2), z)) for k in range(4)]


def chart_cycle(xy):
    """Gnomonic image about (0, 0, 1) of the planar vertex cycle xy."""
    return tuple(SpherePoint((x, y, 1.0)) for x, y in xy)


def star_polygon(count, step, radius=0.5):
    """Every `step`-th vertex of the regular count-gon of circumradius radius
    about (0, 0, 1), until the cycle closes."""
    R = math.tan(radius)
    angles = (2 * math.pi * k * step / count for k in range(count))
    return chart_cycle((R * math.cos(a), R * math.sin(a)) for a in angles)


def limacon(b=0.5, count=40):
    """Gnomonic image of r = b + cos(theta): for b < 1 it turns left at every
    vertex but winds twice, once through its inner loop."""
    theta = 2 * math.pi * np.arange(count) / count
    r = b + np.cos(theta)
    return chart_cycle(zip(r * np.cos(theta), r * np.sin(theta)))


def pushed_hexagon(radius, sine=2e-9):
    """Regular hexagon of circumradius `radius` about (0, 0, 1) with vertex 0
    pushed inwards past the arc joining its neighbours, so the chart turn
    there has sine about -sine."""
    R = math.tan(radius)
    xy = [(R * math.cos(k * math.pi / 3), R * math.sin(k * math.pi / 3)) for k in range(6)]
    xy[0] = (R * (0.5 - sine * math.sqrt(3) / 4), 0.0)
    return chart_cycle(xy)


def square_with_collinear_vertex():
    """A square with one edge subdivided by its arc midpoint (5 vertices, one
    interior angle exactly pi)."""
    v = spherical_square()
    mid = arc_point(GeodesicArc(v[0], v[1]), 0.5)
    verts = (v[0], mid, v[1], v[2], v[3])
    return SphericalPolygon(verts, SpherePoint((0.0, 0.0, 1.0)))


class TestConvexHull:
    def test_octant_triangle(self):
        P = convex_hull(OCTANT)
        assert len(P.vertices) == 3
        got = {tuple(np.round(p.v, 12)) for p in P.vertices}
        want = {tuple(np.round(p.v, 12)) for p in OCTANT}
        assert got == want

    def test_arc_midpoints_absorbed(self):
        pts = list(OCTANT)
        for a, b in ((0, 1), (1, 2), (2, 0)):
            pts.append(arc_point(GeodesicArc(OCTANT[a], OCTANT[b]), 0.5))
        P = convex_hull(pts)
        assert len(P.vertices) == 3

    def test_all_inputs_inside(self):
        pts = cap_points(11, 100, 1.2)
        P = convex_hull(pts)
        for p in pts:
            assert contains(P, p)
            assert chart_contains(P, p)

    def test_idempotent(self):
        pts = cap_points(3, 40, 1.0)
        P = convex_hull(pts)
        Q = convex_hull(P.vertices)
        assert len(P.vertices) == len(Q.vertices)
        pv = {tuple(np.round(p.v, 10)) for p in P.vertices}
        qv = {tuple(np.round(p.v, 10)) for p in Q.vertices}
        assert pv == qv

    def test_too_few_points(self):
        for points in (OCTANT[:2], np.eye(3)[:2], []):
            with pytest.raises(TooFewPoints):
                convex_hull(points)

    def test_array_input_matches_points(self, monkeypatch):
        unit = np.array([p.v for p in cap_points(12, 40, 1.2)])
        raw = np.array([[2.0, 0.1, 0.3], [0.2, 3.0, 0.1], [0.1, 0.2, 0.5], [1.0, 1.0, 1.0]])
        created = []
        post_init = SpherePoint.__post_init__

        def counted_post_init(p):
            created.append(p)
            post_init(p)

        monkeypatch.setattr(SpherePoint, "__post_init__", counted_post_init)
        for arr in (unit, raw):
            created.clear()
            P = convex_hull(arr)
            assert created == [P.hemisphere_center]  # the hull ring stays an array
            Q = convex_hull([SpherePoint(v) for v in arr])
            assert np.array_equal(P._varr, Q._varr)
            assert np.array_equal(P.hemisphere_center.v, Q.hemisphere_center.v)
            # the constructor gives one polygon for an array and for the
            # tuple of its points, and keeps a read-only copy of either
            V = np.array(P._varr)
            polys = [SphericalPolygon(V, P.hemisphere_center), SphericalPolygon(P.vertices, P.hemisphere_center)]
            V[0] = V[1]
            for R in polys:
                assert np.array_equal(R._varr, P._varr)
                assert np.array_equal(np.array([p.v for p in R.vertices]), P._varr)
                assert not R._varr.flags.writeable
                with pytest.raises(ValueError):
                    R._varr[0, 0] = 0.0

    @pytest.mark.parametrize(
        "points",
        [
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
            [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0)],
        ],
        ids=["nan-row", "zero-row", "n-by-2", "ragged"],
    )
    def test_malformed_rows_rejected(self, points):
        with pytest.raises(DomainError):
            convex_hull(points)

    def test_no_hemisphere(self):
        pts = OCTANT + [antipode(p) for p in OCTANT]
        with pytest.raises(NoHemisphere):
            convex_hull(pts)

    def test_degenerate_hull_on_one_great_circle(self):
        pts = [SpherePoint((math.cos(t), math.sin(t), 0.0)) for t in np.linspace(0.0, 1.0, 5)]
        with pytest.raises(DegenerateHull):
            convex_hull(pts)

    @pytest.mark.parametrize(
        "points, message",
        [
            # chart points on one line up to rounding: no planar ring at all
            (GREAT_CIRCLE_ARC, "collinear in the chart"),
            ([[0.3, 0.2, 1.0]] * 3, "collinear in the chart"),
            ([[0.3, 0.2, 1.0]] * 3 + [[-0.1, 0.5, 1.0]] * 3, "collinear in the chart"),
            # a planar ring that is no spherical polygon
            ([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1e-13, 1.0]], "fewer than 3 vertices"),
        ],
        ids=["great-circle-arc", "one-point-thrice", "two-points-thrice", "sliver"],
    )
    def test_degenerate_hull_messages(self, points, message):
        with pytest.raises(DegenerateHull, match=message):
            convex_hull(np.array(points))

    def test_point_at_centroid_is_interior(self):
        square = [[-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]]
        assert convex_hull(np.array(square + [[0.0, 0.0, 1.0]]))._varr.shape[0] == 4

    def test_lp_fallback_center(self):
        # a wide cluster plus an outlier pulls the vector-sum center outside
        # the admissible region, exercising the certified fallback
        pts = cap_points(5, 60, 1.45) + [SpherePoint((0.0, 0.05, -1.0))]
        try:
            P = convex_hull(pts)
        except NoHemisphere:
            return  # genuinely not in one open hemisphere; also acceptable
        for p in pts:
            assert contains(P, p)

    @staticmethod
    def near_duplicate_inputs():
        """Cap samples plus a point 1e-10 or 1e-12 rad from one hull vertex."""
        rng = np.random.default_rng(5)
        for k in range(20):
            pts = np.array([p.v for p in cap_points(100 + k, 20, 1.0)])
            v = convex_hull(pts)._varr[k % 4]
            t = np.cross(v, rng.normal(size=3))
            t /= np.linalg.norm(t)
            for eps in (1e-10, 1e-12):
                yield np.vstack([pts, math.cos(eps) * v + math.sin(eps) * t])

    @staticmethod
    def chord_inputs():
        """Ten points on each side of a chart quadrilateral, off the chords by
        1e-13 of their length, at chart scales 1 to 1e4."""
        rng = np.random.default_rng(6)
        for scale in (1.0, 1e2, 1e4):
            for _ in range(5):
                corners = rng.uniform(-1.0, 1.0, size=(4, 2))
                mid = corners.mean(axis=0)
                corners = corners[np.argsort(np.arctan2(corners[:, 1] - mid[1], corners[:, 0] - mid[0]))]
                rows = []
                for a in range(4):
                    p, q = corners[a], corners[(a + 1) % 4]
                    off = np.array([q[1] - p[1], p[0] - q[0]])
                    t = rng.uniform(size=(10, 1))
                    rows.append(p + t * (q - p) + 1e-13 * rng.normal(size=(10, 1)) * off)
                xy = scale * np.vstack(rows)
                yield np.column_stack([xy, np.ones(len(xy))])

    @pytest.mark.parametrize("family", ["near_duplicate_inputs", "chord_inputs"])
    def test_hull_keeps_only_extreme_vertices(self, family):
        # near-duplicate neighbours are dropped and flat vertices absorbed, so
        # every hull vertex turns and every edge is a proper arc
        for pts in getattr(self, family)():
            P = convex_hull(pts)
            assert np.all(P._extreme)
            assert np.all(P._edge_lengths > EPS_ANTIPODE)
            for p in pts:
                assert contains(P, SpherePoint(p), 1e-9)

    @pytest.mark.parametrize("height", [1e-11, 1e-13, 1e-14])
    def test_sliver_is_degenerate(self, height):
        # the planar hull keeps these triangles and quadrilaterals, whose ends
        # have interior angles down to 1e-14: a segment, not a polygon
        for xy in ([[-1.0, 0.0], [1.0, 0.0], [0.0, height]], [[-0.5, 0.2], [0.5, 0.2], [0.1, 0.2 + height], [-0.2, 0.2 - height]]):
            with pytest.raises(DegenerateHull, match="fewer than 3 vertices"):
                convex_hull(np.column_stack([xy, np.ones(len(xy))]))


def as_points_and_array(points):
    """The vertex tuple and its (n, 3) array: the constructor's two inputs."""
    points = tuple(points)
    return points, np.array([p.v for p in points])


class TestPolygonValidation:
    def test_clockwise_rejected(self):
        for verts in as_points_and_array(reversed(OCTANT)):
            with pytest.raises(InvalidPolygon):
                SphericalPolygon(verts, SpherePoint((1.0, 1.0, 1.0)))

    def test_nonconvex_order_rejected(self):
        v = spherical_square()
        for verts in as_points_and_array((v[0], v[2], v[1], v[3])):
            with pytest.raises(InvalidPolygon):
                SphericalPolygon(verts, SpherePoint((0.0, 0.0, 1.0)))

    def test_duplicate_vertex_rejected(self):
        for verts in as_points_and_array((OCTANT[0], OCTANT[0], OCTANT[1], OCTANT[2])):
            with pytest.raises(InvalidPolygon):
                SphericalPolygon(verts, SpherePoint((1.0, 1.0, 1.0)))

    def test_vertex_outside_hemisphere_rejected(self):
        for verts in as_points_and_array(spherical_square()):
            with pytest.raises(InvalidPolygon):
                SphericalPolygon(verts, SpherePoint((0.0, 0.0, -1.0)))

    def test_too_few_vertices(self):
        for verts in as_points_and_array((OCTANT[0], OCTANT[1])):
            with pytest.raises(InvalidPolygon):
                SphericalPolygon(verts, SpherePoint((1.0, 1.0, 1.0)))

    def test_triangle_listed_twice_rejected(self):
        for verts in as_points_and_array(2 * star_polygon(3, 1)):
            with pytest.raises(InvalidPolygon, match="wind once"):
                SphericalPolygon(verts, SpherePoint((0.0, 0.0, 1.0)))

    def test_pentagram_rejected(self):
        for verts in as_points_and_array(star_polygon(5, 2)):
            with pytest.raises(InvalidPolygon, match="wind once"):
                SphericalPolygon(verts, SpherePoint((0.0, 0.0, 1.0)))

    def test_locally_convex_limacon_rejected(self):
        for verts in as_points_and_array(limacon()):
            with pytest.raises(InvalidPolygon, match="wind once"):
                SphericalPolygon(verts, SpherePoint((0.0, 0.0, 1.0)))

    def test_spike_rejected(self):
        a, b = OCTANT[0], OCTANT[1]
        for verts in as_points_and_array((a, b, arc_point(GeodesicArc(a, b), 0.5))):
            with pytest.raises(InvalidPolygon, match="zero interior angle"):
                SphericalPolygon(verts, SpherePoint((1.0, 1.0, 1.0)))

    def test_spike_message_independent_of_rounding(self):
        # a reversal turns by +pi or -pi depending on the rounding of a
        # vanishing cross product; either way it is a zero interior angle
        v = spherical_square()
        for a, b in ((v[0], v[1]), (v[1], v[2]), (OCTANT[1], OCTANT[2])):
            m = arc_point(GeodesicArc(a, b), 0.5)
            for cycle in ((a, b, m), (a, m, b), (m, a, b)):
                for verts in as_points_and_array(cycle):
                    with pytest.raises(InvalidPolygon, match="zero interior angle"):
                        SphericalPolygon(verts, SpherePoint(tuple(a.v + b.v + 0.1 * v[2].v)))

    @pytest.mark.parametrize("radius", [1.0, 1e-4])
    def test_reflex_vertex_rejected_at_every_scale(self, radius):
        for verts in as_points_and_array(pushed_hexagon(radius)):
            with pytest.raises(InvalidPolygon, match="convex counterclockwise"):
                SphericalPolygon(verts, SpherePoint((0.0, 0.0, 1.0)))

    def test_flat_vertex_allowed(self):
        P = square_with_collinear_vertex()
        assert len(P.vertices) == 5

    def test_json_roundtrip(self):
        P = convex_hull(cap_points(9, 20, 0.9))
        Q = SphericalPolygon.from_dict(P.to_dict())
        assert len(P.vertices) == len(Q.vertices)
        for p, q in zip(P.vertices, Q.vertices):
            assert distance(p, q) <= 1e-15

    def test_from_dict_lonlat_vertices(self):
        obj = {
            "vertices": [
                {"lon_deg": 0.0, "lat_deg": 0.0},
                {"lon_deg": 90.0, "lat_deg": 0.0},
                {"lon_deg": 0.0, "lat_deg": 90.0},
            ]
        }
        P = SphericalPolygon.from_dict(obj)
        assert boundary_diameter(P).value == pytest.approx(math.pi / 2, abs=1e-12)


class TestExtremePoints:
    def test_triangle_all_extreme(self):
        P = convex_hull(OCTANT)
        assert len(extreme_points(P)) == 3

    def test_collinear_vertex_dropped(self):
        P = square_with_collinear_vertex()
        ex = extreme_points(P)
        assert len(ex) == 4
        v = spherical_square()
        got = {tuple(np.round(p.v, 12)) for p in ex}
        want = {tuple(np.round(p.v, 12)) for p in v}
        assert got == want

    def test_random_hull_vertices_are_extreme(self):
        P = convex_hull(cap_points(17, 60, 1.1))
        assert len(extreme_points(P)) == len(P.vertices)
        # brute-force: no vertex lies in the interior of an arc between two
        # other boundary points
        rng = np.random.default_rng(4)
        V = np.array([p.v for p in P.vertices])
        n = len(V)
        for _ in range(300):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                gap = sphere_angle(V[i], V[k]) + sphere_angle(V[k], V[j]) - sphere_angle(V[i], V[j])
                assert gap > 1e-9


class TestBoundaryDiameter:
    def test_thin_polygon_vertex_vertex(self):
        # short-edged thin polygon: the two tips are the farthest pair
        a, b = 1.3, 0.01
        ts = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        pts = []
        for t in ts:
            x, y = math.tan(a) * math.cos(t), math.tan(b) * math.sin(t)
            pts.append(SpherePoint(np.array([x, y, 1.0]) / math.sqrt(1.0 + x * x + y * y)))
        P = convex_hull(pts)
        w = boundary_diameter(P)
        assert w.attainment == "vertex-vertex"
        V = np.array([p.v for p in P.vertices])
        brute = float(sphere_angle(V[:, None, :], V[None, :, :]).max())
        assert w.value == pytest.approx(brute, abs=1e-15)
        assert w.value == pytest.approx(2 * a, abs=1e-12)

    def test_tight_triangle_vertex_edge(self):
        delta = 2 * math.pi / 3
        P = regular_triangle(2 * phi(delta))
        w = boundary_diameter(P)
        assert w.attainment == "vertex-edge"
        assert w.value == pytest.approx(delta, abs=1e-9)
        assert on_boundary(P, w.p)
        assert on_boundary(P, w.q)

    def test_tiny_polygon_planar_limit(self):
        pts = cap_points(23, 12, 1e-3)
        P = convex_hull(pts)
        w = boundary_diameter(P)
        assert w.attainment == "vertex-vertex"
        # gnomonic brute force: distances in the tangent chart at this scale
        # match spherical distances to third order
        V = np.array([p.v for p in P.vertices])
        c = P.hemisphere_center.v
        d = V @ c
        Z = np.stack([(V @ e) / d for e in _basis(c)], axis=-1)
        planar = np.linalg.norm(Z[:, None, :] - Z[None, :, :], axis=-1)
        assert w.value == pytest.approx(float(planar.max()), abs=1e-9)

    def test_matches_sampling_oracle(self):
        for idx in range(20):
            P, w = random_polygon(914, idx)
            raw, _, _ = sampled_diameter(P, total=320)
            refined = oracle_diameter(P, total=320)
            assert w.value >= raw - 1e-6
            assert w.value <= refined + 1e-9
            assert w.value == pytest.approx(refined, abs=1e-6)

    def test_boundary_at_least_extreme(self):
        for idx in range(30):
            P, w = random_polygon(7, idx)
            assert w.value >= extreme_diameter(P) - 1e-12

    @pytest.mark.parametrize("count, radius", [(70, 0.9), (130, 1.2), (180, 1.4), (190, 1.5)])
    def test_edge_edge_pairs_never_beat_diameter(self, count, radius):
        # each edge-edge critical pair is a saddle of the distance; pin that
        # on near-circular hulls, where the class has the most candidates,
        # and on random trials
        P = convex_hull(near_circle_points(count, count, radius))
        assert 60 <= len(P.vertices) <= 150
        polys = [P] + [random_polygon(7, idx, stream=count)[0] for idx in range(25)]
        found = 0
        for Q in polys:
            cand = edge_edge_candidates(Q)
            found += cand.size
            assert np.all(cand <= boundary_diameter(Q).value + 1e-12)
        assert found > 0

    def test_witness_points_on_boundary(self):
        for idx in range(10):
            P, w = random_polygon(31, idx)
            assert on_boundary(P, w.p)
            assert on_boundary(P, w.q)
            assert distance(w.p, w.q) == pytest.approx(w.value, abs=1e-12)


class TestRandomPolygon:
    def test_exhaustion_raises_library_error(self):
        with pytest.raises(SamplingExhausted, match="after 3 attempts"):
            random_polygon(1, 0, diameter_range=(3.2, 3.3), max_attempts=3)

    # the cap center charts the hull, so no cap may reach its horizon
    @pytest.mark.parametrize("cap_radius_range", [(0.5, math.pi / 2), (0.5, 2 * math.pi), (0.0, 1.0), (1.0, 0.5)])
    def test_cap_range_rejected_before_any_draw(self, monkeypatch, cap_radius_range):
        monkeypatch.setattr(pg, "_draw", None)  # a draw would raise TypeError
        with pytest.raises(DomainError, match="cap_radius_range"):
            random_polygon(1, 0, cap_radius_range=cap_radius_range)

    # numpy's SeedSequence would raise a bare ValueError or TypeError for the
    # negative and fractional keys; `replay` knows only the campaign's streams
    @pytest.mark.parametrize(
        "draw, args, kwargs, error, match",
        [
            (random_polygon, (42, -1), {}, DomainError, "index=-1"),
            (random_polygon, (-1, 0), {}, DomainError, "seed=-1"),
            (random_polygon, (42, 0), {"stream": -1}, DomainError, "stream=-1"),
            (random_polygon, (42, 1.5), {}, DomainError, "index=1.5"),
            (random_polygon, (42.0, 0), {}, DomainError, "seed=42.0"),
            (random_polygon, (42, True), {}, DomainError, "index=True"),
            (replay, (42, 0, -1), {}, DomainError, "index=-1"),
            (replay, (42, 2, 0), {}, ConfigError, "stream 2"),
            (replay, (42, -1, 0), {}, ConfigError, "stream -1"),
        ],
    )
    def test_trial_key_rejected_before_any_draw(self, monkeypatch, draw, args, kwargs, error, match):
        monkeypatch.setattr(pg, "_draw", None)  # a draw would raise TypeError
        with pytest.raises(error, match=match):
            draw(*args, **kwargs)

    @pytest.mark.parametrize("stream", sorted(STREAM_RANGES))
    def test_stream_ranges_accepted(self, stream):
        P, _ = random_polygon(1, 0, stream=stream, **STREAM_RANGES[stream])
        assert np.min(P._varr @ P.hemisphere_center.v) >= math.sin(0.05) - 1e-12


class TestRegularTriangle:
    def test_octant_case(self):
        P = regular_triangle(math.pi / 2)
        V = np.array([p.v for p in P.vertices])
        dots = V @ V.T - np.eye(3)
        assert np.allclose(dots, 0.0, atol=1e-12)

    def test_side_lengths(self):
        for side in (0.3, 1.0, 2.0):
            P = regular_triangle(side)
            for k in range(3):
                assert distance(P.vertices[k], P.vertices[(k + 1) % 3]) == pytest.approx(side, abs=1e-12)

    def test_planar_limit_circumradius(self):
        side = 1e-3
        P = regular_triangle(side)
        r = distance(P.vertices[0], SpherePoint((0.0, 0.0, 1.0)))
        assert r == pytest.approx(side / math.sqrt(3.0), abs=1e-10)

    @pytest.mark.parametrize("side", [0.0, -1.0, 2 * math.pi / 3, 3.0])
    def test_domain_rejected(self, side):
        with pytest.raises(DomainError):
            regular_triangle(side)


class TestMargin:
    def test_tight_family_margin_is_zero(self):
        for delta in (2 * math.pi / 3, 2.5, 3.0):
            P = regular_triangle(2 * phi(delta))
            assert abs(extreme_diameter_margin(P)) <= 1e-6
            assert extreme_diameter(P) == pytest.approx(2 * phi(delta), abs=1e-12)

    def test_small_diameter_out_of_range(self):
        P = convex_hull(OCTANT)  # diameter exactly pi/2
        with pytest.raises(DiameterOutOfRange):
            extreme_diameter_margin(P)

    def test_random_margins_nonnegative(self):
        for idx in range(150):
            _, w, ed = replay(98, STREAM_WIDE, idx)
            assert ed - 2.0 * phi(w.value) >= -1e-9
            assert ed / w.value > 2.0 / 3.0

    def test_small_diameter_equality(self):
        for idx in range(100):
            _, w, ed = replay(55, STREAM_SMALL, idx)
            assert abs(w.value - ed) <= 1e-9


class TestRotationInvariance:
    @given(rotations())
    @settings(max_examples=20)
    def test_diameters_invariant(self, rot):
        P, w = random_polygon(1234, 5)
        moved = SphericalPolygon(
            tuple(SpherePoint(rotate(rot, p.v)) for p in P.vertices),
            SpherePoint(rotate(rot, P.hemisphere_center.v)),
        )
        assert boundary_diameter(moved).value == pytest.approx(w.value, abs=1e-12)
        assert extreme_diameter(moved) == pytest.approx(extreme_diameter(P), abs=1e-12)
        assert extreme_diameter_margin(moved) == pytest.approx(extreme_diameter_margin(P), abs=1e-12)

    @given(rotations())
    @settings(max_examples=20)
    def test_hull_commutes_with_rotation(self, rot):
        pts = cap_points(77, 25, 1.0)
        P = convex_hull(pts)
        Q = convex_hull([SpherePoint(rotate(rot, p.v)) for p in pts])
        assert len(P.vertices) == len(Q.vertices)
        rotated = {tuple(np.round(rotate(rot, p.v), 9)) for p in P.vertices}
        got = {tuple(np.round(q.v, 9)) for q in Q.vertices}
        assert rotated == got


class TestContains:
    def test_edge_midpoint_on_boundary(self):
        P = convex_hull(OCTANT)
        mid = arc_point(GeodesicArc(OCTANT[0], OCTANT[1]), 0.5)
        assert contains(P, mid)

    def test_far_point_outside(self):
        P = convex_hull(OCTANT)
        assert not contains(P, SpherePoint((-1.0, -1.0, -1.0)))
        assert not contains(P, SpherePoint((1.0, 1.0, -0.5)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_agrees_with_chart_oracle(self, seed):
        P = convex_hull(cap_points(6, 30, 1.0))
        rng = np.random.default_rng(seed)
        p = SpherePoint(rng.normal(size=3))
        got = contains(P, p, tol=1e-12)
        want = chart_contains(P, p, tol=1e-7)
        strict_want = chart_contains(P, p, tol=-1e-7)
        # agreement except within the oracle's own tolerance band
        if strict_want:
            assert got
        if not want:
            assert not got


def _basis(center):
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(center)))] = 1.0
    e1 = np.cross(axis, center)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(center, e1)
