import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereconvex import (
    EPS_ON,
    DegeneratePair,
    DomainError,
    GeodesicArc,
    GreatCircle,
    ParameterOutOfRange,
    PoleDegenerate,
    Semicircle,
    SpherePoint,
    angle_at,
    antipode,
    arc_point,
    convex_hull,
    distance,
    foot_of_perpendicular,
    great_circle_through,
)
from strategies import separated_pairs, tangent_frames, unit_points

X = SpherePoint((1.0, 0.0, 0.0))
Y = SpherePoint((0.0, 1.0, 0.0))
Z = SpherePoint((0.0, 0.0, 1.0))


class TestSpherePoint:
    def test_renormalizes(self):
        p = SpherePoint((0.0, 0.0, 2.0))
        assert np.linalg.norm(p.v) == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            SpherePoint((0.0, 0.0, 0.0))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            SpherePoint((float("nan"), 0.0, 1.0))

    def test_overflowing_norm_rejected(self):
        # every coordinate is finite, but the norm overflows float64
        with pytest.raises(DomainError, match="overflows"):
            SpherePoint((1e308, 1e308, 0.0))

    def test_overflowing_hull_row_rejected(self):
        rows = [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1e308, 1e308, 0.0]]
        for points in (rows, np.array(rows)):
            with pytest.raises(DomainError, match="overflows"):
                convex_hull(points)

    def test_integer_beyond_float64_rejected(self):
        # a Python integer too large for a float64 coordinate
        with pytest.raises(DomainError, match="overflows"):
            SpherePoint((10**400, 0, 0))
        with pytest.raises(DomainError, match="overflows"):
            convex_hull([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [10**400, 0, 0]])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SpherePoint(("x", 0, 0)),
            lambda: SpherePoint(([1, 2], 0, 0)),
            lambda: GreatCircle(("x", 0, 0)),
            lambda: SpherePoint.from_json({"lon_deg": 10**400, "lat_deg": 0}),
            lambda: SpherePoint.from_json({"lon_deg": 0, "lat_deg": "x"}),
            lambda: SpherePoint.from_lonlat(math.inf, 0.0),
            lambda: SpherePoint(("1", "0", "0")),
            lambda: SpherePoint((True, 0, 0)),
            lambda: SpherePoint(np.array([True, False, False])),
            lambda: SpherePoint.from_json({"lon_deg": "90", "lat_deg": 0}),
            lambda: SpherePoint.from_lonlat(0.0, True),
            lambda: convex_hull([[True, 0, 0], [0, 1, 0], [0, 0, "1"]]),
            lambda: convex_hull(np.array([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])),
        ],
        ids=[
            "non-numeric",
            "ragged",
            "non-numeric-circle",
            "overflowing-longitude",
            "non-numeric-latitude",
            "infinite-longitude",
            "numeric-strings",
            "boolean-coordinate",
            "boolean-array",
            "numeric-string-longitude",
            "boolean-latitude",
            "boolean-and-string-rows",
            "string-array-rows",
        ],
    )
    def test_malformed_input_is_domain_error(self, make):
        with pytest.raises(DomainError):
            make()

    def test_vector_is_read_only(self):
        p = SpherePoint((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            p.v[0] = 1.0

    def test_json_list_form(self):
        p = SpherePoint.from_json([0.0, 0.0, 1.0])
        assert distance(p, Z) == 0.0

    def test_json_lonlat_form(self):
        p = SpherePoint.from_json({"lon_deg": 90.0, "lat_deg": 0.0})
        assert distance(p, Y) <= 1e-15

    @given(unit_points())
    def test_lonlat_roundtrip(self, p):
        lon, lat = p.to_lonlat()
        back = SpherePoint.from_lonlat(lon, lat)
        assert distance(p, back) <= 1e-12


class TestDistance:
    def test_identity(self):
        assert distance(X, X) == 0.0

    def test_orthogonal(self):
        assert distance(X, Y) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_antipodal(self):
        assert distance(Z, antipode(Z)) == pytest.approx(math.pi, abs=1e-15)

    @given(unit_points(), unit_points())
    def test_symmetry(self, p, q):
        assert distance(p, q) == distance(q, p)

    @given(unit_points(), unit_points())
    def test_antipode_supplement(self, p, q):
        assert distance(p, q) + distance(p, antipode(q)) == pytest.approx(math.pi, abs=1e-12)

    @given(unit_points(), unit_points(), unit_points())
    def test_triangle_inequality(self, p, q, r):
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-12

    def test_accurate_near_zero(self):
        # arccos of the dot product would lose half the digits here
        q = SpherePoint((1.0, 1e-9, 0.0))
        assert distance(X, q) == pytest.approx(1e-9, rel=1e-12)


class TestAntipode:
    def test_simple(self):
        assert np.allclose(antipode(Z).v, (0.0, 0.0, -1.0))

    @given(unit_points())
    def test_involution(self, p):
        assert distance(antipode(antipode(p)), p) == 0.0


class TestGreatCircle:
    def test_octant_normal(self):
        c = great_circle_through(X, Y)
        assert np.allclose(c.n, (0.0, 0.0, 1.0), atol=1e-15)

    def test_equal_points_rejected(self):
        near = SpherePoint((1.0, 1e-12, 0.0))
        with pytest.raises(DegeneratePair):
            great_circle_through(X, near)

    def test_antipodal_points_rejected(self):
        with pytest.raises(DegeneratePair):
            great_circle_through(Z, antipode(Z))

    @given(separated_pairs())
    def test_contains_both_endpoints(self, pair):
        p, q = pair
        c = great_circle_through(p, q)
        assert abs(float(np.dot(p.v, c.n))) <= EPS_ON
        assert abs(float(np.dot(q.v, c.n))) <= EPS_ON


class TestArc:
    def test_endpoints(self):
        arc = GeodesicArc(X, Y)
        assert distance(arc_point(arc, 0.0), X) == 0.0
        assert distance(arc_point(arc, 1.0), Y) <= 1e-15

    def test_midpoint_bisects(self):
        arc = GeodesicArc(X, Z)
        m = arc_point(arc, 0.5)
        assert distance(arc.a, m) == pytest.approx(arc.length / 2, abs=1e-15)
        assert distance(m, arc.b) == pytest.approx(arc.length / 2, abs=1e-15)

    def test_quarter_equator_closed_form(self):
        arc = GeodesicArc(X, Y)
        p = arc_point(arc, 0.25)
        expected = (math.cos(math.pi / 8), math.sin(math.pi / 8), 0.0)
        assert np.allclose(p.v, expected, atol=1e-15)

    @given(separated_pairs(), st.floats(0.0, 1.0, allow_nan=False))
    def test_proportional_length(self, pair, t):
        arc = GeodesicArc(*pair)
        p = arc_point(arc, t)
        assert distance(arc.a, p) == pytest.approx(t * arc.length, abs=1e-12)
        assert abs(float(np.dot(p.v, arc.circle.n))) <= EPS_ON

    def test_parameter_out_of_range(self):
        arc = GeodesicArc(X, Y)
        with pytest.raises(ParameterOutOfRange):
            arc_point(arc, 1.0 + 1e-9)
        with pytest.raises(ParameterOutOfRange):
            arc_point(arc, -0.1)

    def test_antipodal_endpoints_rejected(self):
        with pytest.raises(DegeneratePair):
            GeodesicArc(Z, antipode(Z))


class TestFootOfPerpendicular:
    def test_point_on_circle_is_fixed(self):
        equator = GreatCircle((0.0, 0.0, 1.0))
        assert distance(foot_of_perpendicular(X, equator), X) == 0.0

    def test_pole_degenerate(self):
        equator = GreatCircle((0.0, 0.0, 1.0))
        with pytest.raises(PoleDegenerate):
            foot_of_perpendicular(SpherePoint((1e-12, 0.0, 1.0)), equator)

    def test_minimality_against_dense_sampling(self):
        equator = GreatCircle((0.0, 0.0, 1.0))
        rng = np.random.default_rng(7)
        v = rng.normal(size=3)
        p = SpherePoint(v)
        f = foot_of_perpendicular(p, equator)
        assert f.v[2] == pytest.approx(0.0, abs=1e-15)
        theta = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
        samples = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
        dists = np.arctan2(np.linalg.norm(np.cross(p.v, samples), axis=1), samples @ p.v)
        assert distance(p, f) <= dists.min() + 1e-9
        assert distance(p, antipode(f)) >= dists.max() - 1e-9

    def test_perpendicularity(self):
        equator = GreatCircle((0.0, 0.0, 1.0))
        p = SpherePoint((0.3, -0.4, 0.8))
        f = foot_of_perpendicular(p, equator)
        drop = great_circle_through(p, f)
        assert float(np.dot(drop.n, equator.n)) == pytest.approx(0.0, abs=1e-12)

    @given(unit_points(), unit_points())
    @settings(max_examples=30)
    def test_minimality_property(self, p, axis):
        circle = GreatCircle(axis.v)
        h = abs(float(np.dot(p.v, circle.n)))
        if h >= 1.0 - 1e-6:
            return
        f = foot_of_perpendicular(p, circle)
        theta = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
        e1 = f.v
        e2 = np.cross(circle.n, f.v)
        samples = np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
        dists = np.arctan2(np.linalg.norm(np.cross(p.v, samples), axis=1), samples @ p.v)
        assert distance(p, f) <= dists.min() + 1e-9


class TestAngleAt:
    def test_octant_right_angles(self):
        for vertex, p, q in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
            assert angle_at(vertex, p, q) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_collinear_is_zero(self):
        arc = GeodesicArc(X, Y)
        p = arc_point(arc, 0.4)
        q = arc_point(arc, 0.9)
        assert angle_at(X, p, q) <= 1e-12

    def test_degenerate_target(self):
        with pytest.raises(DegeneratePair):
            angle_at(X, X, Y)
        with pytest.raises(DegeneratePair):
            angle_at(X, antipode(X), Y)

    @given(tangent_frames(), st.floats(0.05, 1.5), st.floats(0.05, 1.5))
    def test_constructed_right_angle(self, frame, a, b):
        vertex, t1, t2 = frame
        p = SpherePoint(math.cos(a) * vertex.v + math.sin(a) * t1)
        q = SpherePoint(math.cos(b) * vertex.v + math.sin(b) * t2)
        assert angle_at(vertex, p, q) == pytest.approx(math.pi / 2, abs=1e-12)

    @given(tangent_frames(), st.floats(0.05, 1.5), st.floats(0.05, 1.5))
    def test_spherical_pythagoras(self, frame, a, b):
        vertex, t1, t2 = frame
        p = SpherePoint(math.cos(a) * vertex.v + math.sin(a) * t1)
        q = SpherePoint(math.cos(b) * vertex.v + math.sin(b) * t2)
        lhs = math.cos(distance(p, q))
        rhs = math.cos(distance(vertex, p)) * math.cos(distance(vertex, q))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSemicircle:
    def test_endpoints_at_quarter_turn(self):
        equator = GreatCircle((0.0, 0.0, 1.0))
        semi = Semicircle(equator, X)
        e1, e2 = semi.endpoints
        assert distance(semi.center, e1) == pytest.approx(math.pi / 2, abs=1e-15)
        assert distance(semi.center, e2) == pytest.approx(math.pi / 2, abs=1e-15)
        assert distance(e1, antipode(e2)) <= 1e-15

    def test_contains(self):
        equator = GreatCircle((0.0, 0.0, 1.0))
        semi = Semicircle(equator, X)
        assert semi.contains(X)
        assert semi.contains(Y)  # an endpoint
        assert not semi.contains(antipode(X))
        assert not semi.contains(Z)  # off the circle

    def test_center_must_lie_on_circle(self):
        equator = GreatCircle((0.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            Semicircle(equator, Z)
