import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereconvex import (
    DomainError,
    GreatCircle,
    Lune,
    NotOnArc,
    Semicircle,
    SpherePoint,
    arc_point,
    GeodesicArc,
    construct_lune,
    distance,
    equilateral_points,
    lune_checks,
    lune_rows,
    min_sampled_distance,
    perpendicular_drop,
    phi,
)
from sphereconvex import lune as ln, vecmath
from sphereconvex.core import EPS_UNIT
from strategies import rotate, rotations
from support import bits, dense_min_sampled_distance

TWO_PHI_AT_TWO_PI_THIRD = 1.871858911322652  # frozen: 2 * phi(2*pi/3)

wide_deltas = st.floats(math.pi / 2 + 0.01, math.pi - 0.01, allow_nan=False)


def rotated(lune, rot):
    """Apply a rotation to every field of a lune."""

    def rp(p):
        return SpherePoint(rotate(rot, p.v))

    def rs(s):
        return Semicircle(GreatCircle(rotate(rot, s.circle.n)), rp(s.center))

    return Lune(
        side_a=rs(lune.side_a),
        side_b=rs(lune.side_b),
        corners=(rp(lune.corners[0]), rp(lune.corners[1])),
    )


def checked_lune(delta):
    """The canonical lune of thickness delta, built and checked one object
    at a time from `math`'s cosine and sine of delta / 2, with no domain test."""
    half = delta / 2.0
    center_a = SpherePoint((math.cos(half), 0.0, math.sin(half)))
    center_b = SpherePoint((math.cos(half), 0.0, -math.sin(half)))
    corners = (SpherePoint((0.0, 1.0, 0.0)), SpherePoint((0.0, -1.0, 0.0)))
    side_a = Semicircle(GreatCircle(vecmath.cross(corners[0].v, center_a.v)), center_a)
    side_b = Semicircle(GreatCircle(vecmath.cross(corners[0].v, center_b.v)), center_b)
    return Lune(side_a=side_a, side_b=side_b, corners=corners)


def doubles_around(x, n):
    """The n consecutive doubles below the positive double x, x, and the n above it."""
    return (np.array(float(x)).view(np.int64) + np.arange(-n, n + 1)).view(float).tolist()


class TestConstructLune:
    def test_orthogonal_centers_at_right_thickness(self):
        lune = construct_lune(math.pi / 2)
        assert float(np.dot(lune.side_a.center.v, lune.side_b.center.v)) == pytest.approx(0.0, abs=1e-15)

    def test_thickness_matches_input(self):
        lune = construct_lune(2 * math.pi / 3)
        assert lune.thickness == pytest.approx(2 * math.pi / 3, abs=1e-15)

    @pytest.mark.parametrize("delta", [0.0, math.pi, -0.5, 5.0, 1e-10, math.pi - 1e-10])
    def test_domain_rejected(self, delta):
        with pytest.raises(DomainError):
            construct_lune(delta)

    @pytest.mark.parametrize("delta", np.linspace(0.05, math.pi - 0.05, 25))
    def test_thickness_from_hemisphere_poles(self, delta):
        # independent recomputation: orient each bounding circle's pole
        # toward the other center; the poles then subtend pi - thickness
        lune = construct_lune(float(delta))
        pa = lune.side_a.circle.n.copy()
        if float(np.dot(pa, lune.side_b.center.v)) < 0:
            pa = -pa
        pb = lune.side_b.circle.n.copy()
        if float(np.dot(pb, lune.side_a.center.v)) < 0:
            pb = -pb
        pole_gap = math.atan2(float(np.linalg.norm(np.cross(pa, pb))), float(np.dot(pa, pb)))
        assert lune.thickness == pytest.approx(math.pi - pole_gap, abs=1e-12)
        assert lune.thickness == pytest.approx(float(delta), abs=1e-12)

    def test_corners_quarter_turn_from_centers(self):
        lune = construct_lune(2.0)
        for corner in lune.corners:
            assert distance(corner, lune.side_a.center) == pytest.approx(math.pi / 2, abs=1e-10)
            assert distance(corner, lune.side_b.center) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_corners_antipodal(self):
        lune = construct_lune(1.2)
        assert distance(lune.corners[0], lune.corners[1]) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("delta", [1e-9, 0.3, math.pi / 2, math.pi / 2 + 1e-12, 2.0, 3.0, math.pi - 1e-9])
    def test_lune_is_the_checked_objects(self, delta):
        # the stacked construction gives the bits of building and checking
        # the lune's points, circles and sides one object at a time, with
        # read-only vectors
        want = checked_lune(delta)
        got = construct_lune(delta)

        def vectors(lune):
            sides = (lune.side_a, lune.side_b)
            return [s.center.v for s in sides] + [s.circle.n for s in sides] + [c.v for c in lune.corners]

        for g, w in zip(vectors(got), vectors(want)):
            assert bits(g).tolist() == bits(w).tolist()
            assert not g.flags.writeable
        assert bits(got.thickness) == bits(want.thickness)

    def test_invalid_lune_rejected(self):
        lune = construct_lune(2.0)
        # side_a's centre turned 0.2 rad along its circle, toward the first corner
        turned = SpherePoint(math.cos(0.2) * lune.side_a.center.v + math.sin(0.2) * lune.corners[0].v)
        cases = [
            ({"side_b": lune.side_a}, "bounding circles coincide"),
            ({"corners": (lune.corners[0], lune.corners[0])}, "corners must be antipodal"),
            ({"corners": (SpherePoint((1, 0, 0)), lune.corners[1])}, "does not lie on both bounding circles"),
            ({"side_a": Semicircle(lune.side_a.circle, turned)}, "not an endpoint of a bounding semicircle"),
        ]
        fields = {"side_a": lune.side_a, "side_b": lune.side_b, "corners": lune.corners}
        for change, message in cases:
            with pytest.raises(DomainError, match=message):
                Lune(**{**fields, **change})


class TestEquilateralPoints:
    def test_distances_to_own_center(self):
        delta = 2 * math.pi / 3
        lune = construct_lune(delta)
        i, j = equilateral_points(lune)
        assert distance(i, lune.side_a.center) == pytest.approx(phi(delta), abs=1e-15)
        assert distance(j, lune.side_a.center) == pytest.approx(phi(delta), abs=1e-15)

    def test_frozen_apex_distance(self):
        lune = construct_lune(2 * math.pi / 3)
        i, j = equilateral_points(lune)
        apex = lune.side_b.center
        assert distance(i, apex) == pytest.approx(TWO_PHI_AT_TWO_PI_THIRD, abs=1e-12)
        assert distance(j, apex) == pytest.approx(TWO_PHI_AT_TWO_PI_THIRD, abs=1e-12)

    @given(wide_deltas)
    def test_triangle_is_equilateral(self, delta):
        lune = construct_lune(delta)
        i, j = equilateral_points(lune)
        apex = lune.side_b.center
        target = 2 * phi(delta)
        assert distance(i, j) == pytest.approx(target, abs=1e-10)
        assert distance(i, apex) == pytest.approx(target, abs=1e-10)
        assert distance(j, apex) == pytest.approx(target, abs=1e-10)

    def test_narrow_lune_rejected(self):
        with pytest.raises(DomainError):
            equilateral_points(construct_lune(1.0))

    def test_points_lie_on_the_chord_circle(self):
        lune = construct_lune(2.5)
        for p in equilateral_points(lune):
            assert lune.side_a.circle.contains(p)


class TestPerpendicularDrop:
    def test_center_drops_to_center(self):
        delta = 2.2
        lune = construct_lune(delta)
        drop = perpendicular_drop(lune, lune.side_a.center)
        assert distance(drop, lune.side_b.center) <= 1e-12
        assert distance(lune.side_a.center, drop) == pytest.approx(delta, abs=1e-12)

    def test_drop_from_equilateral_point(self):
        delta = 2 * math.pi / 3
        lune = construct_lune(delta)
        i, _ = equilateral_points(lune)
        drop = perpendicular_drop(lune, i)
        assert lune.side_b.circle.contains(drop)
        assert distance(drop, lune.side_b.center) <= math.pi / 2 + 1e-12
        assert distance(i, drop) >= delta - 1e-12

    def test_drop_is_farthest_point_of_far_circle(self):
        # dense-sampling oracle: the drop maximizes the distance from k over
        # the whole far circle, because it is the antipode of the foot
        delta = 2.4
        lune = construct_lune(delta)
        i, _ = equilateral_points(lune)
        drop = perpendicular_drop(lune, i)
        n = lune.side_b.circle.n
        e1 = lune.side_b.center.v
        e2 = np.cross(n, e1)
        theta = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
        samples = np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
        dists = np.arctan2(np.linalg.norm(np.cross(i.v, samples), axis=1), samples @ i.v)
        assert distance(i, drop) >= float(dists.max()) - 1e-8

    def test_drop_circle_is_orthogonal(self):
        lune = construct_lune(2.1)
        i, _ = equilateral_points(lune)
        drop = perpendicular_drop(lune, i)
        connecting = np.cross(i.v, drop.v)
        connecting /= np.linalg.norm(connecting)
        assert float(np.dot(connecting, lune.side_b.circle.n)) == pytest.approx(0.0, abs=1e-10)

    def test_drop_near_far_pole(self):
        # side_a's center is 1e-11 from side_b's pole: one projection left
        # the drop 1.6e-5 off side_b's circle and nearer than the thickness
        lune = construct_lune(1.5707963268048966)
        drop = perpendicular_drop(lune, lune.side_a.center)
        assert abs(float(np.dot(drop.v, lune.side_b.circle.n))) <= 1e-15
        assert distance(lune.side_a.center, drop) >= lune.thickness - 1e-12

    def test_far_pole_rejected(self):
        # side_b's pole is 5e-11 off side_a's circle, so it passes the arc
        # checks; its projection onto side_b's plane is exactly zero
        lune = construct_lune(math.pi / 2 + 5e-11)
        with pytest.raises(NotOnArc, match="pole"):
            perpendicular_drop(lune, SpherePoint(-lune.side_b.circle.n))

    def test_off_circle_rejected(self):
        lune = construct_lune(2.0)
        with pytest.raises(NotOnArc):
            perpendicular_drop(lune, SpherePoint((1.0, 0.0, 0.0)))

    def test_beyond_chord_rejected(self):
        lune = construct_lune(2.0)
        with pytest.raises(NotOnArc):
            perpendicular_drop(lune, lune.corners[0])

    @given(wide_deltas, st.floats(0.0, 1.0))
    @settings(max_examples=40)
    def test_interior_drops_land_on_far_semicircle(self, delta, t):
        lune = construct_lune(delta)
        i, j = equilateral_points(lune)
        k = arc_point(GeodesicArc(i, j), t)
        drop = perpendicular_drop(lune, k)
        assert abs(float(np.dot(drop.v, lune.side_b.circle.n))) <= 1e-10
        assert distance(drop, lune.side_b.center) <= math.pi / 2 + 1e-10
        assert distance(k, drop) >= delta - 1e-10


class TestChordBounds:
    def test_chord_to_apex_floor(self):
        # |k apex| >= 2*phi along the whole chord, equality only at the ends
        delta = 2 * math.pi / 3
        lune = construct_lune(delta)
        i, j = equilateral_points(lune)
        apex = lune.side_b.center
        floor = 2 * phi(delta)
        arc = GeodesicArc(i, j)
        ts = np.linspace(0.0, 1.0, 1000)
        vals = np.array([distance(arc_point(arc, float(t)), apex) for t in ts])
        assert vals.min() >= floor - 1e-9
        interior = (ts >= 0.1) & (ts <= 0.9)
        assert vals[interior].min() > floor + 0.01

    def test_apex_distance_grows_from_corner_to_center(self):
        # pi/2 at the corner, rising to the full thickness at the center
        delta = 2.8
        lune = construct_lune(delta)
        apex = lune.side_b.center
        arc = GeodesicArc(lune.corners[0], lune.side_a.center)
        vals = [distance(arc_point(arc, float(t)), apex) for t in np.linspace(0.0, 1.0, 500)]
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == pytest.approx(math.pi / 2, abs=1e-12)
        assert vals[-1] == pytest.approx(delta, abs=1e-12)

    def test_min_sampled_distance_hits_two_phi(self):
        delta = 2 * math.pi / 3
        lune = construct_lune(delta)
        got = min_sampled_distance(lune, 200, 200)
        assert got >= 2 * phi(delta) - 1e-9
        assert got == pytest.approx(2 * phi(delta), abs=1e-12)

    def test_min_sampled_distance_exceeds_gap_at_center(self):
        # the center-to-apex pair contributes the thickness itself, which
        # stays above 2*phi
        delta = 3.0
        lune = construct_lune(delta)
        assert delta > 2 * phi(delta)
        assert min_sampled_distance(lune, 3, 2) >= 2 * phi(delta) - 1e-9

    @given(wide_deltas)
    @settings(max_examples=15)
    def test_min_sampled_distance_floor(self, delta):
        lune = construct_lune(delta)
        got = min_sampled_distance(lune, 60, 60)
        assert got >= 2 * phi(delta) - 1e-9

    @given(
        st.floats(math.pi / 2, math.pi, exclude_min=True, exclude_max=True),
        st.integers(2, 250),
        st.integers(2, 250),
        st.none() | rotations(),
    )
    @settings(max_examples=60)
    @example(3.1, 201, 200, None)  # the middle chord point drops onto h itself: a zero-length arc
    @example(2.5, 3, 2, None)
    @example(math.pi / 2 + 1e-12, 3, 2, None)  # the zero-length arc is in the window
    @example(math.pi / 2 + 1e-9, 250, 250, None)
    # near pi/2 many chord points are almost as close to the far arc as the
    # ends, so many rows survive the row bound: all 101, 91 of 201, 11 of 249
    @example(math.pi / 2 + 3e-12, 101, 101, None)
    @example(math.pi / 2 + 1e-11, 201, 200, None)
    @example(math.pi / 2 + 1e-10, 249, 7, None)
    @example(1.5707963268048966, 201, 201, None)  # the middle chord point is 1e-11 from side_b's pole
    def test_min_sampled_distance_matches_full_grid(self, delta, samples_k, samples_l, rot):
        # only the cells near the largest cosine get an angle; the minimum
        # must be the full grid's to the bit, or fail as the full grid does
        def outcome(f, lune):
            try:
                return bits(f(lune, samples_k, samples_l)).tolist()
            except DomainError as exc:
                return str(exc)

        try:
            lune = construct_lune(delta)
            if rot is not None:
                lune = rotated(lune, rot)
        except DomainError:  # thickness rounds to an end of the range, or the sides coincide
            return
        assert outcome(min_sampled_distance, lune) == outcome(dense_min_sampled_distance, lune)

    @pytest.mark.parametrize("samples", [3, 5, 201])
    def test_near_pole_drop_keeps_clearance(self, samples):
        # thickness pi/2 + 1e-11: the middle chord point's projection onto
        # side_b's plane is 1e-11 long, and one projection left its drop
        # 1.6e-5 off the circle, inside the clearance (margin -1.57e-5)
        row = lune_checks(1.5707963268048966, samples)
        assert row["sampled_min_margin"] >= -1e-15
        assert row["sampled_min_distance"] == row["chord_to_apex_min"]

    @pytest.mark.parametrize("seed", range(4))
    def test_row_bound_covers_grid_cells(self, seed):
        # random rows (k, h, drop): the bound plus its slack is at least every
        # grid cell's cosine, and it is the row's largest cosine, not a loose
        # cap; half the rows put k's peak strictly inside the arc
        rng = np.random.default_rng(seed)
        n = 800
        h = vecmath.unit(rng.normal(size=(n, 3)))
        e = vecmath.unit(np.cross(h, rng.normal(size=(n, 3))))
        length = np.where(rng.random(n) < 0.5, 10 ** rng.uniform(-6, 0, n), rng.uniform(0, math.pi / 2, n))
        drop = vecmath.unit(np.cos(length)[:, None] * h + np.sin(length)[:, None] * e)
        k = vecmath.unit(rng.normal(size=(n, 3)))
        inner = rng.random(n) < 0.5
        theta = rng.uniform(0.0, 1.0, n) * length
        tilt = rng.uniform(-1.5, 1.5, n)
        on_arc = np.cos(theta)[:, None] * h + np.sin(theta)[:, None] * e
        k[inner] = vecmath.unit(np.cos(tilt)[:, None] * on_arc + np.sin(tilt)[:, None] * np.cross(h, e))[inner]
        kh, kd, hd = (vecmath.dot(u, v) for u, v in ((k, h), (k, drop), (drop, h)))
        lengths = vecmath.ang(h, drop)
        keep = lengths >= ln._SHORT_ARC
        kh, kd, hd, lengths = kh[keep], kd[keep], hd[keep], lengths[keep]
        bound = ln._row_bounds(kh, kd, lengths)
        _, _, cos = ln._cells(np.linspace(0.0, 1.0, 401), lengths, kh[:, None], kd[:, None], hd[:, None])
        peak = np.arctan2(kd - kh * np.cos(lengths), kh * np.sin(lengths))
        assert np.mean((0.0 < peak) & (peak < lengths)) > 0.4
        assert np.all(bound + ln._ROW_SLACK >= cos.max(axis=1))
        assert np.all(bound <= cos.max(axis=1) + 1e-5)

    def test_sample_counts_validated(self):
        lune = construct_lune(2.0)
        with pytest.raises(DomainError):
            min_sampled_distance(lune, 1, 10)

    def test_narrow_lune_rejected(self):
        with pytest.raises(DomainError):
            min_sampled_distance(construct_lune(1.0), 10, 10)


class TestRotationInvariance:
    @given(rotations(), wide_deltas)
    @settings(max_examples=25)
    def test_scalars_survive_rotation(self, rot, delta):
        lune = construct_lune(delta)
        moved = rotated(lune, rot)
        assert moved.thickness == pytest.approx(lune.thickness, abs=1e-12)
        assert min_sampled_distance(moved, 25, 25) == pytest.approx(
            min_sampled_distance(lune, 25, 25), abs=1e-12
        )

    @given(rotations())
    @settings(max_examples=25)
    def test_points_move_covariantly(self, rot):
        delta = 2.3
        lune = construct_lune(delta)
        moved = rotated(lune, rot)
        i, j = equilateral_points(lune)
        mi, mj = equilateral_points(moved)
        assert distance(SpherePoint(rotate(rot, i.v)), mi) <= 1e-12
        assert distance(SpherePoint(rotate(rot, j.v)), mj) <= 1e-12


BLOCK_GRIDS = {
    "default": np.linspace(math.pi / 2 + 1e-3, math.pi - 1e-3, 50),
    "from_pi_2_plus_1e-9": np.linspace(math.pi / 2 + 1e-9, 2.0, 30),
    "to_pi_minus_1e-3": np.linspace(3.0, math.pi - 1e-3, 30),
    "one_delta": [2 * math.pi / 3],
    "longer_than_a_block": np.linspace(math.pi / 2 + 1e-12, 3.1, 2 * ln._LUNE_BLOCK + 3),
}


class TestCanonicalFrames:
    def test_frames_pass_every_check(self):
        # `_lune_frames` tests only the domain 0 < delta < pi, sin(delta) >=
        # EPS_LUNE.  At 200 consecutive doubles on each side of both ends of
        # that domain, where sin(delta) crosses EPS_LUNE, and on the default
        # grid, the canonical lune passes the checks of `Lune` and its parts
        # exactly where its frame passes that test, and `construct_lune`
        # keeps the frame's bits
        ends = [doubles_around(end, 200) for end in (1e-9, math.pi - 1e-9)]
        deltas = [*ends[0], *ends[1], *BLOCK_GRIDS["default"].tolist()]
        f, faults = ln._lune_frames(deltas)
        for end in ends:  # each end window holds both outcomes
            assert {math.sin(d) >= ln.EPS_LUNE for d in end} == {True, False}
        for k, (delta, fault) in enumerate(zip(deltas, faults)):
            try:
                checked_lune(delta)
            except DomainError:
                assert fault is not None
                with pytest.raises(DomainError, match=f"^{re.escape(fault)}$"):
                    construct_lune(delta)
            else:
                assert fault is None
                got = [rows[0] for rows in ln._frames(construct_lune(delta))]
                assert bits(got).tolist() == bits([rows[k] for rows in f]).tolist()
        # every row, and each equilateral point of a wide frame, is unit
        # within EPS_UNIT, so the unit rule would keep its bits
        assert np.all(np.abs(np.linalg.norm(np.stack(f), axis=-1) - 1.0) <= EPS_UNIT)
        wide = np.array([fault is None and d > math.pi / 2 for d, fault in zip(deltas, faults)])
        wide_frames = ln._Frames(*(rows[wide] for rows in f))
        half_sides = [phi(t) for t in vecmath.ang(wide_frames.a, wide_frames.b).tolist()]
        points = np.stack(ln._equilateral_points(wide_frames, half_sides))
        assert points.shape == (2, wide.sum(), 3)
        assert np.all(np.abs(np.linalg.norm(points, axis=-1) - 1.0) <= EPS_UNIT)


class TestLuneRows:
    @pytest.mark.parametrize("samples", [200, 7])
    @pytest.mark.parametrize("grid", BLOCK_GRIDS.values(), ids=BLOCK_GRIDS.keys())
    def test_rows_are_single_rows(self, grid, samples):
        # one stacked pass over the grid gives each delta's row to the bit
        deltas = [float(d) for d in grid]
        assert json.dumps(lune_rows(deltas, samples)) == json.dumps([lune_checks(d, samples) for d in deltas])

    @pytest.mark.parametrize("grid", BLOCK_GRIDS.values(), ids=BLOCK_GRIDS.keys())
    def test_rows_are_the_scalar_api(self, grid):
        # the triangle and the sampled minimum of each row are those of its
        # canonical lune, whose points sit at phi of its thickness
        deltas = [float(d) for d in grid]
        for delta, row in zip(deltas, lune_rows(deltas, 30)):
            lune = construct_lune(delta)
            points = [p.v for p in (*equilateral_points(lune), lune.side_b.center)]
            assert bits([row["point_i"], row["point_j"], row["apex"]]).tolist() == bits(points).tolist()
            assert bits(row["sampled_min_distance"]) == bits(min_sampled_distance(lune, 30, 30))

    def test_rows_match_the_full_grid(self):
        # every row's sampled minimum is that of its own lune's full grid
        deltas = [float(d) for d in BLOCK_GRIDS["longer_than_a_block"]]
        rows = lune_rows(deltas, 41)
        want = [dense_min_sampled_distance(construct_lune(d), 41, 41) for d in deltas]
        assert bits([row["sampled_min_distance"] for row in rows]).tolist() == bits(want).tolist()

    def test_empty_grid(self):
        assert lune_rows([], 1) == []

    @pytest.mark.parametrize("bad", [math.pi - 1e-10, 5.0, -1.0, math.nan])
    def test_delta_without_lune_raises_its_own_message(self, bad):
        deltas = [2.0, 2.5, bad, 3.0, math.pi - 1e-11]
        with pytest.raises(DomainError) as own:
            construct_lune(bad)
        with pytest.raises(DomainError, match=f"^{re.escape(str(own.value))}$"):
            lune_rows(deltas, 20)

    def test_first_failing_delta_decides(self):
        # as for lune_checks of each delta in turn: 1.0 has a lune but no
        # wide one, and comes before the delta that has none
        with pytest.raises(DomainError, match=r"^delta=1.0 outside the open interval \(pi/2, pi\)$"):
            lune_rows([2.0, 1.0, math.pi - 1e-10], 20)
        with pytest.raises(DomainError, match="need at least 2 samples"):
            lune_rows([2.0, 2.5], 1)

    def test_blocks_bound_memory(self, monkeypatch):
        # near pi/2 many chord rows pass the row bound; no stack holds more
        # than a block of lunes, and no cell pass more than _CELLS cells
        frames, cells = [], []
        real_frames, real_cells = ln._lune_frames, ln._cells

        def lune_frames(deltas):
            frames.append(len(deltas))
            return real_frames(deltas)

        def cells_of(s, lengths, *columns):
            cells.append((len(lengths), len(s)))
            return real_cells(s, lengths, *columns)

        monkeypatch.setattr(ln, "_lune_frames", lune_frames)
        monkeypatch.setattr(ln, "_cells", cells_of)
        rows = lune_rows(np.linspace(math.pi / 2 + 1e-12, math.pi / 2 + 1e-10, 2000).tolist(), 50)
        assert len(rows) == 2000
        assert max(frames) == ln._LUNE_BLOCK
        assert len(frames) == 2000 // ln._LUNE_BLOCK
        assert max(n * ns for n, ns in cells) <= ln._CELLS
        # some blocks hold more selected rows than one cell pass takes
        assert len(cells) > len(frames)
