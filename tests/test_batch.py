"""The batched kernels give every polygon and every trial the bits it gets alone.

`campaign.trial_rows` draws its trials in chunks through
`polygon.random_polygons`, whose hulls and diameters are computed on padded
stacks; the scalar API runs the same kernels on stacks of one.  These tests
compare the two bit for bit, on the rare paths too.
"""

import math
import os

import numpy as np
import pytest

from sphereconvex import (
    DegenerateHull,
    NoHemisphere,
    SpherePoint,
    SphericalPolygon,
    boundary_diameter,
    campaign,
    convex_hull,
    extreme_diameter,
)
from sphereconvex import polygon as pg
from sphereconvex.campaign import STREAM_SMALL, STREAM_WIDE
from sphereconvex.core import _as_unit_rows

SEED = 42
# Wide trials of seed 42 on the rare paths of `random_polygon`, and the number
# of attempts each makes.  The vector sum of trial 17's cloud, and of trial
# 269's last, is no hemisphere center; the cap center charts them instead.
RARE_WIDE = {11: 2, 17: 1, 269: 4}


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def scalar_row(stream: int, index: int) -> tuple:
    if stream == STREAM_WIDE:
        t = campaign.wide_trial(SEED, index)
        return t.margin, t.ratio, t.witness.value, t.extreme_diam, t.polygon._varr.shape[0]
    return campaign.small_trial(SEED, index)[1:]


@pytest.fixture(scope="module")
def scalar_rows():
    return {
        STREAM_WIDE: [scalar_row(STREAM_WIDE, i) for i in range(24)],
        STREAM_SMALL: [scalar_row(STREAM_SMALL, i) for i in range(10)],
    }


def counting(monkeypatch, *names) -> dict:
    """Count the calls of polygon-module functions by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(pg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pg, name, counted)
    return calls


@pytest.mark.parametrize("index", sorted(RARE_WIDE))
def test_rare_trials_take_their_paths(monkeypatch, index):
    # a redraw (diameter out of range), and no linear program for any cloud
    calls = counting(monkeypatch, "_draw", "_lp_center")
    campaign.wide_trial(SEED, index)
    assert (calls["_draw"], calls["_lp_center"]) == (RARE_WIDE[index], 0)


def test_chunk_rows_equal_scalar_rows():
    start, stop = 260, 280  # holds trial 269: three redraws and a cloud the vector sum cannot chart
    got = campaign.trial_chunk(SEED, STREAM_WIDE, start, stop)
    assert np.array_equal(bits(got), bits([scalar_row(STREAM_WIDE, i) for i in range(start, stop)]))


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_rows_independent_of_chunk_size(monkeypatch, scalar_rows, chunk):
    monkeypatch.setattr(campaign, "TRIAL_CHUNK", chunk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = counting(monkeypatch, "_lp_center")
    wide, small = campaign.trial_rows(SEED, [(STREAM_WIDE, 24), (STREAM_SMALL, 10)])
    assert np.array_equal(bits(wide), bits(scalar_rows[STREAM_WIDE]))
    assert np.array_equal(bits(small), bits(scalar_rows[STREAM_SMALL]))
    assert calls["_lp_center"] == 0


def cap_cloud(rng, count: int, radius: float) -> np.ndarray:
    center = rng.normal(size=3)
    center /= np.linalg.norm(center)
    e1, e2 = pg._chart_basis(center[None])
    r = radius * np.sqrt(rng.uniform(size=count))
    az = rng.uniform(0.0, 2.0 * math.pi, size=count)
    ring = np.cos(az)[:, None] * e1 + np.sin(az)[:, None] * e2
    return np.cos(r)[:, None] * center + np.sin(r)[:, None] * ring


def chart_cloud(xy) -> np.ndarray:
    return _as_unit_rows(np.column_stack([xy, np.ones(len(xy))]))


def hull_clouds() -> list[np.ndarray]:
    """Unit point clouds for every path of the hull kernel."""
    rng = np.random.default_rng(3)
    caps = [cap_cloud(rng, count, radius) for count, radius in ((8, 0.9), (40, 1.3), (5, 0.2), (60, 1.45))]
    # a point 1e-12 rad off a hull vertex, in a direction where qhull keeps both
    v = convex_hull(caps[1])._varr[0]
    t = np.cross(v, np.random.default_rng(4).normal(size=3))
    t /= np.linalg.norm(t)
    near_duplicate = np.vstack([caps[1], math.cos(1e-12) * v + math.sin(1e-12) * t])
    # points on the sides of a chart quadrilateral, off them by 1e-13: flat vertices
    corners = np.array([[-1.0, -0.8], [0.9, -1.0], [1.0, 0.7], [-0.7, 1.0]])
    u = rng.uniform(size=(4, 10, 1))
    sides = corners[:, None] + u * (np.roll(corners, -1, axis=0) - corners)[:, None]
    chord = chart_cloud(sides.reshape(-1, 2) + 1e-13 * rng.normal(size=(40, 1)))
    outlier = _as_unit_rows(np.vstack([caps[3], [0.0, 0.05, -1.0]]))
    great_circle = np.array([[math.cos(a), math.sin(a), 0.0] for a in np.linspace(0.0, 1.0, 5)])
    sliver = chart_cloud([[-1.0, 0.0], [1.0, 0.0], [0.0, 1e-13]])
    antipodal = np.vstack([np.eye(3), -np.eye(3)])
    return [*caps, near_duplicate, chord, outlier, great_circle, sliver, antipodal]


def test_hull_clouds_take_the_rare_paths(monkeypatch):
    # the first hull ring of the near-duplicate cloud has a short edge, and
    # that of the chord cloud a flat vertex: each needs a second round
    rounds = []
    real = pg._extreme_rings

    def first_round(R):
        rounds.append(((R.L <= pg.EPS_ANTIPODE).any(), (R.t <= pg.EPS_ANGLE).any()))
        return real(R)

    monkeypatch.setattr(pg, "_extreme_rings", first_round)
    for k in (4, 5):
        rounds.clear()
        convex_hull(hull_clouds()[k])
        assert rounds[-1] == ((True, False) if k == 4 else (False, True))


def test_hull_stack_equals_single_hulls(monkeypatch):
    clouds = hull_clouds()
    lp = counting(monkeypatch, "_lp_center")
    alone, lp_clouds = [], []
    for k, cloud in enumerate(clouds):
        before = lp["_lp_center"]
        try:
            alone.append(convex_hull(cloud))
        except (DegenerateHull, NoHemisphere) as exc:
            alone.append(exc)
        if lp["_lp_center"] > before:
            lp_clouds.append(k)
    assert {type(x).__name__ for x in alone} == {"SphericalPolygon", "DegenerateHull", "NoHemisphere"}
    # the single hulls took the linear-programming centers: the two clouds
    # with an outlier, and the antipodal cloud, which has none
    assert lp_clouds == [3, 6, 9]
    # a cloud without a hemisphere has no chart center to stack; the others
    # are charted at their single hull's center
    stacked = [k for k, x in enumerate(alone) if not isinstance(x, NoHemisphere)]
    centers = {
        k: alone[k].hemisphere_center.v if isinstance(alone[k], SphericalPolygon) else pg._hemisphere_center(clouds[k])
        for k in stacked
    }
    calls = counting(monkeypatch, "_rings", "_lp_center")
    for order in (stacked, stacked[::-1]):
        P, n = pg._cyclic([clouds[k] for k in order])
        R, errors = pg._hulls(P, n, np.array([centers[k] for k in order]))
        row = 0
        for k, err in zip(order, errors):
            want = alone[k]
            if isinstance(want, Exception):
                assert (type(err), str(err)) == (type(want), str(want))
                continue
            assert err is None
            for got, ref in ((R.V, want._varr), (R.L, want._edge_lengths), (R.N, want._edge_normals), (R.t, want._turns)):
                assert np.array_equal(bits(got[row, : R.n[row]]), bits(ref))
            assert np.array_equal(bits(R.c[row]), bits(want.hemisphere_center.v))
            row += 1
        assert row == len(R.n)
    # the stacks took the rebuild rounds, and searched no center
    assert calls["_rings"] >= 4
    assert calls["_lp_center"] == 0


def test_tie_goes_to_first_pair_in_a_stack():
    a, c = math.sin(0.4), math.cos(0.4)
    square = SphericalPolygon(np.array([[a, 0.0, c], [0.0, a, c], [-a, 0.0, c], [0.0, -a, c]]), SpherePoint((0, 0, 1)))
    V = square._varr
    assert pg.vecmath.ang(V[0], V[2]) == pg.vecmath.ang(V[1], V[3])  # both diagonals, to the bit
    rng = np.random.default_rng(8)
    others = [convex_hull(cap_cloud(rng, count, 1.2)) for count in (12, 30, 6)]
    for polys in ([square, *others], [*others, square], [others[0], square, *others[1:]]):
        Vs, n = pg._cyclic([P._varr for P in polys])
        R = pg._rings(Vs, n, np.array([P.hemisphere_center.v for P in polys]))
        pairs = pg._pair_angles(R.V)
        value, edge, p, q = pg._boundary_diameters(R, pairs)
        ext = pg._farthest(pairs, n)[2]
        for k, P in enumerate(polys):
            w = boundary_diameter(P)
            assert bits(value[k]) == bits(w.value)
            assert edge[k] == (w.attainment == pg.VERTEX_EDGE)
            assert np.array_equal(bits(p[k]), bits(w.p.v)) and np.array_equal(bits(q[k]), bits(w.q.v))
            assert bits(ext[k]) == bits(extreme_diameter(P))
        k = polys.index(square)
        assert not edge[k]
        assert np.array_equal(p[k], V[0]) and np.array_equal(q[k], V[2])
