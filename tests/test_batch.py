"""The batched kernels give every polygon and every trial the bits it gets alone.

`campaign.trial_rows` draws its trials in chunks through
`polygon.random_polygons`, whose hulls and diameters are computed on padded
stacks; the scalar API runs the same kernels on stacks of one.  These tests
compare the two bit for bit, on the rare paths too.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from sphereconvex import (
    DegenerateHull,
    NoHemisphere,
    SpherePoint,
    SphericalPolygon,
    boundary_diameter,
    campaign,
    convex_hull,
    extreme_diameter,
    phi,
    regular_triangle,
)
from sphereconvex import polygon as pg
from sphereconvex.campaign import STREAM_RANGES, STREAM_SMALL, STREAM_WIDE
from sphereconvex.core import _as_unit_rows
from support import bits, cyclic, dense_boundary_diameters, stack_of

SEED = 42
# Wide trials of seed 42 on the rare paths of `random_polygon`, and the number
# of attempts each makes.  The vector sum of trial 17's cloud, and of trial
# 269's last, is no hemisphere center; the cap center charts them instead.
RARE_WIDE = {11: 2, 17: 1, 269: 4}


def scalar_row(stream: int, index: int) -> tuple:
    P, w, ed = campaign.replay(SEED, stream, index)
    return w.value, ed, P._varr.shape[0]


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
    # a redraw (diameter out of range), and no hemisphere search for any cloud
    calls = counting(monkeypatch, "_nearest_center")
    attempts = []
    real = pg._draw_attempts

    def counted(streams, rows, *args):
        attempts.extend(rows.tolist())
        return real(streams, rows, *args)

    monkeypatch.setattr(pg, "_draw_attempts", counted)
    campaign.replay(SEED, STREAM_WIDE, index)
    assert (len(attempts), set(attempts), calls["_nearest_center"]) == (RARE_WIDE[index], {0}, 0)


@pytest.mark.parametrize(
    "stream, start, stop",
    [
        (STREAM_WIDE, 260, 280),  # holds trial 269: three redraws and a cloud the vector sum cannot chart
        (STREAM_SMALL, 980, 1000),  # the last small trials `verify` draws
    ],
    ids=["wide", "small"],
)
def test_chunk_rows_equal_scalar_rows(stream, start, stop):
    got = campaign.trial_chunk(SEED, stream, start, stop)
    assert np.array_equal(bits(got), bits([scalar_row(stream, i) for i in range(start, stop)]))


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_rows_independent_of_chunk_size(monkeypatch, scalar_rows, chunk):
    monkeypatch.setattr(campaign, "TRIAL_CHUNK", chunk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = counting(monkeypatch, "_nearest_center")
    wide, small = campaign.trial_rows(SEED, [(STREAM_WIDE, 24), (STREAM_SMALL, 10)])
    assert np.array_equal(bits(wide), bits(scalar_rows[STREAM_WIDE]))
    assert np.array_equal(bits(small), bits(scalar_rows[STREAM_SMALL]))
    assert calls["_nearest_center"] == 0


def test_streams_without_trials_give_empty_rows():
    rows = campaign.trial_rows(SEED, [(STREAM_WIDE, 0), (STREAM_SMALL, 3), (STREAM_WIDE, 0)])
    assert [r.shape for r in rows] == [(0, 3), (3, 3), (0, 3)]
    assert np.array_equal(bits(rows[1]), bits([scalar_row(STREAM_SMALL, i) for i in range(3)]))
    assert campaign.trial_rows(SEED, []) == []


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
    # a point 1e-12 rad off a hull vertex, in a direction where the planar hull keeps both
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


def planar_clouds() -> dict[str, np.ndarray]:
    """Chart clouds, as x + iy, for every case of the planar hull kernel."""
    rng = np.random.default_rng(12)
    clouds = {}
    for count in (3, 4, 5, 9, 17, 33, 60):
        cloud = cap_cloud(rng, count, rng.uniform(0.05, 1.5))
        c = pg._hemisphere_center(cloud)
        e1, e2 = pg._chart_basis(c[None])
        d = cloud @ c
        clouds[f"cap-{count}"] = (cloud @ e1[0]) / d + 1j * ((cloud @ e2[0]) / d)
    for count in (32, 128, 512):  # points within 0.2% of a circle, most of them hull vertices
        az = rng.uniform(0.0, 2.0 * math.pi, size=count)
        clouds[f"circle-{count}"] = 0.3 + 0.8j + (1.0 - 0.002 * rng.uniform(size=count)) * np.exp(1j * az)
    square = np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
    clouds["point-at-centroid"] = np.append(square, 0.0)
    clouds["same-azimuth"] = np.array([2.0, 1.0, 2j, -2.0, -2j, 0.5])  # 2, 1 and 0.5 on one ray from the centroid
    clouds["duplicates"] = np.concatenate([square, [0.2 + 0.1j], square[::-1], square])
    # 1e-13 outside the middle of two edges (hull vertices) and inside two (not)
    off = [complex(0.1, -1 - 1e-13), complex(1 + 1e-13, 0.3), complex(1 - 1e-13, -0.5), complex(0.2, 1 - 1e-13)]
    clouds["off-edges"] = np.append(square, off)
    clouds["on-edges"] = np.append(square, [-1j, 1.0, 0.5 + 1j])  # exactly on three edges: not hull vertices
    clouds["collinear"] = (0.1 + 0.2j) + (1.0 + 2.0j) * np.linspace(-1.0, 1.0, 7)
    clouds["one-point"] = np.full(3, 0.3 + 0.2j)
    clouds["two-points"] = np.repeat([0.3 + 0.2j, -0.1 + 0.5j], 3)
    return clouds


def alone(Z: np.ndarray) -> np.ndarray:
    ring, size = pg._planar_hulls(Z[None], np.array([len(Z)]))
    return ring[0, : size[0]]


@pytest.mark.parametrize("name", sorted(planar_clouds()))
def test_planar_hull_matches_qhull(name):
    Z = planar_clouds()[name]
    got = alone(Z)
    try:
        want = ConvexHull(np.column_stack([Z.real, Z.imag])).vertices  # counterclockwise
    except QhullError:
        assert got.size == 0  # a point or a segment has no ring
        return
    assert sorted(got) == sorted(want)
    assert np.array_equal(np.roll(got, -list(got).index(want[0])), want)  # the same cycle


def test_planar_hull_stack_equals_single_clouds():
    clouds = list(planar_clouds().values())
    for order in (clouds, clouds[::-1]):
        Z, n = cyclic(order)
        ring, size = pg._planar_hulls(Z, n)
        for k, cloud in enumerate(order):
            assert np.array_equal(ring[k, : size[k]], alone(cloud))  # start vertex included
            if size[k]:
                assert np.array_equal(ring[k], ring[k, np.arange(ring.shape[1]) % size[k]])  # padded cyclically


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
    searches = counting(monkeypatch, "_nearest_center")
    alone, searched_clouds = [], []
    for k, cloud in enumerate(clouds):
        before = searches["_nearest_center"]
        try:
            alone.append(convex_hull(cloud))
        except (DegenerateHull, NoHemisphere) as exc:
            alone.append(exc)
        if searches["_nearest_center"] > before:
            searched_clouds.append(k)
    assert {type(x).__name__ for x in alone} == {"SphericalPolygon", "DegenerateHull", "NoHemisphere"}
    # the single hulls took the nearest-point centers: the two clouds with
    # an outlier, and the antipodal cloud, which has none
    assert searched_clouds == [3, 6, 9]
    # a cloud without a hemisphere has no chart center to stack; the others
    # are charted at their single hull's center
    stacked = [k for k, x in enumerate(alone) if not isinstance(x, NoHemisphere)]
    centers = {
        k: alone[k].hemisphere_center.v if isinstance(alone[k], SphericalPolygon) else pg._hemisphere_center(clouds[k])
        for k in stacked
    }
    codes = {k: pg._hulls(clouds[k][None], np.array([len(clouds[k])]), centers[k][None])[1][0] for k in stacked}
    assert sorted(set(codes.values())) == [-1, 0, 1]
    calls = counting(monkeypatch, "_rings", "_nearest_center")
    for order in (stacked, stacked[::-1]):
        P, n = cyclic([clouds[k] for k in order])
        R, fault = pg._hulls(P, n, np.array([centers[k] for k in order]))
        assert fault.tolist() == [codes[k] for k in order]
        row = 0
        for k, code in zip(order, fault):
            want = alone[k]
            if isinstance(want, DegenerateHull):
                assert str(want) == pg._HULL_FAULTS[code]
                continue
            assert code == -1
            for got, ref in ((R.V, want._varr), (R.L, want._edge_lengths), (R.N, want._edge_normals), (R.t, want._turns)):
                assert np.array_equal(bits(got[row, : R.n[row]]), bits(ref))
            assert np.array_equal(bits(R.c[row]), bits(want.hemisphere_center.v))
            row += 1
        assert row == len(R.n)
    # the stacks took the rebuild rounds, and searched no center
    assert calls["_rings"] >= 4
    assert calls["_nearest_center"] == 0


def test_collinear_stack_has_no_hulls():
    # clouds on three great circles: no cloud has a hull, the stack is empty
    # and the diameter step takes it as it is
    arcs = [
        np.array([[math.cos(a), math.sin(a), 0.0] for a in np.linspace(0.0, 1.0, 5)]),
        np.array([[0.0, math.cos(a), math.sin(a)] for a in np.linspace(-0.5, 0.7, 3)]),
        _as_unit_rows([[math.cos(a), 0.5 * math.sin(a), math.sin(a)] for a in np.linspace(0.2, 1.3, 8)]),
    ]
    P, n = cyclic(arcs)
    R, fault = pg._hulls(P, n, np.array([pg._hemisphere_center(arc) for arc in arcs]))
    assert fault.tolist() == [0, 0, 0]
    assert [len(a) for a in R] == [0] * 6
    assert [len(a) for a in pg._boundary_diameters(R)] == [0] * 5


def test_tie_goes_to_first_pair_in_a_stack():
    a, c = math.sin(0.4), math.cos(0.4)
    square = SphericalPolygon(np.array([[a, 0.0, c], [0.0, a, c], [-a, 0.0, c], [0.0, -a, c]]), SpherePoint((0, 0, 1)))
    V = square._varr
    assert pg.vecmath.ang(V[0], V[2]) == pg.vecmath.ang(V[1], V[3])  # both diagonals, to the bit
    rng = np.random.default_rng(8)
    others = [convex_hull(cap_cloud(rng, count, 1.2)) for count in (12, 30, 6)]
    for polys in ([square, *others], [*others, square], [others[0], square, *others[1:]]):
        Vs, n = cyclic([P._varr for P in polys])
        R = pg._rings(Vs, n, np.array([P.hemisphere_center.v for P in polys]))
        value, edge, p, q, ext = pg._boundary_diameters(R)
        for k, P in enumerate(polys):
            w = boundary_diameter(P)
            assert bits(value[k]) == bits(w.value)
            assert edge[k] == (w.attainment == pg.VERTEX_EDGE)
            assert np.array_equal(bits(p[k]), bits(w.p.v)) and np.array_equal(bits(q[k]), bits(w.q.v))
            assert bits(ext[k]) == bits(extreme_diameter(P))
        k = polys.index(square)
        assert not edge[k]
        assert np.array_equal(p[k], V[0]) and np.array_equal(q[k], V[2])


def test_searched_center_loads_no_scipy():
    # the outlier cloud falls back from the vector sum to the nearest-point
    # center, in a child that has not loaded scipy for these tests
    src = os.path.dirname(os.path.dirname(pg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys; import numpy as np; from sphereconvex import polygon as pg; "
        "real = pg._nearest_center; calls = []; "
        "pg._nearest_center = lambda pts: calls.append(1) or real(pts); "
        "pg.convex_hull(np.array(json.load(sys.stdin))); "
        "print(len(calls), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps(hull_clouds()[3].tolist()),
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 []"


def near_circular_stacks() -> list:
    """Hulls of 20-150 vertices: points within 0.2% of a circle in a wide cap."""
    rng = np.random.default_rng(16)
    polys = []
    for count in (32, 64, 128, 256, 512):
        center = rng.normal(size=3)
        center /= np.linalg.norm(center)
        e1, e2 = pg._chart_basis(center[None])
        theta = rng.uniform(math.pi / 4, math.pi / 2) * (1.0 - 0.002 * rng.uniform(size=count))
        az = rng.uniform(0.0, 2.0 * math.pi, size=count)
        ring = np.cos(az)[:, None] * e1 + np.sin(az)[:, None] * e2
        polys.append(convex_hull(np.cos(theta)[:, None] * center + np.sin(theta)[:, None] * ring))
    assert 20 <= min(P._varr.shape[0] for P in polys) and max(P._varr.shape[0] for P in polys) <= 150
    return [stack_of([P]) for P in polys] + [stack_of(polys)]


def tie_square_stacks() -> list:
    a, c = math.sin(0.4), math.cos(0.4)
    square = SphericalPolygon(np.array([[a, 0.0, c], [0.0, a, c], [-a, 0.0, c], [0.0, -a, c]]), SpherePoint((0, 0, 1)))
    others = [convex_hull(cap_cloud(np.random.default_rng(8), count, 1.2)) for count in (12, 30, 6)]
    return [stack_of([square]), stack_of([square, *others]), stack_of([*others, square])]


def trial_stacks(stream: int):
    """Every stack whose diameters a chunk of trials computes, rejected attempts included."""

    def stacks(monkeypatch) -> list:
        seen = []
        real = pg._boundary_diameters

        def record(R):
            seen.append(R)
            return real(R)

        monkeypatch.setattr(pg, "_boundary_diameters", record)
        pg.random_polygons(SEED, range(100), stream=stream, **STREAM_RANGES[stream])
        return seen

    return stacks


def triangle_stacks(flat_feet: bool) -> list:
    """`tightness_table`'s family, each diameter attained vertex-edge; with
    flat feet, each witness's far point is added as a flat vertex, where the
    vertex-edge candidates of its two edges end and tie with a vertex pair."""
    polys = []
    for d in np.linspace(math.pi / 2, math.pi, 52)[1:-1]:
        T = regular_triangle(2.0 * phi(float(d)))
        if flat_feet:
            q = boundary_diameter(T).q.v
            e = int(np.argmin(np.abs(T._edge_normals @ q)))
            T = SphericalPolygon(np.insert(T._varr, e + 1, q, axis=0), T.hemisphere_center)
        polys.append(T)
    return [stack_of(polys), *(stack_of([P]) for P in polys)]


def off_unit(stacks) -> list:
    """The stacks with their vertices scaled by 1 + 4.9e-13 and 1 - 4.9e-13 in
    turn, as far off unit as a polygon's rows may be: the tie square's
    diagonals then have dots 1.4e-12 apart."""
    out = []
    for R in stacks:
        sign = (-1.0) ** (np.arange(R.V.shape[1]) % R.n[:, None])
        out.append(pg._rings(R.V * (1.0 + 4.9e-13 * sign)[..., None], R.n, R.c))
    return out


@pytest.mark.parametrize(
    "make, vertex_edge",
    [
        (lambda mp: near_circular_stacks(), True),
        (lambda mp: tie_square_stacks(), True),
        (trial_stacks(STREAM_SMALL), False),  # diameters below pi/2 are vertex-vertex
        (trial_stacks(STREAM_WIDE), True),
        (lambda mp: triangle_stacks(False), True),
        (lambda mp: triangle_stacks(True), True),
        (lambda mp: off_unit(tie_square_stacks() + near_circular_stacks() + triangle_stacks(True)), True),
    ],
    ids=["near-circular", "tie-square", "small-stream", "wide-stream", "triangles", "flat-feet", "off-unit"],
)
def test_prefilters_match_dense_enumeration(monkeypatch, make, vertex_edge):
    stacks = make(monkeypatch)
    monkeypatch.undo()
    edges = 0
    for R in stacks:
        got_vv, (*got, vertex) = pg._farthest(pg._pair_angles(R.V, R.n)), pg._boundary_diameters(R)
        want_vv, want = dense_boundary_diameters(R)
        for a, b in zip((*got_vv, *got, vertex), (*want_vv, *want, want_vv[2])):
            assert np.array_equal(bits(a) if a.dtype == float else a, bits(b) if b.dtype == float else b)
        edges += int(got[1].sum())
    assert (edges > 0) == vertex_edge  # whether the vertex-edge class won in some ring
