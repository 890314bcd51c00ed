"""Property tests of the whole API at the edges of its input.

Generated point clouds (slivers, points just above a horizon, near
duplicates, perturbed regular triangles and shuffled rings) go through
`convex_hull` and `SphericalPolygon.from_dict`, and generated JSON documents
through the `diam` and `extreme` commands.  Every input gives a polygon or a
SphereGeometryError, and every polygon has an extreme diameter at most its
boundary diameter, meets the bound where that diameter is in (pi/2, pi),
gets its scalar bits from the stacked kernels, and matches the dense
enumeration that the diameter prefilters must reproduce.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from sphereconvex import (
    DegenerateHull,
    SphereGeometryError,
    SphericalPolygon,
    boundary_diameter,
    convex_hull,
    extreme_diameter,
    extreme_diameter_margin,
    phi,
    regular_triangle,
)
from sphereconvex import polygon as pg
from sphereconvex.campaign import CampaignConfig
from sphereconvex.cli import main
from sphereconvex.core import _as_unit_rows
from strategies import rotations
from support import bits, cyclic, dense_boundary_diameters, reference_ring_faults, stack_of


def on_sphere(rot, polar, azimuth) -> np.ndarray:
    """Points at the given polar angles from c and azimuths from e1, where
    e1, e2, c is the standard frame turned by rot."""
    e1, e2, c = rot.apply(np.eye(3))
    polar, azimuth = np.asarray(polar, dtype=float), np.asarray(azimuth, dtype=float)
    ring = np.cos(azimuth)[:, None] * e1 + np.sin(azimuth)[:, None] * e2
    return np.cos(polar)[:, None] * c + np.sin(polar)[:, None] * ring


def nudged(rng, pts: np.ndarray, size: float) -> np.ndarray:
    """pts each moved by `size` radians in a random tangent direction."""
    t = np.cross(pts, rng.normal(size=pts.shape))
    t /= np.linalg.norm(t, axis=1)[:, None]
    return math.cos(size) * pts + math.sin(size) * t


seeds = st.integers(0, 2**32 - 1)


@st.composite
def slivers(draw):
    """Points near one great-circle arc, off it by at most 1e-9 radians."""
    rng = np.random.default_rng(draw(seeds))
    count = draw(st.integers(3, 8))
    length = draw(st.floats(0.05, 2.5))
    width = draw(st.sampled_from([0.0, 1e-13, 1e-11, 1e-9]))
    polar = math.pi / 2 + width * rng.uniform(-1.0, 1.0, size=count)
    return on_sphere(draw(rotations()), polar, length * rng.uniform(size=count))


@st.composite
def horizon_clouds(draw):
    """Points 1e-7 above the horizon of a center, with a few inside its cap."""
    rng = np.random.default_rng(draw(seeds))
    rim = draw(st.integers(3, 6))
    spread = draw(st.floats(0.5, 2.0 * math.pi))
    inner = draw(st.integers(0, 3))
    polar = np.concatenate([np.full(rim, math.pi / 2 - 1e-7), rng.uniform(0.0, 1.4, size=inner)])
    azimuth = rng.uniform(0.0, spread, size=rim + inner)
    return on_sphere(draw(rotations()), polar, azimuth)


@st.composite
def near_duplicates(draw):
    """A cap cloud with some points repeated 1e-14 radians away."""
    rng = np.random.default_rng(draw(seeds))
    count = draw(st.integers(3, 10))
    radius = draw(st.floats(0.05, 1.45))
    pts = on_sphere(draw(rotations()), radius * np.sqrt(rng.uniform(size=count)), rng.uniform(0, 2 * math.pi, count))
    twins = nudged(rng, pts[rng.integers(0, count, size=draw(st.integers(1, 4)))], 1e-14)
    return rng.permutation(np.vstack([pts, twins]))


@st.composite
def perturbed_triangles(draw):
    """The bound's extremal triangles, vertices moved by up to 1e-6 radians,
    with the far end of the witness sometimes added as a flat vertex."""
    rng = np.random.default_rng(draw(seeds))
    delta = draw(st.floats(math.pi / 2 + 1e-3, math.pi - 1e-3))
    T = regular_triangle(2.0 * phi(delta))
    pts = T._varr
    if draw(st.booleans()):
        pts = np.vstack([pts, boundary_diameter(T).q.v])
    pts = nudged(rng, pts, draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6])))
    return draw(rotations()).apply(pts)


@st.composite
def shuffled_rings(draw):
    """The vertices of a convex ring in a cap, in a drawn order."""
    rng = np.random.default_rng(draw(seeds))
    count = draw(st.integers(3, 9))
    radius = draw(st.floats(0.05, 1.45))
    azimuth = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=count))
    ring = on_sphere(draw(rotations()), np.full(count, radius), azimuth)
    return ring[draw(st.permutations(range(count)))]


clouds = st.one_of(slivers(), horizon_clouds(), near_duplicates(), perturbed_triangles(), shuffled_rings())


def polygon_or_error(make, *args):
    try:
        return make(*args)
    except SphereGeometryError as exc:
        return exc


def check_polygons(polys) -> None:
    """The properties every polygon has, on its own and in a stack."""
    witnesses = [boundary_diameter(P) for P in polys]
    for P, w in zip(polys, witnesses):
        assert extreme_diameter(P) <= w.value
        if math.pi / 2 < w.value < math.pi:
            assert extreme_diameter_margin(P) >= -CampaignConfig.tolerance
    R = stack_of(polys)
    got_vv, (*got, vertex) = pg._farthest(pg._pair_angles(R.V, R.n)), pg._boundary_diameters(R)
    want_vv, want = dense_boundary_diameters(R)
    for a, b in zip((*got_vv, *got, vertex), (*want_vv, *want, want_vv[2])):
        assert np.array_equal(bits(a) if a.dtype == float else a, bits(b) if b.dtype == float else b)
    value, edge, p, q = got
    for k, w in enumerate(witnesses):
        assert bits(value[k]) == bits(w.value)
        assert edge[k] == (w.attainment == pg.VERTEX_EDGE)
        assert np.array_equal(bits(p[k]), bits(w.p.v)) and np.array_equal(bits(q[k]), bits(w.q.v))


@settings(max_examples=100)
@given(st.lists(clouds, min_size=1, max_size=3))
def test_clouds_give_polygons_or_library_errors(cloud_list):
    hulls = [polygon_or_error(convex_hull, cloud) for cloud in cloud_list]
    loaded = [polygon_or_error(SphericalPolygon.from_dict, {"vertices": cloud.tolist()}) for cloud in cloud_list]
    polys = [P for P in hulls + loaded if isinstance(P, SphericalPolygon)]
    if polys:
        check_polygons(polys)
    # the stacked hull kernel, on the clouds that have a chart center, gives
    # each the hull, or the fault code of the error, it gets alone
    stacked = [k for k, want in enumerate(hulls) if isinstance(want, (SphericalPolygon, DegenerateHull))]
    if not stacked:
        return
    arrs = [_as_unit_rows(cloud_list[k]) for k in stacked]
    centers = np.array([pg._hemisphere_center(arr) for arr in arrs])
    R, fault = pg._hulls(*cyclic(arrs), centers)
    alone = [pg._hulls(arr[None], np.array([len(arr)]), c[None])[1][0] for arr, c in zip(arrs, centers)]
    assert fault.tolist() == alone
    row = 0
    for k, code in zip(stacked, fault):
        want = hulls[k]
        if isinstance(want, DegenerateHull):
            assert str(want) == pg._HULL_FAULTS[code]
            continue
        assert code == -1
        assert np.array_equal(bits(R.V[row, : R.n[row]]), bits(want._varr))
        row += 1
    assert row == len(R.n)


def cycle(rot, n, step, radius, squash, reverse, tilt, rng, size) -> tuple[np.ndarray, np.ndarray]:
    """A vertex cycle and the center it is checked against.  The cycle runs
    `step` at a time through n points of the chart circle of polar radius
    `radius` about c (the standard c turned by rot), so it winds `step`
    times where n and step are coprime and repeats vertices where they are
    not.  The chart's second axis is scaled by squash, a sliver as squash
    nears 0; reverse runs the cycle clockwise; each vertex is nudged by
    `size` radians.  The center is c tilted by `tilt` radians."""
    az = 0.3 + 2.0 * math.pi * step * np.arange(n) / n
    x, y = math.tan(radius) * np.cos(az), squash * math.tan(radius) * np.sin(az)
    V = nudged(rng, on_sphere(rot, np.arctan(np.hypot(x, y)), np.arctan2(y, x)), size)
    return V[::-1] if reverse else V, on_sphere(rot, [tilt], [0.0])[0]


@st.composite
def cycles(draw):
    return cycle(
        draw(rotations()),
        draw(st.integers(3, 12)),
        draw(st.integers(1, 3)),
        draw(st.floats(0.01, 1.5)),
        draw(st.sampled_from([1.0, 0.3, 1e-6, 1e-12, 0.0])),
        draw(st.booleans()),
        draw(st.sampled_from([0.0, 0.5, 1.4])),
        np.random.default_rng(draw(seeds)),
        draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3])),
    )


def ring_faults_alone(V: np.ndarray, c: np.ndarray) -> int:
    return int(pg._ring_faults(pg._rings(V[None], np.array([len(V)]), c[None]))[0])


@pytest.mark.parametrize(
    "n, step, squash, reverse, tilt, code",
    [
        (6, 1, 1.0, False, 0.0, -1),  # convex, counterclockwise
        (6, 1, 1.0, False, 1.4, 0),  # tilted center: vertices beyond its horizon
        (3, 3, 1.0, False, 0.0, 1),  # one point three times
        (4, 2, 1.0, False, 0.0, 2),  # back and forth along a diameter
        (3, 1, 0.0, False, 0.0, 2),  # points on one great circle: the ends reverse
        (6, 1, 1.0, True, 0.0, 3),  # clockwise
        (5, 2, 1.0, False, 0.0, 4),  # a pentagram winds twice
    ],
    ids=["polygon", "horizon", "repeat", "diameter", "great-circle", "clockwise", "twice-wound"],
)
def test_cycles_reach_every_fault(n, step, squash, reverse, tilt, code):
    V, c = cycle(Rotation.identity(), n, step, 0.6, squash, reverse, tilt, np.random.default_rng(0), 0.0)
    assert ring_faults_alone(V, c) == code


@settings(max_examples=200)
@given(st.lists(cycles(), min_size=1, max_size=4))
def test_masked_winding_sum_decides_as_per_length_sums(stack):
    # mixed lengths in one stack; each ring gets the reference's code and the code it gets alone
    Vs, n = cyclic([V for V, _ in stack])
    R = pg._rings(Vs, n, np.array([c for _, c in stack]))
    faults = pg._ring_faults(R).tolist()
    assert faults == reference_ring_faults(R).tolist()
    assert faults == [ring_faults_alone(V, c) for V, c in stack]


coordinates = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
json_values = st.recursive(
    coordinates, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3)
)
vertices = st.one_of(
    st.lists(coordinates, max_size=4),
    st.fixed_dictionaries({"lon_deg": coordinates, "lat_deg": coordinates}),
    json_values,
)
documents = st.one_of(
    st.fixed_dictionaries({"vertices": st.lists(vertices, max_size=6)}),
    clouds.map(lambda cloud: {"vertices": cloud.tolist()}),
    clouds.map(
        lambda cloud: {
            "vertices": [
                {"lon_deg": math.degrees(math.atan2(y, x)), "lat_deg": math.degrees(math.asin(max(-1.0, min(1.0, z))))}
                for x, y, z in cloud
            ]
        }
    ),
    json_values,
)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("adversarial") / "polygon.json"


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100)
@given(documents)
def test_documents_exit_zero_or_two(document_path, doc):
    document_path.write_text(json.dumps(doc))
    results = {}
    for command in ("diam", "extreme"):
        code, out, err = run_cli(command, "--in", str(document_path), "--json")
        if code == 2:
            assert out == "" and err.startswith("error: ") and "Traceback" not in err
        else:
            assert code == 0 and err == ""
            results[command] = json.loads(out)
    # both commands load the same polygon, or both fail
    assert len(results) in (0, 2)
    if results:
        assert results["extreme"]["extreme_diameter"] <= results["diam"]["value"]
