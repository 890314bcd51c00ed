"""Child-process side of the benchmark: imports the library and does the work.

`run.py` never imports `sphereconvex`; it starts this script (or the
`sphereconvex` CLI itself) as a child process and reads one JSON line from
its standard output.  Modes:

  probe WORKLOAD --seed S --sizes ...   import the package, build the inputs,
                                        print the time it became ready
  run WORKLOAD --seed S --sizes ... --seconds T [--trace]
                                        closed loop of passes over the inputs
                                        within T seconds (untraced), or one
                                        untraced and one traced pass (--trace)
  cli ARGS...                           run `sphereconvex` ARGS under the tracer

Inputs are generated here from the seed only; the library receives nothing
but those inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import sys
import time
import traceback

import numpy as np

# Must match sphereconvex.campaign.CampaignConfig.tolerance, the tolerance
# the library's own report gates use.
TOLERANCE = 1e-9
# Point counts of the large-polygon sets: geometric levels from 32 to 512.
POINT_LEVELS = tuple(int(round(32 * 16 ** (k / 9))) for k in range(10))
CAP_RADIUS = (math.pi / 4 + 0.05, math.pi / 2 - 0.05)
# Radial jitter of the near-circular sets, as a share of the cap radius.
RADIAL_JITTER = 0.002


def _phi(delta: float) -> float:
    """The extremal function, written out independently of the library."""
    c = math.cos(delta)
    return math.acos(0.25 * (c + math.sqrt(c * c + 8.0)))


def _ang(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.arctan2(np.linalg.norm(np.cross(u, w), axis=-1), np.sum(u * w, axis=-1))


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


# --------------------------------------------------------------- large_polygons


def polygon_inputs(seed: int, radius_strata: int) -> list[np.ndarray]:
    """Near-circular point sets, one per (point count, radius stratum) cell.

    Every seed gets the same factorial design of sizes and radii, so the work
    per pass barely depends on the seed; the seed moves the cap centers, the
    position inside each radius stratum, the azimuths and the jitter.
    """
    rng = _rng(seed, 1)
    lo, hi = CAP_RADIUS
    sets = []
    for s in range(radius_strata):
        for count in POINT_LEVELS:
            radius = lo + (hi - lo) * (s + rng.uniform()) / radius_strata
            center = rng.normal(size=3)
            center /= np.linalg.norm(center)
            axis = np.zeros(3)
            axis[int(np.argmin(np.abs(center)))] = 1.0
            e1 = np.cross(axis, center)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(center, e1)
            az = rng.uniform(0.0, 2.0 * math.pi, count)
            theta = radius * (1.0 - RADIAL_JITTER * rng.uniform(size=count))
            ring = np.cos(az)[:, None] * e1 + np.sin(az)[:, None] * e2
            sets.append(np.cos(theta)[:, None] * center + np.sin(theta)[:, None] * ring)
    return sets


def polygon_op(sc, pts: np.ndarray):
    P = sc.polygon.convex_hull(pts)
    w = sc.polygon.boundary_diameter(P)
    ed = sc.polygon.extreme_diameter(P)
    return P, w, ed


def polygon_gate(pts: np.ndarray, out) -> bool:
    """Witness on the boundary, value = |pq| >= every vertex pair, bound holds."""
    P, w, ed = out
    V = np.array([p.v for p in P.vertices])
    B = np.roll(V, -1, axis=0)
    N = np.cross(V, B)
    N /= np.linalg.norm(N, axis=1)[:, None]
    N *= np.sign(N @ V.sum(axis=0))[:, None]  # interior on the positive side
    if float(np.min(pts @ N.T)) < -TOLERANCE:
        return False  # an input point lies outside the hull
    lengths = _ang(V, B)
    for x in (w.p.v, w.q.v):
        side = x @ N.T
        on_arc = _ang(V, x) + _ang(x, B) <= lengths + TOLERANCE
        if float(side.min()) < -TOLERANCE or not np.any((np.abs(side) <= TOLERANCE) & on_arc):
            return False
    if abs(float(_ang(w.p.v, w.q.v)) - w.value) > 1e-12:
        return False
    if w.value < float(_ang(V[:, None, :], V[None, :, :]).max()) - 1e-12:
        return False
    if not math.pi / 2 < w.value < math.pi:
        return False
    return ed - 2.0 * _phi(w.value) >= -TOLERANCE


# ---------------------------------------------------------------------- driving

WORKLOADS = {
    "large_polygons": (polygon_inputs, polygon_op, polygon_gate),
}


def _import_library():
    import sphereconvex  # noqa: F401  (imports every module, like the CLI)
    import sphereconvex.cli  # noqa: F401

    return sys.modules["sphereconvex"]


def versions() -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def _one_pass(sc, inputs, op_fn, gate, times: list[float], tracer=None) -> tuple[float, int]:
    """Run every input once; append per-op times; return (wall, failures).

    The wall time covers the library calls only: the gates run after it stops.
    """
    failed = 0
    outputs = []
    start = time.perf_counter()
    for item in inputs:
        ctx = tracer.span("bench.op") if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                out = op_fn(sc, item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    wall = time.perf_counter() - start
    for k, (item, out) in enumerate(zip(inputs, outputs)):
        if out is None or not gate(item, out):
            print(f"operation {k} raised or failed its gate", file=sys.stderr)
            failed += 1
    return wall, failed


def run_workload(name: str, seed: int, sizes: list[int], seconds: float, trace: bool) -> dict:
    sc = _import_library()
    make_inputs, op_fn, gate = WORKLOADS[name]
    inputs = make_inputs(seed, *sizes)
    ready = time.monotonic()
    passes: list[float] = []
    per_op: list[list[float]] = [[] for _ in inputs]
    failed = 0
    result: dict = {"ready": ready, "ops_per_pass": len(inputs)}
    start = time.perf_counter()
    # Start another pass only if a typical one still ends within `seconds`.
    while not passes or (not trace and time.perf_counter() - start + float(np.median(passes)) <= seconds):
        times: list[float] = []
        wall, bad = _one_pass(sc, inputs, op_fn, gate, times)
        passes.append(wall)
        failed += bad
        for k, t in enumerate(times):
            per_op[k].append(t)
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            wall, bad = _one_pass(sc, inputs, op_fn, gate, [], tracer)
        finally:
            tracer.uninstall()
        failed += bad
        result["traced_wall_s"] = wall
        result["trace"] = tracer.summary()
    result.update(
        passes=passes,
        op_median_s=[float(np.median(t)) for t in per_op],
        attempted=len(inputs) * (len(passes) + int(trace)),
        failed=failed,
    )
    return result


def run_traced_cli(argv: list[str]) -> dict:
    _import_library()
    from tracer import Tracer

    cli = sys.modules["sphereconvex.cli"]
    tracer = Tracer()
    tracer.install()
    ready = time.monotonic()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    return {"ready": ready, "exit_code": code, "stdout": buf.getvalue(), "trace": tracer.summary()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("probe", "run"):
        p = sub.add_parser(mode)
        p.add_argument("workload", choices=("verify", *WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--sizes", type=int, nargs="*", default=[])
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "probe":
        _import_library()
        if args.workload in WORKLOADS:
            WORKLOADS[args.workload][0](args.seed, *args.sizes)
        out = {"ready": time.monotonic(), "versions": versions()}
    elif args.mode == "run":
        out = run_workload(args.workload, args.seed, args.sizes, args.seconds, args.trace)
    else:
        out = run_traced_cli(args.args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
