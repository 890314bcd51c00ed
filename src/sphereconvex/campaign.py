"""Reproducible verification campaigns over the geometry modules.

A campaign runs a fixed sequence of checks (closed-form identities on grids,
geometric cross-validation, and seeded Monte Carlo over random convex
polygons) and assembles a machine-readable report.  Every check reports a
margin with the convention that larger is better and the check passes when
min_margin >= -tolerance: identity checks use the negated worst residual,
inequality checks use the worst raw slack.  One reducer, `_check`, turns a
check's per-case margins into its result; ties go to the first case in scan
order.

Reports are deterministic for a given configuration: random trials draw from
PCG64 streams keyed by (seed, stream, trial index), so any worst case can be
regenerated from the payload alone, by `replay(seed, stream, index)`.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .lune import lune_checks
from .polygon import (
    SphericalPolygon,
    DiameterWitness,
    extreme_diameter,
    random_polygon,
    random_polygons,
    triangle_diameters,
)
from .quad import QuadSolution, check_identities, measure_quads, phi, phi_inverse_delta, solve_quad

SCHEMA_VERSION = 1

# Sampling density for the lune clearance check and the side-length grid for
# the quadrilateral cross-validation.
LUNE_SAMPLES = 200
QUAD_GRID_STEPS = 20
QUAD_GRID_RANGE = (0.05, math.pi / 2 - 0.05)

# Monte Carlo trials per chunk the pool hands to a worker process, drawn
# there as one batch.  Each round of a batch costs a few hundred numpy calls
# whatever its size, so larger chunks pay that less often: on one core,
# `verify --trials 2000` took 1.3-1.5 times as long in chunks of 100, 1.1
# times in chunks of 250, and about as long in chunks of 1000.
TRIAL_CHUNK = 500

# Stream tags for per-trial PCG64 substreams.
STREAM_WIDE = 0  # diameter in (pi/2, pi)
STREAM_SMALL = 1  # diameter at most pi/2

# `random_polygon` ranges of each stream, beyond its defaults.
STREAM_RANGES = {
    STREAM_WIDE: {},
    STREAM_SMALL: {"cap_radius_range": (0.05, math.pi / 4 - 0.01), "diameter_range": (1e-6, math.pi / 2)},
}


@dataclass(frozen=True)
class DeltaGrid:
    """Evenly spaced thickness grid inside (pi/2, pi)."""

    lo: float = math.pi / 2 + 1e-3
    hi: float = math.pi - 1e-3
    steps: int = 50

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 42
    trials: int = 10_000
    delta_grid: DeltaGrid = DeltaGrid()
    tolerance: float = 1e-9
    output_format: str = "text"

    def validate(self) -> None:
        for name, value in (("seed", self.seed), ("trials", self.trials), ("delta grid steps", self.delta_grid.steps)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit non-negative integer, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.delta_grid.steps < 2:
            raise ConfigError(f"delta grid needs >= 2 steps, got {self.delta_grid.steps}")
        if not (math.pi / 2 < self.delta_grid.lo < self.delta_grid.hi < math.pi):
            raise ConfigError("delta grid must satisfy pi/2 < lo < hi < pi")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if not math.isfinite(self.tolerance):
            raise ConfigError(f"tolerance must be finite, got {self.tolerance}")
        if self.output_format not in ("text", "json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    min_margin: float
    worst_case_payload: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "min_margin": self.min_margin,
            "worst_case_payload": self.worst_case_payload,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    checks: tuple[CheckResult, ...]
    overall_pass: bool
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def csv_rows(self) -> list[dict]:
        return [
            {
                "name": c.name,
                "instances": c.instances,
                "min_margin": repr(c.min_margin),
                "pass": str(c.passed).lower(),
                "worst_case_payload": json.dumps(c.worst_case_payload, sort_keys=True),
            }
            for c in self.checks
        ]

    def to_text(self) -> str:
        lines = [
            f"schema_version: {SCHEMA_VERSION}",
            "config: " + json.dumps(self.config.to_dict()),
        ]
        for c in self.checks:
            flag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{flag}] {c.name:<38} instances={c.instances:<7} min_margin={c.min_margin:+.6e}"
            )
        lines.append(
            f"overall: {'PASS' if self.overall_pass else 'FAIL'} (wall time {self.wall_time_s:.2f} s)"
        )
        return "\n".join(lines)


def replay(seed: int, stream: int, index: int) -> tuple[SphericalPolygon, DiameterWitness, float]:
    """Regenerate trial `index` of a Monte Carlo stream: its polygon, the
    witness of its boundary diameter, and its extreme diameter, as
    `trial_chunk` gets them."""
    if stream not in STREAM_RANGES:
        raise ConfigError(f"unknown trial stream {stream!r}, expected one of {sorted(STREAM_RANGES)}")
    P, w = random_polygon(seed, index, stream=stream, **STREAM_RANGES[stream])
    return P, w, extreme_diameter(P)


def trial_chunk(seed: int, stream: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 3) rows (boundary diameter, extreme diameter, vertex
    count) of trials start, ..., stop - 1 of one stream, drawn as one
    `random_polygons` batch, each with the bits `replay` gives its trial.
    Only numbers are kept, so no polygon outlives its chunk."""
    T = random_polygons(seed, range(start, stop), stream=stream, **STREAM_RANGES[stream])
    return np.stack([T.diameter, T.extreme, T.vertices], axis=1)


def _task(task: tuple):
    """Run one `_map` task (kind, *args): the lune rows, the quad grid, the
    triangle table or a trial chunk.  Its function is looked up when it runs,
    so a forked worker calls what this process would."""
    kind, *args = task
    return {"lune": _lune_rows, "quad": _quad_errors, "table": tightness_table, "trials": trial_chunk}[kind](*args)


def _lune_rows(deltas: Sequence[float], samples: int) -> list[dict]:
    """`lune_checks` rows of the grid deltas, in order; `lune_checks` is
    looked up when this runs, as `_task` looks up its functions."""
    return [lune_checks(d, samples) for d in deltas]


def _map(tasks: Sequence[tuple]) -> list:
    """`_task` results of the tasks in input order, mapped one at a time over
    forked workers, one per CPU in this process's affinity mask, or run here
    in order with one CPU, without the fork start method, or where forking
    is unsafe (a daemonic process, other running threads).  The first error
    in input order cancels every task not yet started, and the workers end
    once their running tasks do.  No worker is killed: `multiprocessing.Pool`
    kills its workers on an error, and one killed while it holds the result
    queue's lock blocks `Pool.terminate` for good.  A worker that dies raises
    `BrokenProcessPool` here."""
    import multiprocessing  # here, so that importing the package does not load it

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    can_fork = (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    )
    workers = min(cpus, len(tasks)) if can_fork else 1
    if workers < 2:
        return [_task(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return [future.result() for future in [pool.submit(_task, task) for task in tasks]]
    finally:
        pool.shutdown(cancel_futures=True)


def _chunks(seed: int, counts: Sequence[tuple[int, int]]) -> list[tuple]:
    """Trial tasks for the first `count` trials of each (stream, count), cut
    into chunks of TRIAL_CHUNK consecutive trials."""
    return [
        ("trials", seed, stream, start, min(start + TRIAL_CHUNK, count))
        for stream, count in counts
        for start in range(0, count, TRIAL_CHUNK)
    ]


def _stream_rows(counts: Sequence[tuple[int, int]], chunks: Iterable[np.ndarray]) -> list[np.ndarray]:
    """The rows of the `_chunks` tasks' results, one array per stream."""
    rows = np.concatenate([np.empty((0, 3)), *chunks])
    return np.split(rows, np.cumsum([count for _, count in counts]))[:-1]


def trial_rows(seed: int, counts: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """`trial_chunk` rows of the first `count` trials of each (stream, count),
    one array per stream.  Every trial draws from its own PCG64 stream, so
    the rows depend neither on the worker count nor on the chunk size."""
    return _stream_rows(counts, _map(_chunks(seed, counts)))


def _check(name: str, margins: Sequence[float], payload: Callable[[int], dict], tol: float) -> CheckResult:
    """A check's result from its per-case margins; the worst case k is the first smallest one."""
    margins = np.asarray(margins, dtype=float)
    k = int(np.argmin(margins))
    min_margin = float(margins[k])
    return CheckResult(name, len(margins), min_margin, payload(k), min_margin >= -tol)


def _quad_errors(sides: Sequence[float]) -> list[float]:
    """Worst gap between the closed-form quad and its embedding, identity
    residuals included, at each (kappa, lam) of the quad grid over sides,
    kappa-major; the embeddings are measured as one stack."""
    pairs = [(kappa, lam) for kappa in sides for lam in sides]
    measured = measure_quads(*zip(*pairs)).tolist()
    errors = []
    for (kappa, lam), row in zip(pairs, measured):
        s, m = solve_quad(kappa, lam), QuadSolution(*row)
        errors.append(max(abs(s.mu - m.mu), abs(s.nu - m.nu), abs(s.xi - m.xi), *check_identities(m)))
    return errors


def run_verify(config: CampaignConfig) -> CampaignReport:
    """Run the full verification campaign described by the configuration.

    The checks run in a fixed order; the report is a pure function of the
    configuration (apart from the wall-time field).
    """
    config.validate()
    t0 = time.perf_counter()
    seed, trials, tol = config.seed, config.trials, config.tolerance
    grid = config.delta_grid.values()
    deltas = [float(d) for d in grid]
    phis = np.array([phi(d) for d in deltas])
    sides = [float(s) for s in np.linspace(*QUAD_GRID_RANGE, QUAD_GRID_STEPS)]
    # The small-diameter regime needs fewer trials for the same confidence;
    # scale with the configured budget but cap at 1000.
    counts = [(STREAM_WIDE, trials), (STREAM_SMALL, min(1000, 10 * trials))]
    # One task list, grid first: the lune rows are the longest single task,
    # so a worker starts them before any trial chunk and they do not finish
    # last; with one CPU they run before the trials grow the heap.
    grid_tasks = [("lune", deltas, LUNE_SAMPLES), ("quad", sides), ("table", deltas)]
    results = iter(_map([*grid_tasks, *_chunks(seed, counts)]))
    lunes, quad_errors, table = next(results), next(results), next(results)
    wide, small = _stream_rows(counts, results)
    diam, ext, nverts = wide.T
    margin, ratio = ext - 2.0 * np.array([phi(d) for d in diam]), ext / diam
    small_diam, small_ext, _ = small.T

    def at_delta(k: int) -> dict:
        return {"delta": deltas[k]}

    def trial(stream: int, k: int, **scalars) -> dict:
        return {"seed": seed, "stream": stream, "trial": k, **scalars}

    def ratio_case(k: int) -> dict:
        if k < trials:
            return trial(STREAM_WIDE, k, ratio=float(ratio[k]))
        row = table[k - trials]
        return {"delta": row["delta"], "ratio": row["ratio"], "family": "regular-triangle"}

    checks = [
        _check("phi_monotonic", np.diff(phis), lambda k: {"delta_lo": deltas[k], "delta_hi": deltas[k + 1]}, tol),
        _check("phi_range", np.minimum(phis - math.pi / 4, math.pi / 3 - phis), at_delta, tol),
        _check(
            "phi_inverse_roundtrip", [-abs(phi_inverse_delta(p) - d) for p, d in zip(phis, deltas)], at_delta, tol
        ),
        _check("thickness_gap", grid - 2.0 * phis, at_delta, tol),
        _check(
            "quad_closed_form_vs_embedding",
            -np.array(quad_errors),
            lambda k: {"kappa": sides[k // len(sides)], "lambda": sides[k % len(sides)]},
            tol,
        ),
        _check("lune_equilateral_triangle", [-row["equilateral_max_residual"] for row in lunes], at_delta, tol),
        _check(
            "lune_orthogonal_drop_clearance",
            [row["sampled_min_margin"] for row in lunes],
            lambda k: {"delta": deltas[k], "samples": LUNE_SAMPLES},
            tol,
        ),
        _check(
            "extreme_diameter_lower_bound_mc",
            margin,
            lambda k: trial(
                STREAM_WIDE, k, diameter=float(diam[k]), extreme_diameter=float(ext[k]),
                margin=float(margin[k]), vertices=int(nverts[k]),
            ),
            tol,
        ),
        _check(
            "extreme_to_full_diameter_ratio",
            np.concatenate([ratio, [row["ratio"] for row in table]]) - 2.0 / 3.0,
            ratio_case,
            tol,
        ),
        _check(
            "small_diameter_extreme_equality",
            -np.abs(small_diam - small_ext),
            lambda k: trial(STREAM_SMALL, k, diameter=float(small_diam[k])),
            tol,
        ),
    ]
    return CampaignReport(
        config=config,
        checks=tuple(checks),
        overall_pass=all(c.passed for c in checks),
        wall_time_s=time.perf_counter() - t0,
    )


def _interior_grid(steps: int) -> np.ndarray:
    """`steps` evenly spaced values strictly inside (pi/2, pi)."""
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    return np.linspace(math.pi / 2, math.pi, steps + 2)[1:-1]


def phi_curve(steps: int) -> list[dict]:
    """Rows (delta, phi, 2*phi, gap) on an interior grid of (pi/2, pi)."""
    rows = []
    for d in map(float, _interior_grid(steps)):
        p = phi(d)
        rows.append({"delta": d, "phi": p, "two_phi": 2.0 * p, "gap": d - 2.0 * p})
    return rows


def tightness_table(deltas: Iterable[float]) -> list[dict]:
    """Diameter data for the family of regular triangles with side 2*phi(delta).

    Each triangle has boundary diameter delta (attained from a vertex to the
    opposite edge) while its extreme points span only 2*phi(delta), so the
    bound margin is ~0 and the ratio tends to 2/3 as delta approaches pi.
    The triangles are measured as one stack by `triangle_diameters`.
    """
    deltas = [float(d) for d in deltas]
    diam, extreme = triangle_diameters([2.0 * phi(d) for d in deltas])
    return [
        {"delta": d, "diam": bd, "diam_extreme": ed, "margin": ed - 2.0 * phi(bd), "ratio": ed / bd}
        for d, bd, ed in zip(deltas, diam.tolist(), extreme.tolist())
    ]


def tightness_grid(steps: int) -> list[dict]:
    """`tightness_table` over an interior grid of (pi/2, pi)."""
    return tightness_table(_interior_grid(steps))
