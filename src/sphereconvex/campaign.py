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
PCG64 streams keyed by (seed, stream, trial index), each stream with the
sampling ranges `polygon.STREAMS` gives it, so any worst case can be
regenerated from the payload alone, by `replay(seed, stream, index)`.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import pickle
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .lune import construct_lune, lune_rows
from .polygon import (
    STREAM_SMALL,
    STREAM_WIDE,
    SphericalPolygon,
    DiameterWitness,
    extreme_diameter,
    random_polygon,
    random_polygons,
    regular_triangle,
    triangle_diameters,
)
from .quad import QuadSolution, check_identities, measure_quads, phi, phi_inverse_delta, solve_quad

SCHEMA_VERSION = 1

# Sampling density for the lune clearance check and the side-length grid for
# the quadrilateral cross-validation.
LUNE_SAMPLES = 200
QUAD_GRID_STEPS = 20
QUAD_GRID_RANGE = (0.05, math.pi / 2 - 0.05)

# Monte Carlo trials per `_map` task, drawn as one batch by the worker that
# claims it.  Each round of a batch costs a few hundred numpy calls whatever
# its size, so larger chunks pay that less often: on one core,
# `verify --trials 2000` took 1.3-1.5 times as long in chunks of 100, 1.1
# times in chunks of 250, and about as long in chunks of 1000.  A chunk of
# 500 adds 4-6 MB to the peak memory of the process that runs it.
TRIAL_CHUNK = 500


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
        grid = self.delta_grid
        if not isinstance(grid, DeltaGrid):
            raise ConfigError(f"delta grid must be a DeltaGrid, got {grid!r}")
        integers = (("seed", self.seed), ("trials", self.trials), ("delta grid steps", grid.steps))
        reals = (("tolerance", self.tolerance), ("delta grid lo", grid.lo), ("delta grid hi", grid.hi))
        for kind, what, fields in ((int, "an integer", integers), (numbers.Real, "a real number", reals)):
            for name, value in fields:
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit non-negative integer, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.delta_grid.steps < 2:
            raise ConfigError(f"delta grid needs >= 2 steps, got {self.delta_grid.steps}")
        if not (math.pi / 2 < self.delta_grid.lo < self.delta_grid.hi < math.pi):
            raise ConfigError("delta grid must satisfy pi/2 < lo < hi < pi")
        for name, delta in (("lo", grid.lo), ("hi", grid.hi)):
            try:
                construct_lune(delta)  # whose domain is narrower than (0, pi)
            except DomainError as exc:
                raise ConfigError(f"delta grid {name}={delta!r} has no lune: {exc}") from exc
        try:
            phi_inverse_delta(phi(grid.lo))  # phi increases, so only lo can round onto pi/4
        except DomainError as exc:
            raise ConfigError(f"delta grid lo={grid.lo!r} has no phi_inverse_delta of phi(lo): {exc}") from exc
        try:
            regular_triangle(2.0 * phi(grid.hi))  # the tightness table's largest triangle, as phi increases
        except DomainError as exc:
            raise ConfigError(f"delta grid hi={grid.hi!r} has no regular triangle of side 2*phi(hi): {exc}") from exc
        if not 0 < self.tolerance < math.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
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
    `trial_chunk` gets them.  A stream outside `polygon.STREAMS` raises
    DomainError, as a negative key does."""
    P, w = random_polygon(seed, index, stream=stream)
    return P, w, extreme_diameter(P)


def trial_chunk(seed: int, stream: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 3) rows (boundary diameter, extreme diameter, vertex
    count) of trials start, ..., stop - 1 of one stream, drawn as one
    `random_polygons` batch, each with the bits `replay` gives its trial.
    Only numbers are kept, so no polygon outlives its chunk."""
    return random_polygons(seed, range(start, stop), stream=stream)[0]


def _task(task: tuple):
    """Run one `_map` task (kind, *args): the lune rows, the quad grid, the
    triangle table or a trial chunk.  Its function is looked up when it runs,
    so a forked worker calls what this process would."""
    kind, *args = task
    return {"lune": lune_rows, "quad": _quad_errors, "table": tightness_table, "trials": trial_chunk}[kind](*args)


def _claim(fd: int, stop: int | None = None) -> int:
    """The task index in the 8-byte counter of file fd, which this bumps by
    one, or sets to `stop` when given, under a record lock.  The kernel
    drops the lock of a process that dies, so no worker can leave it held."""
    import fcntl  # here, so that importing the package does not load it

    fcntl.lockf(fd, fcntl.LOCK_EX)
    try:
        index = int.from_bytes(os.pread(fd, 8, 0), "little")  # an empty file reads 0
        os.pwrite(fd, (index + 1 if stop is None else stop).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(fd, fcntl.LOCK_UN)
    return index


def _work(tasks: Sequence[tuple], fd: int) -> list[tuple]:
    """(index, ok, result or error) of each task this process claims from
    the counter in fd until none is left.  An error sets the counter to the
    end, which cancels every task not yet claimed."""
    done = []
    while (i := _claim(fd)) < len(tasks):
        try:
            done.append((i, True, _task(tasks[i])))
        except Exception as exc:
            done.append((i, False, exc))
            _claim(fd, len(tasks))
    return done


def _child(tasks: Sequence[tuple], fd: int, pipe: int) -> NoReturn:
    """A forked worker: `_work`, then its list pickled into the pipe, then
    `os._exit`, which runs no exit handler and flushes no stdio buffer
    inherited from the caller.  A list that pickle cannot carry there and
    back is replaced by a stand-in error at the worker's first failed task,
    else its first task, and the worker exits with status 1."""
    code = 1
    try:
        done = _work(tasks, fd)
        try:
            data = pickle.dumps(done)
            pickle.loads(data)  # an error that pickles but cannot be rebuilt fails here, not in the caller
            code = 0
        except Exception as exc:
            i, ok, value = min(done, key=lambda entry: (entry[1], entry[0]))
            first = "" if ok else f"; its first error: {value!r}"
            error = ChildProcessError(f"worker {os.getpid()} could not send back its results: {exc!r}{first}")
            data = pickle.dumps([(i, False, error)])
        with open(pipe, "wb") as out:
            out.write(data)
    finally:
        os._exit(code)


def _map(tasks: Sequence[tuple]) -> list:
    """`_task` results of the tasks in input order.

    With one CPU in this process's affinity mask, without `os.fork` and
    `os.memfd_create`, or beside other running threads, where forking is
    unsafe, the tasks run here in order.  Otherwise this process is worker
    0 and forks one child per further CPU, up to one worker per task; each
    worker claims the next task index from one counter in a memfd (`_claim`),
    so the work balances as it runs.  A child sends its results back
    through its own pipe when no task is left.  An error cancels every task
    not yet claimed, the workers end once their running tasks do, and the
    first error in input order is raised here, after every child is reaped;
    since tasks are claimed in order, that error does not depend on which
    worker ran what.  No worker is killed.  A child that ends without its
    results, such as one that dies, raises `ChildProcessError` with its exit
    status, negative for a signal.  An error from a child carries no
    traceback of the child: run on one CPU for that.  A fork that fails
    leaves fewer workers.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    can_fork = hasattr(os, "fork") and hasattr(os, "memfd_create") and threading.active_count() == 1
    workers = min(cpus, len(tasks)) if can_fork else 1
    if workers < 2:
        return [_task(task) for task in tasks]
    fd = os.memfd_create("sphereconvex-tasks")
    children, sent = [], []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer workers
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _child(tasks, fd, w)
            os.close(w)
            children.append((pid, r))
        done = _work(tasks, fd)
    finally:
        _claim(fd, len(tasks))  # cancels what is not yet claimed
        os.close(fd)
        for pid, r in children:
            with open(r, "rb") as pipe:
                sent.append((pid, pipe.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for pid, data, code in sent:
        if code < 0 or not data:  # killed, or ended before it sent its results
            raise ChildProcessError(f"worker {pid} ended with exit status {code} without its results")
        done += pickle.loads(data)
    results = [None] * len(tasks)
    for i, ok, value in sorted(done, key=lambda entry: entry[0]):
        if not ok:
            raise value
        results[i] = value
    return results


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
    # One task list, longest first, since workers claim tasks in list order:
    # the trial chunks (tens of ms each), then the grid tasks (a few ms
    # each), which fill the time one worker would idle while the other runs
    # the last chunk.
    grid_tasks = [("lune", deltas, LUNE_SAMPLES), ("quad", sides), ("table", deltas)]
    *chunks, lunes, quad_errors, table = _map([*_chunks(seed, counts), *grid_tasks])
    wide, small = _stream_rows(counts, chunks)
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
