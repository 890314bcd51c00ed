"""sphereconvex benchmark: one closed-loop workload per run, timed from outside.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload verify|large_polygons \
      --seed N --seconds T --trace 0|1

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1 runs a
fixed amount of the workload once untraced and once with wrappers around the
library's public functions, and reports the per-layer metrics.  The last line
of standard output is one JSON object {correct, attempted, failed, metrics};
the lines before it record the environment and the samples behind each
figure.  See perfbench/README.md for what each workload and metric means.

This script never imports the library: all library work runs in child
processes (`python -m sphereconvex ...` or perfbench/worker.py) with `src`
on PYTHONPATH, since the package is used from the source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "verify_reference.json"

# Workload sizes.  verify: Monte Carlo wide trials per CLI invocation (the
# campaign adds min(1000, 10 * trials) small trials); 2000 is the trial count
# the ROADMAP's own before/after checks use.  large_polygons: radius strata,
# times 10 point-count levels.
SIZES = {"verify": [2000], "large_polygons": [15]}
# Set-up probes before and after the timed work, so that the median of
# set-up times spans the run rather than one moment of a shared host.
SETUP_PROBES = (3, 2)
# Every child gets what is left of this budget, so a run ends within 180 s.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SPAN_LAYERS = {
    "polygon": ("boundary_diameter", "convex_hull", "extreme_diameter"),
    "quad": ("solve_quad", "construct_quad", "check_identities"),
    "lune": ("construct_lune", "equilateral_points", "min_sampled_distance"),
}
PER_LAYER: dict[str, str] = {}
for _layer, _fns in _SPAN_LAYERS.items():
    for _fn in _fns:
        PER_LAYER[f"{_layer}.{_fn}.calls"] = "count"
        PER_LAYER[f"{_layer}.{_fn}.busy_s"] = "s"
for _kind in ("vertex_vertex", "vertex_edge", "edge_edge"):
    PER_LAYER[f"polygon.boundary_diameter.{_kind}"] = "count"
PER_LAYER.update(
    {
        "polygon.convex_hull.failed": "count",
        "polygon.random_polygon.calls": "count",
        "polygon.random_polygon.self_s": "s",
        "polygon.random_polygon.attempts": "count",
        "polygon.random_polygon.accept_ratio": "ratio",
        "polygon.hull_vertices.mean": "count",
        "polygon.hull_vertices.max": "count",
        "campaign.wide_trial.calls": "count",
        "campaign.wide_trial.p50_ms": "ms",
        "campaign.wide_trial.p90_ms": "ms",
        "campaign.small_trial.calls": "count",
        "campaign.small_trial.p50_ms": "ms",
        "campaign.small_trial.p90_ms": "ms",
        "campaign.run_verify.busy_s": "s",
        "campaign.self_s": "s",
        "cli.self_s": "s",
        "core.SpherePoint.created": "count",
        "core.distance.calls": "count",
        "vecmath.ang.calls": "count",
        "vecmath.unit.calls": "count",
        "vecmath.reject.calls": "count",
        "trace.overhead_s": "s",
    }
)


@dataclass(frozen=True)
class Child:
    """A finished child process: stdout, wall time from spawn, peak RSS."""

    stdout: str
    spawned: float
    wall: float
    rss_mb: float
    code: int

    def json(self) -> dict:
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            raise RuntimeError(f"child exited with code {self.code}")
        return json.loads(lines[-1])


class Runner:
    """Starts children under one deadline and reaps each with its rusage."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def run(self, argv: list[str]) -> Child:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run budget exhausted")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        reaped = False
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            proc.stdout.close()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(out.decode(), spawned, wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def worker(self, *args: str) -> Child:
        return self.run([str(WORKER), *args])


def _sizes_args(sizes: list[int]) -> list[str]:
    return ["--sizes", *map(str, sizes)]


def measure_setup(runner: Runner, workload: str, seed: int, sizes: list[int], probes: int) -> tuple[list[float], dict]:
    """Spawn-to-ready times of fresh processes that import the package and
    build the inputs, and the library's dependency versions."""
    argv = ["probe", workload, "--seed", str(seed), *_sizes_args(sizes)]
    samples = []
    for _ in range(probes):
        child = runner.worker(*argv)
        body = child.json()
        samples.append(body["ready"] - child.spawned)
    return samples, body["versions"]


# ------------------------------------------------------------------- verify


def load_reference(seed: int, trials: int) -> dict | None:
    ref = json.loads(REFERENCE.read_text())
    if ref["seed"] == seed and ref["trials"] == trials:
        return ref["report"]
    return None


def verify_gate(stdout: str, code: int, reference: dict | None) -> list[str]:
    """Problems with one `verify --json` report; empty when it is correct.

    Every check must pass.  With a reference, each stored check must appear
    with the same name, instances, min_margin, worst_case_payload and pass;
    checks and fields the reference lacks are allowed.
    """
    if code != 0:
        return [f"verify exited with code {code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = [f"check {c['name']} failed" for c in report["checks"] if not c["pass"]]
    if not report["overall_pass"]:
        problems.append("overall_pass is false")
    if reference is not None:
        by_name = {c["name"]: c for c in report["checks"]}
        for ref in reference["checks"]:
            got = by_name.get(ref["name"])
            if got is None:
                problems.append(f"check {ref['name']} missing")
                continue
            for field in ("instances", "min_margin", "worst_case_payload", "pass"):
                if got.get(field) != ref[field]:
                    problems.append(f"check {ref['name']}: {field} {got.get(field)!r} != {ref[field]!r}")
    return problems


def _verify_argv(seed: int, trials: int) -> list[str]:
    return ["verify", "--json", "--seed", str(seed), "--trials", str(trials)]


def run_verify(runner: Runner, seed: int, seconds: float, trace: bool, sizes: list[int], reference) -> dict:
    (trials,) = sizes
    per_invocation = trials + min(1000, 10 * trials)
    argv = ["-m", "sphereconvex", *_verify_argv(seed, trials)]
    children: list[Child] = []
    walls: list[float] = []
    campaign_walls: list[float] = []
    failed_runs = 0
    start = time.monotonic()
    # Start another invocation only if a typical one still ends within `seconds`.
    while not children or (not trace and time.monotonic() - start + statistics.median(walls) <= seconds):
        child = runner.run(argv)
        children.append(child)
        walls.append(child.wall)
        problems = verify_gate(child.stdout, child.code, reference)
        for p in problems:
            print(f"verify gate: {p}", file=sys.stderr)
        failed_runs += bool(problems)
        try:
            campaign_walls.append(float(json.loads(child.stdout)["wall_time_s"]))
        except (ValueError, KeyError, TypeError):
            campaign_walls.append(child.wall)  # no report: charge the whole invocation
    out = {
        "invocations": len(children),
        "trials_per_invocation": per_invocation,
        "walls_s": walls,
        "campaign_walls_s": campaign_walls,
        "rss_mb": [c.rss_mb for c in children],
    }
    if trace:
        traced = runner.worker("cli", *_verify_argv(seed, trials))
        body = traced.json()
        problems = verify_gate(body["stdout"], body["exit_code"], reference)
        for p in problems:
            print(f"verify gate (traced): {p}", file=sys.stderr)
        failed_runs += bool(problems)
        summary = body["trace"]
        setup = body["ready"] - traced.spawned
        run_busy = summary["busy_s"].get("campaign.run_verify", 0.0)
        out["layers"] = layer_metrics(summary, traced.wall - walls[0], traced.wall - setup - run_busy)
    out["attempted"] = per_invocation * (len(children) + int(trace))
    out["failed"] = per_invocation * failed_runs
    out["end_to_end"] = {
        "wall_s": statistics.median(walls),
        # Trials per second of the campaign's own run time (the report's
        # wall_time_s): the library's throughput without import and CLI.
        "ops_per_s": per_invocation / statistics.median(campaign_walls),
        "peak_rss_mb": statistics.median(out["rss_mb"]),
    }
    return out


# ------------------------------------------------------- in-process workloads


def run_in_process(runner: Runner, workload: str, seed: int, seconds: float, trace: bool, sizes: list[int]) -> dict:
    argv = ["run", workload, "--seed", str(seed), "--seconds", repr(seconds), *_sizes_args(sizes)]
    child = runner.worker(*argv, *(["--trace"] if trace else []))
    body = child.json()
    passes = body["passes"]
    ops = body["op_median_s"]
    out = {
        "passes": len(passes),
        "pass_walls_s": passes,
        "ops_per_pass": body["ops_per_pass"],
        # Each operation's median over the passes, then percentiles across
        # the operations.
        "op_p50_ms": quantile(ops, 0.5) * 1e3,
        "op_p90_ms": quantile(ops, 0.9) * 1e3,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "end_to_end": {
            "wall_s": statistics.median(passes),
            # wall_s restated as a rate: the same samples, not a second measurement.
            "ops_per_s": body["ops_per_pass"] / statistics.median(passes),
            "peak_rss_mb": child.rss_mb,
        },
    }
    if trace:
        out["layers"] = layer_metrics(body["trace"], body["traced_wall_s"] - passes[0], 0.0)
    return out


# ------------------------------------------------------------------ metrics


def layer_metrics(summary: dict, overhead_s: float, cli_self_s: float) -> dict:
    """Per-layer figures from a tracer summary; idle layers read 0."""
    calls = summary["calls"]
    busy = summary["busy_s"]
    self_s = summary["self_s"]
    counts = summary["counts"]
    latency = summary["latency_ms"]
    m: dict[str, float] = {}
    for layer, fns in _SPAN_LAYERS.items():
        for fn in fns:
            m[f"{layer}.{fn}.calls"] = calls.get(f"{layer}.{fn}", 0)
            m[f"{layer}.{fn}.busy_s"] = busy.get(f"{layer}.{fn}", 0.0)
    for kind in ("vertex_vertex", "vertex_edge", "edge_edge"):
        m[f"polygon.boundary_diameter.{kind}"] = counts.get(f"polygon.boundary_diameter.{kind}", 0)
    attempts = summary["random_polygon_attempts"]
    rp_calls = calls.get("polygon.random_polygon", 0)
    m.update(
        {
            "polygon.convex_hull.failed": counts.get("polygon.convex_hull.failed", 0),
            "polygon.random_polygon.calls": rp_calls,
            "polygon.random_polygon.self_s": self_s.get("polygon.random_polygon", 0.0),
            "polygon.random_polygon.attempts": attempts,
            "polygon.random_polygon.accept_ratio": rp_calls / attempts if attempts else 0.0,
            "polygon.hull_vertices.mean": summary["hull_vertices_mean"],
            "polygon.hull_vertices.max": summary["hull_vertices_max"],
            "campaign.run_verify.busy_s": busy.get("campaign.run_verify", 0.0),
            "campaign.self_s": sum((v for k, v in self_s.items() if k.startswith("campaign.")), 0.0),
            "cli.self_s": cli_self_s,
            "core.SpherePoint.created": counts.get("core.SpherePoint.created", 0),
            "core.distance.calls": counts.get("core.distance.calls", 0),
            "trace.overhead_s": overhead_s,
        }
    )
    for trial in ("wide_trial", "small_trial"):
        name = f"campaign.{trial}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.p50_ms"] = latency.get(name, {}).get("p50", 0.0)
        m[f"{name}.p90_ms"] = latency.get(name, {}).get("p90", 0.0)
    for fn in ("ang", "unit", "reject"):
        m[f"vecmath.{fn}.calls"] = counts.get(f"vecmath.{fn}.calls", 0)
    return m


def environment(versions: dict) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=None, reference=None) -> dict:
    """Run one workload and return the result object (last stdout line).

    `sizes` and `reference` replace the workload sizes and the stored verify
    report; the self-tests use them for tiny and deliberately broken runs.
    """
    sizes = SIZES[workload] if sizes is None else sizes
    runner = Runner()
    before, after = (1, 0) if trace else SETUP_PROBES
    setup, versions = measure_setup(runner, workload, seed, sizes, before)
    if workload == "verify":
        out = run_verify(runner, seed, seconds, trace, sizes, reference or load_reference(seed, sizes[0]))
    else:
        out = run_in_process(runner, workload, seed, seconds, trace, sizes)
    if after:
        setup += measure_setup(runner, workload, seed, sizes, after)[0]
    attempted, failed = out["attempted"], out["failed"]
    if trace:
        metrics = {name: {"value": out["layers"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = dict(out["end_to_end"], setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail = {k: v for k, v in out.items() if k not in ("end_to_end", "layers")}
    detail.update(workload=workload, seed=seed, sizes=sizes, setup_samples_s=setup, failed_frac=failed / attempted)
    print(json.dumps({"environment": environment(versions)}))
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sphereconvex benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sphereconvex" / "__init__.py").is_file():
        print(f"error: no sphereconvex source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
