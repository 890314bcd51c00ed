"""Self-tests of the benchmark itself; run `python3 perfbench/selftest.py`.

1. A tiny run of every workload, untraced and traced, reports exactly the
   metrics BENCHMARK.json names, with its units, and no failures.
2. The stored verify reference matches the current code, and perturbing one
   stored min_margin makes the verify gate fail (failed_frac > 0).
3. Two traced runs at one seed give identical counts.

Takes one to two minutes.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import copy
import json
import sys

import run

TINY = {"verify": [5], "large_polygons": [1]}
DETERMINISTIC_UNITS = ("count", "ratio")


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}", file=sys.stderr)


def tiny(workload: str, trace: bool, seed: int = 3) -> dict:
    return run.run_benchmark(workload, seed, 1, trace, sizes=TINY[workload])


def test_metrics_match_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        check(named == table, f"{key} metrics in BENCHMARK.json match run.py")
    check({w["name"] for w in spec["workloads"]} == set(run.SIZES), "BENCHMARK.json lists exactly the workloads in run.py")
    for workload in run.SIZES:
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = tiny(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == table, f"{workload} trace={int(trace)} reports every metric with its unit")
            check(result["correct"] and result["failed"] == 0, f"{workload} trace={int(trace)} is correct")


def test_reference_gate() -> None:
    stored = json.loads(run.REFERENCE.read_text())
    seed, trials = stored["seed"], stored["trials"]
    result = run.run_benchmark("verify", seed, 1, False)
    check(result["failed"] == 0, "current code reproduces the stored verify reference")
    broken = copy.deepcopy(stored["report"])
    broken["checks"][0]["min_margin"] += 1e-12
    check(run.verify_gate(json.dumps(stored["report"]), 0, broken) != [], "gate rejects a perturbed min_margin")
    result = run.run_benchmark("verify", seed, 1, False, sizes=[trials], reference=broken)
    check(result["failed"] / result["attempted"] > 0, "perturbed min_margin raises failed_frac above 0")


def test_trace_counts_repeat() -> None:
    for workload in run.SIZES:
        a, b = (tiny(workload, True, seed=11)["metrics"] for _ in range(2))
        counts_a = {k: v["value"] for k, v in a.items() if v["unit"] in DETERMINISTIC_UNITS}
        counts_b = {k: v["value"] for k, v in b.items() if v["unit"] in DETERMINISTIC_UNITS}
        check(counts_a == counts_b, f"{workload}: two traced runs give identical counts")


if __name__ == "__main__":
    test_metrics_match_spec()
    test_reference_gate()
    test_trace_counts_repeat()
    print("all benchmark self-tests passed", file=sys.stderr)
