import dataclasses
import json
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from sphereconvex import (
    CampaignConfig,
    ConfigError,
    DeltaGrid,
    phi,
    phi_curve,
    replay,
    run_verify,
    tightness_grid,
    tightness_table,
)
from sphereconvex import campaign
from sphereconvex.campaign import LUNE_SAMPLES, STREAM_SMALL, STREAM_WIDE
from sphereconvex.cli import main

PHI_AT_TWO_PI_THIRD = 0.935929455661326

SMALL = CampaignConfig(seed=7, trials=25, delta_grid=DeltaGrid(steps=6), tolerance=1e-9)

# A trial chunk short enough to put chunk edges of both streams within a few
# hundred trials: the small stream runs ten trials per wide trial.
CHUNK = 10

EXPECTED_CHECKS = [
    "phi_monotonic",
    "phi_range",
    "phi_inverse_roundtrip",
    "thickness_gap",
    "quad_closed_form_vs_embedding",
    "lune_equilateral_triangle",
    "lune_orthogonal_drop_clearance",
    "extreme_diameter_lower_bound_mc",
    "extreme_to_full_diameter_ratio",
    "small_diameter_extreme_equality",
]


@pytest.fixture(scope="module")
def small_report():
    return run_verify(SMALL)


class TestRunVerify:
    def test_passes_and_is_complete(self, small_report):
        assert small_report.overall_pass
        assert [c.name for c in small_report.checks] == EXPECTED_CHECKS
        for c in small_report.checks:
            assert c.passed
            assert c.instances >= 1

    def test_deterministic_modulo_wall_time(self, small_report):
        again = run_verify(SMALL)
        d1 = small_report.to_dict()
        d2 = again.to_dict()
        d1.pop("wall_time_s")
        d2.pop("wall_time_s")
        assert json.dumps(d1, indent=2) == json.dumps(d2, indent=2)

    def test_worst_case_reproducible(self, small_report):
        # each trial worst case replays from its payload alone, to the bit
        checks = {c.name: c for c in small_report.checks}

        def replayed(name: str) -> tuple[float, float]:
            payload = checks[name].worst_case_payload
            _, w, ed = replay(payload["seed"], payload["stream"], payload["trial"])
            return w.value, ed

        d, ed = replayed("extreme_diameter_lower_bound_mc")
        assert ed - 2.0 * phi(d) == checks["extreme_diameter_lower_bound_mc"].min_margin
        bd, ed = replayed("small_diameter_extreme_equality")
        assert -abs(bd - ed) == checks["small_diameter_extreme_equality"].min_margin
        if "trial" in checks["extreme_to_full_diameter_ratio"].worst_case_payload:
            d, ed = replayed("extreme_to_full_diameter_ratio")
            assert ed / d - 2.0 / 3.0 == checks["extreme_to_full_diameter_ratio"].min_margin

    @pytest.mark.parametrize(
        "check, key, sign",
        [
            ("lune_equilateral_triangle", "equilateral_max_residual", -1.0),
            ("lune_orthogonal_drop_clearance", "sampled_min_margin", 1.0),
        ],
    )
    def test_lune_worst_case_replayed_by_cli(self, small_report, capsys, check, key, sign):
        # `sphereconvex lune` at a lune check's worst delta prints that check's row
        c = next(c for c in small_report.checks if c.name == check)
        argv = ["lune", "--delta", repr(c.worst_case_payload["delta"]), "--samples", str(LUNE_SAMPLES), "--json"]
        assert main(argv) == 0
        assert sign * json.loads(capsys.readouterr().out)[key] == c.min_margin

    def test_matches_pinned_report(self, small_report):
        # Reference report of this configuration, wall time dropped; any change
        # to a worst case, a margin or a payload is a change of behaviour.
        pinned = json.loads((Path(__file__).parent / "small_report.json").read_text())
        report = small_report.to_dict()
        assert report["config"] == pinned["config"]
        keys = ("name", "instances", "min_margin", "worst_case_payload", "pass")
        assert len(report["checks"]) == len(pinned["checks"])
        for got, want in zip(report["checks"], pinned["checks"]):
            assert {k: got[k] for k in keys} == {k: want[k] for k in keys}
            assert list(got["worst_case_payload"]) == list(want["worst_case_payload"])

    def test_matches_benchmark_reference(self):
        # The benchmark's configuration, checked as its gate checks each run:
        # every stored check by name on these five fields; later checks are allowed.
        reference = json.loads((Path(__file__).parents[1] / "perfbench" / "verify_reference.json").read_text())
        report = run_verify(CampaignConfig(seed=reference["seed"], trials=reference["trials"]))
        by_name = {c["name"]: c for c in report.to_dict()["checks"]}
        keys = ("name", "instances", "min_margin", "worst_case_payload", "pass")
        for want in reference["report"]["checks"]:
            assert {k: by_name[want["name"]][k] for k in keys} == {k: want[k] for k in keys}

    def test_impossible_tolerance_fails_honestly(self):
        report = run_verify(
            CampaignConfig(seed=7, trials=5, delta_grid=DeltaGrid(steps=4), tolerance=1e-30)
        )
        assert not report.overall_pass
        failing = [c for c in report.checks if not c.passed]
        assert failing
        for c in failing:
            assert math.isfinite(c.min_margin)

    @pytest.mark.parametrize("trials", [SMALL.trials, 1, CHUNK, CHUNK + 1])
    def test_report_independent_of_cpu_count(self, monkeypatch, trials):
        monkeypatch.setattr(campaign, "TRIAL_CHUNK", CHUNK)
        config = dataclasses.replace(SMALL, trials=trials)
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            report = run_verify(config).to_dict()
            report.pop("wall_time_s")
            reports.append(json.dumps(report, indent=2))
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_one_cpu_runs_grid_before_trials(self, monkeypatch):
        # With one CPU the tasks run in list order, so the grid checks finish
        # before the trials grow the heap.
        calls = []

        def recording(name):
            real = getattr(campaign, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("lune_checks", "random_polygons"):
            monkeypatch.setattr(campaign, name, recording(name))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_verify(SMALL).overall_pass
        first_trial = calls.index("random_polygons")
        assert calls[:first_trial] == ["lune_checks"] * SMALL.delta_grid.steps
        assert "lune_checks" not in calls[first_trial:]

    def test_report_text_formats(self, small_report):
        text = small_report.to_text()
        assert "overall: PASS" in text
        rows = small_report.csv_rows()
        assert list(rows[0].keys()) == ["name", "instances", "min_margin", "pass", "worst_case_payload"]
        parsed = json.loads(small_report.to_json())
        assert parsed["schema_version"] == 1
        assert parsed["config"]["seed"] == 7


class RebuildError(Exception):
    """Pickles, but cannot be rebuilt: pickle calls the class with its one message."""

    def __init__(self, message, code):
        super().__init__(message)


def local_error(message):
    class LocalError(Exception):  # pickle cannot name a class defined here
        pass

    return LocalError(message)


class TestMap:
    @pytest.fixture()
    def plant(self, monkeypatch, tmp_path):
        """plant(body) puts in a `_task` that appends its index to a log,
        runs body(index) and returns (index, pid), and returns a function
        that gives the sorted indices in the log."""
        path = tmp_path / "log"
        log = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def plant(body=lambda i: None):
            def task(t):
                os.write(log, b"%d\n" % t[0])
                body(t[0])
                return t[0], os.getpid()

            monkeypatch.setattr(campaign, "_task", task)
            return lambda: sorted(map(int, path.read_text().split()))

        yield plant
        os.close(log)

    def test_each_task_runs_once_in_input_order(self, monkeypatch, plant):
        # more workers than this machine may have CPUs, all claiming at once
        ran = plant()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        results = campaign._map([(i,) for i in range(2000)])
        assert [i for i, _ in results] == list(range(2000))
        assert ran() == list(range(2000))

    def test_failure_at_zero_stops_claims(self, monkeypatch, plant):
        def body(i):
            if i == 0:
                raise ValueError("task 0")
            time.sleep(0.001)

        ran = plant(body)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with pytest.raises(ValueError, match="^task 0$"):
            campaign._map([(i,) for i in range(2000)])
        assert 0 < len(ran()) < 2000

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_error_in_input_order_raised(self, monkeypatch, plant, cpus):
        # task 3 fails late, so with two or more workers task 5 fails first
        def body(i):
            if i == 3:
                time.sleep(0.05)
            if i in (3, 5):
                raise ValueError(f"task {i}")

        ran = plant(body)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with pytest.raises(ValueError, match="^task 3$"):
            campaign._map([(i,) for i in range(12)])
        assert ran()[:4] == [0, 1, 2, 3]

    def test_failed_fork_leaves_fewer_workers(self, monkeypatch, plant):
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        ran = plant()
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert campaign._map([(i,) for i in range(20)]) == [(i, os.getpid()) for i in range(20)]
        assert ran() == list(range(20))

    @pytest.mark.parametrize(
        "error", [local_error, lambda message: RebuildError(message, 1)], ids=["unpicklable", "unrebuildable"]
    )
    def test_unpicklable_error_in_child_reaches_caller(self, monkeypatch, plant, in_child, error):
        def body(i):
            if i == 1:
                raise error(f"task 1 in process {os.getpid()}")

        plant(body)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child(lambda task: task == (1,))
        with pytest.raises(ChildProcessError) as caught:
            campaign._map([(i,) for i in range(3)])
        message = str(caught.value)
        assert re.match(r"worker \d+ could not send back its results: ", message)
        assert int(message.split()[1]) != os.getpid()
        assert re.search(r"; its first error: \w+Error\('task 1 in process \d+'\)$", message)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"tolerance": 0.0},
            {"tolerance": -1e-9},
            {"seed": -1},
            {"delta_grid": DeltaGrid(steps=1)},
            {"delta_grid": DeltaGrid(lo=1.0, hi=3.0, steps=5)},
            {"delta_grid": DeltaGrid(lo=2.0, hi=math.pi, steps=5)},
            {"delta_grid": DeltaGrid(lo=2.5, hi=2.0, steps=5)},
            {"output_format": "xml"},
            {"tolerance": math.inf},
            {"tolerance": math.nan},
            {"trials": 2.5},
            {"trials": True},
            {"seed": True},
            {"seed": 7.0},
            {"delta_grid": DeltaGrid(steps=2.5)},
            {"tolerance": "1e-9"},
            {"tolerance": None},
            {"delta_grid": DeltaGrid(lo="2")},
            {"delta_grid": None},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            run_verify(CampaignConfig(**{**{"trials": 3}, **kwargs}))


class TestPhiCurve:
    def test_grid_hits_frozen_point(self):
        rows = phi_curve(5)  # interior grid with spacing pi/12 contains 2*pi/3
        target = min(rows, key=lambda r: abs(r["delta"] - 2 * math.pi / 3))
        assert target["delta"] == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert target["phi"] == pytest.approx(PHI_AT_TWO_PI_THIRD, abs=1e-13)
        assert target["two_phi"] == pytest.approx(2 * PHI_AT_TWO_PI_THIRD, abs=1e-13)

    def test_endpoints_approach_range_limits(self):
        rows = phi_curve(2000)
        assert rows[0]["phi"] == pytest.approx(math.pi / 4, abs=1e-3)
        assert rows[-1]["phi"] == pytest.approx(math.pi / 3, abs=1e-3)
        assert rows[0]["phi"] > math.pi / 4
        assert rows[-1]["phi"] < math.pi / 3

    def test_gap_column_positive(self):
        assert all(row["gap"] > 0.0 for row in phi_curve(500))

    def test_steps_validated(self):
        with pytest.raises(ConfigError):
            phi_curve(1)


class TestTightness:
    def test_standard_deltas(self):
        deltas = [2 * math.pi / 3, 2.5, 3.0, math.pi - 1e-3]
        for row in tightness_table(deltas):
            assert row["diam"] == pytest.approx(row["delta"], abs=1e-6)
            assert row["diam_extreme"] == pytest.approx(2 * phi(row["delta"]), abs=1e-12)
            assert abs(row["margin"]) <= 1e-6
            assert row["ratio"] > 2.0 / 3.0

    def test_ratio_limit_near_pi(self):
        (row,) = tightness_table([math.pi - 1e-3])
        assert row["ratio"] == pytest.approx(2.0 / 3.0, abs=2e-3)

    def test_ratio_near_one_at_lower_end(self):
        (row,) = tightness_table([math.pi / 2 + 1e-3])
        assert 0.999 < row["ratio"] < 1.0

    def test_grid_variant(self):
        rows = tightness_grid(5)
        assert len(rows) == 5
        assert all(abs(r["margin"]) <= 1e-6 for r in rows)

    def test_grid_steps_validated(self):
        with pytest.raises(ConfigError):
            tightness_grid(0)


class TestTrials:
    def test_wide_trial_deterministic(self):
        Pa, wa, eda = replay(42, STREAM_WIDE, 3)
        Pb, wb, edb = replay(42, STREAM_WIDE, 3)
        assert wa.value == wb.value
        assert eda - 2.0 * phi(wa.value) == edb - 2.0 * phi(wb.value)
        va = np.array([p.v for p in Pa.vertices])
        vb = np.array([p.v for p in Pb.vertices])
        assert np.array_equal(va, vb)

    def test_streams_are_independent(self):
        P_wide, _, _ = replay(42, STREAM_WIDE, 0)
        P_small, _, _ = replay(42, STREAM_SMALL, 0)
        assert len(P_wide.vertices) != len(P_small.vertices) or not np.allclose(
            np.array([p.v for p in P_wide.vertices[:3]]),
            np.array([p.v for p in P_small.vertices[:3]]),
        )

    def test_wide_trial_diameter_in_range(self):
        for idx in range(20):
            _, w, _ = replay(11, STREAM_WIDE, idx)
            assert math.pi / 2 < w.value < math.pi

    def test_small_trial_diameter_in_range(self):
        for idx in range(20):
            _, w, _ = replay(11, STREAM_SMALL, idx)
            assert 0.0 < w.value <= math.pi / 2
