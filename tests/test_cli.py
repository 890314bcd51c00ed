import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import sphereconvex
from sphereconvex import DomainError, SamplingExhausted, SpherePoint, arc_point, GeodesicArc, campaign, cli
from sphereconvex.campaign import LUNE_SAMPLES, CampaignConfig
from sphereconvex.cli import _build_parser, _verify_config, main
from support import no_child_left

PHI_AT_TWO_PI_THIRD = 0.935929455661326


def wide_chunk_of(index):
    """`in_child` target: the trial task that holds wide trial `index`."""
    return lambda task: task[0] == "trials" and task[2] == campaign.STREAM_WIDE and task[3] <= index < task[4]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def octant_file(tmp_path):
    path = tmp_path / "octant.json"
    path.write_text(json.dumps({"vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    return str(path)


@pytest.fixture()
def square_file(tmp_path):
    z = math.cos(0.8)
    s = math.sin(0.8)
    verts = [SpherePoint((s * math.cos(k * math.pi / 2), s * math.sin(k * math.pi / 2), z)) for k in range(4)]
    mid = arc_point(GeodesicArc(verts[0], verts[1]), 0.5)
    ring = [verts[0], mid, verts[1], verts[2], verts[3]]
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": [p.tolist() for p in ring]}))
    return str(path)


class TestPhiCommand:
    def test_forward(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--delta", str(2 * math.pi / 3), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"] == pytest.approx(PHI_AT_TWO_PI_THIRD, abs=1e-13)

    def test_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--inverse", str(PHI_AT_TWO_PI_THIRD), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--delta", "2.0")
        assert code == 0
        assert "phi(2.0)" in out

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--delta", "0.3")
        assert code == 2
        assert "error" in err

    def test_mutually_exclusive_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["phi", "--delta", "2.0", "--inverse", "0.8"])


class TestQuadCommand:
    def test_json_keys(self, capsys):
        code, out, _ = run_cli(capsys, "quad", "--kappa", "0.5", "--lambda", "0.6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"kappa", "lambda", "mu", "nu", "xi", "residuals"}
        assert payload["mu"] == pytest.approx(0.4235879050181205, abs=1e-12)
        assert payload["nu"] == pytest.approx(0.5407036672071068, abs=1e-12)
        assert len(payload["residuals"]) == 4
        assert max(payload["residuals"]) <= 1e-12

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "quad", "--kappa", "0.5", "--lambda", "0.6")
        assert code == 0
        assert "mu" in out and "residuals" in out

    def test_out_of_domain(self, capsys):
        code, _, err = run_cli(capsys, "quad", "--kappa", "2.0", "--lambda", "0.5")
        assert code == 2
        assert "kappa" in err


class TestLuneCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "lune", "--delta", str(2 * math.pi / 3), "--samples", "80", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["half_side"] == pytest.approx(PHI_AT_TWO_PI_THIRD, abs=1e-13)
        assert payload["equilateral_max_residual"] <= 1e-10
        assert payload["sampled_min_margin"] >= -1e-9
        assert payload["chord_to_apex_min_margin"] >= -1e-9
        assert payload["thickness_gap"] > 0.0
        assert len(payload["point_i"]) == 3

    @pytest.mark.parametrize("samples", ["0", "-1", "1"])
    def test_too_few_samples_rejected(self, capsys, samples):
        code, out, err = run_cli(capsys, "lune", "--delta", "2.5", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_default_samples(self):
        assert _build_parser().parse_args(["lune", "--delta", "2.5"]).samples == LUNE_SAMPLES

    def test_narrow_lune_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lune", "--delta", "1.0")
        assert code == 2
        assert "outside the open interval" in err

    def test_thickness_without_lune_rejected(self, capsys):
        # within 1e-9 of pi the bounding circles are one circle to rounding
        code, out, err = run_cli(capsys, "lune", "--delta", "3.14159265358979")
        assert code == 2
        assert out == ""
        assert err.startswith("error: thickness delta=3.14159265358979 outside the lune domain ")

    def test_out_of_memory_exit_two(self, capsys, monkeypatch):
        # A sample count too large to allocate; the fault stands in for the
        # allocation, which is never attempted.
        def planted(delta, samples):
            raise MemoryError(f"Unable to allocate {samples} samples")

        monkeypatch.setattr(cli, "lune_checks", planted)
        code, out, err = run_cli(capsys, "lune", "--delta", "2.0", "--samples", "100000")
        assert code == 2
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 100000 samples\n"


class TestPolygonCommands:
    def test_diam_octant(self, capsys, octant_file):
        code, out, _ = run_cli(capsys, "diam", "--in", octant_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(math.pi / 2, abs=1e-12)
        assert payload["attainment"] == "vertex-vertex"
        assert set(payload) == {"value", "p", "q", "attainment"}

    def test_diam_lonlat_vertices(self, capsys, tmp_path):
        path = tmp_path / "lonlat.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [
                        {"lon_deg": 0.0, "lat_deg": 0.0},
                        {"lon_deg": 90.0, "lat_deg": 0.0},
                        {"lon_deg": 0.0, "lat_deg": 90.0},
                    ]
                }
            )
        )
        code, out, _ = run_cli(capsys, "diam", "--in", str(path), "--json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_extreme_drops_collinear_vertex(self, capsys, square_file):
        code, out, _ = run_cli(capsys, "extreme", "--in", square_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["extreme_points"]) == 4

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "diam", "--in", "/nonexistent/poly.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"verts": []}',
            '{"vertices": 5}',
            '{"vertices": [[1, 0, 0], [0, 1, 0], [0, 0, "x"]]}',
            "not json",
            '{"vertices": [[1e308, 1e308, 0], [0, 1, 0], [0, 0, 1]]}',
            '{"vertices": [[1%s, 0, 0], [0, 1, 0], [0, 0, 1]]}' % ("0" * 400),
            '{"vertices": [{"lon_deg": 1%s, "lat_deg": 0}, [0, 1, 0], [0, 0, 1]]}' % ("0" * 400),
            "[" * 200_000,
            '{"vertices": [[true, 0, 0], [0, 1, 0], [0, 0, "1"]]}',
            '{"vertices": [{"lon_deg": "0", "lat_deg": 0}, [0, 1, 0], [0, 0, 1]]}',
        ],
        ids=[
            "no-vertices-key",
            "vertices-not-a-list",
            "non-numeric-coordinate",
            "not-json",
            "overflowing-norm",
            "overflowing-integer-coordinate",
            "overflowing-integer-longitude",
            "nested-too-deeply",
            "boolean-and-string-coordinates",
            "numeric-string-longitude",
        ],
    )
    def test_malformed_polygon_file(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for command in ("diam", "extreme"):
            code, out, err = run_cli(capsys, command, "--in", str(path))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")


class TestCurveCommands:
    def test_phi_curve_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "phi-curve", "--steps", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "delta,phi,two_phi,gap"
        assert len(lines) == 6
        assert "\r\n" in out  # RFC-4180 line endings
        for line in lines[1:]:
            delta, val, two, gap = map(float, line.split(","))
            assert two == pytest.approx(2 * val, abs=1e-15)
            assert gap > 0.0

    def test_phi_curve_json(self, capsys):
        code, out, _ = run_cli(capsys, "phi-curve", "--steps", "3", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3

    def test_tightness_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tightness", "--steps", "4", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        for row in rows:
            assert abs(row["margin"]) <= 1e-6
            assert 2.0 / 3.0 < row["ratio"] < 1.0


class TestVerifyCommand:
    args = ["verify", "--trials", "10", "--delta-steps", "4", "--seed", "3"]

    def test_passes_with_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, *self.args)
        assert code == 0
        assert "overall: PASS" in out

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.args, "--json")
        code2, out2, _ = run_cli(capsys, *self.args, "--json")
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_time_s")
        d2.pop("wall_time_s")
        assert json.dumps(d1) == json.dumps(d2)

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, *self.args, "--csv")
        assert code == 0
        assert out.splitlines()[0] == "name,instances,min_margin,pass,worst_case_payload"

    def test_report_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, *self.args, "--json", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["overall_pass"] is True
        assert path.read_bytes() == out.encode("utf-8")

    def test_unwritable_out_fails_before_campaign(self, capsys, monkeypatch, tmp_path):
        def planted(config):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(cli, "run_verify", planted)
        code, out, err = run_cli(capsys, *self.args, "--out", str(tmp_path / "missing" / "report.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno 2] ")

    def test_report_replaces_existing_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("an older and longer report\n" * 100)
        code, out, _ = run_cli(capsys, *self.args, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_impossible_tolerance_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, *self.args, "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("other_threads", [0, 1])
    def test_trial_error_exit_two(self, capsys, monkeypatch, in_child, other_threads):
        # The fork carries the planted fault into the workers, and the message
        # names the process that raised it: a child, by the handshake of
        # `in_child`.  Beside another thread forking is unsafe, so the trials
        # run in this process.  The fault is planted on the batch sampler that
        # `trial_chunk` calls, in the batch that holds wide trial TRIAL_CHUNK.
        real = campaign.random_polygons
        index = campaign.TRIAL_CHUNK

        def planted(seed, indices, *, stream):
            if stream == campaign.STREAM_WIDE and index in indices:
                raise SamplingExhausted(f"planted at trial {index} in process {os.getpid()}")
            return real(seed, indices, stream=stream)

        monkeypatch.setattr(campaign, "random_polygons", planted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child(wide_chunk_of(index))
        stop = threading.Event()
        threads = [threading.Thread(target=stop.wait) for _ in range(other_threads)]
        for thread in threads:
            thread.start()
        try:
            code, out, err = run_cli(capsys, "verify", "--trials", str(campaign.TRIAL_CHUNK + 1), "--delta-steps", "2")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: planted at trial {campaign.TRIAL_CHUNK} in process ")
        assert (int(err.split()[-1]) == os.getpid()) == bool(other_threads)
        assert no_child_left()

    @pytest.mark.parametrize("name", ["lune_rows", "_quad_errors", "tightness_table"])
    def test_grid_error_ends_pool(self, capsys, monkeypatch, in_child, name):
        # The grid checks are tasks of the same map as the trial chunks, so
        # the fork carries a fault planted on any of them into the workers;
        # an error there, in a child by the handshake of `in_child`, ends the
        # run and every worker.
        def planted(*args):
            raise DomainError(f"planted in {name} in process {os.getpid()}")

        monkeypatch.setattr(campaign, name, planted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        kind = {"lune_rows": "lune", "_quad_errors": "quad", "tightness_table": "table"}[name]
        in_child(lambda task: task[0] == kind)
        code, out, err = run_cli(capsys, "verify", "--trials", str(2 * campaign.TRIAL_CHUNK), "--delta-steps", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: planted in {name} in process ")
        assert int(err.split()[-1]) != os.getpid()
        assert no_child_left()

    def test_memory_error_in_worker_exit_two(self, capsys, monkeypatch, in_child):
        # A failed allocation in a child comes back like any other error.
        real = campaign.random_polygons
        index = campaign.TRIAL_CHUNK

        def planted(seed, indices, *, stream):
            if stream == campaign.STREAM_WIDE and index in indices:
                raise MemoryError(f"Unable to allocate in process {os.getpid()}")
            return real(seed, indices, stream=stream)

        monkeypatch.setattr(campaign, "random_polygons", planted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child(wide_chunk_of(index))
        code, out, err = run_cli(capsys, "verify", "--trials", str(campaign.TRIAL_CHUNK + 1), "--delta-steps", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory: Unable to allocate in process ")
        assert int(err.split()[-1]) != os.getpid()
        assert no_child_left()

    def test_dead_worker_ends_run(self, capsys, monkeypatch, in_child):
        # A worker that dies in the batch that holds wide trial TRIAL_CHUNK,
        # a child by the handshake of `in_child`, ends the run with an error
        # line that names its exit status instead of leaving it waiting for
        # results that never come.  `ChildProcessError` is an OSError, so the
        # CLI ends as it does on any other system error.
        real = campaign.random_polygons
        parent = os.getpid()
        index = campaign.TRIAL_CHUNK

        def planted(seed, indices, *, stream):
            if stream == campaign.STREAM_WIDE and index in indices and os.getpid() != parent:
                os._exit(3)
            return real(seed, indices, stream=stream)

        monkeypatch.setattr(campaign, "random_polygons", planted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child(wide_chunk_of(index))
        code, out, err = run_cli(capsys, "verify", "--trials", str(campaign.TRIAL_CHUNK + 1), "--delta-steps", "2")
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: worker \d+ ended with exit status 3 without its results\n", err)
        assert no_child_left()

    def test_invalid_config_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2
        assert "trials" in err

    def test_grid_without_lune_fails_before_any_task(self, capsys, monkeypatch):
        # a grid end within 1e-9 of pi has no lune; the config says so before
        # the task map forks a worker or draws a trial
        def planted(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(campaign, "_map", planted)
        monkeypatch.setattr(campaign, "random_polygons", planted)
        code, out, err = run_cli(capsys, "verify", "--trials", "5", "--delta-max", "3.1415926535")
        assert code == 2
        assert out == ""
        assert err.startswith("error: delta grid hi=3.1415926535 has no lune: thickness delta=3.1415926535 ")

    def test_grid_without_triangle_fails_before_any_task(self, capsys, monkeypatch):
        # a grid end with a lune but within 3e-6 of pi has no hemisphere-contained
        # regular triangle of side 2*phi(hi) for the tightness table
        def planted(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(campaign, "_map", planted)
        monkeypatch.setattr(campaign, "random_polygons", planted)
        code, out, err = run_cli(capsys, "verify", "--trials", "5", "--delta-max", "3.14159265")
        assert code == 2
        assert out == ""
        assert err.startswith("error: delta grid hi=3.14159265 has no regular triangle of side 2*phi(hi): side=")

    def test_grid_without_phi_inverse_fails_before_any_task(self, capsys, monkeypatch):
        # one ulp above pi/2, phi(lo) rounds to pi/4, where phi_inverse_delta
        # has no value for the phi_inverse_roundtrip check
        def planted(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(campaign, "_map", planted)
        monkeypatch.setattr(campaign, "random_polygons", planted)
        lo = "1.5707963267948968"
        code, out, err = run_cli(capsys, "verify", "--trials", "3", "--delta-steps", "2", "--delta-min", lo)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: delta grid lo={lo} has no phi_inverse_delta of phi(lo): "
            "phi=0.7853981633974483 outside the open interval (pi/4, pi/3)\n"
        )

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_exit_two(self, capsys, tol):
        # an infinite tolerance would pass every check and write
        # "tolerance": Infinity, which is not JSON
        code, out, err = run_cli(capsys, *self.args, "--tol", tol, "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be ")

    def test_defaults_match_campaign_config(self, monkeypatch):
        monkeypatch.delenv("SPHERECONVEX_SEED", raising=False)
        config = _verify_config(_build_parser().parse_args(["verify"]))
        default = CampaignConfig()
        for field in dataclasses.fields(CampaignConfig):
            if field.name not in ("seed", "output_format"):
                assert getattr(config, field.name) == getattr(default, field.name), field.name

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHERECONVEX_SEED", "99")
        code, out, _ = run_cli(capsys, "verify", "--trials", "5", "--delta-steps", "4", "--json")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 99

    def test_malformed_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHERECONVEX_SEED", "abc")
        code, out, err = run_cli(capsys, "verify", "--trials", "5", "--delta-steps", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "SPHERECONVEX_SEED" in err
        # only a verify run without --seed reads the variable
        assert run_cli(capsys, *self.args)[0] == 0
        assert run_cli(capsys, "phi", "--delta", "2.0")[0] == 0


def test_module_entry_point_subprocess():
    # the child imports the package this process imported, installed or not
    src = os.path.dirname(os.path.dirname(sphereconvex.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sphereconvex", "phi", "--delta", "2.0944", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "phi" in json.loads(proc.stdout)


def test_verify_loads_no_scipy():
    # one CPU, so the trials run in this process too; the library imports no
    # scipy module, and no dependency of its must load one either
    src = os.path.dirname(os.path.dirname(sphereconvex.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "import sphereconvex.cli; from sphereconvex.campaign import CampaignConfig, run_verify; "
        "assert run_verify(CampaignConfig(trials=50)).overall_pass; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_pool_and_lp_unloaded():
    # `campaign._map` forks its workers itself, and the library has no use
    # for `scipy.optimize`, so importing the package and its CLI pays for
    # none of them, and a campaign mapped over two CPUs loads no process pool.
    src = os.path.dirname(os.path.dirname(sphereconvex.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import os, sys, sphereconvex, sphereconvex.cli; "
        "pools = ('multiprocessing', 'concurrent.futures'); "
        "print(sorted(m for m in (*pools, 'scipy.optimize') if m in sys.modules)); "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        "from sphereconvex.campaign import CampaignConfig, run_verify; "
        "assert run_verify(CampaignConfig(trials=50)).overall_pass; "
        "print(sorted(m for m in pools if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


# A wide lon/lat quadrilateral with a flat vertex written as [x, y, z] on
# its east edge; `extreme` drops that vertex.
PINNED_POLYGON = {
    "vertices": [
        {"lon_deg": -60.0, "lat_deg": -50.0},
        {"lon_deg": 60.0, "lat_deg": -50.0},
        [0.5, 0.8660254037844386, 0.0],
        {"lon_deg": 60.0, "lat_deg": 50.0},
        {"lon_deg": -60.0, "lat_deg": 50.0},
    ]
}
PINNED_INVOCATIONS = [
    argv + extra
    for argv in (
        ["phi", "--delta", "2.0"],
        ["phi", "--inverse", "0.9"],
        ["phi-curve", "--steps", "4"],
        ["tightness", "--steps", "3"],
        ["quad", "--kappa", "0.5", "--lambda", "0.6"],
        ["lune", "--delta", "2.5", "--samples", "50"],
        ["lune", "--delta", "2.0944"],
        ["diam", "--in", "{polygon}"],
        ["extreme", "--in", "{polygon}"],
    )
    for extra in ([], ["--json"])
]


@pytest.mark.parametrize("argv", PINNED_INVOCATIONS, ids=" ".join)
def test_output_matches_pinned(capsys, tmp_path, argv):
    # tests/cli_outputs.json holds the stdout of each invocation, keyed by
    # its arguments with the polygon file's path as {polygon}.
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps(PINNED_POLYGON))
    pinned = json.loads((Path(__file__).parent / "cli_outputs.json").read_text())
    code, out, err = run_cli(capsys, *(str(path) if a == "{polygon}" else a for a in argv))
    assert (code, err) == (0, "")
    assert out == pinned[" ".join(argv)]
