import json
import math
import subprocess
import sys

import pytest

from sphereconvex import SpherePoint, arc_point, GeodesicArc
from sphereconvex.cli import main

PHI_AT_TWO_PI_THIRD = 0.935929455661326


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

    def test_narrow_lune_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lune", "--delta", "1.0")
        assert code == 2
        assert "outside the open interval" in err


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
        ],
        ids=["no-vertices-key", "vertices-not-a-list", "non-numeric-coordinate", "not-json", "overflowing-norm"],
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

    def test_impossible_tolerance_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, *self.args, "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_invalid_config_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2
        assert "trials" in err

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
    proc = subprocess.run(
        [sys.executable, "-m", "sphereconvex", "phi", "--delta", "2.0944", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "phi" in json.loads(proc.stdout)
