"""Smoke tests for every ``python -m repro`` subcommand (ISSUE 1 satellite)."""

import json
import os
import subprocess
import sys

import pytest

from repro.api import FlowResult
from repro.api.cli import main, parse_frame, parse_windows


FAST = ["--windows", "1,2,3", "--max-depth", "2", "--iterations", "4",
        "--frame", "128x96", "--quiet"]


class TestArgumentParsing:
    def test_parse_frame(self):
        assert parse_frame("1024x768") == (1024, 768)
        assert parse_frame("640X480") == (640, 480)
        with pytest.raises(ValueError, match="WxH"):
            parse_frame("huge")

    def test_parse_windows(self):
        assert parse_windows(None) is None
        assert parse_windows("1,2,3") == (1, 2, 3)


class TestListCommand:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "blur" in out and "chamb" in out

    def test_list_json_with_devices(self, capsys):
        assert main(["list", "--json", "--devices"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "blur" in payload["algorithms"]
        assert "XC6VLX760" in payload["devices"]


class TestExploreCommand:
    def test_explore_table(self, capsys):
        assert main(["explore", "blur", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out and "blur" in out

    def test_explore_json_round_trips(self, capsys):
        assert main(["explore", "blur", "--json", *FAST]) == 0
        payload = json.loads(capsys.readouterr().out)
        result = FlowResult.from_dict(payload)
        assert result.kernel.name == "blur"
        assert result.pareto
        again = FlowResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert again.pareto == result.pareto

    def test_explore_output_file(self, tmp_path, capsys):
        target = tmp_path / "blur.json"
        assert main(["explore", "blur", "-o", str(target), *FAST]) == 0
        capsys.readouterr()
        result = FlowResult.from_dict(json.loads(target.read_text()))
        assert result.kernel.name == "blur"

    def test_explore_unknown_algorithm_fails_cleanly(self, capsys):
        assert main(["explore", "not-an-algorithm", *FAST]) == 2
        assert "error" in capsys.readouterr().err

    def test_explore_with_constraints(self, capsys):
        assert main(["explore", "blur", "--device-only",
                     "--min-fps", "1", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out


class TestCodegenCommand:
    def test_codegen_writes_vhdl(self, tmp_path, capsys):
        out_dir = tmp_path / "vhdl"
        assert main(["codegen", "blur", "--out", str(out_dir), *FAST]) == 0
        files = os.listdir(out_dir)
        assert "isl_fixed_pkg.vhd" in files
        assert any(name.endswith("_top.vhd") for name in files)

    def test_codegen_listing_only(self, capsys):
        assert main(["codegen", "blur", *FAST]) == 0
        out = capsys.readouterr().out
        assert ".vhd" in out


class TestSweepCommand:
    def test_sweep_json_shares_characterizations(self, capsys):
        assert main(["sweep", "--algorithms", "blur,jacobi",
                     "--frames", "128x96,256x192",
                     "--windows", "1,2,3", "--max-depth", "2",
                     "--iterations", "4", "--json", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["workloads"]) == 4
        session = payload["session"]
        assert session["workloads_run"] == 4
        assert session["characterization_cache_misses"] == 2
        assert session["characterization_cache_hits"] >= 2
        # 2 kernels x 3 windows x 2 depths unique shapes bound the runs
        assert session["synthesis_runs"] <= 12

    def test_sweep_formats_axis(self, capsys):
        """Multi-device/multi-format frontiers from one sweep."""
        assert main(["sweep", "--algorithms", "blur",
                     "--devices", "xc6vlx760,xc2vp30",
                     "--formats", "fixed16,fixed32",
                     "--frames", "128x96", "--windows", "1,2,3",
                     "--max-depth", "2", "--iterations", "4",
                     "--json", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["workloads"]) == 4
        scenarios = {(entry["device"], entry["format"])
                     for entry in payload["workloads"]}
        assert scenarios == {("XC6VLX760", "fixed16"),
                             ("XC6VLX760", "fixed32"),
                             ("XC2VP30", "fixed16"),
                             ("XC2VP30", "fixed32")}
        assert all(entry["pareto_points"] > 0
                   for entry in payload["workloads"])

    def test_sweep_rejects_unknown_format(self, capsys):
        assert main(["sweep", "--algorithms", "blur",
                     "--formats", "fixed8", "--quiet"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_table(self, capsys):
        assert main(["sweep", "--algorithms", "blur",
                     "--frames", "128x96", "--windows", "1,2",
                     "--max-depth", "2", "--iterations", "4",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "swept 1 workloads" in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        """The module entry point works end to end in a real interpreter."""
        import repro
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode == 0
        assert "blur" in completed.stdout
