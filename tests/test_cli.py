import json
import math

import pytest

from jointlab import linalg, suites
from jointlab.cli import SINGLE_GRID_STEPS_MAX, RunConfig, main
from jointlab.pairs import BellFamilyState
from jointlab.reporting import dumps_json


def run_json(tmp_path, args, name="report.json", expect=0):
    out = tmp_path / name
    rc = main(args + ["--output", str(out)])
    assert rc == expect
    return json.loads(out.read_text())


class TestConfig:
    def test_defaults_validate(self):
        RunConfig("single")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 0.0},
            {"tolerance": -1.0},
            {"grid_steps": 4},
            {"seed": -3},
            {"format": "yaml"},
            {"n_shots": 1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig("single", **kwargs)

    def test_single_grid_steps_capped(self):
        with pytest.raises(ValueError, match="at most"):
            RunConfig("single", grid_steps=SINGLE_GRID_STEPS_MAX + 1)

    def test_zero_prob_curve_not_capped_by_single_cap(self):
        RunConfig("scan", grid_steps=10001, what="zero-prob-curve")


class TestSubcommands:
    def test_single_passes(self, tmp_path):
        report = run_json(tmp_path, ["single", "--seed", "7", "--grid-steps", "41"])
        assert report["all_pass"] is True
        assert report["config"]["subcommand"] == "single"
        assert report["results"]["admissibility_psd_mismatches"] == 0
        assert all(report["pass_flags"].values())

    def test_pair_passes(self, tmp_path):
        report = run_json(tmp_path, ["pair", "--seed", "11"])
        assert report["all_pass"] is True

    def test_bound_bell_at_tsirelson_point(self, tmp_path):
        report = run_json(
            tmp_path, ["bound", "--state", "bell", "--phi", "0.7853981634", "--seed", "3"]
        )
        assert report["all_pass"] is True
        assert report["results"]["chsh"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert report["results"]["saturating"]["chsh"] is True

    def test_bound_random_states(self, tmp_path):
        for kind in ("haar", "mixed"):
            report = run_json(tmp_path, ["bound", "--state", kind, "--seed", "5"], f"{kind}.json")
            assert report["all_pass"] is True
            assert report["results"]["tight_bound_lhs"] <= 2.0 + 1e-9

    def test_bound_state_file(self, tmp_path):
        rho = BellFamilyState(0.4).to_density().mat
        nested = [[[float(v.real), float(v.imag)] for v in row] for row in rho]
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(nested))
        report = run_json(
            tmp_path, ["bound", "--state", "file", "--state-file", str(state_file)]
        )
        assert report["all_pass"] is True
        assert report["results"]["coherence_lhs"] == pytest.approx(0.5, abs=1e-9)

    def test_scan_zero_prob_curve(self, tmp_path):
        report = run_json(
            tmp_path, ["scan", "--what", "zero-prob-curve", "--grid-steps", "10001"]
        )
        assert report["all_pass"] is True
        assert report["results"]["max_value"] == pytest.approx(1.25, abs=1e-6)
        assert report["results"]["argmax_cos_phi"] == pytest.approx(0.5, abs=1e-6)
        assert len(report["results"]["table"]) == 10001

    def test_scan_chsh_surface(self, tmp_path):
        report = run_json(
            tmp_path,
            ["scan", "--what", "chsh-surface", "--phi", "0.7853981634", "--grid-steps", "64"],
        )
        assert report["all_pass"] is True
        assert report["results"]["max_value"] == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_sample_writes_shots(self, tmp_path):
        shots_path = tmp_path / "shots.csv"
        report = run_json(
            tmp_path,
            [
                "sample",
                "--seed",
                "19",
                "--n-shots",
                "20000",
                "--shots-output",
                str(shots_path),
            ],
        )
        assert report["all_pass"] is True
        lines = shots_path.read_text().splitlines()
        assert lines[0] == "index,x_a,y_a,x_b,y_b"
        assert len(lines) == 20001

    def test_verify_passes(self, tmp_path):
        report = run_json(tmp_path, ["verify", "--seed", "7"])
        assert report["all_pass"] is True
        assert len(report["results"]["criteria"]) == 10
        assert all(entry["passed"] for entry in report["results"]["criteria"].values())


class TestDeterminism:
    def test_reports_identical_apart_from_timestamp(self, tmp_path):
        args = ["single", "--seed", "21", "--grid-steps", "21", "--output",
                str(tmp_path / "report.json")]
        assert main(args) == 0
        a = json.loads((tmp_path / "report.json").read_text())
        assert main(args) == 0
        b = json.loads((tmp_path / "report.json").read_text())
        a.pop("timestamp"), b.pop("timestamp")
        assert dumps_json(a) == dumps_json(b)

    def test_shot_archives_byte_identical(self, tmp_path):
        args = ["sample", "--seed", "23", "--n-shots", "5000"]
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        assert main(args + ["--shots-output", str(first), "--output", str(tmp_path / "r1.json")]) == 0
        assert main(args + ["--shots-output", str(second), "--output", str(tmp_path / "r2.json")]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_json_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["bound", "--seed", "3", "--output", str(out)]) == 0
        text = out.read_text()
        assert dumps_json(json.loads(text)) + "\n" == text


class TestExitCodes:
    def test_failing_tolerance_flips_exit_status(self, tmp_path):
        rc = main(
            ["bound", "--seed", "3", "--tolerance", "1e-30", "--output", str(tmp_path / "r.json")]
        )
        assert rc == 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["all_pass"] is False

    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 2

    def test_invalid_grid_steps(self, capsys):
        assert main(["single", "--grid-steps", "4"]) == 2
        assert "grid-steps" in capsys.readouterr().err

    def test_unwritable_output(self, capsys):
        rc = main(["single", "--grid-steps", "21", "--output", "/nonexistent-dir/report.json"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_state_file(self, capsys):
        assert main(["bound", "--state", "file"]) == 2

    def test_malformed_state_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[1, 2], [3, 4]]))
        assert main(["bound", "--state", "file", "--state-file", str(bad)]) == 2

    @pytest.mark.parametrize(
        "payload", [{"a": 1}, "rho", [[1, 2], [3]], [[[0.5, {"im": 0}]]], [[["1", "0"]]]]
    )
    def test_non_array_state_file(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["bound", "--state", "file", "--state-file", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: state file must hold") and err.count("\n") == 1

    def test_grid_steps_above_single_cap(self, capsys):
        assert main(["single", "--grid-steps", str(SINGLE_GRID_STEPS_MAX + 1)]) == 2
        assert "grid-steps" in capsys.readouterr().err

    def test_convergence_failure_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
        out = tmp_path / "report.json"
        assert main(["single", "--grid-steps", "8", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: no convergence") and err.count("\n") == 1
        assert not out.exists()

    def test_arithmetic_error_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def divide_by_zero(*args, **kwargs):
            return 1.0 / 0.0

        monkeypatch.setattr(suites, "run_bound_suite", divide_by_zero)
        out = tmp_path / "report.json"
        assert main(["bound", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: numerical failure: float division by zero\n"
        assert not out.exists()


class TestOutputHandling:
    def test_stdout_when_no_output_path(self, capsys):
        rc = main(["scan", "--what", "chsh-surface", "--grid-steps", "16"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["bound", "--seed", "3", "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,value,bound,tolerance,pass"
        assert len(lines) > 5
        assert all(line.endswith(("true", "false")) for line in lines[1:])

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JOINTLAB_OUTPUT_DIR", str(tmp_path))
        assert main(["scan", "--what", "chsh-surface", "--grid-steps", "16",
                     "--output", "report.json"]) == 0
        assert (tmp_path / "report.json").exists()
