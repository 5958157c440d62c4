import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jointlab import linalg, suites
from jointlab.cli import (
    N_SHOTS_MAX,
    SINGLE_GRID_STEPS_MAX,
    ZERO_PROB_CURVE_STEPS_MAX,
    RunConfig,
    main,
)
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

    def test_zero_prob_curve_grid_steps_capped(self):
        with pytest.raises(ValueError, match="at most"):
            RunConfig("scan", grid_steps=ZERO_PROB_CURVE_STEPS_MAX + 1, what="zero-prob-curve")

    def test_n_shots_capped(self):
        with pytest.raises(ValueError, match="n-shots"):
            RunConfig("sample", n_shots=N_SHOTS_MAX + 1)


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

    @pytest.mark.parametrize(
        "argv, suite",
        [
            (
                ["scan", "--what", "zero-prob-curve", "--grid-steps"]
                + [str(ZERO_PROB_CURVE_STEPS_MAX + 1)],
                "run_scan_suite",
            ),
            (["sample", "--n-shots", str(N_SHOTS_MAX + 1)], "run_sample_suite"),
        ],
    )
    def test_work_above_cap_is_exit_2_before_any_work(self, capsys, monkeypatch, argv, suite):
        def no_work(*args, **kwargs):
            raise AssertionError("the suite ran although the config is above its cap")

        monkeypatch.setattr(suites, suite, no_work)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

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


def _state_json(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


_floats = st.floats(allow_nan=True, allow_infinity=True)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=24,
)
_entry = st.lists(_floats | st.integers(), min_size=2, max_size=2)
_any_4x4 = st.lists(st.lists(_entry, min_size=4, max_size=4), min_size=4, max_size=4)


@st.composite
def _hermitian_unit_trace(draw):
    """Hermitian, unit-trace 4x4 matrices; a negative first diagonal entry makes them non-PSD."""
    unit = st.floats(-1.0, 1.0)
    diag = [draw(st.floats(-1.0, 0.0))] + [draw(unit) for _ in range(2)]
    m = np.diag(diag + [1.0 - sum(diag)]).astype(complex)
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        m[i, j] = complex(draw(unit), draw(unit))
        m[j, i] = m[i, j].conjugate()
    return _state_json(m)


class TestStateFileRobustness:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=st.one_of(_json_values, _any_4x4, _hermitian_unit_trace()))
    @example(payload=_state_json(np.diag([0.4, 0.3, 0.2, 0.1])))
    def test_any_json_state_file_exits_cleanly(self, payload):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            state_file = Path(tmp) / "state.json"
            state_file.write_text(json.dumps(payload))
            argv = ["bound", "--state", "file", "--state-file", str(state_file),
                    "--output", str(Path(tmp) / "report.json")]
            with contextlib.redirect_stderr(err):
                rc = main(argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
