import contextlib
import io
import json
import math
import os
import select
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jointlab import bounds, cli, reporting, suites
from jointlab.cli import (
    CHSH_SURFACE_STEPS_MAX,
    N_SHOTS_MAX,
    OUTPUT_DIR_ENV,
    SINGLE_GRID_STEPS_MAX,
    STATE_FILE_MAX_BYTES,
    STATE_FILE_READ_SECONDS,
    SUBCOMMANDS,
    ZERO_PROB_CURVE_STEPS_MAX,
    RunConfig,
    build_parser,
    main,
    run,
)
from jointlab.pairs import BellFamilyState
from jointlab.reporting import report_json_pieces
from jointlab.sampling import ShotRecord
from jointlab.verify import CRITERIA


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
            {"grid_steps": 20.5},
            {"grid_steps": "33"},
            {"grid_steps": True},
            {"seed": True},
            {"seed": 7.0},
            {"seed": "7"},
            {"n_shots": 1000.0},
            {"n_shots": False},
            {"n_shots": "1000"},
            {"phi": "0.3"},
            {"tolerance": "1e-3"},
            {"phi": True},
            {"tolerance": True},
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

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_parser_leaves_every_default_to_run_config(self, subcommand):
        required = {"what": "chsh-surface"} if subcommand == "scan" else {}
        argv = [subcommand] + (["--what", "chsh-surface"] if required else [])
        args = vars(build_parser().parse_args(argv))
        assert args == {"subcommand": subcommand, **required}
        assert RunConfig(**args) == RunConfig(subcommand, **required)

    @pytest.mark.parametrize(
        "subcommand, defaults",
        [
            ("sample", ["7", "1e-09", "101", "json", "0.785398", "100000"]),
            ("bound", ["7", "1e-09", "101", "json", "0.785398", "bell"]),
        ],
    )
    def test_help_quotes_run_config_defaults(self, capsys, subcommand, defaults):
        assert main([subcommand, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for value in defaults:
            assert f"(default {value})" in text

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

    def test_sample_passes_when_the_population_sum_is_one_ulp_off(self, tmp_path):
        # here sum(p) is 1 - 2**-53, while the estimate of <1> is exactly 1 with zero spread
        argv = ["sample", "--n-shots", "1000", "--alpha", "0.3", "--beta", "1.2", "--phi", "0.4"]
        report = run_json(tmp_path, argv)
        assert report["all_pass"] is True
        one = next(c for c in report["checks"] if c["name"] == "moment_gap_one_one")
        assert one["value"] == one["tolerance"] == 2.0**-53

    def test_verify_passes(self, tmp_path):
        report = run_json(tmp_path, ["verify", "--seed", "7"])
        assert report["all_pass"] is True
        criteria = report["results"]["criteria"]
        assert [(key, entry["title"]) for key, entry in criteria.items()] == [
            (key, title) for key, title, _ in CRITERIA
        ]
        assert all(entry["passed"] for entry in criteria.values())


class TestDeterminism:
    def test_reports_identical_apart_from_timestamp(self, tmp_path):
        args = ["single", "--seed", "21", "--grid-steps", "21", "--output",
                str(tmp_path / "report.json")]
        assert main(args) == 0
        a = json.loads((tmp_path / "report.json").read_text())
        assert main(args) == 0
        b = json.loads((tmp_path / "report.json").read_text())
        a.pop("timestamp"), b.pop("timestamp")
        assert "".join(reporting._json_pieces(a)) == "".join(reporting._json_pieces(b))

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
        assert "".join(reporting._json_pieces(json.loads(text))) + "\n" == text


# verify keeps four maxima of its 10^5-state ensembles, not the ensembles;
# the shot counts are summed a block at a time, never over an intp copy of
# the whole index (16 MB at the cap)
@pytest.mark.parametrize(
    "args, limit_mib",
    [(["verify", "--seed", "7"], 18.0), (["sample", "--n-shots", str(N_SHOTS_MAX)], 16.0)],
)
def test_peak_rss_growth_bounded(tmp_path, cli_rss_growth_mib, args, limit_mib):
    rc, growth = cli_rss_growth_mib([*args, "--output", tmp_path / "report.json"])
    assert rc == 0
    assert growth < limit_mib, f"{' '.join(args)}: RSS grew {growth:.1f} MiB"


@pytest.fixture(scope="class")
def fifo_children(tmp_path_factory):
    """Two ``bound --state file`` children on FIFOs, started together so that
    their 1 s state-file deadlines run at the same time.

    ``"without_writer"`` reads a FIFO that no process opens for writing;
    ``"idle_writer"`` reads one whose write end this fixture holds open after
    a partial write. The tests wait on them with a timeout, so that a
    blocking open or read fails a test instead of hanging the suite.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    base = tmp_path_factory.mktemp("fifos")
    fifos = {name: base / f"{name}.fifo" for name in ("without_writer", "idle_writer")}
    for fifo in fifos.values():
        os.mkfifo(fifo)
    read_end = os.open(fifos["idle_writer"], os.O_RDONLY | os.O_NONBLOCK)
    write_end = os.open(fifos["idle_writer"], os.O_WRONLY)
    os.write(write_end, b"[[")
    os.close(read_end)
    children = {}
    try:
        for name, fifo in fifos.items():
            children[name] = subprocess.Popen(
                [sys.executable, "-m", "jointlab", "bound", "--state", "file",
                 "--state-file", str(fifo)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        yield children
    finally:
        for proc in children.values():
            proc.kill()
            proc.communicate()
        os.close(write_end)


class TestExitCodes:
    def test_failing_tolerance_flips_exit_status(self, tmp_path):
        rc = main(
            ["bound", "--seed", "3", "--tolerance", "1e-30", "--output", str(tmp_path / "r.json")]
        )
        assert rc == 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["all_pass"] is False

    @pytest.mark.parametrize("tolerance, expect", [([], 1), (["--tolerance", "1e-3"], 0)])
    def test_broken_coherence_identity_is_a_failed_check(
        self, tmp_path, monkeypatch, tolerance, expect
    ):
        # 4 * coherence - tight bound = 4e-6: judged by the suite's check, at the run tolerance
        coherence = bounds.coherence_bound_lhs
        monkeypatch.setattr(suites, "coherence_bound_lhs", lambda rho: coherence(rho) + 1e-6)
        report = run_json(tmp_path, ["bound", "--state", "mixed", *tolerance], expect=expect)
        failed = [name for name, passed in report["pass_flags"].items() if not passed]
        assert failed == ([] if expect == 0 else ["coherence_tight_identity"])

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

    def test_state_file_whose_asymmetry_overflows(self, tmp_path, capsys):
        # m - m^dagger at [0][1] is 2e308, past the largest double: rejected
        # as not Hermitian, with no floating-point warning on the way
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 1e308, -1e308
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(_state_json(m)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["bound", "--state", "file", "--state-file", str(state_file)])
        assert rc == 2
        assert capsys.readouterr().err == "error: matrix is not Hermitian within tolerance\n"

    def test_deeply_nested_state_file(self, tmp_path, capsys):
        # deeper than the recursion limit, yet within STATE_FILE_MAX_BYTES
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 30_000 + "]" * 30_000)
        assert main(["bound", "--state", "file", "--state-file", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: state file is nested too deeply") and err.count("\n") == 1

    @pytest.mark.parametrize("extra, rc", [(0, 0), (1, 2)])
    def test_state_file_byte_cap(self, tmp_path, capsys, extra, rc):
        text = json.dumps(_state_json(np.eye(4) / 4))
        state_file = tmp_path / "state.json"
        state_file.write_text(text + " " * (STATE_FILE_MAX_BYTES + extra - len(text)))
        argv = ["bound", "--state", "file", "--state-file", str(state_file),
                "--output", str(tmp_path / "report.json")]
        assert main(argv) == rc
        if rc:
            err = capsys.readouterr().err
            assert err.startswith("error: state file is larger than") and err.count("\n") == 1

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
    def test_endless_state_file(self, capsys):
        assert main(["bound", "--state", "file", "--state-file", "/dev/zero"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: state file is larger than") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_state_file_fifo_without_writer(self, fifo_children):
        proc = fifo_children["without_writer"]
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_state_file_fifo_with_idle_writer(self, fifo_children):
        proc = fifo_children["idle_writer"]
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2 and stdout == ""
        assert stderr == f"error: state file did not end within {STATE_FILE_READ_SECONDS:g} s\n"

    def test_state_file_from_stdin_pipe(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "jointlab", "bound", "--state", "file", "--state-file", "/dev/stdin"],
            input=json.dumps(_state_json(np.eye(4) / 4)),
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["config"]["state_file"] == "/dev/stdin"

    def test_shots_output_into_missing_directory(self, tmp_path, capsys):
        before = threading.active_count()
        missing = tmp_path / "missing" / "shots.csv"
        argv = ["sample", "--n-shots", "50000", "--shots-output", str(missing),
                "--output", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert str(missing) in err and not missing.parent.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_shots_output_into_closed_pipe(self, tmp_path, capsys):
        # the reader closes its end once the archive starts to arrive, so the
        # rest of the archive meets a pipe with no reader
        fifo = tmp_path / "shots.fifo"
        os.mkfifo(fifo)
        read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)

        def close_on_first_bytes():
            select.select([read_end], [], [], 60.0)
            os.close(read_end)

        before = threading.active_count()
        reader = threading.Thread(target=close_on_first_bytes)
        reader.start()
        argv = ["sample", "--n-shots", "200000", "--shots-output", str(fifo),
                "--output", str(tmp_path / "report.json")]
        try:
            assert main(argv) == 2
        finally:
            reader.join(timeout=60.0)
        assert not reader.is_alive()
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "Broken pipe" in err

    def test_empty_state_file_path(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the suite ran with an empty --state-file")

        monkeypatch.setattr(suites, "run_bound_suite", no_work)
        assert main(["bound", "--state", "file", "--state-file", ""]) == 2
        assert capsys.readouterr().err == "error: --state-file must not be empty\n"

    @pytest.mark.parametrize("state", [[], ["--state", "bell"], ["--state", "mixed"]])
    def test_state_file_requires_state_file_kind(self, tmp_path, capsys, monkeypatch, state):
        def no_work(*args, **kwargs):
            raise AssertionError("the suite ran although --state is not file")

        monkeypatch.setattr(suites, "run_bound_suite", no_work)
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(_state_json(np.eye(4) / 4)))
        assert main(["bound", *state, "--state-file", str(state_file)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --state-file requires --state file\n"

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
            (
                ["scan", "--what", "chsh-surface", "--grid-steps"]
                + [str(CHSH_SURFACE_STEPS_MAX + 1)],
                "run_scan_suite",
            ),
        ],
    )
    def test_work_above_cap_is_exit_2_before_any_work(self, capsys, monkeypatch, argv, suite):
        def no_work(*args, **kwargs):
            raise AssertionError("the suite ran although the config is above its cap")

        monkeypatch.setattr(suites, suite, no_work)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, suite",
        [
            (["single", "--tolerance", "inf", "--grid-steps", "8"], "run_single_suite"),
            (["pair", "--tolerance", "nan"], "run_pair_suite"),
            (["scan", "--what", "zero-prob-curve", "--phi", "nan"], "run_scan_suite"),
            (["bound", "--phi", "inf"], "run_bound_suite"),
            (["sample", "--alpha=-inf"], "run_sample_suite"),
            (["sample", "--beta", "nan"], "run_sample_suite"),
            (["verify", "--tolerance", "inf"], "run_verify_suite"),
        ],
    )
    def test_non_finite_input_is_exit_2_before_any_work(self, capsys, monkeypatch, argv, suite):
        def no_work(*args, **kwargs):
            raise AssertionError("the suite ran although an input is not finite")

        monkeypatch.setattr(suites, suite, no_work)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1

    def test_solver_failure_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, so it must not fall into the
        # configuration-error clause
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        out = tmp_path / "report.json"
        assert main(["bound", "--state", "mixed", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: numerical failure: Eigenvalues did not converge\n"
        assert not out.exists()

    def test_arithmetic_error_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def divide_by_zero(*args, **kwargs):
            return 1.0 / 0.0

        monkeypatch.setattr(suites, "run_bound_suite", divide_by_zero)
        out = tmp_path / "report.json"
        assert main(["bound", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: numerical failure: float division by zero\n"
        assert not out.exists()


_VERIFY_TOLERANCES = [
    ("povm_grid_mismatches", 0.0),
    ("outcome_product_mean_max", 1e-14),
    ("visibility_scaling_residual_max", 1e-12),
    ("unphysical_state_witness_probability", 0.0),
    ("physical_state_min_probability", 1e-12),
    ("sweep_vs_distribution_residual", 1e-15),
    ("pair_xy_moment_max", 1e-12),
    ("correlation_factorization_residual", 1e-12),
    ("formula_vs_trace_residual", 1e-11),
    ("marginal_consistency_residual", 1e-12),
    ("pair_min_probability", 1e-12),
    ("tight_bound_max_pure", 1e-9),
    ("tight_bound_max_mixed", 1e-9),
    ("tight_bound_bell_family", 1e-12),
    ("sup_vs_closed_form_residual", 1e-9),
    ("chsh_bell_quarter_pi", 1e-12),
    ("chsh_max_pure", 1e-9),
    ("chsh_max_mixed", 1e-9),
    ("coherence_identity_residual", 1e-10),
    ("coherence_bell_family_dev", 1e-12),
    ("coherence_bell_mixture_dev", 1e-12),
    ("experimental_chsh_max", 1e-6),
    ("experimental_chsh_argmax_alpha", 1e-6),
    ("experimental_chsh_argmax_beta", 1e-6),
    ("zero_prob_curve_max", 1e-6),
    ("zero_prob_curve_argmax_cos", 1e-6),
    ("chsh_at_curve_argmax", 1e-9),
    ("suppressed_outcome_probability", 1e-12),
    ("constrained_maximizer_grid_dev", 1e-6),
    ("moment_gap_x_x", 0.0),
    ("moment_gap_x_y", 0.0),
    ("moment_gap_y_x", 0.0),
    ("moment_gap_y_y", 0.0),
    ("moment_gap_xy_one", 0.0),
    ("moment_gap_one_xy", 0.0),
    ("moment_gap_xy_x", 0.0),
    ("moment_gap_x_xy", 0.0),
    ("moment_gap_xy_xy", 0.0),
    ("moment_gap_one_one", 0.0),
    ("suppressed_outcome_count", 0.0),
    ("suppressed_outcome_closed_form", 1e-12),
    ("identical_seed_archives", 0.0),
]

#: (argv, [(check name, tolerance at --tolerance 1e-9, at --tolerance 1e-30)]).
#: Literal constants, so a change that moves, renames or reorders a check fails here.
_CHECK_TOLERANCES = {
    "single": (
        ["single", "--grid-steps", "8"],
        [
            ("povm_completeness_residual", 1e-9, 1e-30),
            ("distribution_vs_trace_residual", 1e-9, 1e-30),
            ("outcome_product_mean_max", 1e-9, 1e-30),
            ("visibility_scaling_residual_max", 1e-9, 1e-30),
            ("admissibility_psd_mismatches", 0.0, 0.0),
            ("unphysical_state_witness_probability", 0.0, 0.0),
            ("physical_state_min_probability", 1e-9, 1e-12),
            ("sweep_vs_distribution_residual", 1e-9, 1e-15),
        ],
    ),
    "pair": (
        ["pair"],
        [
            ("pair_xy_moment_max", 1e-9, 1e-30),
            ("correlation_factorization_residual", 1e-9, 1e-30),
            ("formula_vs_trace_residual", 1e-9, 1e-30),
            ("marginal_consistency_residual", 1e-9, 1e-30),
            ("pair_min_probability", 1e-9, 1e-12),
        ],
    ),
    "bound": (
        ["bound", "--state", "bell"],
        [
            ("tight_bound_lhs", 1e-9, 1e-30),
            ("simplified_bound_lhs", 1e-9, 1e-30),
            ("chsh_value", 1e-9, 1e-30),
            ("coherence_bound_lhs", 1e-9, 1e-30),
            ("coherence_tight_identity", 1e-9, 1e-10),
            ("sup_vs_closed_form_state", 1e-9, 1e-30),
            ("sup_vs_closed_form_random_max", 1e-9, 1e-30),
            ("tight_bound_saturation", 1e-9, 1e-30),
            ("coherence_saturation", 1e-9, 1e-30),
        ],
    ),
    "scan": (
        ["scan", "--what", "zero-prob-curve", "--grid-steps", "9"],
        [
            ("zero_prob_curve_max", 1e-6, 1e-6),
            ("zero_prob_curve_argmax_cos", 1e-6, 1e-6),
            ("chsh_at_curve_argmax", 1e-9, 1e-9),
            ("suppressed_outcome_probability", 1e-12, 1e-12),
            ("constrained_maximizer_grid_dev", 1e-6, 1e-6),
        ],
    ),
    "verify": (["verify"], [(name, tol, tol) for name, tol in _VERIFY_TOLERANCES]),
}


@pytest.mark.parametrize("tolerance", ["1e-9", "1e-30"])
@pytest.mark.parametrize("subcommand", list(_CHECK_TOLERANCES))
def test_check_names_and_tolerances_pinned(tmp_path, subcommand, tolerance):
    argv, table = _CHECK_TOLERANCES[subcommand]
    out = tmp_path / "report.json"
    assert main(argv + ["--tolerance", tolerance, "--output", str(out)]) in (0, 1)
    checks = json.loads(out.read_text())["checks"]
    column = 1 if tolerance == "1e-9" else 2
    expected = [(row[0], row[column]) for row in table]
    assert [(c["name"], c["tolerance"]) for c in checks] == expected


class TestOutputHandling:
    def test_stdout_when_no_output_path(self, capsys):
        rc = main(["scan", "--what", "chsh-surface", "--grid-steps", "16"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True

    @pytest.mark.parametrize(
        "argv",
        [["scan", "--what", "chsh-surface", "--grid-steps", "256"], ["verify", "--seed", "7"]],
    )
    def test_stdout_report_equals_file_report(self, tmp_path, capsys, argv):
        # both print the same pieces; only the timestamp and the echoed --output differ
        def lines(text):
            drop = ('"timestamp":', '"output_path":')
            return [line for line in text.splitlines(True) if not line.lstrip().startswith(drop)]

        out = tmp_path / "report.json"
        assert main(argv + ["--output", str(out)]) == 0
        assert main(argv) == 0
        assert lines(capsys.readouterr().out) == lines(out.read_text())

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["bound", "--seed", "3", "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,value,bound,tolerance,pass"
        assert len(lines) > 5
        assert all(line.endswith(("true", "false")) for line in lines[1:])

    def test_csv_format_without_output_exits_2(self, capsys):
        assert main(["bound", "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --format csv requires --output; stdout takes only JSON\n"

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JOINTLAB_OUTPUT_DIR", str(tmp_path))
        assert main(["scan", "--what", "chsh-surface", "--grid-steps", "16",
                     "--output", "report.json"]) == 0
        assert (tmp_path / "report.json").exists()


def _without_timestamp(text):
    return [line for line in text.splitlines(True) if not line.lstrip().startswith('"timestamp":')]


class TestParserReuse:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The parsers ``build_parser`` returns from here on, starting from an empty cache."""
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
        cli._parser.cache_clear()
        yield built
        cli._parser.cache_clear()

    def test_main_builds_the_parser_once(self, builds, capsys):
        for argv in (["bound", "--state", "bell"], ["pair", "--seed", "3"], ["bound", "--phi"],
                     ["verify", "--help"], ["bound", "--state", "bell", "--phi", "0.3"]):
            main(argv)
        assert len(builds) == 1

    def test_reused_parser_writes_what_a_fresh_parser_does(self, capsys):
        for argv in (["bound", "--state", "bell", "--phi", "0.3"], ["pair", "--seed", "3"]):
            assert main(argv) == 0
            got = capsys.readouterr().out
            report = run(RunConfig(**vars(build_parser().parse_args(argv))))
            assert _without_timestamp(got) == _without_timestamp("".join(report_json_pieces(report)))
        # the first call's --phi does not reach the second call's config
        assert json.loads(got)["config"]["phi"] == RunConfig.phi

    def test_malformed_argv_between_good_ones(self, capsys):
        good = ["bound", "--state", "bell", "--phi", "0.3"]
        assert main(good) == 0
        first = capsys.readouterr().out
        assert main(["bound", "--state", "bell", "--phi", "x"]) == 2
        assert capsys.readouterr().out == ""
        assert main(good) == 0
        assert _without_timestamp(capsys.readouterr().out) == _without_timestamp(first)

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


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


#: Each flag with values it accepts; common flags first.
_FLAG_VALUES = {
    "--seed": ("7", "0", str(2**64 - 1)),
    "--tolerance": ("1e-9", "0.1"),
    "--grid-steps": ("8", "101"),
    "--output": ("report.json", "report.csv"),
    "--format": ("json", "csv"),
    "--state": ("bell", "haar", "mixed", "file"),
    "--state-file": ("state.json",),
    "--what": ("chsh-surface", "zero-prob-curve"),
    "--phi": ("0.3",),
    "--alpha": ("0.5",),
    "--beta": ("1.5",),
    "--n-shots": ("2", "1000"),
    "--shots-output": ("shots.csv",),
}
_OWN_FLAGS = {
    "bound": ("--state", "--state-file", "--phi"),
    "scan": ("--what", "--phi"),
    "sample": ("--phi", "--alpha", "--beta", "--n-shots", "--shots-output"),
}
_JUNK = ("", "x", "-", "--", "nan", "-nan", "NaN", "inf", "-inf", "1e400", "-1e400", "-1", "0",
         "1.5", "0x10", "99999999999999999999999", "\x00")
# no path separators, so every output path stays inside the test's directory
_junk = st.one_of(
    st.sampled_from(_JUNK),
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_characters="/\\"), max_size=4),
)


@st.composite
def _malformed_argv(draw):
    """A subcommand (or junk), then flags mostly of that subcommand, with good or junk values.

    The weights send about a quarter of the draws past argparse, into the config checks
    and the run.
    """
    sub = draw(st.sampled_from(SUBCOMMANDS * 3 + ("explode", "", "-h")))
    own = list(_FLAG_VALUES)[:5] + list(_OWN_FLAGS.get(sub, ()))
    flags = st.sampled_from(own * 4 + list(_FLAG_VALUES))
    argv = [sub]
    if sub == "scan" and draw(st.integers(0, 3)):
        argv += ["--what", draw(st.sampled_from(_FLAG_VALUES["--what"]))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(flags)
        good = st.sampled_from(_FLAG_VALUES[flag])
        argv += [flag, draw(st.one_of(good, good, _junk))]
    if len(argv) > 1 and draw(st.integers(0, 9)) == 0:
        argv.pop()  # the last flag without its value
    return argv


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_malformed_argv())
def test_malformed_argv_exits_cleanly(tmp_path, monkeypatch, argv):
    """No numerical work runs: every suite is a stub, and the sample one returns two shots."""
    for name in ("single", "pair", "bound", "scan", "verify"):
        monkeypatch.setattr(suites, f"run_{name}_suite", lambda *args, **kwargs: ({}, []))
    two_shots = ShotRecord(np.zeros(2, dtype=np.uint8), "stub")
    monkeypatch.setattr(suites, "run_sample_suite", lambda *args, **kwargs: ({}, [], two_shots))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
