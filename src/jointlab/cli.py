"""Command-line front end.

Subcommands map onto the check suites:

    single   single-qubit joint-measurement checks (POVM, moments, both bounds)
    pair     two-qubit moment structure and closed-form/trace agreement
    bound    correlation bounds for one state, plus the angle-supremum identity
    scan     observable-statistics scans (chsh-surface, zero-prob-curve)
    sample   seeded Monte Carlo shots with estimator/population comparison
    verify   the full acceptance suite

Every run produces a Report; exit status is 0 exactly when all checks pass,
1 when any check fails, and 2 for configuration or I/O errors and for
numerical failures (an eigensolver that hits its sweep cap, or any
ArithmeticError), each reported as one ``error:`` line on stderr. All angles
are radians. Reports are deterministic for a fixed configuration and seed,
apart from the timestamp.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import suites
from .linalg import ConvergenceError
from .reporting import Report, make_timestamp, report_to_json, write_report, write_shots_csv

__all__ = ["RunConfig", "build_parser", "run", "main"]

SUBCOMMANDS = ("single", "pair", "bound", "scan", "sample", "verify")

OUTPUT_DIR_ENV = "JOINTLAB_OUTPUT_DIR"

#: Largest ``single --grid-steps``. The POVM grid certifies 4 * steps**2 2x2
#: matrices at ~0.6 us each (2.4 s at 1024 steps); memory is set by the
#: grid's row block, not by the step count.
SINGLE_GRID_STEPS_MAX = 1024

#: Largest ``scan --what zero-prob-curve --grid-steps``. The curve table costs
#: ~10 us and ~0.5 KiB of RSS per step (about 1 s and 50 MiB at the cap);
#: beyond ~31,400 steps only the table grows, the refined optimum does not.
ZERO_PROB_CURVE_STEPS_MAX = 100_001

#: Largest ``sample --n-shots``. With ``--shots-output`` a shot costs ~2.5 us
#: and ~125 B of RSS (about 5 s and 250 MiB at the cap).
N_SHOTS_MAX = 2_000_000


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration of one CLI run."""

    subcommand: str
    seed: int = 7
    tolerance: float = 1e-9
    grid_steps: int = 101
    output_path: str | None = None
    format: str = "json"
    phi: float = 0.25 * math.pi
    alpha: float = 0.25 * math.pi
    beta: float = 0.25 * math.pi
    state: str = "bell"
    state_file: str | None = None
    what: str | None = None
    n_shots: int = 100_000
    shots_output: str | None = None

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.grid_steps < 8:
            raise ValueError("grid-steps must be at least 8")
        if self.subcommand == "single" and self.grid_steps > SINGLE_GRID_STEPS_MAX:
            raise ValueError(f"single grid-steps must be at most {SINGLE_GRID_STEPS_MAX}")
        if self.what == "zero-prob-curve" and self.grid_steps > ZERO_PROB_CURVE_STEPS_MAX:
            raise ValueError(
                f"zero-prob-curve grid-steps must be at most {ZERO_PROB_CURVE_STEPS_MAX}"
            )
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        if not 2 <= self.n_shots <= N_SHOTS_MAX:
            raise ValueError(f"n-shots must lie in [2, {N_SHOTS_MAX}]")

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointlab",
        description="Joint-measurement statistics lab: verification suites, scans and sampling.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=7, help="64-bit master seed (default 7)")
        p.add_argument(
            "--tolerance",
            type=float,
            default=1e-9,
            help="tolerance for residual checks (default 1e-9)",
        )
        p.add_argument(
            "--grid-steps", type=int, default=101, help="grid resolution (default 101)"
        )
        p.add_argument("--output", default=None, help="report path (default: print to stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_single = sub.add_parser("single", help="single-qubit joint-measurement checks")
    common(p_single)

    p_pair = sub.add_parser("pair", help="two-qubit outcome statistics checks")
    common(p_pair)

    p_bound = sub.add_parser("bound", help="correlation-bound checks for one state")
    common(p_bound)
    p_bound.add_argument("--state", choices=("bell", "haar", "mixed", "file"), default="bell")
    p_bound.add_argument("--phi", type=float, default=0.25 * math.pi, help="Bell-family phase")
    p_bound.add_argument("--state-file", default=None, help="JSON 4x4 matrix of [re, im] pairs")

    p_scan = sub.add_parser("scan", help="observable-statistics scans")
    common(p_scan)
    p_scan.add_argument("--what", choices=suites.SCAN_KINDS, required=True)
    p_scan.add_argument("--phi", type=float, default=0.25 * math.pi)

    p_sample = sub.add_parser("sample", help="Monte Carlo outcome sampling")
    common(p_sample)
    p_sample.add_argument("--phi", type=float, default=0.25 * math.pi)
    p_sample.add_argument("--alpha", type=float, default=0.25 * math.pi)
    p_sample.add_argument("--beta", type=float, default=0.25 * math.pi)
    p_sample.add_argument("--n-shots", type=int, default=100_000)
    p_sample.add_argument("--shots-output", default=None, help="CSV path for the shot archive")

    p_verify = sub.add_parser("verify", help="run the full acceptance suite")
    common(p_verify)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs = {
        "subcommand": args.subcommand,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "grid_steps": args.grid_steps,
        "output_path": args.output,
        "format": args.format,
    }
    for name in ("phi", "alpha", "beta", "state", "state_file", "what", "n_shots", "shots_output"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    return RunConfig(**kwargs)


def _resolve_output(path: str) -> Path:
    base = os.environ.get(OUTPUT_DIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _load_state_file(path: str) -> np.ndarray:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != (4, 4, 2):
        raise ValueError(
            "state file must hold a 4x4 matrix of numeric [re, im] pairs,"
            f" got {arr.dtype.name} array of shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("state file entries must be finite")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def run(config: RunConfig) -> Report:
    """Dispatch to the configured suite and assemble its report."""
    if config.subcommand == "single":
        results, checks = suites.run_single_suite(config.seed, config.tolerance, config.grid_steps)
    elif config.subcommand == "pair":
        results, checks = suites.run_pair_suite(config.seed, config.tolerance)
    elif config.subcommand == "bound":
        state_matrix = _load_state_file(config.state_file) if config.state_file else None
        results, checks = suites.run_bound_suite(
            config.seed, config.tolerance, config.state, config.phi, state_matrix
        )
    elif config.subcommand == "scan":
        results, checks = suites.run_scan_suite(
            config.what, config.phi, config.grid_steps, config.tolerance
        )
    elif config.subcommand == "sample":
        results, checks, shots = suites.run_sample_suite(
            config.seed, config.n_shots, config.phi, config.alpha, config.beta
        )
        if config.shots_output:
            write_shots_csv(shots, _resolve_output(config.shots_output))
            results["shots_path"] = str(_resolve_output(config.shots_output))
    elif config.subcommand == "verify":
        results, checks = suites.run_verify_suite(config.seed)
    else:  # pragma: no cover - RunConfig already validates
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    return Report(
        config_echo=config.echo(),
        results=results,
        checks=tuple(checks),
        timestamp=make_timestamp(),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        report = run(config)
        if config.output_path:
            write_report(report, _resolve_output(config.output_path), config.format)
        else:
            sys.stdout.write(report_to_json(report))
        return 0 if report.all_pass else 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
