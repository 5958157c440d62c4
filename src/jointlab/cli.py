"""Command-line front end.

Subcommands map onto the check suites of ``suites``, each a composition of
the ``verify`` criteria (``verify`` runs all ten):

    single   single-qubit joint-measurement checks (POVM, moments, both bounds)
    pair     two-qubit moment structure and closed-form/trace agreement
    bound    correlation bounds for one state, plus the angle-supremum identity
    scan     observable-statistics scans (chsh-surface, zero-prob-curve)
    sample   seeded Monte Carlo shots with estimator/population comparison
    verify   the full acceptance suite

Every default lives in ``RunConfig``: the parser sets only the flags given
and quotes the defaults in its help. Every subcommand takes the common
flags, and every report echoes them, but not every suite reads each one:
``verify`` reads only ``--seed`` (its checks keep their pinned sizes and
tolerances), ``scan`` ignores ``--seed`` and ``--tolerance`` (and
``zero-prob-curve`` ignores ``--phi``), ``sample`` ignores ``--tolerance``
and ``--grid-steps``, and ``pair`` and ``bound`` ignore ``--grid-steps``.

Every run produces a Report; exit status is 0 exactly when all checks pass,
1 when any check fails, and 2 for configuration or I/O errors and for
numerical failures (a LAPACK ``LinAlgError`` from the eigensolver, or any
ArithmeticError), each reported as one ``error:`` line on stderr. All angles
are radians. Reports are deterministic for a fixed configuration and seed,
apart from the timestamp.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import select
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import suites
from .linalg import _require_finite
from .reporting import Report, make_timestamp, report_json_pieces, write_report, write_shots_csv
from .sampling import _require_size

__all__ = ["RunConfig", "build_parser", "run", "main"]

SUBCOMMANDS = ("single", "pair", "bound", "scan", "sample", "verify")

OUTPUT_DIR_ENV = "JOINTLAB_OUTPUT_DIR"

#: Largest ``single --grid-steps``. The POVM grid certifies 4 * steps**2 2x2
#: matrices at ~0.065 us each (~0.3 s for ``single`` at 1024 steps); memory is
#: set by the grid's row block, not by the step count.
SINGLE_GRID_STEPS_MAX = 1024

#: Largest ``scan --what chsh-surface --grid-steps``. The table holds steps**2
#: rows (26.5 MB of JSON, written in row blocks: about 0.27 s and +38 MiB of
#: RSS at the cap).
CHSH_SURFACE_STEPS_MAX = 512

#: Largest ``scan --what zero-prob-curve --grid-steps``. The curve table costs
#: ~3 us and ~0.45 KiB of RSS per step (about 0.3 s and 43 MiB at the cap);
#: beyond ~31,400 steps only the table grows, the refined optimum does not.
ZERO_PROB_CURVE_STEPS_MAX = 100_001

#: Largest ``sample --n-shots``. A shot costs ~0.015 us and ~1.4 B of RSS on 2
#: CPUs (about 0.03 s and 2.8 MiB at the cap: the drawn indices, which the
#: record keeps, and the block buffers); ``--shots-output`` writes the archive
#: in blocks, adding ~0.06 us per shot and no memory.
N_SHOTS_MAX = 2_000_000

#: Largest ``bound --state-file`` in bytes. A 4x4 matrix of [re, im] pairs
#: needs well under 2 KiB even at full float precision.
STATE_FILE_MAX_BYTES = 65_536

#: Seconds a ``--state-file`` has to deliver its data and end, so that a FIFO
#: writer that holds it open without writing cannot stall the run.
STATE_FILE_READ_SECONDS = 1.0


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
        for name in ("seed", "grid_steps", "n_shots"):
            value = _require_size(name.replace("_", "-"), getattr(self, name), 0)
            object.__setattr__(self, name, value)
        if self.seed >= 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        for name in ("tolerance", "phi", "alpha", "beta"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive and finite")
        if self.grid_steps < 8:
            raise ValueError("grid-steps must be at least 8")
        if self.subcommand == "single" and self.grid_steps > SINGLE_GRID_STEPS_MAX:
            raise ValueError(f"single grid-steps must be at most {SINGLE_GRID_STEPS_MAX}")
        if self.what == "chsh-surface" and self.grid_steps > CHSH_SURFACE_STEPS_MAX:
            raise ValueError(f"chsh-surface grid-steps must be at most {CHSH_SURFACE_STEPS_MAX}")
        if self.what == "zero-prob-curve" and self.grid_steps > ZERO_PROB_CURVE_STEPS_MAX:
            raise ValueError(
                f"zero-prob-curve grid-steps must be at most {ZERO_PROB_CURVE_STEPS_MAX}"
            )
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.format == "csv" and not self.output_path:
            raise ValueError("--format csv requires --output; stdout takes only JSON")
        if not 2 <= self.n_shots <= N_SHOTS_MAX:
            raise ValueError(f"n-shots must lie in [2, {N_SHOTS_MAX}]")
        if self.state_file is not None and self.state != "file":
            raise ValueError("--state-file requires --state file")
        if self.state_file == "":
            raise ValueError("--state-file must not be empty")

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out


def build_parser() -> argparse.ArgumentParser:
    """The argument parser. It sets only the flags given, so every default comes from RunConfig."""
    parser = argparse.ArgumentParser(
        prog="jointlab",
        description="Joint-measurement statistics lab: verification suites, scans and sampling.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def option(p: argparse.ArgumentParser, flag: str, text: str, **kwargs) -> None:
        # a dataclass keeps each field's default as a class attribute
        default = getattr(RunConfig, kwargs.setdefault("dest", flag[2:].replace("-", "_")))
        if isinstance(default, float):
            default = f"{default:g}"
        if default is not None:
            text += f" (default {default})"
        p.add_argument(flag, help=text, **kwargs)

    def subcommand(name: str, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        option(p, "--seed", "64-bit master seed", type=int)
        option(p, "--tolerance", "tolerance for residual checks", type=float)
        option(p, "--grid-steps", "grid resolution", type=int)
        option(p, "--output", "report path (default: stdout)", dest="output_path", metavar="OUTPUT")
        option(p, "--format", "report format with --output", choices=("json", "csv"))
        return p

    subcommand("single", "single-qubit joint-measurement checks")
    subcommand("pair", "two-qubit outcome statistics checks")
    p_bound = subcommand("bound", "correlation-bound checks for one state")
    option(p_bound, "--state", "state to bound", choices=("bell", "haar", "mixed", "file"))
    option(p_bound, "--phi", "Bell-family phase", type=float)
    option(p_bound, "--state-file", "JSON 4x4 matrix of [re, im] pairs")
    p_scan = subcommand("scan", "observable-statistics scans")
    option(p_scan, "--what", "scan to run", choices=suites.SCAN_KINDS, required=True)
    option(p_scan, "--phi", "Bell-family phase", type=float)
    p_sample = subcommand("sample", "Monte Carlo outcome sampling")
    option(p_sample, "--phi", "Bell-family phase", type=float)
    option(p_sample, "--alpha", "visibility angle of A", type=float)
    option(p_sample, "--beta", "visibility angle of B", type=float)
    option(p_sample, "--n-shots", "number of shots", type=int)
    option(p_sample, "--shots-output", "CSV path for the shot archive")
    subcommand("verify", "run the full acceptance suite")
    return parser


def _resolve_output(path: str) -> Path:
    base = os.environ.get(OUTPUT_DIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _open_unblocked(path: str, flags: int) -> int:
    """Open without waiting for a writer, so a FIFO that has none cannot block the open."""
    fd = os.open(path, flags | os.O_NONBLOCK)
    os.set_blocking(fd, True)
    return fd


def _read_with_deadline(fd: int, limit: int) -> bytes:
    """Up to ``limit`` bytes from a file, FIFO or socket, which must end within the deadline.

    ``select`` reports a regular file as ready at once.
    """
    deadline = time.monotonic() + STATE_FILE_READ_SECONDS
    chunks, size = [], 0
    while size < limit:
        remaining = deadline - time.monotonic()
        if remaining <= 0.0 or not select.select([fd], [], [], remaining)[0]:
            raise ValueError(f"state file did not end within {STATE_FILE_READ_SECONDS:g} s")
        chunk = os.read(fd, limit - size)
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
    return b"".join(chunks)


def _load_state_file(path: str) -> np.ndarray:
    limit = STATE_FILE_MAX_BYTES + 1
    with open(path, "rb", opener=_open_unblocked) as f:
        data = _read_with_deadline(f.fileno(), limit)
    if len(data) > STATE_FILE_MAX_BYTES:
        raise ValueError(f"state file is larger than {STATE_FILE_MAX_BYTES} bytes")
    try:
        raw = json.loads(data.decode("utf-8"))
    except RecursionError:  # nesting deeper than the parser's recursion limit
        raise ValueError("state file is nested too deeply to be a 4x4 matrix") from None
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
        state_matrix = None if config.state_file is None else _load_state_file(config.state_file)
        results, checks = suites.run_bound_suite(
            config.seed, config.tolerance, config.state, config.phi, state_matrix
        )
    elif config.subcommand == "scan":
        results, checks = suites.run_scan_suite(config.what, config.phi, config.grid_steps)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built by its first call, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one CLI command and return its exit status (0 pass, 1 check failed, 2 error).

    Every call in a process parses with one parser, built on the first call:
    argparse's build costs more than parsing, and a parse leaves no state in
    the parser, since each one fills a fresh namespace.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig(**vars(args))
        report = run(config)
        if config.output_path:
            write_report(report, _resolve_output(config.output_path), config.format)
        else:
            sys.stdout.writelines(report_json_pieces(report))
        return 0 if report.all_pass else 1
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # ahead of ValueError, which LinAlgError subclasses
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
