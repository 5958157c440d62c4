"""The benchmark's workloads: the CLI commands of one cycle and how each is checked.

Each workload is a closed loop with one client: a cycle issues its commands
one after another through ``jointlab.cli.main`` and the next cycle starts
when the last command has returned. Commands write their files into the
current directory under relative names, so reports and their digests do not
depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

N_SHOTS = 1_000_000
SURFACE_STEPS = 256

#: Headline values of the paper with their pinned tolerances (as in the verify suite).
HEADLINES = {
    "experimental_chsh_max": (math.sqrt(2.0), 1e-6),
    "zero_prob_curve_max": (1.25, 1e-6),
    "chsh_bell_quarter_pi": (2.0 * math.sqrt(2.0), 1e-12),
    "chsh_at_curve_argmax": (1.0 + math.sqrt(3.0), 1e-9),
}

WORKLOADS = ("acceptance", "certify", "archive")

#: Metric name of each command, as in ``cli.<name>_s``.
COMMANDS = ("verify", "single", "pair", "bound", "scan_surface", "sample")


@dataclass(frozen=True)
class Command:
    name: str
    argv: list[str]
    report_file: str | None = None  # report written by --output instead of stdout
    shots_file: str | None = None
    expect: dict = field(default_factory=dict)  # check name -> (value, tolerance)
    table_rows: int = 0


def cycle_commands(workload: str, seed: int) -> list[Command]:
    """The commands one cycle of ``workload`` issues with cycle seed ``seed``."""
    s = str(seed)
    if workload == "acceptance":
        return [Command("verify", ["verify", "--seed", s], expect=HEADLINES)]
    if workload == "certify":
        return [
            Command("single", ["single", "--grid-steps", "201", "--seed", s]),
            Command("pair", ["pair", "--seed", s]),
            Command("bound", ["bound", "--state", "mixed", "--seed", s]),
        ]
    if workload == "archive":
        return [
            Command(
                "sample",
                ["sample", "--n-shots", str(N_SHOTS), "--seed", s, "--shots-output", "shots.csv"],
                shots_file="shots.csv",
            ),
            Command(
                "scan_surface",
                ["scan", "--what", "chsh-surface", "--grid-steps", str(SURFACE_STEPS)]
                + ["--seed", s, "--output", "surface.json"],
                report_file="surface.json",
                expect={"chsh_surface_max": (math.sqrt(2.0), 1e-6)},
                table_rows=SURFACE_STEPS**2,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def cycle_seed(seed: int, index: int) -> int:
    """Seed of cycle ``index``, derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{index}".encode()).digest()[:4], "big")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_timestamp(text: str) -> bytes:
    lines = text.splitlines(keepends=True)
    return "".join(l for l in lines if not l.lstrip().startswith('"timestamp":')).encode()


def check(cmd: Command, exit_code, stdout: str, stderr: str) -> tuple[list[str], dict[str, str]]:
    """Problems found in one command's outputs, and the digests of those outputs."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}: {stderr.strip()[-200:]}"]
    digests = {}
    try:
        text = Path(cmd.report_file).read_text() if cmd.report_file else stdout
        report = json.loads(text)
        digests["report"] = _sha256(_without_timestamp(text))
        if report["all_pass"] is not True:
            failing = [c["name"] for c in report["checks"] if not c["pass"]]
            problems.append(f"failing checks {failing}")
        values = {c["name"]: c["value"] for c in report["checks"]}
        for name, (target, tol) in cmd.expect.items():
            if name not in values or not abs(values[name] - target) <= tol:
                problems.append(f"{name} = {values.get(name)}, expected {target} +- {tol}")
        if cmd.table_rows and len(report["results"]["table"]) != cmd.table_rows:
            problems.append(f"table has {len(report['results']['table'])} rows")
        if cmd.shots_file:
            data = Path(cmd.shots_file).read_bytes()
            digests["shots"] = _sha256(data)
            lines = data.count(b"\n")
            if lines != N_SHOTS + 1:
                problems.append(f"shot archive has {lines} lines")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, digests


class Client:
    """One closed-loop client: runs cycles, checks every command, keeps the tallies."""

    def __init__(self, workload: str, main):
        self.workload = workload
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}  # "<command>:<seed>" -> digests

    def cycle(self, seed: int) -> tuple[float, float, dict[str, float]]:
        """Run one cycle; return its wall and CPU seconds and each command's wall seconds."""
        wall = cpu = 0.0
        per_command = {}
        for cmd in cycle_commands(self.workload, seed):
            for name in (cmd.report_file, cmd.shots_file):
                if name:  # never check a file left by an earlier cycle
                    Path(name).unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    exit_code = self.main(cmd.argv)
            except Exception as exc:  # a traceback is a failed command, not a stopped run
                exit_code = repr(exc)
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            wall += dt
            cpu += dc
            per_command[cmd.name] = dt
            self._record(cmd, seed, *check(cmd, exit_code, out.getvalue(), err.getvalue()))
        return wall, cpu, per_command

    def _record(self, cmd: Command, seed: int, problems: list[str], digests: dict) -> None:
        self.attempted += 1
        key = f"{cmd.name}:{seed}"
        if key in self.digests and self.digests[key] != digests:
            problems.append(f"digests differ from the earlier run of {key}")
        self.digests.setdefault(key, digests)
        if problems:
            self.failed += 1
            self.problems.append(f"{key}: {'; '.join(problems)}")
