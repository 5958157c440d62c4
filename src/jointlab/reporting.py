"""Report assembly and deterministic serialization.

JSON reports serialize every IEEE-754 double at 17 significant digits, which
round-trips bit-exactly, so two runs with the same configuration and seed
produce byte-identical files apart from the timestamp. Tables in a results
payload are ``(n, k)`` float64 arrays; ``dumps_json`` writes them byte for
byte as the equivalent list of row lists. CSV reports carry one row per
scalar check; shot archives are CSV with one outcome row per draw, built
from each shot's index in ``PAIR_OUTCOMES`` (``ShotRecord.index``) and
written to the file in blocks of ``_SHOT_BLOCK_ROWS`` rows.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from .pairs import PAIR_OUTCOMES

__all__ = [
    "ARTIFACT_VERSION",
    "Report",
    "dumps_json",
    "report_to_json",
    "report_to_csv",
    "shots_csv_text",
    "write_report",
    "write_shots_csv",
    "make_timestamp",
]

ARTIFACT_VERSION = "0.1.0"

#: The tail ",x_a,y_a,x_b,y_b\n" of each outcome's shot-archive line, in
#: ``PAIR_OUTCOMES`` order.
_SHOT_SUFFIXES = tuple("".join(f",{v}" for v in o) + "\n" for o in PAIR_OUTCOMES)

#: Shot-archive rows formatted and written per block.
_SHOT_BLOCK_ROWS = 65_536


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in report")
    return format(x, ".17g")


def _dumps_table(table: np.ndarray, indent: int) -> str:
    """A 2-D float array, byte for byte as ``dumps_json(table.tolist(), indent)``."""
    if not np.isfinite(table).all():
        raise ValueError("non-finite value in report")
    rows = table.tolist()
    if not rows:
        return "[]"
    row_pad = " " * (indent + 2)
    cell_pad = " " * (indent + 4)
    if table.shape[1] == 0:
        lines = ["[]"] * len(rows)
    else:
        row_open, cell_sep, row_close = "[\n" + cell_pad, ",\n" + cell_pad, "\n" + row_pad + "]"
        lines = [
            row_open + cell_sep.join([format(v, ".17g") for v in row]) + row_close for row in rows
        ]
    return "[\n" + row_pad + (",\n" + row_pad).join(lines) + "\n" + " " * indent + "]"


def dumps_json(obj: Any, indent: int = 0) -> str:
    """Serialize nested dicts/lists/scalars with floats at 17 significant digits.

    A 2-D float ndarray is serialized as its list of row lists.
    """
    pad = " " * indent
    child = indent + 2
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        lines = [
            f"{' ' * child}{json.dumps(str(k))}: {dumps_json(v, child)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        lines = [f"{' ' * child}{dumps_json(v, child)}" for v in obj]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        return _dumps_table(obj, indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def make_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class Report:
    """A run report: configuration echo, payload, and named pass/fail checks."""

    config_echo: Mapping[str, Any]
    results: Mapping[str, Any]
    checks: Sequence[Any]  # verify.Check instances
    artifact_version: str = ARTIFACT_VERSION
    timestamp: str = ""

    @property
    def pass_flags(self) -> dict[str, bool]:
        return {c.name: bool(c.passed) for c in self.checks}

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def report_to_json(report: Report) -> str:
    payload = {
        "artifact_version": report.artifact_version,
        "timestamp": report.timestamp,
        "config": dict(report.config_echo),
        "results": dict(report.results),
        "checks": [
            {
                "name": c.name,
                "value": c.value,
                "bound": c.bound,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "pass_flags": report.pass_flags,
        "all_pass": report.all_pass,
    }
    return dumps_json(payload) + "\n"


def report_to_csv(report: Report) -> str:
    lines = ["name,value,bound,tolerance,pass"]
    for c in report.checks:
        lines.append(
            ",".join(
                [
                    c.name,
                    _format_float(c.value),
                    _format_float(c.bound),
                    _format_float(c.tolerance),
                    "true" if c.passed else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _shot_indices(record) -> np.ndarray:
    if not (np.abs(record.outcomes) == 1).all():
        raise ValueError("shot outcomes must be +-1")
    return record.index


def _shot_csv_blocks(index: np.ndarray):
    """The shot archive's text: the header, then ``_SHOT_BLOCK_ROWS`` lines at a time."""
    yield "index,x_a,y_a,x_b,y_b\n"
    for start in range(0, len(index), _SHOT_BLOCK_ROWS):
        block = index[start : start + _SHOT_BLOCK_ROWS].tolist()
        yield "".join([f"{i}{_SHOT_SUFFIXES[k]}" for i, k in enumerate(block, start)])


def shots_csv_text(record) -> str:
    """Shot archive as CSV with columns (index, x_a, y_a, x_b, y_b)."""
    return "".join(_shot_csv_blocks(_shot_indices(record)))


def write_report(report: Report, path: str | Path, fmt: str = "json") -> None:
    """Write a report as JSON or CSV; raises OSError with the path on failure."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")


def write_shots_csv(record, path: str | Path) -> None:
    """Write ``shots_csv_text(record)`` to ``path`` block by block, without building it whole."""
    index = _shot_indices(record)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(_shot_csv_blocks(index))
