"""Report assembly and deterministic serialization.

JSON reports serialize every IEEE-754 double at 17 significant digits, which
round-trips bit-exactly, so two runs with the same configuration and seed
produce byte-identical files apart from the timestamp. Tables in a results
payload are ``(n, k)`` float64 arrays; they serialize byte for byte as the
equivalent list of row lists, formatting each distinct double once.

A JSON report is a sequence of pieces (``report_json_pieces``): each run of
scalar text, then each table in blocks of ``_TABLE_BLOCK_ROWS`` rows, each
block joined in one pass. Every value is checked and every scalar formatted
before the first piece is returned, so a report that cannot be written fails
before its file is opened. ``write_report`` and the CLI's stdout write the
pieces one by one, and ``dumps_json`` and ``report_to_json`` are their join,
so there is one serializer and no whole-text copy on the way to a file.

CSV reports carry one row per scalar check. Shot archives are CSV with one
outcome row per draw, formatted in decimal-aligned blocks of
``_SHOT_BLOCK_ROWS`` rows. Each block is one ``uint8`` character matrix: the
row numbers' digits, from a table of every 4-digit string, beside each shot's
line tail, from a table indexed by its place in ``PAIR_OUTCOMES``
(``ShotRecord.index``). The blocks come through ``sampling._run_blocks``, the
one bounded in-order scheduler that also runs the ensembles and shot draws:
one worker per usable CPU formats the blocks ahead, at most two per worker at
a time, while ``write_shots_csv`` writes the earlier ones to the file in order.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from .pairs import PAIR_OUTCOMES
from .sampling import _run_blocks

__all__ = [
    "ARTIFACT_VERSION",
    "Report",
    "dumps_json",
    "report_to_json",
    "report_json_pieces",
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

#: ``_SHOT_SUFFIXES`` as a ``(16, width)`` ASCII table, NUL-padded on the right.
_SHOT_SUFFIX_WIDTH = max(map(len, _SHOT_SUFFIXES))
_SHOT_SUFFIX_BYTES = np.frombuffer(
    b"".join(s.encode("ascii").ljust(_SHOT_SUFFIX_WIDTH, b"\0") for s in _SHOT_SUFFIXES),
    dtype=np.uint8,
).reshape(len(_SHOT_SUFFIXES), _SHOT_SUFFIX_WIDTH)

#: Digits of the row number below the block's constant prefix.
_SHOT_BLOCK_DIGITS = 4

#: Shot-archive rows formatted per block; a power of ten, so every row of a
#: block shares the digits above the last four, and small enough that a
#: worker's block stays in L2.
_SHOT_BLOCK_ROWS = 10**_SHOT_BLOCK_DIGITS

_BLOCK_ROW = np.arange(_SHOT_BLOCK_ROWS)[:, None]
_PLACE_VALUE = 10 ** np.arange(_SHOT_BLOCK_DIGITS - 1, -1, -1)
#: ASCII digits of 0 .. ``_SHOT_BLOCK_ROWS - 1``, zero-padded, as ``(rows, 4)`` uint8.
_PADDED_DIGITS = (ord("0") + _BLOCK_ROW // _PLACE_VALUE % 10).astype(np.uint8)
#: The same with each leading zero as NUL, for the first block, whose row
#: numbers have no prefix; the units digit always stays.
_FIRST_BLOCK_DIGITS = np.where(
    (_BLOCK_ROW >= _PLACE_VALUE) | (_PLACE_VALUE == 1), _PADDED_DIGITS, np.uint8(0)
)


#: Table rows joined into one piece of the JSON text.
_TABLE_BLOCK_ROWS = 2048


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in report")
    return format(x, ".17g")


def _encode_table(table: np.ndarray, indent: int, out: list) -> None:
    """Append a 2-D float array to ``out`` as ``_encode(table.tolist(), indent, out)`` would.

    Each distinct double (by bit pattern, so ``-0.0`` and ``0.0`` stay apart)
    is formatted here, once; the rows are joined later, ``_TABLE_BLOCK_ROWS``
    at a time, by the generator appended last.
    """
    if not np.isfinite(table).all():
        raise ValueError("non-finite value in report")
    n, k = table.shape
    if n == 0:
        out.append("[]")
        return
    row_pad = " " * (indent + 2)
    if k == 0:
        out.append("[\n" + row_pad + (",\n" + row_pad).join(["[]"] * n) + "\n" + " " * indent + "]")
        return
    cell_pad = " " * (indent + 4)
    row_open, row_close = "[\n" + cell_pad, "\n" + row_pad + "]"
    bits = np.ascontiguousarray(table, dtype=np.float64).view(np.int64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([format(v, ".17g") for v in distinct.view(np.float64).tolist()], object)
    inverse = inverse.reshape(n, k)
    # Row by row: cell, separator, cell, ..., cell, then the row close and the next row's open.
    parts = np.empty((min(n, _TABLE_BLOCK_ROWS), 2 * k), dtype=object)
    parts[:, 1::2] = ",\n" + cell_pad
    parts[:, -1] = row_close + ",\n" + row_pad + row_open

    def blocks():
        for r0 in range(0, n, _TABLE_BLOCK_ROWS):
            block = parts[: min(n - r0, _TABLE_BLOCK_ROWS)]
            block[:, 0::2] = texts[inverse[r0 : r0 + len(block)]]
            if r0 + len(block) == n:
                block[-1, -1] = row_close + "\n" + " " * indent + "]"
            yield "".join(block.ravel().tolist())

    out.append("[\n" + row_pad + row_open)
    out.append(blocks())


def _encode(obj: Any, indent: int, out: list) -> None:
    """Append the JSON text of ``obj`` to ``out``: strings, and a generator per table.

    Every value is checked and every scalar formatted here; only the tables'
    row blocks are left for the generators to join.
    """
    if isinstance(obj, Mapping):
        if not obj:
            out.append("{}")
            return
        pad = " " * (indent + 2)
        opening = "{\n"
        for k, v in obj.items():
            out.append(f"{opening}{pad}{json.dumps(str(k))}: ")
            _encode(v, indent + 2, out)
            opening = ",\n"
        out.append(f"\n{' ' * indent}}}")
        return
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad = " " * (indent + 2)
        opening = "[\n"
        for v in obj:
            out.append(opening + pad)
            _encode(v, indent + 2, out)
            opening = ",\n"
        out.append(f"\n{' ' * indent}]")
        return
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        _encode_table(obj, indent, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _json_pieces(obj: Any, indent: int = 0) -> Iterator[str]:
    """``dumps_json(obj, indent)`` as pieces: each run of scalar text, then each row block.

    Everything is checked before this returns, so a non-finite value or an
    unserializable object raises before the first piece is taken.
    """
    items: list = []
    _encode(obj, indent, items)
    return _joined_runs(items)


def _joined_runs(items: list) -> Iterator[str]:
    run: list[str] = []
    for item in items:
        if isinstance(item, str):
            run.append(item)
        else:
            yield "".join(run)
            run.clear()
            yield from item
    if run:
        yield "".join(run)


def dumps_json(obj: Any, indent: int = 0) -> str:
    """Serialize nested dicts/lists/scalars with floats at 17 significant digits.

    A 2-D float ndarray is serialized as its list of row lists.
    """
    return "".join(_json_pieces(obj, indent))


def make_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class Report:
    """A run report: configuration echo, payload, and named pass/fail checks."""

    config_echo: Mapping[str, Any]
    results: Mapping[str, Any]
    checks: Sequence[Any]  # verify.Check instances
    timestamp: str = ""

    @property
    def pass_flags(self) -> dict[str, bool]:
        return {c.name: bool(c.passed) for c in self.checks}

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def report_json_pieces(report: Report) -> Iterator[str]:
    """``report_to_json(report)`` as a sequence of pieces, for writing without the whole text.

    Every value is checked before this returns (see ``_json_pieces``).
    """
    payload = {
        "artifact_version": ARTIFACT_VERSION,
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
    return itertools.chain(_json_pieces(payload), ("\n",))


def report_to_json(report: Report) -> str:
    return "".join(report_json_pieces(report))


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


def _shot_csv_block(index: np.ndarray, start: int) -> np.ndarray:
    """Archive lines ``start`` .. ``start + _SHOT_BLOCK_ROWS - 1`` as one ASCII uint8 array."""
    block = index[start : start + _SHOT_BLOCK_ROWS]
    rows = len(block)
    if start == 0:
        numbers = [_FIRST_BLOCK_DIGITS[:rows]]
    else:
        prefix = np.frombuffer(str(start // _SHOT_BLOCK_ROWS).encode("ascii"), np.uint8)
        numbers = [np.broadcast_to(prefix, (rows, prefix.size)), _PADDED_DIGITS[:rows]]
    chars = np.concatenate([*numbers, np.take(_SHOT_SUFFIX_BYTES, block, axis=0)], axis=1)
    return chars[chars != 0]


def _shot_csv_blocks(index: np.ndarray):
    """The shot archive's bytes: the header, then ``_SHOT_BLOCK_ROWS`` lines at a time.

    The blocks are formatted ahead, in order, on every core while the caller
    takes the earlier ones (``_run_blocks``).
    """
    yield b"index,x_a,y_a,x_b,y_b\n"
    yield from _run_blocks(
        lambda start: _shot_csv_block(index, start), range(0, len(index), _SHOT_BLOCK_ROWS)
    )


def shots_csv_text(record) -> str:
    """Shot archive as CSV with columns (index, x_a, y_a, x_b, y_b)."""
    return b"".join(_shot_csv_blocks(record.index)).decode("ascii")


def write_report(report: Report, path: str | Path, fmt: str = "json") -> None:
    """Write a report as JSON or CSV; raises OSError with the path on failure.

    The JSON report is written piece by piece; a value that cannot be written
    raises before the file is opened.
    """
    if fmt == "json":
        pieces = report_json_pieces(report)
    elif fmt == "csv":
        pieces = (report_to_csv(report),)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def write_shots_csv(record, path: str | Path) -> None:
    """Write ``shots_csv_text(record)`` to ``path`` block by block, without building it whole.

    The blocks are written in order through one sequential binary stream, so
    ``path`` may be a pipe or a FIFO, each while the workers format the next.
    """
    with contextlib.closing(_shot_csv_blocks(record.index)) as blocks:
        with Path(path).open("wb") as fh:
            fh.writelines(blocks)
