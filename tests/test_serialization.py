"""The array serializers against the per-row code they replaced.

The reference functions below are the implementations the array path
replaced: one f-string per shot over the outcome rows for the shot archive,
scan tables built as Python lists of ``[alpha, beta, value]`` or
``[phi, value]`` row lists, and the recursive serializer that built each
level's text whole by joining its children's texts. The JSON report is now
written in pieces and the archive through an in-order pipeline; both are
checked here against those references, byte for byte.
"""

import hashlib
import json
import math
import os
import select
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointlab import reporting, sampling
from jointlab.cli import RunConfig, build_parser, run
from jointlab.pairs import PAIR_OUTCOMES
from jointlab.reporting import (
    Report,
    _SHOT_BLOCK_ROWS,
    _TABLE_BLOCK_ROWS,
    report_json_pieces,
    shots_csv_text,
    write_report,
    write_shots_csv,
)
from jointlab.sampling import ShotRecord, chsh_surface
from jointlab.suites import run_scan_suite
from jointlab.verify import Check

from conftest import outcome_rows


def reference_shot_line(i, row):
    return f"{i},{row[0]},{row[1]},{row[2]},{row[3]}"


def reference_shots_csv_text(record):
    lines = ["index,x_a,y_a,x_b,y_b"]
    for i, row in enumerate(outcome_rows(record)):
        lines.append(reference_shot_line(i, row))
    return "\n".join(lines) + "\n"


def reference_scan_table(what, phi, grid_steps):
    if what == "chsh-surface":
        angles, surface = chsh_surface(phi, grid_steps)
        return [
            [float(angles[i]), float(angles[j]), float(surface[i, j])]
            for i in range(grid_steps)
            for j in range(grid_steps)
        ]
    phis = np.linspace(0.0, math.pi, grid_steps)
    values = 1.0 + np.cos(phis) - np.cos(phis) ** 2
    return [[float(p), float(f)] for p, f in zip(phis, values)]


def reference_dumps_json(obj, indent=0):
    """The recursive serializer the piece writer replaced, for lists, dicts and scalars."""
    pad = " " * indent
    child = indent + 2
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = [
            f"{' ' * child}{json.dumps(str(k))}: {reference_dumps_json(v, child)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        lines = [f"{' ' * child}{reference_dumps_json(v, child)}" for v in obj]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite value in report")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    assert obj is None
    return "null"


def json_text(obj, indent=0):
    """The serializer's pieces for ``obj``, joined."""
    return "".join(reporting._json_pieces(obj, indent))


def report_text(report):
    return "".join(report_json_pieces(report))


def random_record(n, seed=0):
    return ShotRecord(np.random.default_rng(seed).integers(0, 16, n), f"test;n={n}")


def hashed_record(n):
    """n shots whose outcome index is a multiplicative hash of the row number (no RNG)."""
    index = (np.arange(n, dtype=np.int64) * 2_654_435_761 % 2**32) >> 28
    return ShotRecord(index, f"hashed;n={n}")


ALL_OUTCOMES = ShotRecord(np.arange(16), "all outcomes")

#: sha256 of ``reference_shots_csv_text(hashed_record(1_000_001))``.
HASHED_1_000_001_SHA256 = "8f57c9c9b37c2567cf7b22e28ac5bb24c4c5ed302cf003c1f599319fd0eb5a41"


class TestShotArchive:
    @pytest.mark.parametrize(
        "n", [1, 9, 10, 11, 9_999, 10_000, 10_001, 20_001, 99_999, 100_000, 100_001, 200_001]
    )
    def test_text_equals_per_row_loop(self, n):
        assert _SHOT_BLOCK_ROWS == 10_000  # the sizes straddle the first two block ends
        record = random_record(n, seed=n)
        assert shots_csv_text(record) == reference_shots_csv_text(record)

    def test_million_rows_at_every_decimal_and_block_boundary(self):
        n = 1_000_001
        record = hashed_record(n)
        text = shots_csv_text(record)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == HASHED_1_000_001_SHA256
        lines, rows = text.splitlines(), outcome_rows(record)
        assert len(lines) == n + 1
        boundaries = [10**e for e in range(1, 7)] + list(range(0, n, _SHOT_BLOCK_ROWS))
        for b in boundaries:
            for i in range(max(b - 2, 0), min(b + 2, n)):
                assert lines[1 + i] == reference_shot_line(i, rows[i])

    def test_every_outcome_line(self):
        text = shots_csv_text(ALL_OUTCOMES)
        assert text == reference_shots_csv_text(ALL_OUTCOMES)
        assert text.splitlines()[1:] == [
            ",".join(map(str, (i, *o))) for i, o in enumerate(PAIR_OUTCOMES)
        ]

    @pytest.mark.parametrize("record", [ALL_OUTCOMES, random_record(100_001, seed=3)])
    def test_written_bytes_equal_text(self, tmp_path, record):
        path = tmp_path / "shots.csv"
        write_shots_csv(record, path)
        assert path.read_bytes() == shots_csv_text(record).encode("utf-8")

    # the array itself, and a strided view whose writable base outlives the record
    @pytest.mark.parametrize("step", [1, 2])
    def test_archive_unchanged_by_writes_to_the_array_given(self, tmp_path, step):
        base = np.zeros(3 * step, dtype=np.uint8)
        record = ShotRecord(base[::step], "given")
        base[:] = 15
        assert base.flags.writeable
        path = tmp_path / "shots.csv"
        write_shots_csv(record, path)
        expected = "index,x_a,y_a,x_b,y_b\n" + "".join(f"{i},1,1,1,1\n" for i in range(3))
        assert path.read_text() == expected
        assert shots_csv_text(record) == expected

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_archive_unchanged_by_writes_to_the_index_given(self, tmp_path, dtype):
        given = np.array([0, 5, 15], dtype=dtype)
        record = ShotRecord(given, "given")
        given[:] = 3
        path = tmp_path / "shots.csv"
        write_shots_csv(record, path)
        rows = [PAIR_OUTCOMES[k] for k in (0, 5, 15)]
        expected = "index,x_a,y_a,x_b,y_b\n" + "".join(
            f"{i},{','.join(map(str, row))}\n" for i, row in enumerate(rows)
        )
        assert path.read_text() == expected
        assert record.index.dtype == np.uint8 and not record.index.flags.writeable

    # a cast would turn -1 into 255, 16 into an out-of-table index and 1.5 into 1
    @pytest.mark.parametrize(
        "index",
        [
            np.zeros((2, 2), dtype=np.uint8),
            np.array([0.0, 1.0]),
            np.array([1.5]),
            np.array([True, False]),
            np.array([1j]),
            np.array([0, -1]),
            np.array([16, 0]),
            np.array([300], dtype=np.int64),
        ],
    )
    def test_bad_index_rejected_before_writing(self, tmp_path, index):
        path = tmp_path / "shots.csv"
        with pytest.raises(ValueError, match="shot index"):
            write_shots_csv(ShotRecord(index, "bad"), path)
        assert not path.exists()


TABLES = [
    np.random.default_rng(5).standard_normal((7, 3)) * 10.0 ** np.arange(-3, 4)[:, None],
    np.array([[-0.0, 0.0], [5e-324, 1e308], [1.0, -2.5], [math.pi, 1e-17]]),
    np.arange(12.0).reshape(3, 4).T,  # not C-contiguous
    np.array([[0.1]], dtype=np.float32),
    np.zeros((3, 0)),
]


class TestTableJson:
    @pytest.mark.parametrize("table", TABLES, ids=lambda t: f"{t.shape}-{t.dtype}")
    def test_top_level_equals_list_form(self, table):
        assert json_text(table) == json_text(table.tolist())

    @pytest.mark.parametrize("table", TABLES, ids=lambda t: f"{t.shape}-{t.dtype}")
    def test_nested_equals_list_form(self, table):
        def payload(t):
            return {"results": {"n": 3, "table": t, "after": [1.5, "x"]}, "flag": True}

        assert json_text(payload(table)) == json_text(payload(table.tolist()))

    @settings(max_examples=200, deadline=None)
    @given(
        table=arrays(
            np.float64,
            st.tuples(st.integers(0, 30), st.integers(0, 5)),
            elements=st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0, 1e308]),
        ),
        indent=st.sampled_from([0, 2, 4]),
    )
    def test_any_finite_table_equals_list_form(self, table, indent):
        assert json_text(table, indent) == json_text(table.tolist(), indent)
        nested = {"table": table, "n": 1}
        assert json_text(nested, indent) == json_text(dict(nested, table=table.tolist()), indent)

    def test_empty_table(self):
        assert json_text(np.zeros((0, 3))) == "[]"
        assert json_text({"table": np.zeros((0, 3))}) == '{\n  "table": []\n}'

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        table = np.ones((4, 3))
        table[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            json_text(table)
        with pytest.raises(ValueError, match="non-finite"):
            json_text({"results": {"table": table}})

    @pytest.mark.parametrize("array", [np.ones((2, 2), dtype=np.int64), np.ones(3)])
    def test_other_arrays_still_rejected(self, array):
        with pytest.raises(TypeError, match="ndarray"):
            json_text(array)


@pytest.mark.parametrize(
    "what, phi, grid_steps",
    [
        ("chsh-surface", 0.25 * math.pi, 9),
        ("chsh-surface", 0.3, 64),
        ("chsh-surface", 0.25 * math.pi, 256),
        ("chsh-surface", 0.25 * math.pi, 512),
        ("zero-prob-curve", 0.25 * math.pi, 9),
        ("zero-prob-curve", 0.25 * math.pi, 10_001),
        ("zero-prob-curve", 0.25 * math.pi, 100_001),
    ],
)
def test_scan_report_equals_reference_serialization(what, phi, grid_steps):
    results, checks = run_scan_suite(what, phi, grid_steps)
    table = results["table"]
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    reference = dict(results, table=reference_scan_table(what, phi, grid_steps))
    assert table.tolist() == reference["table"]

    def report(payload):
        return report_text(Report({"what": what}, payload, tuple(checks), timestamp="t"))

    assert report(results) == report(reference)


def cli_report(argv):
    """The Report one CLI run builds from ``argv``."""
    return run(RunConfig(**vars(build_parser().parse_args(argv))))


EVERY_SUBCOMMAND = [
    ["single", "--grid-steps", "33"],
    ["pair", "--seed", "11"],
    ["bound", "--state", "bell"],
    ["bound", "--state", "haar", "--seed", "11"],
    ["bound", "--state", "mixed"],
    ["sample", "--n-shots", "1000"],
    ["verify"],
    ["scan", "--what", "chsh-surface", "--grid-steps", "9"],
    ["scan", "--what", "chsh-surface", "--grid-steps", "256"],
    ["scan", "--what", "chsh-surface", "--grid-steps", "512"],
    ["scan", "--what", "zero-prob-curve", "--grid-steps", "9"],
    ["scan", "--what", "zero-prob-curve", "--grid-steps", "100001"],
]


class TestStreamedReport:
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=" ".join)
    def test_written_bytes_equal_the_joined_pieces(self, tmp_path, argv):
        report = cli_report(argv)
        path = tmp_path / "report.json"
        write_report(report, path)
        assert path.read_bytes() == report_text(report).encode("utf-8")

    # the 512-step surface is left out only for time: the recursive reference takes ~3 s on it
    @pytest.mark.parametrize("argv", [a for a in EVERY_SUBCOMMAND if a[-1] != "512"], ids=" ".join)
    def test_report_equals_recursive_reference(self, argv):
        text = report_text(cli_report(argv))
        assert reference_dumps_json(json.loads(text)) + "\n" == text

    @settings(max_examples=200, deadline=None)
    @given(
        obj=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=5)
            | st.floats(allow_nan=False, allow_infinity=False),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=5), children, max_size=4),
            max_leaves=30,
        ),
        indent=st.sampled_from([0, 2, 4]),
    )
    def test_any_payload_equals_recursive_reference(self, obj, indent):
        assert json_text(obj, indent) == reference_dumps_json(obj, indent)

    @pytest.mark.parametrize(
        "shape",
        [
            (_TABLE_BLOCK_ROWS - 1, 3),
            (_TABLE_BLOCK_ROWS, 3),
            (_TABLE_BLOCK_ROWS + 1, 3),
            (2 * _TABLE_BLOCK_ROWS + 1, 2),
            (2 * _TABLE_BLOCK_ROWS + 1, 1),
            (0, 3),
            (0, 0),
            (5, 0),
            (_TABLE_BLOCK_ROWS + 1, 0),
        ],
    )
    def test_tables_around_the_row_block_size(self, tmp_path, shape):
        n, k = shape
        table = np.random.default_rng(n + k).standard_normal(shape)
        table[::3] = np.round(table[::3], 1)  # repeated values, formatted once each
        payload = {"results": {"table": table, "after": [1.5]}}
        listed = {"results": {"table": table.tolist(), "after": [1.5]}}
        pieces = list(reporting._json_pieces(payload))
        assert "".join(pieces) == json_text(listed) == reference_dumps_json(listed)
        if n and k:
            # the text before the table, one piece per row block, the text after it
            assert len(pieces) == 2 + -(-n // _TABLE_BLOCK_ROWS)
            for piece in pieces[1:-1]:
                assert piece.count("\n" + " " * 6 + "]") <= _TABLE_BLOCK_ROWS
        report = Report({"what": "table"}, {"table": table}, (), timestamp="t")
        path = tmp_path / "report.json"
        write_report(report, path)
        assert path.read_bytes() == report_text(report).encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("existing", [None, b"earlier report\n"])
    def test_non_finite_table_raises_before_the_file_is_opened(self, tmp_path, bad, existing):
        table = np.ones((3 * _TABLE_BLOCK_ROWS, 3))
        table[-1, 2] = bad  # in the last row block
        report = Report({"what": "table"}, {"first": 1.0, "table": table}, (), timestamp="t")
        path = tmp_path / "report.json"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(ValueError, match="non-finite"):
            write_report(report, path)
        with pytest.raises(ValueError, match="non-finite"):
            report_json_pieces(report)
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing

    def test_non_finite_check_value_raises_before_the_file_is_opened(self, tmp_path):
        check = Check("c", math.nan, 1.0, 1e-9, False)
        report = Report({}, {"table": np.ones((4, 2))}, (check,), timestamp="t")
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_report(report, path)
        assert not path.exists()

    def test_surface_cap_rss_growth_below_twice_the_report(self, tmp_path, cli_rss_growth_mib):
        path = tmp_path / "surface.json"
        rc, growth = cli_rss_growth_mib(
            ["scan", "--what", "chsh-surface", "--grid-steps", "512", "--output", path]
        )
        size = path.stat().st_size / 2**20
        assert rc == 0 and size > 25
        assert growth < 2 * size, f"RSS grew {growth:.1f} MiB for {size:.1f} MiB"


class TestShotPipeline:
    RECORD = random_record(40 * _SHOT_BLOCK_ROWS + 7, seed=11)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_at_most_two_blocks_per_worker_held(self, monkeypatch, cpus):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        lock = threading.Lock()
        state = {"started": 0, "taken": 0, "peak": 0}
        block = reporting._shot_csv_block

        def counted(index, start):
            with lock:
                state["started"] += 1
                state["peak"] = max(state["peak"], state["started"] - state["taken"])
            return block(index, start)

        monkeypatch.setattr(reporting, "_shot_csv_block", counted)
        before = threading.active_count()
        blocks = reporting._shot_csv_blocks(self.RECORD.index)
        taken = [next(blocks)]  # the header
        for b in blocks:
            time.sleep(0.002)  # a slow writer, so the workers fill the window
            taken.append(b)
            with lock:
                state["taken"] += 1
        assert threading.active_count() == before
        assert state["started"] == len(taken) - 1 == 41
        # helpers run ahead of the writer, but never past the window; on one
        # CPU the caller formats each block itself when it asks for it
        assert state["peak"] <= 2 * cpus
        assert state["peak"] > 1 if cpus > 1 else state["peak"] == 1
        assert b"".join(taken) == shots_csv_text(self.RECORD).encode()

    # at one CPU the caller formats every block itself, the failing one too
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_failing_block_reaches_the_caller(self, monkeypatch, tmp_path, cpus):
        # block k fails slowly, so the other workers run ahead: they may fill the
        # window of 2 * cpus blocks but start none past it, the block's own
        # error reaches the caller, and no worker outlives the call
        k, error, started = 5, RuntimeError("block failed"), []
        block = reporting._shot_csv_block

        def fail_at_block_k(index, start):
            started.append(start // _SHOT_BLOCK_ROWS)
            if start == k * _SHOT_BLOCK_ROWS:
                time.sleep(0.05)
                raise error
            return block(index, start)

        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(reporting, "_shot_csv_block", fail_at_block_k)
        for write in (
            lambda: write_shots_csv(self.RECORD, tmp_path / "shots.csv"),
            lambda: shots_csv_text(self.RECORD),
        ):
            started.clear()
            before = threading.active_count()
            with pytest.raises(RuntimeError) as info:
                write()
            assert info.value is error
            assert threading.active_count() == before
            assert k in started and max(started) <= k + 2 * cpus

    def test_consumer_that_stops_after_one_block_leaves_no_worker(self):
        before = threading.active_count()
        blocks = reporting._shot_csv_blocks(self.RECORD.index)
        assert next(blocks) == b"index,x_a,y_a,x_b,y_b\n"
        first = next(blocks)
        blocks.close()
        assert threading.active_count() == before
        text = shots_csv_text(self.RECORD).encode()
        assert text.startswith(b"index,x_a,y_a,x_b,y_b\n" + first.tobytes())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_fifo_whose_reader_closes_leaves_no_worker(self, tmp_path):
        fifo = tmp_path / "shots.fifo"
        os.mkfifo(fifo)
        read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)

        def close_on_first_bytes():
            select.select([read_end], [], [], 60.0)
            os.close(read_end)

        before = threading.active_count()
        reader = threading.Thread(target=close_on_first_bytes)
        reader.start()
        try:
            with pytest.raises(BrokenPipeError):
                write_shots_csv(self.RECORD, fifo)
        finally:
            reader.join(timeout=60.0)
        assert not reader.is_alive()
        assert threading.active_count() == before
