"""The array serializers against the per-row code they replaced.

The reference functions below are the implementations the array path
replaced: one f-string per shot over the outcome rows for the shot archive,
and scan tables built as Python lists of ``[alpha, beta, value]`` or
``[phi, value]`` row lists, serialized through the recursive list branch of
``dumps_json``.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointlab.pairs import PAIR_OUTCOMES, outcome_indices
from jointlab.reporting import (
    Report,
    _SHOT_BLOCK_ROWS,
    dumps_json,
    report_to_json,
    shots_csv_text,
    write_shots_csv,
)
from jointlab.sampling import ShotRecord, chsh_surface
from jointlab.suites import run_scan_suite


def reference_shot_line(i, row):
    return f"{i},{row[0]},{row[1]},{row[2]},{row[3]}"


def reference_shots_csv_text(record):
    lines = ["index,x_a,y_a,x_b,y_b"]
    for i, row in enumerate(np.asarray(record.outcomes)):
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


def random_record(n, seed=0):
    outcomes = np.random.default_rng(seed).choice(np.array([1, -1], np.int8), size=(n, 4))
    return ShotRecord.from_outcomes(outcomes, f"test;n={n}")


def hashed_record(n):
    """n shots whose outcome index is a multiplicative hash of the row number (no RNG)."""
    index = (np.arange(n, dtype=np.int64) * 2_654_435_761 % 2**32) >> 28
    rows = np.array(PAIR_OUTCOMES, dtype=np.int8)[index]
    return ShotRecord.from_outcomes(rows, f"hashed;n={n}")


ALL_OUTCOMES = ShotRecord.from_outcomes(np.array(PAIR_OUTCOMES), "all outcomes")

#: sha256 of ``reference_shots_csv_text(hashed_record(1_000_001))``.
HASHED_1_000_001_SHA256 = "8f57c9c9b37c2567cf7b22e28ac5bb24c4c5ed302cf003c1f599319fd0eb5a41"


class TestShotArchive:
    def test_outcome_indices_follow_pair_outcomes(self):
        assert outcome_indices(ALL_OUTCOMES.outcomes).tolist() == list(range(16))

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
        lines = text.splitlines()
        assert len(lines) == n + 1
        boundaries = [10**e for e in range(1, 7)] + list(range(0, n, _SHOT_BLOCK_ROWS))
        for b in boundaries:
            for i in range(max(b - 2, 0), min(b + 2, n)):
                assert lines[1 + i] == reference_shot_line(i, record.outcomes[i])

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

    def test_outcome_other_than_plus_minus_one_rejected_before_writing(self, tmp_path):
        path = tmp_path / "shots.csv"
        with pytest.raises(ValueError, match="must be \\+-1"):
            rows = np.array([[1, -1, 1, 1], [1, 0, -1, 1]])
            write_shots_csv(ShotRecord.from_outcomes(rows, "bad"), path)
        assert not path.exists()

    # the array itself, and a strided view whose writable base outlives the record
    @pytest.mark.parametrize("columns", [4, 8])
    def test_archive_unchanged_by_writes_to_the_array_given(self, tmp_path, columns):
        base = np.ones((3, columns), dtype=np.int8)
        record = ShotRecord.from_outcomes(base if columns == 4 else base[:, ::2], "given")
        base[:] = -1
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
        assert dumps_json(table) == dumps_json(table.tolist())

    @pytest.mark.parametrize("table", TABLES, ids=lambda t: f"{t.shape}-{t.dtype}")
    def test_nested_equals_list_form(self, table):
        def payload(t):
            return {"results": {"n": 3, "table": t, "after": [1.5, "x"]}, "flag": True}

        assert dumps_json(payload(table)) == dumps_json(payload(table.tolist()))

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
        assert dumps_json(table, indent) == dumps_json(table.tolist(), indent)
        nested = {"table": table, "n": 1}
        assert dumps_json(nested, indent) == dumps_json(dict(nested, table=table.tolist()), indent)

    def test_empty_table(self):
        assert dumps_json(np.zeros((0, 3))) == "[]"
        assert dumps_json({"table": np.zeros((0, 3))}) == '{\n  "table": []\n}'

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        table = np.ones((4, 3))
        table[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json(table)
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json({"results": {"table": table}})

    @pytest.mark.parametrize("array", [np.ones((2, 2), dtype=np.int64), np.ones(3)])
    def test_other_arrays_still_rejected(self, array):
        with pytest.raises(TypeError, match="ndarray"):
            dumps_json(array)


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
    results, checks = run_scan_suite(what, phi, grid_steps, 1e-9)
    table = results["table"]
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    reference = dict(results, table=reference_scan_table(what, phi, grid_steps))
    assert table.tolist() == reference["table"]

    def report(payload):
        return report_to_json(Report({"what": what}, payload, tuple(checks), timestamp="t"))

    assert report(results) == report(reference)
