"""The sampling kernels against the forms they replace, bit for bit.

The references are the forms the kernels replaced: complex Box-Muller
normals built with ``z + 1j*z`` after a ``concatenate``, Haar kets normalized
in real arithmetic, the einsum density matrices and correlations, one
``np.searchsorted`` over the whole sample, ``values.mean()``, the standard
error from the +-1 values in exact integer arithmetic (and within 1e-15 of
``values.std(ddof=1)``) and a scan over outcome rows. Every comparison is on
raw bytes, so a signed zero or a last-bit rounding difference fails.
"""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jointlab import reporting, sampling
from jointlab.joint import FACTOR_SIGNS, VisibilityPair
from jointlab.pairs import (
    PAIR_OUTCOMES,
    PAULI_PAIRS,
    PairOutcomeDistribution,
    bell_family_correlations,
    moment_signs,
    outcome_indices,
    pair_distribution_formula,
)
from jointlab.reporting import shots_csv_text, write_shots_csv
from jointlab.sampling import (
    SeededSampler,
    correlation_ensemble,
    estimate_moment,
    sample_outcomes,
)

from conftest import assert_same_bytes

ALL_SPECS = [(fa, fb) for fa in FACTOR_SIGNS for fb in FACTOR_SIGNS]
OUTCOME_ROWS = np.array(PAIR_OUTCOMES, dtype=np.int8)
EDGES = np.arange(sampling._BUCKETS + 1) / sampling._BUCKETS
#: Members per ensemble block, by kind.
BLOCK = {
    kind: sampling._ENSEMBLE_NORMALS // math.prod(shape)
    for kind, shape in sampling._MEMBER_SHAPE.items()
}
SHOT_BLOCK = sampling._SHOT_BLOCK


def reference_complex_normals(gen, shape):
    count = int(np.prod(shape))
    u1 = gen.random(count)
    u2 = gen.random(count)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = (2.0 * math.pi) * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return (z[:count] + 1j * z[count:]).reshape(shape)


def reference_ensemble(n, s, kind):
    gen = s.rng()
    if kind == "haar":
        psi = reference_complex_normals(gen, (n, 4))
        # the norm and both divisions in real arithmetic
        t = psi.real * psi.real + psi.imag * psi.imag
        norm = np.sqrt(((t[:, 0] + t[:, 1]) + t[:, 2]) + t[:, 3])[:, None]
        psi = psi.real / norm + 1j * (psi.imag / norm)
        return np.einsum("ni,kij,nj->nk", psi.conj(), PAULI_PAIRS[:4], psi).real
    g = reference_complex_normals(gen, (n, 4, 4))
    rho = np.einsum("nij,nkj->nik", g, g.conj())
    rho = rho / np.einsum("nii->n", rho).real[:, None, None]
    return np.einsum("nij,kji->nk", rho, PAULI_PAIRS[:4]).real


def reference_cdf(d):
    p = d.probs
    p = np.where(p < sampling._PROB_FLOOR, 0.0, p)
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    return cdf


def reference_outcomes(d, n, s):
    return OUTCOME_ROWS[np.searchsorted(reference_cdf(d), s.rng().random(n), side="right")]


def reference_estimate(shots, spec):
    """``values.mean()``, and the standard error from the +-1 values in integers, rounded once.

    sum((n v - S)**2) = n**2 (n - 1) var holds exactly in int64 for n up to 2**20.
    """
    values = np.take(moment_signs(spec), shots.index)
    n, ints = shots.n, values.astype(np.int64)
    scaled = n * ints - int(ints.sum())
    variance = int((scaled * scaled).sum()) / (n * n * (n - 1))
    return float(values.mean()), math.sqrt(variance) / math.sqrt(n)


def assert_estimate(est, shots, spec):
    """Bit-equal to ``reference_estimate``; the error within 1e-15 relative of numpy's."""
    expected = reference_estimate(shots, spec)
    assert_same_bytes(np.array([est.value, est.std_error]), np.array(expected))
    values = np.take(moment_signs(spec), shots.index)
    numpy_error = float(values.std(ddof=1) / math.sqrt(shots.n))
    assert abs(est.std_error - numpy_error) <= 1e-15 * numpy_error


def distribution(p):
    p = np.asarray(p, dtype=float)
    return PairOutcomeDistribution(p / p.sum())


def point_mass(k):
    return distribution(np.eye(16)[k])


UNIFORM = distribution(np.ones(16))
BELL_QUARTER_PI = pair_distribution_formula(
    bell_family_correlations(0.25 * math.pi),
    VisibilityPair(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi)),
    VisibilityPair(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi)),
)
ZERO_PROBABILITY_POINT = pair_distribution_formula(
    bell_family_correlations(math.pi / 3.0),
    VisibilityPair(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0)),
    VisibilityPair(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0)),
)

weights = st.lists(
    st.one_of(
        st.just(0.0),
        st.sampled_from([1e-300, 1e-17, 2.0**-12, 0.25]),
        st.floats(1e-9, 1.0),
    ),
    min_size=16,
    max_size=16,
).filter(lambda w: max(w) > 0.0 and max(w) >= 1e-3 * sum(w))


class TestCorrelationEnsembles:
    # around each kind's block size: a block ending mid-ensemble, a full last block, a short one
    @pytest.mark.parametrize(
        "n, kind",
        [
            (n, kind)
            for kind, b in BLOCK.items()
            for n in [1, 2, 7, b - 1, b, b + 1, 2 * b + 7, 100_000]
        ],
    )
    def test_bit_equal_to_einsum_correlations(self, n, kind):
        for seed in (0, 3, 7, 12345, 2**64 - 1):
            s = SeededSampler(seed)
            assert_same_bytes(correlation_ensemble(n, s, kind), reference_ensemble(n, s, kind))

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("kind", ["haar", "ginibre"])
    def test_bits_do_not_depend_on_worker_count(self, monkeypatch, kind, cpus):
        # up to 8 workers switching every microsecond: each block runs exactly once
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        starts = []
        member_uniforms = sampling._member_uniforms

        def counted_block(s, kind, n, i0, i1):
            starts.append(i0)
            return member_uniforms(s, kind, n, i0, i1)

        monkeypatch.setattr(sampling, "_member_uniforms", counted_block)
        s, n = SeededSampler(7), 8 * BLOCK[kind] + 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = correlation_ensemble(n, s, kind)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(starts) == list(range(0, n, BLOCK[kind]))
        assert_same_bytes(got, reference_ensemble(n, s, kind))

    def test_workers_live_only_for_the_call(self):
        before = threading.active_count()
        correlation_ensemble(4 * BLOCK["ginibre"] + 1, SeededSampler(3), "ginibre")
        assert threading.active_count() == before

    @pytest.mark.parametrize("caller", ["ensemble", "shots", "archive"])
    def test_one_block_starts_no_thread(self, monkeypatch, tmp_path, caller):
        # the caller's thread is one of the workers, so it runs a lone block itself
        record = sample_outcomes(UNIFORM, reporting._SHOT_BLOCK_ROWS, SeededSampler(3))
        calls = {
            "ensemble": lambda: correlation_ensemble(BLOCK["ginibre"], SeededSampler(3), "ginibre"),
            "shots": lambda: sample_outcomes(UNIFORM, SHOT_BLOCK, SeededSampler(3)),
            "archive": lambda: write_shots_csv(record, tmp_path / "shots.csv"),
        }

        def no_start(thread):
            raise AssertionError("a one-block call started a thread")

        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        calls[caller]()

    # at one CPU the caller computes every block itself, the failing one too
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("caller", ["ensemble", "shots"])
    def test_failing_block_reaches_the_caller(self, monkeypatch, caller, cpus):
        # block k fails slowly, so the other workers run ahead: they may fill the
        # window of 2 * cpus blocks but start none past it, the block's own
        # error reaches the caller, and no worker outlives the call
        k, error, started = 3, RuntimeError("block failed"), []
        ensemble = caller == "ensemble"
        name, size = ("_member_uniforms", BLOCK["haar"]) if ensemble else ("_stream_at", SHOT_BLOCK)
        block = getattr(sampling, name)

        def fail_at_block_k(*args):
            i0 = args[3] if ensemble else args[1]  # the block's first member or shot
            started.append(i0 // size)
            if i0 == k * size:
                time.sleep(0.05)
                raise error
            return block(*args)

        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sampling, name, fail_at_block_k)
        before = threading.active_count()
        s, n = SeededSampler(3), 20 * size
        with pytest.raises(RuntimeError) as info:
            correlation_ensemble(n, s, "haar") if ensemble else sample_outcomes(UNIFORM, n, s)
        assert info.value is error
        assert threading.active_count() == before
        assert k in started and max(started) <= k + 2 * cpus

    def test_cli_import_leaves_thread_pools_and_logging_unloaded(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        code = (
            "import sys, jointlab.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    @pytest.mark.parametrize("kind, n", [("haar", 1), ("haar", 3), ("ginibre", 1), ("ginibre", 5)])
    def test_member_normals_bit_equal_to_concatenated_box_muller(self, kind, n):
        shape = (n,) + sampling._MEMBER_SHAPE[kind]
        for seed in (1, 2, 3):
            s = SeededSampler(seed)
            polar = sampling._box_muller_polar(*sampling._member_uniforms(s, kind, n, 0, n))
            re, im = sampling._box_muller_cartesian(*polar, shape)
            z = np.empty(shape, dtype=np.complex128)
            z.real, z.imag = re, im
            assert_same_bytes(z, reference_complex_normals(s.rng(), shape))


class TestInverseCdf:
    @given(w=weights, seed=st.integers(0, 2**64 - 1))
    @example(w=[0.0] * 15 + [1.0], seed=0)
    @example(w=[1.0] + [0.0] * 15, seed=0)
    @example(w=[0.0, 1.0] * 8, seed=5)
    def test_shots_bit_equal_to_whole_sample_searchsorted(self, w, seed):
        d = distribution(w)
        s = SeededSampler(seed)
        assert_same_bytes(sample_outcomes(d, 2000, s).outcomes, reference_outcomes(d, 2000, s))
        cdf = reference_cdf(d)
        u = np.concatenate([EDGES[:-1], np.nextafter(EDGES[1:], 0.0), cdf[cdf < 1.0]])
        assert_same_bytes(
            sampling._inverse_cdf(cdf)(u), np.searchsorted(cdf, u, side="right").astype(np.uint8)
        )

    @pytest.mark.parametrize(
        "d", [UNIFORM, BELL_QUARTER_PI, ZERO_PROBABILITY_POINT], ids=["uniform", "bell", "zero"]
    )
    def test_index_given_by_the_sampler_equals_outcome_indices(self, d):
        shots = sample_outcomes(d, 100_000, SeededSampler(21))
        assert "index" in vars(shots)  # given by the sampler, not computed on first use
        assert not shots.index.flags.writeable
        assert_same_bytes(shots.index, outcome_indices(shots.outcomes))

    @pytest.mark.parametrize("k", [0, 3, 9, 15])
    def test_point_mass(self, k):
        s = SeededSampler(40 + k)
        shots = sample_outcomes(point_mass(k), 10_000, s)
        assert_same_bytes(shots.outcomes, reference_outcomes(point_mass(k), 10_000, s))
        assert shots.counts[k] == 10_000

    def test_uniform_distribution_has_every_cdf_entry_on_a_bucket_edge(self):
        cdf = reference_cdf(UNIFORM)
        assert np.isin(cdf, EDGES).all()
        s = SeededSampler(44)
        assert_same_bytes(
            sample_outcomes(UNIFORM, 100_000, s).outcomes, reference_outcomes(UNIFORM, 100_000, s)
        )

    @pytest.mark.parametrize("d", [UNIFORM, BELL_QUARTER_PI, ZERO_PROBABILITY_POINT])
    def test_u_exactly_on_bucket_edges(self, d):
        cdf = reference_cdf(d)
        u = EDGES[:-1]
        assert_same_bytes(
            sampling._inverse_cdf(cdf)(u), np.searchsorted(cdf, u, side="right").astype(np.uint8)
        )

    @pytest.mark.parametrize("seed", [7, 3])
    def test_million_shots_at_the_zero_probability_point(self, seed):
        s = SeededSampler(seed)
        shots = sample_outcomes(ZERO_PROBABILITY_POINT, 1_000_000, s)
        assert_same_bytes(shots.outcomes, reference_outcomes(ZERO_PROBABILITY_POINT, 1_000_000, s))

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("n", [SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 1, 2 * SHOT_BLOCK + 3])
    def test_bits_do_not_depend_on_worker_count(self, monkeypatch, tmp_path, n, cpus):
        # up to 8 workers switching every microsecond: each block is drawn and
        # formatted exactly once, and no worker outlives the call
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        drawn, formatted = [], []
        stream_at, csv_block = sampling._stream_at, reporting._shot_csv_block
        monkeypatch.setattr(sampling, "_stream_at", lambda s, i0: drawn.append(i0) or stream_at(s, i0))
        monkeypatch.setattr(
            reporting, "_shot_csv_block", lambda index, i0: formatted.append(i0) or csv_block(index, i0)
        )
        s, path = SeededSampler(7), tmp_path / "shots.csv"
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shots = sample_outcomes(BELL_QUARTER_PI, n, s)
            assert threading.active_count() == before
            write_shots_csv(shots, path)
            assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)
        assert sorted(drawn) == list(range(0, n, SHOT_BLOCK))
        assert sorted(formatted) == list(range(0, n, reporting._SHOT_BLOCK_ROWS))
        index = np.searchsorted(reference_cdf(BELL_QUARTER_PI), s.rng().random(n), "right")
        assert_same_bytes(shots.index, index.astype(np.uint8))
        assert_same_bytes(shots.outcomes, OUTCOME_ROWS[index])
        assert_same_bytes(shots.counts, np.bincount(index, minlength=16))
        assert path.read_bytes() == shots_csv_text(shots).encode("ascii")


class TestMomentsFromCounts:
    @pytest.mark.parametrize("n", [2, 3, 1_000_000])
    @pytest.mark.parametrize("d", [BELL_QUARTER_PI, UNIFORM, point_mass(6)])
    def test_every_spec_bit_equal_to_mean_and_std(self, n, d):
        shots = sample_outcomes(d, n, SeededSampler(n))
        for spec in ALL_SPECS:
            assert_estimate(estimate_moment(shots, spec), shots, spec)

    @given(w=weights, n=st.integers(2, 3000), seed=st.integers(0, 2**64 - 1))
    def test_fuzzed_distributions(self, w, n, seed):
        shots = sample_outcomes(distribution(w), n, SeededSampler(seed))
        for spec in ALL_SPECS:
            assert_estimate(estimate_moment(shots, spec), shots, spec)

    def test_counts_match_the_row_scan(self):
        shots = sample_outcomes(BELL_QUARTER_PI, 200_000, SeededSampler(8))
        scan = [int(np.all(shots.outcomes == row, axis=1).sum()) for row in OUTCOME_ROWS]
        assert shots.counts.tolist() == scan
        zero_point = sample_outcomes(ZERO_PROBABILITY_POINT, 200_000, SeededSampler(9))
        assert zero_point.counts[PAIR_OUTCOMES.index((1, 1, -1, -1))] == 0

    def test_counts_read_only_and_computed_once(self, monkeypatch):
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
        shots = sample_outcomes(BELL_QUARTER_PI, 5000, SeededSampler(10))
        for spec in ALL_SPECS:
            estimate_moment(shots, spec)
        assert len(calls) == 1 and shots.counts is shots.counts
        assert not shots.counts.flags.writeable
        assert shots.counts.tolist() == bincount(shots.index, minlength=16).tolist()
