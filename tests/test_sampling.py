import math

import numpy as np
import pytest

from jointlab import sampling
from jointlab.bounds import (
    TSIRELSON_BOUND,
    AnglePair,
    chsh_from_components,
    tight_bound_from_components,
)
from jointlab.joint import VisibilityPair
from jointlab.pairs import (
    PAIR_OUTCOMES,
    BellFamilyState,
    CorrelationVector,
    bell_family_correlations,
    correlation_components,
    local_mean_components,
    outcome_indices,
    pair_distribution_formula,
    pair_distribution_trace,
    pair_moment,
)
from jointlab.reporting import shots_csv_text
from jointlab.sampling import (
    SeededSampler,
    ShotRecord,
    bell_diagonal_random_state,
    chsh_surface,
    constrained_chsh_grid_max,
    correlation_ensemble,
    estimate_moment,
    experimental_chsh,
    ginibre_random_mixed_state,
    haar_random_pure_state,
    max_experimental_chsh,
    random_state_stack,
    sample_outcomes,
    zero_probability_chsh,
    zero_probability_curve_max,
)
from jointlab.verify import MONTE_CARLO_SPECS

QUARTER_PI = 0.25 * math.pi
#: Seeds on either side of the 32- and 64-bit boundaries of a Philox key.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]
#: Child indices: the first two, the streams ``verify`` draws its stacks from, the top 32-bit one.
CHILD_INDICES = [0, 1, 1000, 2000, 3000, 2**32 - 1]


def saturated(angle):
    return VisibilityPair(math.cos(angle), math.sin(angle))


class TestSeededSampler:
    @pytest.mark.parametrize(
        "seed", [-1, 2**64, True, np.bool_(True), 3.0, "3", b"3", np.int64(-1), None]
    )
    def test_seed_validation(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SeededSampler(seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3), np.uint64(2**64 - 1)])
    def test_numpy_integers_are_taken_as_ints(self, seed):
        s = SeededSampler(seed)
        assert type(s.seed) is int and s == SeededSampler(int(seed))
        assert s.describe() == f"philox-boxmuller-v1:{int(seed)}"
        assert s.derive(np.int64(3)) == s.derive(3)

    def test_same_seed_same_stream(self):
        a = SeededSampler(123).rng().random(32)
        b = SeededSampler(123).rng().random(32)
        assert np.array_equal(a, b)

    def test_derive_is_deterministic_and_distinct(self):
        master = SeededSampler(9)
        assert master.derive(3) == master.derive(3)
        assert master.derive(3) != master.derive(4)
        a = master.derive(3).rng().random(8)
        b = master.derive(4).rng().random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_derive_is_the_seed_sequence_child(self, seed):
        """The documented child: ``SeedSequence(entropy=seed, spawn_key=(i,))``'s first word."""
        master = SeededSampler(seed)
        for i in CHILD_INDICES:
            child = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            expected = int(child.generate_state(1, np.uint64)[0])
            assert master.derive(i) == SeededSampler(expected)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_rng_is_philox_keyed_by_the_seed(self, seed):
        got = SeededSampler(seed).rng().random(9)
        expected = np.random.Generator(np.random.Philox(key=seed)).random(9)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("index", [-1, 2.7, 2.0, "3", True, np.bool_(False), None])
    def test_derive_rejects_a_bad_index(self, index):
        with pytest.raises(ValueError, match="derive index must be a non-negative integer"):
            SeededSampler(7).derive(index)


class TestRandomStates:
    def test_haar_state_is_pure_and_valid(self):
        rho = haar_random_pure_state(SeededSampler(42))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_haar_state_reproducible(self):
        a = haar_random_pure_state(SeededSampler(42))
        b = haar_random_pure_state(SeededSampler(42))
        assert np.array_equal(a.mat, b.mat)

    def test_ginibre_purity_interior(self):
        for i in range(20):
            rho = ginibre_random_mixed_state(SeededSampler(5).derive(i))
            assert 0.25 + 1e-9 < rho.purity() < 1.0 - 1e-9

    def test_ginibre_state_reproducible(self):
        a = ginibre_random_mixed_state(SeededSampler(14))
        b = ginibre_random_mixed_state(SeededSampler(14))
        assert np.array_equal(a.mat, b.mat)

    def test_bell_mixture_has_zero_local_means(self):
        for i in range(20):
            rho = bell_diagonal_random_state(SeededSampler(6).derive(i))
            assert np.abs(local_mean_components(rho.mat)).max() < 1e-14

    def test_ensemble_mean_correlation_is_unbiased(self):
        # unitary invariance forces zero-mean correlations
        c = correlation_ensemble(100_000, SeededSampler(8), "haar")
        std_error = c[:, 0].std(ddof=1) / math.sqrt(c.shape[0])
        assert abs(c[:, 0].mean()) < 3.0 * std_error

    def test_ensemble_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            correlation_ensemble(10, SeededSampler(1), "uniform")


class TestSampling:
    def test_uniform_counts_within_five_sigma(self):
        d = pair_distribution_formula(
            CorrelationVector(0, 0, 0, 0), VisibilityPair(0.5, 0.5), VisibilityPair(0.5, 0.5)
        )
        n = 16000
        shots = sample_outcomes(d, n, SeededSampler(13))
        sigma = math.sqrt(n * (1 / 16) * (15 / 16))
        rows = {o: 0 for o in PAIR_OUTCOMES}
        for row in shots.outcomes:
            rows[tuple(int(v) for v in row)] += 1
        for count in rows.values():
            assert abs(count - n / 16) < 5 * sigma

    def test_deterministic_distribution(self):
        probs = np.zeros(16)
        probs[PAIR_OUTCOMES.index((1, -1, -1, 1))] = 1.0
        from jointlab.pairs import PairOutcomeDistribution

        d = PairOutcomeDistribution(probs)
        shots = sample_outcomes(d, 50, SeededSampler(3))
        assert np.all(shots.outcomes == np.array([1, -1, -1, 1], dtype=np.int8))

    def test_perfect_xx_correlation_in_every_shot(self):
        d = pair_distribution_trace(
            BellFamilyState(0.0).to_density(), VisibilityPair(1.0, 0.0), VisibilityPair(1.0, 0.0)
        )
        shots = sample_outcomes(d, 4000, SeededSampler(17))
        assert np.all(shots.outcomes[:, 0] == shots.outcomes[:, 2])

    def test_negative_distribution_rejected(self):
        d = pair_distribution_formula(
            CorrelationVector(1, 1, 1, -1),
            VisibilityPair(1 / math.sqrt(2), 1 / math.sqrt(2)),
            VisibilityPair(1.0, 0.0),
        )
        with pytest.raises(ValueError, match="negative"):
            sample_outcomes(d, 10, SeededSampler(1))

    def test_reproducible_streams(self):
        d = pair_distribution_formula(
            bell_family_correlations(0.8), saturated(0.4), saturated(0.4)
        )
        a = sample_outcomes(d, 1000, SeededSampler(77))
        b = sample_outcomes(d, 1000, SeededSampler(77))
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_shot_record_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            ShotRecord.from_outcomes(np.ones((3, 5), dtype=np.int8), "bad")

    # 1.7 would be cast to 1, 300 to 44 and 1j to 0 if the values were not checked as given
    @pytest.mark.parametrize("entry", [0, 1.7, 300, 1j])
    def test_shot_record_rejects_outcome_other_than_plus_minus_one(self, entry):
        outcomes = np.array([[1, -1, 1, 1], [1, entry, -1, 1]])
        with pytest.raises(ValueError, match="must be \\+-1"):
            ShotRecord.from_outcomes(outcomes, "bad")

    # a bool row would be taken as all +1 and a complex one compared by its real part
    @pytest.mark.parametrize("dtype", [bool, complex])
    def test_shot_record_rejects_rows_that_are_not_real_numbers(self, dtype):
        with pytest.raises(ValueError, match=f"integers or floats, got {np.dtype(dtype)}"):
            ShotRecord.from_outcomes(np.ones((2, 4), dtype), "bad")

    def test_drawn_index_is_read_only_and_not_copied(self, monkeypatch):
        adopted = []
        adopt = ShotRecord._adopt.__func__
        monkeypatch.setattr(
            ShotRecord, "_adopt", classmethod(lambda cls, i, s: adopted.append(i) or adopt(cls, i, s))
        )
        shots = sample_outcomes(BELL_QUARTER_PI, 5000, SeededSampler(4))
        assert shots.index is adopted[0]
        assert shots.index.dtype == np.uint8 and not shots.index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shots.index[0] = 0

    def test_given_index_is_copied(self):
        given = np.array([0, 15, 3, 3], dtype=np.uint8)
        record = ShotRecord(given, "given")
        given[:] = 7
        assert record.index.tolist() == [0, 15, 3, 3] and given.flags.writeable
        assert record.counts[[0, 3, 15]].tolist() == [1, 2, 1]

    @pytest.mark.parametrize("bad", [np.array([0, 16], np.uint8), np.zeros((2, 2), np.uint8)])
    def test_adopted_index_is_checked(self, bad):
        with pytest.raises(ValueError, match="shot index"):
            ShotRecord._adopt(bad, "bad")


BELL_QUARTER_PI = pair_distribution_formula(
    bell_family_correlations(QUARTER_PI), saturated(QUARTER_PI), saturated(QUARTER_PI)
)
#: (sampler of size n, its smallest valid size)
SIZED_SAMPLERS = [
    (lambda n: sample_outcomes(BELL_QUARTER_PI, n, SeededSampler(1)), 1),
    (lambda n: correlation_ensemble(n, SeededSampler(1), "haar"), 1),
    (lambda n: random_state_stack("ginibre", SeededSampler(1), n), 0),
]


@pytest.mark.parametrize(
    "draw, minimum", SIZED_SAMPLERS, ids=["sample", "ensemble", "stack"]
)
@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, "3", -1, 0])
def test_bad_size_rejected_before_any_draw(draw, minimum, n, monkeypatch):
    def no_draw(*args):
        raise AssertionError("the stream was read before the size was checked")

    monkeypatch.setattr(SeededSampler, "rng", no_draw)
    monkeypatch.setattr(sampling, "_stream_at", no_draw)
    if isinstance(n, int) and not isinstance(n, bool) and n >= minimum:
        with pytest.raises(AssertionError, match="stream was read"):
            draw(n)
    else:
        with pytest.raises(ValueError, match="size must be a"):
            draw(n)


class TestEstimators:
    def test_normalization_moment_has_zero_error(self):
        d = pair_distribution_formula(
            bell_family_correlations(0.7), saturated(0.5), saturated(0.2)
        )
        shots = sample_outcomes(d, 1000, SeededSampler(2))
        est = estimate_moment(shots, ("one", "one"))
        assert est.value == 1.0 and est.std_error == 0.0

    def test_estimates_track_population_values(self):
        v = saturated(QUARTER_PI)
        d = pair_distribution_formula(bell_family_correlations(0.0), v, v)
        shots = sample_outcomes(d, 100_000, SeededSampler(21))
        for spec in (("x", "x"), ("y", "y"), ("xy", "one"), ("x", "y")):
            est = estimate_moment(shots, spec)
            assert abs(est.value - pair_moment(d, spec)) < 4.0 * max(est.std_error, 1e-6)

    def test_minimum_sample_size(self):
        d = pair_distribution_formula(
            CorrelationVector(0, 0, 0, 0), VisibilityPair(0.5, 0.5), VisibilityPair(0.5, 0.5)
        )
        shots = sample_outcomes(d, 1, SeededSampler(1))
        with pytest.raises(ValueError, match="two shots"):
            estimate_moment(shots, ("x", "x"))

    def test_shot_index_computed_once_per_record(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            sampling, "outcome_indices", lambda o: calls.append(1) or outcome_indices(o)
        )
        v = saturated(QUARTER_PI)
        d = pair_distribution_formula(bell_family_correlations(QUARTER_PI), v, v)
        # the sampler stores the index it drew by; from_outcomes computes it once
        sampled = sample_outcomes(d, 2000, SeededSampler(5))
        assert len(calls) == 0
        given = ShotRecord.from_outcomes(sampled.outcomes, "given")
        assert len(calls) == 1
        for shots in (sampled, given):
            for spec in MONTE_CARLO_SPECS:
                estimate_moment(shots, spec)
            shots_csv_text(shots)
            assert shots.index.dtype == np.uint8 and not shots.index.flags.writeable
        assert len(calls) == 1
        assert np.array_equal(given.index, sampled.index)
        assert np.array_equal(sampled.index, outcome_indices(sampled.outcomes))

    def test_std_error_scales_inverse_sqrt_n(self):
        v = saturated(QUARTER_PI)
        d = pair_distribution_formula(bell_family_correlations(QUARTER_PI), v, v)
        small = estimate_moment(sample_outcomes(d, 10_000, SeededSampler(4)), ("x", "x"))
        large = estimate_moment(sample_outcomes(d, 40_000, SeededSampler(4)), ("x", "x"))
        assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.15)

    def test_five_sigma_coverage(self):
        # estimator consistency: |estimate - population| < 5 SE in >= 99% of runs
        v = saturated(QUARTER_PI)
        d = pair_distribution_formula(bell_family_correlations(QUARTER_PI), v, v)
        population = pair_moment(d, ("x", "x"))
        master = SeededSampler(29)
        hits = 0
        runs = 1000
        for i in range(runs):
            shots = sample_outcomes(d, 10_000, master.derive(i))
            est = estimate_moment(shots, ("x", "x"))
            if abs(est.value - population) < 5.0 * est.std_error:
                hits += 1
        assert hits >= int(0.99 * runs)


class TestExperimentalChsh:
    def test_peak_value(self):
        assert experimental_chsh(QUARTER_PI, AnglePair(QUARTER_PI, QUARTER_PI)) == pytest.approx(
            math.sqrt(2.0), abs=1e-15
        )

    def test_zero_phase(self):
        assert experimental_chsh(0.0, AnglePair(0.0, 0.0)) == pytest.approx(1.0)

    def test_equals_population_moment_sum(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            alpha, beta = rng.uniform(0.0, 0.5 * math.pi, size=2)
            d = pair_distribution_formula(
                bell_family_correlations(phi), saturated(alpha), saturated(beta)
            )
            population = (
                pair_moment(d, ("x", "x"))
                + pair_moment(d, ("y", "x"))
                + pair_moment(d, ("x", "y"))
                - pair_moment(d, ("y", "y"))
            )
            assert experimental_chsh(phi, AnglePair(alpha, beta)) == pytest.approx(
                population, abs=1e-12
            )

    def test_matches_monte_carlo(self):
        phi, alpha, beta = 0.9, 0.6, 0.3
        va, vb = saturated(alpha), saturated(beta)
        d = pair_distribution_formula(bell_family_correlations(phi), va, vb)
        shots = sample_outcomes(d, 200_000, SeededSampler(33))
        estimate = 0.0
        variance = 0.0
        for spec in (("x", "x"), ("y", "x"), ("x", "y")):
            est = estimate_moment(shots, spec)
            estimate += est.value
            variance += est.std_error**2
        est_yy = estimate_moment(shots, ("y", "y"))
        estimate -= est_yy.value
        variance += est_yy.std_error**2
        expected = experimental_chsh(phi, AnglePair(alpha, beta))
        assert abs(estimate - expected) < 4.0 * math.sqrt(variance)

    def test_surface_is_experimental_chsh_on_midpoint_grid(self):
        phi, steps = 0.3, 7
        angles, surface = chsh_surface(phi, steps)
        assert np.allclose(angles, (np.arange(steps) + 0.5) * math.pi / (2 * steps), atol=1e-15)
        assert surface.shape == (steps, steps)
        for i, alpha in enumerate(angles):
            for j, beta in enumerate(angles):
                expected = experimental_chsh(phi, AnglePair(float(alpha), float(beta)))
                assert surface[i, j] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.3, QUARTER_PI, 0.5 * math.pi])
    def test_surface_bit_equal_to_two_term_numpy_expression(self, phi):
        angles, surface = chsh_surface(phi, 64)
        alpha, beta = angles[:, None], angles[None, :]
        expected = np.cos(alpha - beta) * math.cos(phi) + np.sin(alpha + beta) * math.sin(phi)
        assert surface.dtype == expected.dtype and surface.shape == expected.shape
        assert surface.tobytes() == expected.tobytes()

    def test_maximum_at_quarter_pi(self):
        opt = max_experimental_chsh(QUARTER_PI)
        assert opt.value == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert opt.alpha == pytest.approx(QUARTER_PI, abs=1e-6)
        assert opt.beta == pytest.approx(QUARTER_PI, abs=1e-6)

    def test_maximum_at_zero_phase(self):
        opt = max_experimental_chsh(0.0)
        assert opt.value == pytest.approx(1.0, abs=1e-9)
        assert opt.alpha == pytest.approx(opt.beta, abs=1e-6)

    def test_maximum_at_half_pi(self):
        opt = max_experimental_chsh(0.5 * math.pi)
        assert opt.value == pytest.approx(1.0, abs=1e-9)
        assert opt.alpha + opt.beta == pytest.approx(0.5 * math.pi, abs=1e-6)


class TestZeroProbabilityCurve:
    def test_curve_values(self):
        assert zero_probability_chsh(math.pi / 3.0) == pytest.approx(1.25, abs=1e-12)
        assert zero_probability_chsh(0.0) == pytest.approx(1.0)
        assert zero_probability_chsh(0.5 * math.pi) == pytest.approx(1.0)

    def test_curve_maximum(self):
        curve = zero_probability_curve_max()
        assert curve.value == pytest.approx(1.25, abs=1e-9)
        assert math.cos(curve.phi) == pytest.approx(0.5, abs=1e-6)

    def test_constrained_grid_agrees_with_midpoint_choice(self):
        for phi in (0.5, 1.0, math.pi / 3.0):
            grid_max = constrained_chsh_grid_max(phi)
            assert grid_max == pytest.approx(zero_probability_chsh(phi), abs=1e-6)

    def test_suppressed_outcome_vanishes(self):
        for phi in (0.3, 1.1, 2.0):
            half = 0.5 * phi
            v = saturated(half)
            d = pair_distribution_formula(bell_family_correlations(phi), v, v)
            assert abs(d[(1, 1, -1, -1)]) < 1e-12

    def test_suppressed_outcome_never_drawn(self):
        # 50 phase values, one million shots each: the constrained outcome
        # has probability zero and must never appear in the sample
        master = SeededSampler(59)
        target = np.array([1, 1, -1, -1], dtype=np.int8)
        for i, phi in enumerate(np.linspace(0.0, math.pi, 50)):
            v = saturated(0.5 * float(phi))
            d = pair_distribution_formula(bell_family_correlations(float(phi)), v, v)
            assert abs((1.0 / 16.0) * (1.0 - math.cos(0.5 * phi + 0.5 * phi - phi))) < 1e-12
            shots = sample_outcomes(d, 1_000_000, master.derive(i))
            assert not np.any(np.all(shots.outcomes == target, axis=1))


@pytest.mark.parametrize(
    "call, parameter",
    [
        pytest.param(lambda: chsh_surface(0.3, 0), "steps", id="surface-zero-steps"),
        pytest.param(lambda: chsh_surface(0.3, -1), "steps", id="surface-negative-steps"),
        pytest.param(lambda: chsh_surface(0.3, 4.0), "steps", id="surface-float-steps"),
        pytest.param(lambda: max_experimental_chsh(0.3, 0), "grid_steps", id="max-zero-steps"),
        pytest.param(lambda: max_experimental_chsh(0.3, True), "grid_steps", id="max-bool-steps"),
        pytest.param(lambda: zero_probability_curve_max(0.0), "step", id="curve-zero-step"),
        pytest.param(lambda: zero_probability_curve_max(-1.0), "step", id="curve-negative-step"),
        pytest.param(lambda: zero_probability_curve_max(math.nan), "step", id="curve-nan-step"),
        pytest.param(lambda: zero_probability_curve_max(math.inf), "step", id="curve-inf-step"),
        pytest.param(
            lambda: experimental_chsh(math.nan, AnglePair(0, 0)), "phi", id="chsh-nan-phi"
        ),
        pytest.param(lambda: experimental_chsh(True, AnglePair(0, 0)), "phi", id="chsh-bool-phi"),
        pytest.param(lambda: chsh_surface(math.nan, 4), "phi", id="surface-nan-phi"),
        pytest.param(lambda: chsh_surface("0.3", 4), "phi", id="surface-text-phi"),
        pytest.param(lambda: max_experimental_chsh(math.nan), "phi", id="max-nan-phi"),
        pytest.param(lambda: max_experimental_chsh(True), "phi", id="max-bool-phi"),
        pytest.param(lambda: constrained_chsh_grid_max(math.nan), "phi", id="grid-nan-phi"),
        pytest.param(lambda: constrained_chsh_grid_max(math.inf), "phi", id="grid-inf-phi"),
    ],
)
def test_optimizer_rejects_bad_size_naming_the_parameter(call, parameter):
    with pytest.raises(ValueError, match=f"^{parameter} must be"):
        call()


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_zero_probability_chsh_fails_certification_on_non_finite_phi(phi):
    # the suppressed probability is NaN there, and a NaN must not pass as <= 1e-12
    with pytest.raises(ArithmeticError, match="suppressed outcome"):
        zero_probability_chsh(phi)


class TestViolationSearch:
    def test_no_violations_and_deterministic(self):
        c = correlation_ensemble(3000, SeededSampler(55), "haar")
        assert tight_bound_from_components(*c.T).max() <= 2.0 + 1e-9
        assert chsh_from_components(*c.T).max() <= TSIRELSON_BOUND + 1e-9
        assert np.array_equal(c, correlation_ensemble(3000, SeededSampler(55), "haar"))

    def test_lone_member_is_the_lone_state(self):
        c = correlation_ensemble(1, SeededSampler(4), "haar")
        rho = haar_random_pure_state(SeededSampler(4))
        assert c[0] == pytest.approx(correlation_components(rho.mat), abs=1e-12)

    def test_size_validated(self):
        with pytest.raises(ValueError, match="positive"):
            correlation_ensemble(0, SeededSampler(1))
