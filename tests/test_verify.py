import itertools
import math

import numpy as np
import pytest

from jointlab import sampling, suites, verify
from jointlab.bounds import chsh_from_components, tight_bound_from_components
from jointlab.joint import outcome_probabilities
from jointlab.pairs import PAIR_OUTCOMES, PairOutcomeDistribution
from jointlab.sampling import CurveOptimum, SeededSampler
from jointlab.verify import povm_grid_mismatches

from conftest import assert_same_bytes, pauli_povm


def per_point_mismatches(grid_steps, tol):
    """The grid count built one point at a time (the reference).

    Positivity comes from numpy's LAPACK solver, which production uses only
    for sizes other than 2x2, so it is independent of the closed form that
    certifies the grid; it runs once over all the elements.
    """
    values = np.linspace(0.0, 1.0, grid_steps).tolist()
    points = [(vx, vy) for vx in values for vy in values]
    elements = np.array([pauli_povm(vx, vy) for vx, vy in points])
    psd = (np.linalg.eigvalsh(elements)[..., 0] >= -tol).all(axis=-1)
    return sum((vx * vx + vy * vy <= 1.0 + tol) != ok for (vx, vy), ok in zip(points, psd.tolist()))


# 8 steps fit one block of rows; 33 and 101 end in a partial block
@pytest.mark.parametrize("grid_steps", [8, 33, 101])
@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_blocked_grid_matches_per_point_loop(grid_steps, tol):
    expected = per_point_mismatches(grid_steps, tol)
    assert povm_grid_mismatches(grid_steps, tol) == expected
    if tol == 1e-3 and grid_steps > 8:
        # the predicates differ on the collar 1 + tol < v_x**2 + v_y**2 <= (1 + 4 tol)**2
        assert expected > 0



def nan_on_call(fn, call, poison):
    """``fn`` with its ``call``-th result (1-based) replaced by ``poison(result)``.

    ``call`` may also be ``(accept, k)``: the k-th of the calls whose
    arguments ``accept`` takes. A call counts when it starts, in one atomic
    step, so calls from worker threads are counted once each.
    """
    accept, k = call if isinstance(call, tuple) else (lambda *args: True, call)
    counter = itertools.count(1)

    def wrapped(*args, **kwargs):
        hit = accept(*args) and next(counter) == k
        result = fn(*args, **kwargs)
        return poison(result) if hit else result

    return wrapped


def _nan(_):
    return math.nan


def nan_at(*index):
    """A poison that copies a stacked result and sets entry ``index`` to NaN."""

    def poison(result):
        result = result.copy()
        result[index] = math.nan
        return result

    return poison


def _nan_probs(dist):
    """``dist`` with a NaN at (1, 1, -1, -1), built past the checks that would refuse it."""
    probs = dist.probs.copy()
    probs[PAIR_OUTCOMES.index((1, 1, -1, -1))] = math.nan
    poisoned = object.__new__(PairOutcomeDistribution)
    object.__setattr__(poisoned, "probs", probs)
    return poisoned


def _nan_marginals(marginals):
    marg_a, marg_b = marginals
    marg_b = marg_b.copy()
    marg_b[3, 1] = math.nan
    return marg_a, marg_b


CURVE = CurveOptimum(1.25, math.pi / 3)


def _small_ensembles():
    return verify.EnsembleMaxima((0.0, 0.0), (0.0, 0.0))


#: Members per ensemble block of ``sampling._ensemble_maxima``, by kind.
SCREEN_BLOCK = {
    kind: sampling._ENSEMBLE_NORMALS // math.prod(shape)
    for kind, shape in sampling._MEMBER_SHAPE.items()
}
#: Ensemble size spanning two full Haar blocks and a remainder, and eight
#: full Ginibre blocks and a remainder.
N_BLOCKED = 2 * SCREEN_BLOCK["haar"] + 5


def _ensemble_checks():
    maxima = verify.build_correlation_ensembles(7, N_BLOCKED)
    return verify.criterion_tight_bound(maxima) + verify.criterion_tsirelson(maxima)


def _ensemble_nan_case(kind, check_name):
    """A NaN in the last member that the one ``kind`` refine recomputes exactly."""
    accept = (lambda member_kind, *uniforms: member_kind == kind, 1)
    return sampling, "_member_correlations", accept, nan_at(-1, 3), _ensemble_checks, check_name


# (module, name patched, call made NaN, how, run, check that must fail); every
# NaN comes after finite values, where Python's max(worst, nan) kept worst and
# np.nanmax would skip it
NAN_CASES = {
    "outcome_product_mean": (
        verify, "outcome_moments", 1, nan_at(6, 2),
        lambda: verify.criterion_outcome_product_rule(7, n=20),
        "outcome_product_mean_max",
    ),
    "visibility_scaling": (
        verify, "outcome_moments", 1, nan_at(6, 0),
        lambda: verify.criterion_outcome_product_rule(7, n=20),
        "visibility_scaling_residual_max",
    ),
    "bloch_disk_spot_check": (
        verify, "outcome_probabilities", 1, nan_at(4),
        lambda: verify.criterion_bloch_disk_bound(7),
        "sweep_vs_distribution_residual",
    ),
    "marginals": (
        verify, "pair_marginals", 1, _nan_marginals,
        lambda: verify.criterion_pair_moment_structure(7, n=5, marginal_states=5),
        "marginal_consistency_residual",
    ),
    "tight_bound_bell_family": (
        verify, "tight_bound_lhs", 9, _nan,
        lambda: verify.criterion_tight_bound(_small_ensembles()),
        "tight_bound_bell_family",
    ),
    "ensemble_tight_bound_pure": _ensemble_nan_case("haar", "tight_bound_max_pure"),
    "ensemble_tight_bound_mixed": _ensemble_nan_case("ginibre", "tight_bound_max_mixed"),
    "ensemble_chsh_pure": _ensemble_nan_case("haar", "chsh_max_pure"),
    "ensemble_chsh_mixed": _ensemble_nan_case("ginibre", "chsh_max_mixed"),
    "sup_identity": (
        verify, "sup_over_angles", 1, lambda sup: np.where(np.arange(sup.size) == 3, math.nan, sup),
        lambda: verify.criterion_sup_identity(7, n=10),
        "sup_vs_closed_form_residual",
    ),
    "coherence_bell_family": (
        verify, "validate_densities", 1, nan_at(9, 0, 3),
        lambda: verify.criterion_coherence_identity(7, n=3),
        "coherence_bell_family_dev",
    ),
    "suppressed_outcome": (
        verify, "pair_distribution_formula", 3, _nan_probs,
        lambda: verify.zero_probability_checks(CURVE, (0.1, 0.2, 0.3, 0.4), (0.4,)),
        "suppressed_outcome_probability",
    ),
    "constrained_grid": (
        verify, "constrained_chsh_grid_max", 2, _nan,
        lambda: verify.zero_probability_checks(CURVE, (0.1,), (0.4, 0.9, 1.3)),
        "constrained_maximizer_grid_dev",
    ),
    "povm_completeness": (
        suites, "povm_elements", 1, nan_at(40),
        lambda: suites.run_single_suite(7, 1e-9, 9)[1],
        "povm_completeness_residual",
    ),
    "distribution_trace": (
        suites, "equatorial_densities", 1, nan_at(5),
        lambda: suites.run_single_suite(7, 1e-9, 9)[1],
        "distribution_vs_trace_residual",
    ),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_residual_fails_its_check(case, monkeypatch):
    module, name, call, poison, run, check_name = NAN_CASES[case]
    monkeypatch.setattr(module, name, nan_on_call(getattr(module, name), call, poison))
    checks = {c.name: c for c in run()}
    assert math.isnan(checks[check_name].value)
    assert not checks[check_name].passed


def test_max_residual():
    assert verify.max_residual([]) == 0.0
    assert verify.max_residual(x for x in (0.5, 2.0, 1.0)) == 2.0
    assert math.isnan(verify.max_residual([0.0, math.nan, 1.0]))
    assert math.isnan(verify.max_residual((np.float64(1.0), np.float64(math.nan))))


@pytest.mark.parametrize("criteria, builds", [(10, [7]), (4, [])])
def test_ensembles_built_once_per_run_on_first_use(monkeypatch, criteria, builds):
    """The ten criteria build the ensembles once; the first four, which never ask, do not."""
    calls = []

    def build(seed):
        calls.append(seed)
        return _small_ensembles()

    monkeypatch.setattr(verify, "build_correlation_ensembles", build)
    monkeypatch.setattr(verify, "CRITERIA", verify.CRITERIA[:criteria])
    results = verify.run_acceptance(7)
    assert [r.key for r in results] == [key for key, _, _ in verify.CRITERIA]
    assert calls == builds


def whole_array_maxima(exact_ensemble, seed, n):
    """The ``EnsembleMaxima`` of criteria 5 and 7 from the whole (n, 4) ensembles."""
    master = SeededSampler(seed)
    pure = exact_ensemble(n, master.derive(50), "haar").T
    mixed = exact_ensemble(n, master.derive(51), "ginibre").T
    return verify.EnsembleMaxima(*(
        (float(fn(*pure).max()), float(fn(*mixed).max()))
        for fn in (tight_bound_from_components, chsh_from_components)
    ))


def assert_same_maxima(got, expected):
    assert np.array(got).tobytes() == np.array(expected).tobytes()


#: Sizes around each kind's screen block B: 1, B - 1, B, B + 1 and 3B + 77.
SCREEN_SIZES = sorted({n for b in SCREEN_BLOCK.values() for n in (1, b - 1, b, b + 1, 3 * b + 77)})


@pytest.mark.parametrize(
    "seed, n", [(7, n) for n in SCREEN_SIZES] + [(seed, 100_000) for seed in range(5)]
)
def test_ensemble_maxima_bit_equal_to_whole_array_maxima(exact_ensemble, seed, n):
    got = verify.build_correlation_ensembles(seed, n)
    assert_same_maxima(got, whole_array_maxima(exact_ensemble, seed, n))


@pytest.mark.parametrize("cpus", [1, 3])
def test_ensemble_maxima_do_not_depend_on_worker_count(monkeypatch, exact_ensemble, cpus):
    n = 3 * SCREEN_BLOCK["haar"] + 77
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
    got = verify.build_correlation_ensembles(7, n)
    assert_same_maxima(got, whole_array_maxima(exact_ensemble, 7, n))


# the 10^5-member ensembles of test_bounds' implication chain
@pytest.mark.parametrize("kind, seed", [("haar", 19), ("ginibre", 20)])
def test_screen_error_and_refined_share(exact_ensemble, kind, seed):
    """Every member's screened values lie within the derived bound, and 1 % of the margin.

    At most 1 % of the members are refined.
    """
    n, s, size = 100_000, SeededSampler(seed), SCREEN_BLOCK[kind]
    exact = exact_ensemble(n, s, kind)
    errors, refined = [], 0
    for i0 in range(0, n, size):
        i1 = min(i0 + size, n)
        screened = sampling._screen(*sampling._member_uniforms(s, kind, n, i0, i1), i1 - i0)
        c = exact[i0:i1].T
        for values, fn in zip(screened, (tight_bound_from_components, chsh_from_components)):
            errors.append(np.abs(values - fn(*c)).max())
        refined += sampling._near_top(*screened).size
    assert np.max(errors) <= sampling._SCREEN_ERROR
    assert np.max(errors) <= sampling._SCREEN_MARGIN / 100
    assert refined <= n // 100


def test_member_screened_as_nan_is_refined(monkeypatch, exact_ensemble):
    """A member far from the maxima whose screened values are NaN is recomputed exactly."""
    screen, near_top = sampling._screen, sampling._near_top
    poisoned = []

    def nan_screen(u1, u2, k):
        lhs, chsh = screen(u1, u2, k)
        low = int(np.argmin(lhs))
        assert low not in near_top(lhs, chsh)
        lhs[low] = chsh[low] = math.nan
        poisoned.append(low)
        return lhs, chsh

    refined = []

    def recording_near_top(lhs, chsh):
        kept = near_top(lhs, chsh)
        refined.append(poisoned[-1] in kept)
        return kept

    # one worker, so each block's screen is followed by its own selection
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(sampling, "_screen", nan_screen)
    monkeypatch.setattr(sampling, "_near_top", recording_near_top)
    got = verify.build_correlation_ensembles(7, N_BLOCKED)
    assert len(refined) == sum(-(-N_BLOCKED // size) for size in SCREEN_BLOCK.values())
    assert all(refined)
    assert_same_maxima(got, whole_array_maxima(exact_ensemble, 7, N_BLOCKED))


@pytest.mark.parametrize("cpus", [1, 3])
def test_one_exact_refine_per_ensemble(monkeypatch, cpus):
    """Every block's kept members are recomputed together, in one call per ensemble."""
    refine, calls = sampling._member_correlations, []

    def counted_refine(kind, *uniforms):
        calls.append(kind)
        return refine(kind, *uniforms)

    monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(sampling, "_member_correlations", counted_refine)
    for n in SCREEN_SIZES:
        for kind in SCREEN_BLOCK:
            calls.clear()
            sampling._ensemble_maxima(n, SeededSampler(7), kind)
            assert calls == [kind], (n, kind)


def reference_bloch_disk_sweep(seed):
    """The sweep as one whole (state, angle) table, its spot checks read from the table."""
    coords = np.linspace(-1.0, 1.0, 41)
    ex, ey = [a.ravel() for a in np.meshgrid(coords, coords)]
    alphas = np.arange(0.0, 0.5 * math.pi + 0.005, 0.01)
    cos_a, sin_a = np.cos(alphas), np.sin(alphas)
    table = 0.25 * (
        1.0 - np.abs(ex)[:, None] * cos_a[None, :] - np.abs(ey)[:, None] * sin_a[None, :]
    )
    min_prob = table.min(axis=1)
    unphysical = ex * ex + ey * ey > 1.0 + 1e-12
    gen = SeededSampler(seed).derive(3).rng()
    i, j = gen.integers(np.tile([ex.size, alphas.size], 60)).reshape(-1, 2).T
    spot = outcome_probabilities(cos_a[j], sin_a[j], ex[i], ey[i]).min(axis=-1)
    return (
        float(min_prob[unphysical].max()),
        float(min_prob[~unphysical].min()),
        float(np.abs(spot - table[i, j]).max()),
    )


@pytest.mark.parametrize(
    "criterion",
    [
        verify.criterion_outcome_product_rule,
        verify.criterion_bloch_disk_bound,
        verify.criterion_pair_moment_structure,
    ],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_run_tolerance_never_changes_a_value(criterion, seed):
    pinned, loose = criterion(seed, tolerance=None), criterion(seed, tolerance=1e-3)
    assert [c.name for c in loose] == [c.name for c in pinned]
    assert [c.tolerance for c in loose] != [c.tolerance for c in pinned]
    assert_same_bytes(np.array([c.value for c in loose]), np.array([c.value for c in pinned]))


@pytest.mark.parametrize("seed", range(5))
def test_bloch_disk_sweep_bit_equal_to_whole_table(seed):
    assert verify._BLOCH_BLOCK_ROWS < 41 * 41  # more than one block, the last one short
    got = np.array([c.value for c in verify.criterion_bloch_disk_bound(seed)])
    assert got.tobytes() == np.array(reference_bloch_disk_sweep(seed)).tobytes()


def loop_admissible_visibilities(gen, n):
    """The visibility draws one (theta, r) pair at a time on Python floats (the reference)."""
    out = np.empty((n, 2))
    for k, (u, radius) in enumerate(gen.random((n, 2)).tolist()):
        theta = 0.5 * math.pi * u
        out[k] = radius * math.cos(theta), radius * math.sin(theta)
    return out


@pytest.mark.parametrize("seed", [7, 11])
def test_admissible_visibilities_bit_equal_to_loop(seed):
    n = 2 * (1000 + 200)  # criterion 4's draws in one verify run, from stream 4
    expected = loop_admissible_visibilities(SeededSampler(seed).derive(4).rng(), n)
    got = verify._random_admissible_visibilities(SeededSampler(seed).derive(4).rng(), n)
    assert got.tobytes() == expected.tobytes()
