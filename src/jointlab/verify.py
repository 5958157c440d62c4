"""Acceptance suite: every headline numerical claim as an executable check.

Each criterion is one function: it measures residuals or extrema with an
independent route (closed forms, brute-force grids, sampling estimators) and
returns a tuple of named checks with value, bound, tolerance and a pass flag.
``CRITERIA`` is the one place that names the ten criteria: each entry gives
a key, a title and how to run the criterion's checks, in report order.
``run_acceptance`` evaluates them on one master seed, times each one and
packages it as a ``CriterionResult``. The two 10^5-state ensembles are
reduced once per run, by the first criterion that asks for them, which is
charged for it, to their largest tight-bound lhs and CHSH value: each is
screened in float32 a block at a time and only its near-maximal members are
recomputed exactly, so the run keeps four floats and never an ensemble.

Every check a criterion makes is built here, once: the CLI subcommands
(``suites``) compose these criteria and their check functions at their own
sizes, and build only the checks that no criterion makes.

Criteria 2, 3 and 4 take an optional run ``tolerance``, which changes no value:
None keeps the pinned tolerances, a float replaces them on residuals and widens,
but never tightens, the floors on minimum probabilities and the sweep residual.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import (
    TSIRELSON_BOUND,
    chsh_value,
    coherence_bound_lhs,
    coherence_from_matrices,
    sup_over_angles,
    tight_bound_from_components,
    tight_bound_lhs,
)
from .joint import (
    VisibilityPair,
    admissible_visibilities,
    bloch_bound_lhs,
    outcome_moments,
    outcome_probabilities,
    povm_elements,
)
from .linalg import _eigenvalues
from .pairs import (
    PAIR_OUTCOMES,
    BellFamilyState,
    DensityOperator4,
    PairOutcomeDistribution,
    _projectors,
    bell_family_correlations,
    correlation_components,
    correlation_moments,
    local_mean_components,
    moment_signs,
    pair_distribution_formula,
    pair_marginals,
    pair_moment,
    pair_probabilities_formula,
    pair_probabilities_trace,
    validate_densities,
)
from .reporting import shots_csv_text
from .sampling import (
    CurveOptimum,
    SeededSampler,
    ShotRecord,
    _BELL_PROJECTORS,
    _ensemble_maxima,
    _suppressed_probability,
    constrained_chsh_grid_max,
    estimate_moment,
    max_experimental_chsh,
    random_state_stack,
    sample_outcomes,
    zero_probability_chsh,
    zero_probability_curve_max,
)

#: Moment specs compared against their population values at 10^6 shots.
MONTE_CARLO_SPECS = (
    ("x", "x"),
    ("x", "y"),
    ("y", "x"),
    ("y", "y"),
    ("xy", "one"),
    ("one", "xy"),
    ("xy", "x"),
    ("x", "xy"),
    ("xy", "xy"),
    ("one", "one"),
)

__all__ = [
    "Check",
    "CriterionResult",
    "CRITERIA",
    "RUNTIME_LIMITS",
    "check_le",
    "check_ge",
    "check_close",
    "povm_grid_mismatches",
    "criterion_povm_positivity",
    "criterion_outcome_product_rule",
    "criterion_bloch_disk_bound",
    "criterion_pair_moment_structure",
    "EnsembleMaxima",
    "build_correlation_ensembles",
    "criterion_tight_bound",
    "criterion_sup_identity",
    "criterion_tsirelson",
    "criterion_coherence_identity",
    "criterion_observable_optima",
    "criterion_monte_carlo",
    "run_acceptance",
]

#: Wall-clock limits (seconds) asserted by the acceptance tests.
RUNTIME_LIMITS = {"povm_positivity_grid": 1.0, "tight_bound_validity": 30.0}


@dataclass(frozen=True)
class Check:
    """One named numeric check: value compared against a bound."""

    name: str
    value: float
    bound: float
    tolerance: float
    passed: bool


def check_le(name: str, value: float, bound: float, tol: float = 0.0) -> Check:
    return Check(name, float(value), float(bound), float(tol), float(value) <= bound + tol)


def check_ge(name: str, value: float, bound: float, tol: float = 0.0) -> Check:
    return Check(name, float(value), float(bound), float(tol), float(value) >= bound - tol)


def check_close(name: str, value: float, target: float, tol: float) -> Check:
    return Check(name, float(value), float(target), float(tol), abs(value - target) <= tol)


def max_residual(values) -> float:
    """The largest of ``values`` (0.0 if there are none), NaN if any of them is NaN.

    Python's ``max(worst, value)`` keeps ``worst`` when ``value`` is NaN, so a
    NaN residual would pass its check; every residual accumulator reduces here.
    """
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def _run_tol(tolerance: float | None, pinned: float) -> float:
    """A residual's tolerance: the pinned one, or the run tolerance when given."""
    return pinned if tolerance is None else tolerance


def _floor_tol(tolerance: float | None, floor: float) -> float:
    """A tolerance that a run tolerance may widen but never tighten below ``floor``."""
    return floor if tolerance is None else max(tolerance, floor)


@dataclass(frozen=True)
class CriterionResult:
    key: str
    title: str
    checks: tuple[Check, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# 1. visibility admissibility vs POVM positivity
# ---------------------------------------------------------------------------

#: Grid rows certified per eigensolver call. Memory is set by this block,
#: 4 * POVM_GRID_BLOCK_ROWS * grid_steps matrices, not by the whole grid.
POVM_GRID_BLOCK_ROWS = 8


def povm_grid_mismatches(grid_steps: int = 101, tol: float = 1e-10) -> int:
    """Count grid points where the uncertainty relation and PSD checks disagree.

    The unit grid of visibilities is walked ``POVM_GRID_BLOCK_ROWS`` rows at
    a time; all four POVM elements of every point in a block are certified by
    one stacked eigenvalue call.
    """
    values = np.linspace(0.0, 1.0, grid_steps)
    mismatches = 0
    for start in range(0, grid_steps, POVM_GRID_BLOCK_ROWS):
        v_x = values[start : start + POVM_GRID_BLOCK_ROWS, None]
        v_y = values[None, :]
        admissible = admissible_visibilities(v_x, v_y, tol)
        # povm_elements range-checks the visibilities, so its elements are finite
        # and Hermitian by construction and go straight to the kernel
        psd = (_eigenvalues(povm_elements(v_x, v_y))[..., 0] >= -tol).all(axis=-1)
        mismatches += int(np.count_nonzero(admissible != psd))
    return mismatches


def criterion_povm_positivity() -> tuple[Check, ...]:
    return (check_le("povm_grid_mismatches", povm_grid_mismatches(), 0.0),)


# ---------------------------------------------------------------------------
# 2. outcome product rule and visibility scaling
# ---------------------------------------------------------------------------

def criterion_outcome_product_rule(
    seed: int, n: int = 1000, tolerance: float | None = None
) -> tuple[Check, ...]:
    """Largest |<xy>| and largest |<x> - v_x ex|, |<y> - v_y ey| over n random inputs."""
    draws = SeededSampler(seed).derive(2).rng().random((n, 4))
    v_x, v_y = draws[:, 0], draws[:, 1]
    ex, ey = 2.0 * draws[:, 2] - 1.0, 2.0 * draws[:, 3] - 1.0
    m = outcome_moments(outcome_probabilities(v_x, v_y, ex, ey))
    prop = np.abs(m[:, :2] - np.column_stack([v_x * ex, v_y * ey]))
    max_xy, max_prop = max_residual(np.abs(m[:, 2])), max_residual(prop.ravel())
    return (
        check_le("outcome_product_mean_max", max_xy, 0.0, _run_tol(tolerance, 1e-14)),
        check_le("visibility_scaling_residual_max", max_prop, 0.0, _run_tol(tolerance, 1e-12)),
    )


# ---------------------------------------------------------------------------
# 3. the Bloch disk from joint-measurement positivity
# ---------------------------------------------------------------------------

_BLOCH_ANGLE_STEP = 0.01
#: State rows of the sweep's (state, angle) table built at a time.
_BLOCH_BLOCK_ROWS = 256


def _bloch_min_probability(ex, ey, cos_a, sin_a):
    """min over outcomes of (1/4)(1 + x vx ex + y vy ey) at v = (cos a, sin a), broadcast."""
    return 0.25 * (1.0 - np.abs(ex) * cos_a - np.abs(ey) * sin_a)


def criterion_bloch_disk_bound(seed: int, tolerance: float | None = None) -> tuple[Check, ...]:
    """Scan a 41 x 41 state grid against the saturated visibility family.

    The visibilities (cos a, sin a) take a in steps of 0.01 rad over
    [0, pi/2], and 60 random (state, angle) spot checks compare the sweep
    with ``outcome_probabilities``. The (state, angle) table is built
    ``_BLOCH_BLOCK_ROWS`` state rows at a time and reduced to its row
    minima; the spot checks evaluate the same formula on their own (state,
    angle) pairs. The checks are, in order: the worst minimum probability
    over unphysical states, the best-case minimum probability over physical
    states, and the max deviation between the vectorized sweep and the
    production distribution on the spot checks.
    """
    coords = np.linspace(-1.0, 1.0, 41)
    ex, ey = [a.ravel() for a in np.meshgrid(coords, coords)]
    alphas = np.arange(0.0, 0.5 * math.pi + 0.5 * _BLOCH_ANGLE_STEP, _BLOCH_ANGLE_STEP)
    cos_a, sin_a = np.cos(alphas), np.sin(alphas)
    min_prob = np.concatenate([
        _bloch_min_probability(
            ex[i : i + _BLOCH_BLOCK_ROWS, None], ey[i : i + _BLOCH_BLOCK_ROWS, None], cos_a, sin_a
        ).min(axis=1)
        for i in range(0, ex.size, _BLOCH_BLOCK_ROWS)
    ])
    unphysical = bloch_bound_lhs(ex, ey) > 1.0 + 1e-12
    worst_unphysical = float(min_prob[unphysical].max())
    best_physical = float(min_prob[~unphysical].min())

    gen = SeededSampler(seed).derive(3).rng()
    # one draw with alternating (state, angle) bounds: the stream of alternating scalar draws
    i, j = gen.integers(np.tile([ex.size, alphas.size], 60)).reshape(-1, 2).T
    spot = outcome_probabilities(cos_a[j], sin_a[j], ex[i], ey[i]).min(axis=-1)
    sweep = _bloch_min_probability(ex[i], ey[i], cos_a[j], sin_a[j])
    api_residual = max_residual(np.abs(spot - sweep))
    return (
        check_le("unphysical_state_witness_probability", worst_unphysical, -1e-9),
        check_ge("physical_state_min_probability", best_physical, 0.0, _floor_tol(tolerance, 1e-12)),
        check_le("sweep_vs_distribution_residual", api_residual, 0.0, _floor_tol(tolerance, 1e-15)),
    )


# ---------------------------------------------------------------------------
# 4. pair-moment structure and the closed-form distribution
# ---------------------------------------------------------------------------

_XY_SPECS = (("xy", "x"), ("xy", "y"), ("x", "xy"), ("y", "xy"), ("xy", "xy"))
_CORRELATION_SPECS = (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"))
#: Signs of every spec above, (9, 16): one matrix product gives all moments of a stack.
_STRUCTURE_SIGNS = np.stack([moment_signs(spec) for spec in _XY_SPECS + _CORRELATION_SPECS])


def _random_admissible_visibilities(gen: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) admissible pairs (r cos theta, r sin theta), each from one (theta, r) draw."""
    u, radius = gen.random((n, 2)).T
    theta = 0.5 * math.pi * u
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def criterion_pair_moment_structure(
    seed: int, n: int = 1000, marginal_states: int = 200, tolerance: float | None = None
) -> tuple[Check, ...]:
    """The pair-moment structure on certified stacks of random states.

    ``n`` Bell-diagonal states, one stack from stream 1000, give the xy
    moments, the factorization residual, the formula-vs-trace residual and
    the smallest probability; ``marginal_states`` Ginibre states, one stack
    from stream 2000, give the marginal residual. Each state takes two
    visibility pairs from stream 4, in that order.
    """
    master = SeededSampler(seed)
    vis = _random_admissible_visibilities(master.derive(4).rng(), 2 * (n + marginal_states))
    va, vb = vis[0::2], vis[1::2]
    max_xy = max_factor = max_formula = max_marginal = 0.0
    min_prob = math.inf
    if n:
        rho = random_state_stack("bell-diagonal", master.derive(1000), n)
        probs, _ = pair_probabilities_trace(rho, va[:n], vb[:n])
        c = correlation_components(rho)
        formula, _ = pair_probabilities_formula(c, va[:n], vb[:n])
        moments = probs @ _STRUCTURE_SIGNS.T
        factors = correlation_moments(c, va[:n], vb[:n])
        n_xy = len(_XY_SPECS)
        max_xy = float(np.abs(moments[:, :n_xy]).max())
        max_factor = float(np.abs(moments[:, n_xy:] - factors).max())
        max_formula = float(np.abs(probs - formula).max())
        min_prob = float(probs.min())
    if marginal_states:
        rho = random_state_stack("ginibre", master.derive(2000), marginal_states)
        probs, _ = pair_probabilities_trace(rho, va[n:], vb[n:])
        means = local_mean_components(rho)
        marg_a, marg_b = pair_marginals(probs)
        local_a = outcome_probabilities(va[n:, 0], va[n:, 1], means[:, 0], means[:, 1])
        local_b = outcome_probabilities(vb[n:, 0], vb[n:, 1], means[:, 2], means[:, 3])
        max_marginal = max_residual(
            (np.abs(marg_a - local_a).max(), np.abs(marg_b - local_b).max())
        )
    return (
        check_le("pair_xy_moment_max", max_xy, 0.0, _run_tol(tolerance, 1e-12)),
        check_le("correlation_factorization_residual", max_factor, 0.0, _run_tol(tolerance, 1e-12)),
        check_le("formula_vs_trace_residual", max_formula, 0.0, _run_tol(tolerance, 1e-11)),
        check_le("marginal_consistency_residual", max_marginal, 0.0, _run_tol(tolerance, 1e-12)),
        check_ge("pair_min_probability", min_prob, 0.0, _floor_tol(tolerance, 1e-12)),
    )


# ---------------------------------------------------------------------------
# 5 + 7. random-state ensembles for the tight bound and the CHSH corollary
# ---------------------------------------------------------------------------

#: The Bell-family phases where criteria 5 and 8 check saturation.
_BELL_FAMILY_PHIS = tuple(float(p) for p in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False))

class EnsembleMaxima(NamedTuple):
    """The largest tight-bound lhs and CHSH value, each as (pure, mixed).

    The pure ensemble is Haar-random, the mixed one Ginibre-random; these
    four numbers are all that criteria 5 and 7 read from them.
    """

    tight_bound: tuple[float, float]
    chsh: tuple[float, float]


def build_correlation_ensembles(seed: int, n: int = 100_000) -> EnsembleMaxima:
    """The maxima of criteria 5 and 7 over ``n`` Haar and ``n`` Ginibre states.

    Each equals the whole-array maximum over ``correlation_ensemble`` bit for
    bit; ``_ensemble_maxima`` screens the members a block at a time and
    recomputes only the near-maximal ones exactly, in one call per ensemble,
    so no (n, 4) array is built.
    """
    master = SeededSampler(seed)
    tight_pure, chsh_pure = _ensemble_maxima(n, master.derive(50), "haar")
    tight_mixed, chsh_mixed = _ensemble_maxima(n, master.derive(51), "ginibre")
    return EnsembleMaxima((tight_pure, tight_mixed), (chsh_pure, chsh_mixed))


def criterion_tight_bound(maxima: EnsembleMaxima) -> tuple[Check, ...]:
    max_pure, max_mixed = maxima.tight_bound
    bell_dev = max_residual(
        abs(tight_bound_lhs(bell_family_correlations(phi)) - 2.0) for phi in _BELL_FAMILY_PHIS
    )
    return (
        check_le("tight_bound_max_pure", max_pure, 2.0, 1e-9),
        check_le("tight_bound_max_mixed", max_mixed, 2.0, 1e-9),
        check_close("tight_bound_bell_family", bell_dev, 0.0, 1e-12),
    )


# ---------------------------------------------------------------------------
# 6. numeric supremum equals the closed form
# ---------------------------------------------------------------------------

def sup_identity_residual(sampler: SeededSampler, n: int) -> float:
    """Largest |numeric angle supremum - closed form| over n uniform vectors in [-1, 1]^4.

    The n vectors are the rows of one (n, 4) draw, the same stream as n draws
    of four, and are searched as one stack.
    """
    c = 2.0 * sampler.rng().random((n, 4)) - 1.0
    return max_residual(np.abs(sup_over_angles(c) - tight_bound_from_components(*c.T)))


def criterion_sup_identity(seed: int, n: int = 1000) -> tuple[Check, ...]:
    worst = sup_identity_residual(SeededSampler(seed).derive(6), n)
    return (check_le("sup_vs_closed_form_residual", worst, 0.0, 1e-9),)


def criterion_tsirelson(maxima: EnsembleMaxima) -> tuple[Check, ...]:
    bell_value = chsh_value(bell_family_correlations(0.25 * math.pi))
    max_pure, max_mixed = maxima.chsh
    return (
        check_close("chsh_bell_quarter_pi", bell_value, TSIRELSON_BOUND, 1e-12),
        check_le("chsh_max_pure", max_pure, TSIRELSON_BOUND, 1e-9),
        check_le("chsh_max_mixed", max_mixed, TSIRELSON_BOUND, 1e-9),
    )


# ---------------------------------------------------------------------------
# 8. coherence identity
# ---------------------------------------------------------------------------

def criterion_coherence_identity(seed: int, n: int = 1000) -> tuple[Check, ...]:
    """Tight bound vs 4 x coherence sum on n Ginibre states; both at 1/2 on Bell states."""
    master = SeededSampler(seed)
    max_identity = 0.0
    if n:
        rho = random_state_stack("ginibre", master.derive(3000), n)
        c = correlation_components(rho).T
        gap = np.abs(4.0 * coherence_from_matrices(rho) - tight_bound_from_components(*c))
        max_identity = float(gap.max())
    kets = np.array([BellFamilyState(phi).ket() for phi in _BELL_FAMILY_PHIS])
    bell = validate_densities(_projectors(kets))
    bell_dev = max_residual(np.abs(coherence_from_matrices(bell) - 0.5))
    mixture = DensityOperator4(0.5 * bell[0] + 0.5 * _BELL_PROJECTORS[3])
    mixture_dev = abs(coherence_bound_lhs(mixture) - 0.5)
    return (
        check_le("coherence_identity_residual", max_identity, 0.0, 1e-10),
        check_le("coherence_bell_family_dev", bell_dev, 0.0, 1e-12),
        check_le("coherence_bell_mixture_dev", mixture_dev, 0.0, 1e-12),
    )


# ---------------------------------------------------------------------------
# 9. observable optima
# ---------------------------------------------------------------------------

#: Phases where criterion 9 checks the suppressed outcome and the midpoint
#: maximizer. Midpoint optimality holds where cos(phi) >= 0, i.e. phi in (0, pi/2].
_SUPPRESSED_PHIS = tuple(float(phi) for phi in np.linspace(0.0, math.pi, 50))
_MIDPOINT_PHIS = (0.4, 0.9, math.pi / 3.0, 1.3, 1.5)


def zero_probability_checks(
    curve: CurveOptimum, suppressed_phis: tuple[float, ...], midpoint_phis: tuple[float, ...]
) -> tuple[Check, ...]:
    """Checks of the CHSH curve under one zero-probability outcome.

    ``curve`` must peak at 1.25 where cos(phi) = 1/2 and the state there
    must reach the quantum CHSH value 1 + sqrt(3). At each phase of
    ``suppressed_phis`` the outcome (1, 1, -1, -1) of the balance
    alpha = beta = phi/2 must have probability zero, and at each phase of
    ``midpoint_phis`` that balance must match a brute-force grid over
    alpha + beta = phi.
    """
    chsh_at_max = chsh_value(bell_family_correlations(curve.phi))
    suppressed = []
    for phi in suppressed_phis:
        half = 0.5 * phi
        v = VisibilityPair(math.cos(half), math.sin(half))
        dist = pair_distribution_formula(bell_family_correlations(phi), v, v)
        suppressed.append(abs(dist[(1, 1, -1, -1)]))
    grid_dev = max_residual(
        abs(constrained_chsh_grid_max(phi) - zero_probability_chsh(phi)) for phi in midpoint_phis
    )
    return (
        check_close("zero_prob_curve_max", curve.value, 1.25, 1e-6),
        check_close("zero_prob_curve_argmax_cos", math.cos(curve.phi), 0.5, 1e-6),
        check_close("chsh_at_curve_argmax", chsh_at_max, 1.0 + math.sqrt(3.0), 1e-9),
        check_le("suppressed_outcome_probability", max_residual(suppressed), 0.0, 1e-12),
        check_le("constrained_maximizer_grid_dev", grid_dev, 0.0, 1e-6),
    )


def criterion_observable_optima() -> tuple[Check, ...]:
    quarter_pi = 0.25 * math.pi
    unconstrained = max_experimental_chsh(quarter_pi)
    return (
        check_close("experimental_chsh_max", unconstrained.value, math.sqrt(2.0), 1e-6),
        check_close("experimental_chsh_argmax_alpha", unconstrained.alpha, quarter_pi, 1e-6),
        check_close("experimental_chsh_argmax_beta", unconstrained.beta, quarter_pi, 1e-6),
    ) + zero_probability_checks(zero_probability_curve_max(), _SUPPRESSED_PHIS, _MIDPOINT_PHIS)


# ---------------------------------------------------------------------------
# 10. Monte Carlo consistency
# ---------------------------------------------------------------------------

def moment_gap_checks(
    dist: PairOutcomeDistribution, shots: ShotRecord
) -> tuple[list[Check], dict[str, dict[str, float]]]:
    """Each ``MONTE_CARLO_SPECS`` moment of ``shots`` within five standard errors of ``dist``.

    Every check also allows ``dist``'s own normalization error |sum(p) - 1|:
    the estimate of <1> is exactly 1 with no spread, so without it a sum one
    ulp off 1.0 would fail a correct sample. Returns the checks and, by
    moment name, the estimate, its standard error and the population value.
    """
    checks = []
    moments = {}
    norm_error = abs(pair_moment(dist, ("one", "one")) - 1.0)
    for spec in MONTE_CARLO_SPECS:
        est = estimate_moment(shots, spec)
        population = pair_moment(dist, spec)
        name = f"{spec[0]}_{spec[1]}"
        moments[name] = {
            "estimate": est.value,
            "std_error": est.std_error,
            "population": population,
        }
        gap = abs(est.value - population)
        checks.append(check_le(f"moment_gap_{name}", gap, 5.0 * est.std_error, norm_error))
    return checks, moments


def criterion_monte_carlo(seed: int, n: int = 1_000_000) -> tuple[Check, ...]:
    master = SeededSampler(seed)
    quarter_pi = 0.25 * math.pi
    v = VisibilityPair(math.cos(quarter_pi), math.sin(quarter_pi))
    dist = pair_distribution_formula(bell_family_correlations(quarter_pi), v, v)
    shots = sample_outcomes(dist, n, master.derive(100), label="bell-quarter-pi")
    checks, _ = moment_gap_checks(dist, shots)

    phi_z = math.pi / 3.0
    vz = VisibilityPair(math.cos(0.5 * phi_z), math.sin(0.5 * phi_z))
    dist_z = pair_distribution_formula(bell_family_correlations(phi_z), vz, vz)
    shots_z = sample_outcomes(dist_z, n, master.derive(101), label="zero-prob-point")
    closed_prob = _suppressed_probability(phi_z)
    suppressed = shots_z.counts[PAIR_OUTCOMES.index((1, 1, -1, -1))]
    checks.append(check_le("suppressed_outcome_count", float(suppressed), 0.0))
    checks.append(check_le("suppressed_outcome_closed_form", abs(closed_prob), 0.0, 1e-12))

    first = sample_outcomes(dist, 5000, master.derive(102))
    second = sample_outcomes(dist, 5000, master.derive(102))
    identical = shots_csv_text(first) == shots_csv_text(second)
    checks.append(check_ge("identical_seed_archives", 1.0 if identical else 0.0, 1.0))
    return tuple(checks)


# ---------------------------------------------------------------------------

#: The ten criteria in report order: (key, title, checks_of(seed, maxima)),
#: where ``maxima()`` returns the ``EnsembleMaxima`` of the run's 10^5-state
#: ensembles.
CRITERIA = (
    ("povm_positivity_grid",
     "visibility admissibility matches POVM positivity on the unit grid",
     lambda seed, maxima: criterion_povm_positivity()),
    ("outcome_product_rule",
     "outcome product averages to zero; outcome means scale by the visibilities",
     lambda seed, maxima: criterion_outcome_product_rule(seed)),
    ("bloch_disk_bound",
     "states outside the Bloch disk force negative probabilities; states inside never do",
     lambda seed, maxima: criterion_bloch_disk_bound(seed)),
    ("pair_moment_structure",
     "xy moments vanish, correlations factor, closed form matches the trace path",
     lambda seed, maxima: criterion_pair_moment_structure(seed)),
    ("tight_bound_validity",
     "tight bound holds on random ensembles and is saturated by the Bell family",
     lambda seed, maxima: criterion_tight_bound(maxima())),
    ("sup_matches_closed_form",
     "numeric angle supremum equals the two-radical closed form",
     lambda seed, maxima: criterion_sup_identity(seed)),
    ("tsirelson_corollary",
     "CHSH reaches 2*sqrt(2) on the Bell family and never exceeds it",
     lambda seed, maxima: criterion_tsirelson(maxima())),
    ("coherence_identity",
     "tight bound equals four times the coherence sum; both saturate at 1/2",
     lambda seed, maxima: criterion_coherence_identity(seed)),
    ("observable_optima",
     "observed CHSH optima: sqrt(2) unconstrained, 1.25 under a zero-probability outcome",
     lambda seed, maxima: criterion_observable_optima()),
    ("monte_carlo_consistency",
     "finite samples reproduce population moments; the suppressed outcome never occurs",
     lambda seed, maxima: criterion_monte_carlo(seed)),
)


def run_acceptance(seed: int) -> tuple[CriterionResult, ...]:
    """Evaluate every criterion of ``CRITERIA`` with one master seed, timing each.

    The ensembles are reduced to their ``EnsembleMaxima`` on first use, so
    the first criterion that asks for them (``tight_bound_validity``) is
    charged for it; only the four maxima are kept for the rest of the run.
    """
    maxima = functools.cache(lambda: build_correlation_ensembles(seed))
    results = []
    for key, title, checks_of in CRITERIA:
        start = time.perf_counter()
        checks = checks_of(seed, maxima)
        results.append(CriterionResult(key, title, checks, time.perf_counter() - start))
    return tuple(results)
