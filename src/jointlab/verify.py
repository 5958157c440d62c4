"""Acceptance suite: every headline numerical claim as an executable check.

Each criterion function measures residuals or extrema with an independent
route (closed forms, brute-force grids, sampling estimators) and returns a
tuple of named checks carrying value, bound, tolerance and a pass flag.
``run_acceptance`` evaluates all ten criteria on one master seed; the
10^5-state ensembles are generated once and shared.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    TSIRELSON_BOUND,
    chsh_from_components,
    chsh_value,
    coherence_bound_lhs,
    coherence_from_matrices,
    sup_over_angles,
    tight_bound_from_components,
    tight_bound_lhs,
)
from .joint import (
    BlochEquatorial,
    VisibilityPair,
    admissible_visibilities,
    distribution_moments,
    outcome_distribution,
    outcome_probabilities,
    povm_elements,
)
from .linalg import is_positive_semidefinite
from .pairs import (
    BellFamilyState,
    CorrelationVector,
    DensityOperator4,
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
)
from .reporting import shots_csv_text
from .sampling import (
    ChshOptimum,
    CurveOptimum,
    SeededSampler,
    constrained_chsh_grid_max,
    correlation_ensemble,
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
    "CorrelationEnsembles",
    "RUNTIME_LIMITS",
    "check_le",
    "check_ge",
    "check_close",
    "povm_grid_mismatches",
    "criterion_povm_positivity",
    "criterion_outcome_product_rule",
    "criterion_bloch_disk_bound",
    "criterion_pair_moment_structure",
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
    one batched Jacobi call.
    """
    values = np.linspace(0.0, 1.0, grid_steps)
    mismatches = 0
    for start in range(0, grid_steps, POVM_GRID_BLOCK_ROWS):
        v_x = values[start : start + POVM_GRID_BLOCK_ROWS, None]
        v_y = values[None, :]
        admissible = admissible_visibilities(v_x, v_y, tol)
        psd = is_positive_semidefinite(povm_elements(v_x, v_y), tol).all(axis=-1)
        mismatches += int(np.count_nonzero(admissible != psd))
    return mismatches


def criterion_povm_positivity(grid_steps: int = 101) -> CriterionResult:
    start = time.perf_counter()
    mismatches = povm_grid_mismatches(grid_steps)
    elapsed = time.perf_counter() - start
    checks = (check_le("povm_grid_mismatches", mismatches, 0.0),)
    return CriterionResult(
        "povm_positivity_grid",
        "visibility admissibility matches POVM positivity on the unit grid",
        checks,
        elapsed,
    )


# ---------------------------------------------------------------------------
# 2. outcome product rule and visibility scaling
# ---------------------------------------------------------------------------

def moment_identity_residuals(seed: int, n: int = 1000) -> tuple[float, float]:
    gen = SeededSampler(seed).derive(2).rng()
    max_xy = 0.0
    max_prop = 0.0
    for _ in range(n):
        v = VisibilityPair(float(gen.random()), float(gen.random()))
        s = BlochEquatorial(float(2.0 * gen.random() - 1.0), float(2.0 * gen.random() - 1.0))
        m = distribution_moments(outcome_distribution(v, s))
        max_xy = max(max_xy, abs(m.mean_xy))
        max_prop = max(max_prop, abs(m.mean_x - v.v_x * s.ex), abs(m.mean_y - v.v_y * s.ey))
    return max_xy, max_prop


def criterion_outcome_product_rule(seed: int, n: int = 1000) -> CriterionResult:
    start = time.perf_counter()
    max_xy, max_prop = moment_identity_residuals(seed, n)
    checks = (
        check_le("outcome_product_mean_max", max_xy, 0.0, 1e-14),
        check_le("visibility_scaling_residual_max", max_prop, 0.0, 1e-12),
    )
    return CriterionResult(
        "outcome_product_rule",
        "outcome product averages to zero; outcome means scale by the visibilities",
        checks,
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# 3. the Bloch disk from joint-measurement positivity
# ---------------------------------------------------------------------------

def bloch_disk_sweep(
    seed: int, state_grid: int = 41, angle_step: float = 0.01, spot_checks: int = 60
) -> tuple[float, float, float]:
    """Scan the state grid against the saturated visibility family.

    Returns (worst minimum probability over unphysical states, best-case
    minimum probability over physical states, max deviation between the
    vectorized sweep and the production distribution on a random sample).
    """
    coords = np.linspace(-1.0, 1.0, state_grid)
    ex, ey = [a.ravel() for a in np.meshgrid(coords, coords)]
    lhs = ex**2 + ey**2
    alphas = np.arange(0.0, 0.5 * math.pi + 0.5 * angle_step, angle_step)
    # min over outcomes of (1/4)(1 + x vx ex + y vy ey) at v = (cos a, sin a)
    table = 0.25 * (
        1.0 - np.abs(ex)[:, None] * np.cos(alphas)[None, :] - np.abs(ey)[:, None] * np.sin(alphas)[None, :]
    )
    min_prob = table.min(axis=1)
    unphysical = lhs > 1.0 + 1e-12
    worst_unphysical = float(min_prob[unphysical].max())
    best_physical = float(min_prob[~unphysical].min())

    gen = SeededSampler(seed).derive(3).rng()
    api_residual = 0.0
    for _ in range(spot_checks):
        i = int(gen.integers(ex.size))
        j = int(gen.integers(alphas.size))
        v = VisibilityPair(math.cos(alphas[j]), math.sin(alphas[j]))
        s = BlochEquatorial(float(ex[i]), float(ey[i]))
        sweep_value = 0.25 * (1.0 - abs(ex[i]) * math.cos(alphas[j]) - abs(ey[i]) * math.sin(alphas[j]))
        api_value = outcome_distribution(v, s).min_probability()
        api_residual = max(api_residual, abs(api_value - sweep_value))
    return worst_unphysical, best_physical, api_residual


def criterion_bloch_disk_bound(seed: int) -> CriterionResult:
    start = time.perf_counter()
    worst_unphysical, best_physical, api_residual = bloch_disk_sweep(seed)
    checks = (
        check_le("unphysical_state_witness_probability", worst_unphysical, -1e-9),
        check_ge("physical_state_min_probability", best_physical, 0.0, 1e-12),
        check_le("sweep_vs_distribution_residual", api_residual, 0.0, 1e-15),
    )
    return CriterionResult(
        "bloch_disk_bound",
        "states outside the Bloch disk force negative probabilities; states inside never do",
        checks,
        time.perf_counter() - start,
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
    out = np.empty((n, 2))
    for k, (u, radius) in enumerate(gen.random((n, 2)).tolist()):
        theta = 0.5 * math.pi * u
        out[k] = radius * math.cos(theta), radius * math.sin(theta)
    return out


def pair_structure_residuals(
    seed: int, n: int = 1000, marginal_states: int = 200
) -> tuple[float, float, float, float, float]:
    """Residuals of the pair-moment structure on certified stacks of random states.

    ``n`` Bell-diagonal states (streams 1000 + i) give the xy moments, the
    factorization residual, the formula-vs-trace residual and the smallest
    probability; ``marginal_states`` Ginibre states (streams 2000 + i) give
    the marginal residual. Each state takes two visibility pairs from stream
    4, in that order.
    """
    master = SeededSampler(seed)
    vis = _random_admissible_visibilities(master.derive(4).rng(), 2 * (n + marginal_states))
    va, vb = vis[0::2], vis[1::2]
    max_xy = max_factor = max_formula = max_marginal = 0.0
    min_prob = math.inf
    if n:
        rho = random_state_stack("bell-diagonal", [master.derive(1000 + i) for i in range(n)])
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
        samplers = [master.derive(2000 + i) for i in range(marginal_states)]
        rho = random_state_stack("ginibre", samplers)
        probs, _ = pair_probabilities_trace(rho, va[n:], vb[n:])
        means = local_mean_components(rho)
        marg_a, marg_b = pair_marginals(probs)
        local_a = outcome_probabilities(va[n:, 0], va[n:, 1], means[:, 0], means[:, 1])
        local_b = outcome_probabilities(vb[n:, 0], vb[n:, 1], means[:, 2], means[:, 3])
        max_marginal = float(max(np.abs(marg_a - local_a).max(), np.abs(marg_b - local_b).max()))
    return max_xy, max_factor, max_formula, max_marginal, min_prob


def criterion_pair_moment_structure(seed: int, n: int = 1000) -> CriterionResult:
    start = time.perf_counter()
    max_xy, max_factor, max_formula, max_marginal, min_prob = pair_structure_residuals(seed, n)
    checks = (
        check_le("pair_xy_moment_max", max_xy, 0.0, 1e-12),
        check_le("correlation_factorization_residual", max_factor, 0.0, 1e-12),
        check_le("formula_vs_trace_residual", max_formula, 0.0, 1e-11),
        check_le("marginal_consistency_residual", max_marginal, 0.0, 1e-12),
        check_ge("pair_min_probability", min_prob, 0.0, 1e-12),
    )
    return CriterionResult(
        "pair_moment_structure",
        "xy moments vanish, correlations factor, closed form matches the trace path",
        checks,
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# 5 + 7. random-state ensembles for the tight bound and the CHSH corollary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationEnsembles:
    """Correlations of 10^5-scale random pure and mixed ensembles."""

    pure: np.ndarray
    mixed: np.ndarray
    elapsed: float


def build_correlation_ensembles(seed: int, n: int = 100_000) -> CorrelationEnsembles:
    start = time.perf_counter()
    master = SeededSampler(seed)
    pure = correlation_ensemble(n, master.derive(50), "haar")
    mixed = correlation_ensemble(n, master.derive(51), "ginibre")
    return CorrelationEnsembles(pure, mixed, time.perf_counter() - start)


def _ensemble_max(ens: CorrelationEnsembles, fn) -> tuple[float, float]:
    vp = fn(ens.pure[:, 0], ens.pure[:, 1], ens.pure[:, 2], ens.pure[:, 3])
    vm = fn(ens.mixed[:, 0], ens.mixed[:, 1], ens.mixed[:, 2], ens.mixed[:, 3])
    return float(vp.max()), float(vm.max())


def criterion_tight_bound(ens: CorrelationEnsembles, n_phis: int = 100) -> CriterionResult:
    start = time.perf_counter()
    max_pure, max_mixed = _ensemble_max(ens, tight_bound_from_components)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phis, endpoint=False)
    bell_dev = max(abs(tight_bound_lhs(bell_family_correlations(float(p))) - 2.0) for p in phis)
    checks = (
        check_le("tight_bound_max_pure", max_pure, 2.0, 1e-9),
        check_le("tight_bound_max_mixed", max_mixed, 2.0, 1e-9),
        check_close("tight_bound_bell_family", bell_dev, 0.0, 1e-12),
    )
    elapsed = ens.elapsed + (time.perf_counter() - start)
    return CriterionResult(
        "tight_bound_validity",
        "tight bound holds on random ensembles and is saturated by the Bell family",
        checks,
        elapsed,
    )


# ---------------------------------------------------------------------------
# 6. numeric supremum equals the closed form
# ---------------------------------------------------------------------------

def sup_identity_residual(seed: int, n: int = 1000) -> float:
    gen = SeededSampler(seed).derive(6).rng()
    worst = 0.0
    for _ in range(n):
        c = CorrelationVector(*(2.0 * gen.random(4) - 1.0))
        worst = max(worst, abs(sup_over_angles(c) - tight_bound_lhs(c)))
    return worst


def criterion_sup_identity(seed: int, n: int = 1000) -> CriterionResult:
    start = time.perf_counter()
    worst = sup_identity_residual(seed, n)
    checks = (check_le("sup_vs_closed_form_residual", worst, 0.0, 1e-9),)
    return CriterionResult(
        "sup_matches_closed_form",
        "numeric angle supremum equals the two-radical closed form",
        checks,
        time.perf_counter() - start,
    )


def criterion_tsirelson(ens: CorrelationEnsembles) -> CriterionResult:
    start = time.perf_counter()
    bell_value = chsh_value(bell_family_correlations(0.25 * math.pi))
    max_pure, max_mixed = _ensemble_max(ens, chsh_from_components)
    checks = (
        check_close("chsh_bell_quarter_pi", bell_value, TSIRELSON_BOUND, 1e-12),
        check_le("chsh_max_pure", max_pure, TSIRELSON_BOUND, 1e-9),
        check_le("chsh_max_mixed", max_mixed, TSIRELSON_BOUND, 1e-9),
    )
    return CriterionResult(
        "tsirelson_corollary",
        "CHSH reaches 2*sqrt(2) on the Bell family and never exceeds it",
        checks,
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# 8. coherence identity
# ---------------------------------------------------------------------------

def coherence_identity_residuals(seed: int, n: int = 1000) -> tuple[float, float, float]:
    master = SeededSampler(seed)
    max_identity = 0.0
    if n:
        rho = random_state_stack("ginibre", [master.derive(3000 + i) for i in range(n)])
        c = correlation_components(rho).T
        gap = np.abs(4.0 * coherence_from_matrices(rho) - tight_bound_from_components(*c))
        max_identity = float(gap.max())
    bell_dev = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
        rho = BellFamilyState(float(phi)).to_density()
        bell_dev = max(bell_dev, abs(coherence_bound_lhs(rho) - 0.5))
    singlet_type = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    mixture = DensityOperator4(
        0.5 * BellFamilyState(0.0).to_density().mat
        + 0.5 * np.outer(singlet_type, singlet_type.conj())
    )
    mixture_dev = abs(coherence_bound_lhs(mixture) - 0.5)
    return max_identity, bell_dev, mixture_dev


def criterion_coherence_identity(seed: int, n: int = 1000) -> CriterionResult:
    start = time.perf_counter()
    max_identity, bell_dev, mixture_dev = coherence_identity_residuals(seed, n)
    checks = (
        check_le("coherence_identity_residual", max_identity, 0.0, 1e-10),
        check_le("coherence_bell_family_dev", bell_dev, 0.0, 1e-12),
        check_le("coherence_bell_mixture_dev", mixture_dev, 0.0, 1e-12),
    )
    return CriterionResult(
        "coherence_identity",
        "tight bound equals four times the coherence sum; both saturate at 1/2",
        checks,
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# 9. observable optima
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimaResults:
    unconstrained: ChshOptimum
    curve: CurveOptimum
    chsh_at_curve_max: float
    suppressed_prob_max: float
    constrained_grid_dev: float


def observable_optima(n_zero_checks: int = 50) -> OptimaResults:
    quarter_pi = 0.25 * math.pi
    unconstrained = max_experimental_chsh(quarter_pi)
    curve = zero_probability_curve_max()
    chsh_at_max = chsh_value(bell_family_correlations(curve.phi))

    suppressed = 0.0
    for phi in np.linspace(0.0, math.pi, n_zero_checks):
        phi = float(phi)
        half = 0.5 * phi
        v = VisibilityPair(math.cos(half), math.sin(half))
        dist = pair_distribution_formula(bell_family_correlations(phi), v, v)
        suppressed = max(suppressed, abs(dist.probs[(1, 1, -1, -1)]))

    grid_dev = 0.0
    # midpoint optimality holds where cos(phi) >= 0, i.e. phi in (0, pi/2]
    for phi in (0.4, 0.9, math.pi / 3.0, 1.3, 1.5):
        grid_dev = max(grid_dev, abs(constrained_chsh_grid_max(phi) - zero_probability_chsh(phi)))
    return OptimaResults(unconstrained, curve, chsh_at_max, suppressed, grid_dev)


def criterion_observable_optima() -> CriterionResult:
    start = time.perf_counter()
    res = observable_optima()
    quarter_pi = 0.25 * math.pi
    checks = (
        check_close("experimental_chsh_max", res.unconstrained.value, math.sqrt(2.0), 1e-6),
        check_close("experimental_chsh_argmax_alpha", res.unconstrained.alpha, quarter_pi, 1e-6),
        check_close("experimental_chsh_argmax_beta", res.unconstrained.beta, quarter_pi, 1e-6),
        check_close("zero_prob_curve_max", res.curve.value, 1.25, 1e-6),
        check_close("zero_prob_curve_argmax_cos", math.cos(res.curve.phi), 0.5, 1e-6),
        check_close("chsh_at_curve_argmax", res.chsh_at_curve_max, 1.0 + math.sqrt(3.0), 1e-9),
        check_le("suppressed_outcome_probability", res.suppressed_prob_max, 0.0, 1e-12),
        check_le("constrained_maximizer_grid_dev", res.constrained_grid_dev, 0.0, 1e-6),
    )
    return CriterionResult(
        "observable_optima",
        "observed CHSH optima: sqrt(2) unconstrained, 1.25 under a zero-probability outcome",
        checks,
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# 10. Monte Carlo consistency
# ---------------------------------------------------------------------------

def criterion_monte_carlo(seed: int, n: int = 1_000_000) -> CriterionResult:
    start = time.perf_counter()
    master = SeededSampler(seed)
    quarter_pi = 0.25 * math.pi
    v = VisibilityPair(math.cos(quarter_pi), math.sin(quarter_pi))
    dist = pair_distribution_formula(bell_family_correlations(quarter_pi), v, v)
    shots = sample_outcomes(dist, n, master.derive(100), label="bell-quarter-pi")
    checks = []
    for spec in MONTE_CARLO_SPECS:
        est = estimate_moment(shots, spec)
        population = pair_moment(dist, spec)
        checks.append(
            check_le(
                f"moment_gap_{spec[0]}_{spec[1]}",
                abs(est.value - population),
                5.0 * est.std_error,
            )
        )

    phi_z = math.pi / 3.0
    vz = VisibilityPair(math.cos(0.5 * phi_z), math.sin(0.5 * phi_z))
    dist_z = pair_distribution_formula(bell_family_correlations(phi_z), vz, vz)
    shots_z = sample_outcomes(dist_z, n, master.derive(101), label="zero-prob-point")
    suppressed_rows = np.all(shots_z.outcomes == np.array([1, 1, -1, -1], dtype=np.int8), axis=1)
    closed_prob = (1.0 / 16.0) * (1.0 - math.cos(0.5 * phi_z + 0.5 * phi_z - phi_z))
    checks.append(check_le("suppressed_outcome_count", float(suppressed_rows.sum()), 0.0))
    checks.append(check_le("suppressed_outcome_closed_form", abs(closed_prob), 0.0, 1e-12))

    first = sample_outcomes(dist, 5000, master.derive(102))
    second = sample_outcomes(dist, 5000, master.derive(102))
    identical = shots_csv_text(first) == shots_csv_text(second)
    checks.append(check_ge("identical_seed_archives", 1.0 if identical else 0.0, 1.0))
    return CriterionResult(
        "monte_carlo_consistency",
        "finite samples reproduce population moments; the suppressed outcome never occurs",
        tuple(checks),
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------

def run_acceptance(seed: int = 7) -> tuple[CriterionResult, ...]:
    """Evaluate all ten acceptance criteria with one master seed."""
    ensembles = build_correlation_ensembles(seed)
    return (
        criterion_povm_positivity(),
        criterion_outcome_product_rule(seed),
        criterion_bloch_disk_bound(seed),
        criterion_pair_moment_structure(seed),
        criterion_tight_bound(ensembles),
        criterion_sup_identity(seed),
        criterion_tsirelson(ensembles),
        criterion_coherence_identity(seed),
        criterion_observable_optima(),
        criterion_monte_carlo(seed),
    )
