"""The check suites behind the CLI subcommands, composed of the ``verify`` criteria.

Each suite returns a results payload (plot-ready scalars and tables) plus a
list of checks. Every check that a criterion of ``verify`` also makes comes
from that criterion or its check function, run at the subcommand's sizes:
residual-style checks compare against the run tolerance, and physics
constants (bound values, optima) keep their pinned tolerances so a looser
run tolerance cannot hide a broken invariant. The checks built here are
those no criterion makes: two single-qubit residuals, the POVM-grid count
under the name ``single`` reports it by, the bound checks on one state and
the CHSH-surface table checks.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import (
    TSIRELSON_BOUND,
    chsh_value,
    coherence_bound_lhs,
    simplified_bound_lhs,
    sup_over_angles,
    tight_bound_lhs,
)
from .joint import (
    VisibilityPair,
    equatorial_densities,
    outcome_probabilities,
    povm_elements,
)
from .pairs import (
    BellFamilyState,
    DensityOperator4,
    bell_family_correlations,
    correlations_of_state,
    pair_distribution_formula,
)
from .sampling import (
    SeededSampler,
    ShotRecord,
    chsh_surface,
    max_experimental_chsh,
    random_state_stack,
    sample_outcomes,
    zero_probability_curve,
    zero_probability_curve_max,
)
from .verify import (
    Check,
    check_close,
    check_le,
    criterion_bloch_disk_bound,
    criterion_outcome_product_rule,
    criterion_pair_moment_structure,
    max_residual,
    moment_gap_checks,
    povm_grid_mismatches,
    run_acceptance,
    sup_identity_residual,
    zero_probability_checks,
)

__all__ = [
    "run_single_suite",
    "run_pair_suite",
    "run_bound_suite",
    "run_scan_suite",
    "run_sample_suite",
    "run_verify_suite",
    "SCAN_KINDS",
]

SCAN_KINDS = ("chsh-surface", "zero-prob-curve")

#: How close a bound's left-hand side must come to its value to count as saturating it.
SATURATION_TOL = 1e-6


def _completeness_residual(seed: int) -> float:
    """Largest |sum of the four POVM elements - I| over 200 random visibility pairs."""
    v = SeededSampler(seed).derive(20).rng().random((200, 2))
    total = povm_elements(v[:, 0], v[:, 1]).sum(axis=-3)
    return max_residual(np.abs(total - np.eye(2)).max(axis=(-2, -1)))


def _distribution_trace_residual(seed: int) -> float:
    """Largest |P(x, y) - tr(rho E(x, y))| over 1000 random visibility pairs and disk states."""
    v_x, v_y, turn, radius = SeededSampler(seed).derive(21).rng().random((1000, 4)).T
    theta = 2.0 * math.pi * turn
    ex, ey = radius * np.cos(theta), radius * np.sin(theta)
    traced = np.einsum("nij,nkji->nk", equatorial_densities(ex, ey), povm_elements(v_x, v_y)).real
    return max_residual(np.abs(outcome_probabilities(v_x, v_y, ex, ey) - traced).ravel())


def run_single_suite(seed: int, tolerance: float, grid_steps: int) -> tuple[dict, list[Check]]:
    """Single-qubit checks: POVM completeness, outcome statistics, both bounds."""
    checks = [
        check_le("povm_completeness_residual", _completeness_residual(seed), 0.0, tolerance),
        check_le(
            "distribution_vs_trace_residual", _distribution_trace_residual(seed), 0.0, tolerance
        ),
        *criterion_outcome_product_rule(seed, tolerance=tolerance),
        check_le("admissibility_psd_mismatches", povm_grid_mismatches(grid_steps), 0.0),
        *criterion_bloch_disk_bound(seed, tolerance=tolerance),
    ]
    results = {"grid_steps": grid_steps}
    results.update((c.name, c.value) for c in checks if c.name != "sweep_vs_distribution_residual")
    return results, checks


def run_pair_suite(seed: int, tolerance: float) -> tuple[dict, list[Check]]:
    """Two-qubit checks: moment structure, factorization, closed form vs trace."""
    checks = criterion_pair_moment_structure(seed, 400, marginal_states=100, tolerance=tolerance)
    return {"states": 400, **{c.name: c.value for c in checks}}, list(checks)


def _resolve_state(
    state: str, phi: float, seed: int, state_matrix: np.ndarray | None
) -> tuple[DensityOperator4, str]:
    master = SeededSampler(seed)
    if state == "bell":
        return BellFamilyState(phi).to_density(), f"bell(phi={phi})"
    if state == "haar":
        rho = random_state_stack("haar", master.derive(70), 1)[0]
        return DensityOperator4(rho), "haar-random pure"
    if state == "mixed":
        rho = random_state_stack("ginibre", master.derive(71), 1)[0]
        return DensityOperator4(rho), "ginibre-random mixed"
    if state == "file":
        if state_matrix is None:
            raise ValueError("--state file requires --state-file")
        return DensityOperator4(state_matrix), "user-supplied"
    raise ValueError(f"unknown state kind {state!r}")


def run_bound_suite(
    seed: int, tolerance: float, state: str, phi: float, state_matrix: np.ndarray | None
) -> tuple[dict, list[Check]]:
    """Bound checks for one state plus the angle-supremum identity on random vectors."""
    rho, state_label = _resolve_state(state, phi, seed, state_matrix)
    c = correlations_of_state(rho)
    tight, simplified, chsh = tight_bound_lhs(c), simplified_bound_lhs(c), chsh_value(c)
    coherence, sup = coherence_bound_lhs(rho), sup_over_angles(c)
    sup_residual = sup_identity_residual(SeededSampler(seed).derive(72), 200)
    checks = [
        check_le("tight_bound_lhs", tight, 2.0, tolerance),
        check_le("simplified_bound_lhs", simplified, 4.0, tolerance),
        check_le("chsh_value", chsh, TSIRELSON_BOUND, tolerance),
        check_le("coherence_bound_lhs", coherence, 0.5, tolerance),
        check_close("coherence_tight_identity", 4.0 * coherence, tight, max(tolerance, 1e-10)),
        check_close("sup_vs_closed_form_state", sup, tight, tolerance),
        check_le("sup_vs_closed_form_random_max", sup_residual, 0.0, tolerance),
    ]
    if state == "bell":
        checks.append(check_close("tight_bound_saturation", tight, 2.0, tolerance))
        checks.append(check_close("coherence_saturation", coherence, 0.5, tolerance))
    results = {
        "state": state_label,
        "correlations": {
            "c_xx": c.c_xx,
            "c_xy": c.c_xy,
            "c_yx": c.c_yx,
            "c_yy": c.c_yy,
        },
        "tight_bound_lhs": tight,
        "simplified_bound_lhs": simplified,
        "chsh": chsh,
        "coherence_lhs": coherence,
        "sup_over_angles": sup,
        "saturating": {
            "tight": abs(tight - 2.0) <= SATURATION_TOL,
            "simplified": abs(simplified - 4.0) <= SATURATION_TOL,
            "chsh": abs(chsh - TSIRELSON_BOUND) <= SATURATION_TOL,
            "coherence": abs(coherence - 0.5) <= SATURATION_TOL,
        },
    }
    return results, checks


def run_scan_suite(what: str, phi: float, grid_steps: int) -> tuple[dict, list[Check]]:
    """Observable-statistics scans: the CHSH surface or the zero-probability curve.

    The table is an ``(n, k)`` float64 array: ``[alpha, beta, value]`` rows with
    alpha outer for the surface, ``[phi, value]`` rows for the curve.
    """
    if what == "chsh-surface":
        if not 0.0 <= phi <= 0.5 * math.pi:
            raise ValueError("chsh-surface scan requires phi in [0, pi/2]")
        angles, surface = chsh_surface(phi, grid_steps)
        opt = max_experimental_chsh(phi, grid_steps=max(grid_steps, 64))
        closed_form = math.cos(phi) + math.sin(phi)
        table = np.column_stack(
            [np.repeat(angles, grid_steps), np.tile(angles, grid_steps), surface.ravel()]
        )
        checks = [
            check_close("chsh_surface_max", opt.value, closed_form, 1e-6),
            check_le("chsh_surface_grid_max", float(surface.max()), opt.value, 1e-12),
        ]
        results = {
            "phi": phi,
            "grid_steps": grid_steps,
            "max_value": opt.value,
            "argmax_alpha": opt.alpha,
            "argmax_beta": opt.beta,
            "table_columns": ["alpha", "beta", "value"],
            "table": table,
        }
        return results, checks
    if what == "zero-prob-curve":
        phis = np.linspace(0.0, math.pi, grid_steps)
        values = zero_probability_curve(np.cos(phis))
        step = math.pi / max(grid_steps - 1, 1)
        curve = zero_probability_curve_max(step=min(step, 1e-4))
        checks = list(zero_probability_checks(curve, (curve.phi,), (curve.phi,)))
        value = {c.name: c.value for c in checks}
        results = {
            "grid_steps": grid_steps,
            "max_value": value["zero_prob_curve_max"],
            "argmax_phi": curve.phi,
            "argmax_cos_phi": value["zero_prob_curve_argmax_cos"],
            "chsh_at_argmax": value["chsh_at_curve_argmax"],
            "table_columns": ["phi", "value"],
            "table": np.column_stack([phis, values]),
        }
        return results, checks
    raise ValueError(f"unknown scan kind {what!r}; expected one of {SCAN_KINDS}")


def run_sample_suite(
    seed: int, n_shots: int, phi: float, alpha: float, beta: float
) -> tuple[dict, list[Check], ShotRecord]:
    """Monte Carlo sampling of one configuration, estimates vs population values."""
    for name, angle in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= angle <= 0.5 * math.pi:
            raise ValueError(f"{name} must lie in [0, pi/2] to define visibilities")
    va = VisibilityPair(math.cos(alpha), math.sin(alpha))
    vb = VisibilityPair(math.cos(beta), math.sin(beta))
    dist = pair_distribution_formula(bell_family_correlations(phi), va, vb)
    shots = sample_outcomes(
        dist,
        n_shots,
        SeededSampler(seed).derive(200),
        label=f"bell(phi={phi});alpha={alpha};beta={beta}",
    )
    checks, moments = moment_gap_checks(dist, shots)
    results = {
        "n_shots": n_shots,
        "phi": phi,
        "alpha": alpha,
        "beta": beta,
        "source": shots.source,
        "moments": moments,
    }
    return results, checks, shots


def run_verify_suite(seed: int) -> tuple[dict, list[Check]]:
    """The full acceptance suite; wall-clock figures are reported by the tests only."""
    criteria = run_acceptance(seed)
    checks: list[Check] = []
    summary = {}
    for criterion in criteria:
        checks.extend(criterion.checks)
        summary[criterion.key] = {
            "title": criterion.title,
            "passed": criterion.passed,
        }
    return {"criteria": summary}, checks
