"""Joint-measurement statistics lab for qubit pairs.

Simulates uncertainty-limited joint measurements of the equatorial qubit
components X and Y, the 16-outcome statistics of two such measurements
performed locally on a qubit pair, and the positivity bounds those
statistics impose on two-qubit correlations -- including the tight
two-radical bound, its coherence form, and the Tsirelson bound as a
corollary -- together with a seeded Monte Carlo layer and a CLI that
reproduces every headline number.
"""

from .bounds import (
    TSIRELSON_BOUND,
    chsh_value,
    coherence_bound_lhs,
    coherence_from_matrices,
    simplified_bound_lhs,
    sup_over_angles,
    tight_bound_lhs,
)
from .joint import (
    FACTOR_SIGNS,
    OUTCOMES,
    VisibilityPair,
    admissible_visibilities,
    bloch_bound_lhs,
    equatorial_densities,
    outcome_moments,
    outcome_probabilities,
    povm_elements,
)
from .linalg import (
    hermitian_eigenvalues,
    is_positive_semidefinite,
    pauli,
)
from .pairs import (
    PAIR_OUTCOMES,
    PAULI_PAIRS,
    BellFamilyState,
    CorrelationVector,
    DensityOperator4,
    PairOutcomeDistribution,
    bell_family_correlations,
    correlation_components,
    correlation_moments,
    correlations_of_state,
    local_mean_components,
    moment_signs,
    pair_distribution_formula,
    pair_marginals,
    pair_moment,
    pair_probabilities_formula,
    pair_probabilities_trace,
    pure_density,
    validate_densities,
)
from .sampling import (
    ChshOptimum,
    CurveOptimum,
    EstimateWithError,
    SeededSampler,
    ShotRecord,
    chsh_surface,
    constrained_chsh_grid_max,
    correlation_ensemble,
    estimate_moment,
    experimental_chsh,
    max_experimental_chsh,
    random_state_stack,
    sample_outcomes,
    zero_probability_chsh,
    zero_probability_curve,
    zero_probability_curve_max,
)

__version__ = "0.1.0"
