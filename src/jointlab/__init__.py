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
    AnglePair,
    BoundReport,
    SignedVisibilities,
    angle_inequality_lhs,
    bound_report,
    chsh_value,
    coherence_bound_lhs,
    coherence_from_matrices,
    outcome_bound_lhs,
    selected_outcome,
    signed_visibilities,
    simplified_bound_lhs,
    sup_over_angles,
    tight_bound_lhs,
)
from .joint import (
    FACTOR_SIGNS,
    OUTCOMES,
    BlochEquatorial,
    Moments,
    SingleOutcomeDistribution,
    VisibilityPair,
    admissible_visibilities,
    bloch_bound_lhs,
    check_visibility_admissible,
    distribution_moments,
    equatorial_density,
    outcome_distribution,
    outcome_probabilities,
    povm_element,
    povm_elements,
    state_positivity_lhs,
)
from .linalg import (
    ConvergenceError,
    Spectrum,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    is_hermitian,
    is_positive_semidefinite,
    is_unit_trace,
    matmul,
    pauli,
    tensor_product,
    trace,
)
from .pairs import (
    PAIR_OUTCOMES,
    PAULI_PAIRS,
    BellFamilyState,
    CorrelationVector,
    DensityOperator4,
    LocalMeans,
    PairOutcomeDistribution,
    bell_family_correlations,
    correlation_components,
    correlation_moments,
    correlations_of_state,
    local_mean_components,
    local_means_of_state,
    moment_signs,
    pair_distribution_formula,
    pair_distribution_trace,
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
    ViolationSearchResult,
    bell_diagonal_random_state,
    bound_violation_search,
    coherence_ensemble,
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

__version__ = "0.1.0"
