"""Random states, seeded outcome sampling, and the observable-statistics optima.

Randomness policy: every public operation takes a ``SeededSampler`` naming a
counter-based bit generator (Philox) plus a 64-bit seed, and Gaussian
variates are produced by a Box-Muller transform of uniform pairs drawn from
that stream. Identical (seed, algorithm_id) therefore reproduce results
bit-for-bit, independent of library version details of higher-level
distributions.

The experiment helpers evaluate the CHSH combination actually observed
through two saturated local joint measurements on a maximally entangled
state,

    cos(alpha - beta) cos(phi) + sin(alpha + beta) sin(phi),

whose unconstrained maximum is sqrt(2) (at alpha = beta = pi/4), and whose
maximum subject to one outcome having probability zero (alpha + beta = phi)
is 1 + cos(phi) - cos(phi)**2, peaking at 1.25 when cos(phi) = 1/2.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    AnglePair,
    _golden_section_max,
    chsh_from_components,
    coherence_from_matrices,
    tight_bound_from_components,
)
from .pairs import (
    PAIR_OUTCOMES,
    PAULI_PAIRS,
    DensityOperator4,
    MomentSpec,
    PairOutcomeDistribution,
    moment_signs,
    validate_densities,
)

__all__ = [
    "SeededSampler",
    "ShotRecord",
    "EstimateWithError",
    "ChshOptimum",
    "CurveOptimum",
    "ViolationSearchResult",
    "haar_random_pure_state",
    "ginibre_random_mixed_state",
    "bell_diagonal_random_state",
    "random_state_stack",
    "correlation_ensemble",
    "coherence_ensemble",
    "sample_outcomes",
    "estimate_moment",
    "experimental_chsh",
    "max_experimental_chsh",
    "zero_probability_chsh",
    "zero_probability_curve_max",
    "constrained_chsh_grid_max",
    "bound_violation_search",
]

_ALGORITHMS = {"philox-boxmuller-v1": np.random.Philox}

#: Probabilities below this are floating-point zeros; treated as exact zeros
#: when building a sampling CDF so analytically suppressed outcomes can
#: never appear in a finite sample.
_PROB_FLOOR = 4.0 * np.finfo(float).eps

_BELL_KETS = (
    np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0),
    np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
    np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
    np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
)
_BELL_PROJECTORS = tuple(np.outer(ket, ket.conj()) for ket in _BELL_KETS)

_PAIR_OUTCOME_ARRAY = np.array(PAIR_OUTCOMES, dtype=np.int8)
_PAIR_OUTCOME_ARRAY.setflags(write=False)


@dataclass(frozen=True)
class SeededSampler:
    """Named, versioned pseudorandom stream specification.

    ``rng()`` builds a fresh generator each call, so the same sampler value
    always reproduces the same draws.
    """

    seed: int
    algorithm_id: str = "philox-boxmuller-v1"

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.algorithm_id not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm_id {self.algorithm_id!r}")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(_ALGORITHMS[self.algorithm_id](key=self.seed))

    def derive(self, index: int) -> "SeededSampler":
        """Independent child stream for task ``index`` of this master seed."""
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(index),))
        return SeededSampler(int(child.generate_state(1, np.uint64)[0]), self.algorithm_id)

    def describe(self) -> str:
        return f"{self.algorithm_id}:{self.seed}"


def _standard_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller transform of uniform pairs; deterministic given the stream."""
    half = (count + 1) // 2
    u1 = gen.random(half)
    u2 = gen.random(half)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], log is finite
    angle = (2.0 * math.pi) * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]


def _complex_normals(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    count = int(np.prod(shape))
    z = _standard_normals(gen, 2 * count)
    return (z[:count] + 1j * z[count:]).reshape(shape)


def _haar_kets(gen: np.random.Generator, n: int) -> np.ndarray:
    psi = _complex_normals(gen, (n, 4))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def _ginibre_rhos(gen: np.random.Generator, n: int) -> np.ndarray:
    return _ginibre_from_normals(_complex_normals(gen, (n, 4, 4)))


def _ginibre_from_normals(g: np.ndarray) -> np.ndarray:
    """G G^dagger / tr(G G^dagger) for an (n, 4, 4) stack of complex Gaussian G."""
    rho = np.einsum("nij,nkj->nik", g, g.conj())
    tr = np.einsum("nii->n", rho).real
    return rho / tr[:, None, None]


#: Correlation operators XX, XY, YX, YY.
_CORR_OPS = PAULI_PAIRS[:4]


def _correlations_from_kets(psi: np.ndarray) -> np.ndarray:
    return np.einsum("ni,kij,nj->nk", psi.conj(), _CORR_OPS, psi).real


def _correlations_from_rhos(rho: np.ndarray) -> np.ndarray:
    return np.einsum("nij,kji->nk", rho, _CORR_OPS).real


def haar_random_pure_state(s: SeededSampler) -> DensityOperator4:
    """Rank-1 state from a normalized complex Gaussian 4-vector (Haar measure)."""
    psi = _haar_kets(s.rng(), 1)[0]
    return DensityOperator4(np.outer(psi, psi.conj()))


def ginibre_random_mixed_state(s: SeededSampler) -> DensityOperator4:
    """Full-rank state G G^dagger / tr(G G^dagger) for complex Gaussian G."""
    return DensityOperator4(_ginibre_rhos(s.rng(), 1)[0])


def bell_diagonal_random_state(s: SeededSampler) -> DensityOperator4:
    """Random convex mixture of the four Bell states (uniform simplex weights).

    Every such state has exactly vanishing local X and Y means, which makes
    the family the canonical test set for the closed-form pair distribution.
    """
    return DensityOperator4(_bell_mixtures(s.rng().random(3)))


def _bell_mixtures(cuts: np.ndarray) -> np.ndarray:
    """Bell-diagonal states weighted by the gaps between (..., 3) sorted uniform cuts."""
    cuts = np.sort(cuts, axis=-1)
    ends = np.zeros(cuts.shape[:-1] + (1,))
    weights = np.diff(np.concatenate([ends, cuts, ends + 1.0], axis=-1), axis=-1)
    rho = np.zeros(cuts.shape[:-1] + (4, 4), dtype=np.complex128)
    for k, projector in enumerate(_BELL_PROJECTORS):
        rho += weights[..., k, None, None] * projector
    return rho


#: Per stackable kind: the raw draw one state takes from its generator (as
#: the lone generator takes it) and the function that turns stacked draws
#: into states.
_STATE_KINDS = {
    "bell-diagonal": (lambda gen: gen.random(3), _bell_mixtures),
    "ginibre": (lambda gen: _complex_normals(gen, (4, 4)), _ginibre_from_normals),
}


def random_state_stack(kind: str, samplers) -> np.ndarray:
    """Certified (n, 4, 4) stack of random states, member i drawn from ``samplers[i]``.

    ``kind`` is "bell-diagonal" or "ginibre". Member i is bit-identical to
    ``bell_diagonal_random_state(samplers[i])`` or
    ``ginibre_random_mixed_state(samplers[i])``; the whole stack is certified
    by one ``validate_densities`` call instead of one ``DensityOperator4``
    per state.
    """
    if kind not in _STATE_KINDS:
        raise ValueError(f"unknown stack kind {kind!r}; expected one of {tuple(_STATE_KINDS)}")
    draw, build = _STATE_KINDS[kind]
    return validate_densities(build(np.stack([draw(s.rng()) for s in samplers])))


def correlation_ensemble(n: int, s: SeededSampler, kind: str = "haar") -> np.ndarray:
    """(n, 4) array of correlations (c_xx, c_xy, c_yx, c_yy) of random states."""
    if n < 1:
        raise ValueError(f"ensemble size must be positive, got {n}")
    gen = s.rng()
    if kind == "haar":
        return _correlations_from_kets(_haar_kets(gen, n))
    if kind == "ginibre":
        return _correlations_from_rhos(_ginibre_rhos(gen, n))
    raise ValueError(f"unknown ensemble kind {kind!r}")


def coherence_ensemble(n: int, s: SeededSampler, kind: str = "haar") -> np.ndarray:
    """|<00|rho|11>| + |<10|rho|01>| for n random states.

    Drawn from the same stream as ``correlation_ensemble``, so equal samplers
    describe the same states.
    """
    if n < 1:
        raise ValueError(f"ensemble size must be positive, got {n}")
    gen = s.rng()
    if kind == "haar":
        psi = _haar_kets(gen, n)
        return np.abs(psi[:, 0] * psi[:, 3].conj()) + np.abs(psi[:, 2] * psi[:, 1].conj())
    if kind == "ginibre":
        return coherence_from_matrices(_ginibre_rhos(gen, n))
    raise ValueError(f"unknown ensemble kind {kind!r}")


@dataclass(frozen=True)
class ShotRecord:
    """Finite sample of pair outcomes.

    ``outcomes`` is an (n, 4) int8 array of +-1 rows (x_a, y_a, x_b, y_b);
    ``source`` documents the distribution and sampler that produced it.
    """

    outcomes: np.ndarray
    n: int
    source: str

    def __post_init__(self):
        out = np.asarray(self.outcomes, dtype=np.int8)
        if out.shape != (self.n, 4):
            raise ValueError(f"expected outcome shape ({self.n}, 4), got {out.shape}")
        out.setflags(write=False)
        object.__setattr__(self, "outcomes", out)


@dataclass(frozen=True)
class EstimateWithError:
    """Sample mean with its standard error."""

    value: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("standard error must be non-negative")


def sample_outcomes(
    d: PairOutcomeDistribution, n: int, s: SeededSampler, label: str = ""
) -> ShotRecord:
    """Draw n outcomes by inverse-CDF on the fixed outcome ordering.

    Distributions with entries below -1e-12 cannot be sampled. Entries
    within floating-point noise of zero are treated as exact zeros, so an
    analytically suppressed outcome never shows up in the sample.
    """
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    p = d.as_array()
    if p.min() < -1e-12:
        raise ValueError("distribution has negative entries and cannot be sampled")
    p = np.where(p < _PROB_FLOOR, 0.0, p)
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    u = s.rng().random(n)
    idx = np.searchsorted(cdf, u, side="right")
    source = f"{label + ';' if label else ''}{s.describe()}"
    return ShotRecord(_PAIR_OUTCOME_ARRAY[idx], n, source)


def estimate_moment(r: ShotRecord, spec: MomentSpec) -> EstimateWithError:
    """Sample estimate of a pair moment with std_error = sample std / sqrt(n).

    Each shot's value is looked up in ``moment_signs(spec)`` by the shot's
    index in ``PAIR_OUTCOMES``, where -1 in slot k sets bit 3 - k.
    """
    if r.n < 2:
        raise ValueError("need at least two shots to estimate a moment")
    signs = moment_signs(spec)
    minus = (r.outcomes < 0).view(np.uint8)
    index = 8 * minus[:, 0] + 4 * minus[:, 1] + 2 * minus[:, 2] + minus[:, 3]
    values = np.take(signs, index)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(r.n))
    return EstimateWithError(mean, std_error, r.n)


def experimental_chsh(phi: float, a: AnglePair) -> float:
    """CHSH combination observed through two saturated joint measurements.

    Equals cos(alpha - beta) cos(phi) + sin(alpha + beta) sin(phi) for the
    maximally entangled state of phase phi measured with visibility balances
    (cos alpha, sin alpha) and (cos beta, sin beta).
    """
    return math.cos(a.alpha - a.beta) * math.cos(phi) + math.sin(a.alpha + a.beta) * math.sin(phi)


@dataclass(frozen=True)
class ChshOptimum:
    value: float
    alpha: float
    beta: float


def max_experimental_chsh(phi: float, grid_steps: int = 181, refine_iters: int = 60) -> ChshOptimum:
    """Maximize the observed CHSH value over alpha, beta in (0, pi/2).

    Coarse grid (offset by half a step, so the open interval is respected)
    followed by alternating golden-section refinement in each coordinate.
    Peaks at sqrt(2), reached for alpha = beta = pi/4 when phi = pi/4.
    """
    half_pi = 0.5 * math.pi
    step = half_pi / grid_steps
    grid = (np.arange(grid_steps) + 0.5) * step
    surface = np.cos(grid[:, None] - grid[None, :]) * math.cos(phi) + np.sin(
        grid[:, None] + grid[None, :]
    ) * math.sin(phi)
    i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
    alpha, beta = float(grid[i]), float(grid[j])
    lo, hi = 0.5 * step, half_pi - 0.5 * step
    for _ in range(8):
        alpha, _ = _golden_section_max(
            lambda a: experimental_chsh(phi, AnglePair(a, beta)), lo, hi, refine_iters
        )
        beta, _ = _golden_section_max(
            lambda b: experimental_chsh(phi, AnglePair(alpha, b)), lo, hi, refine_iters
        )
    return ChshOptimum(experimental_chsh(phi, AnglePair(alpha, beta)), alpha, beta)


def zero_probability_chsh(phi: float) -> float:
    """Observed CHSH value when one outcome probability is pinned at zero.

    Uses the maximizing balance alpha = beta = phi/2 (so alpha + beta = phi)
    and certifies that the suppressed outcome probability
    (1/16)(1 - cos(alpha + beta - phi)) vanishes before returning

        1 + cos(phi) - cos(phi)**2.
    """
    half = 0.5 * float(phi)
    suppressed = (1.0 / 16.0) * (1.0 - math.cos(half + half - phi))
    if abs(suppressed) > 1e-12:
        raise ArithmeticError(f"suppressed outcome has probability {suppressed!r}")
    return 1.0 + math.cos(phi) - math.cos(phi) ** 2


@dataclass(frozen=True)
class CurveOptimum:
    value: float
    phi: float


def zero_probability_curve_max(
    lo: float = 0.0, hi: float = math.pi, step: float = 1e-4, refine_iters: int = 80
) -> CurveOptimum:
    """Maximum of the zero-probability-constrained CHSH curve over phi.

    Grid scan at the given step, golden-section refinement, then a quadratic
    vertex polish: pure value comparisons stall about 1e-8 from a flat
    quadratic top, while the three-point vertex recovers the stationary
    point to ~1e-11. The analytic optimum is 1.25 at cos(phi) = 1/2.
    """
    phis = np.arange(lo, hi + 0.5 * step, step)
    values = 1.0 + np.cos(phis) - np.cos(phis) ** 2
    phi0 = float(phis[int(np.argmax(values))])
    phi_star, _ = _golden_section_max(
        zero_probability_chsh, max(lo, phi0 - step), min(hi, phi0 + step), refine_iters
    )
    h = 1e-5
    for _ in range(2):
        f_lo = zero_probability_chsh(phi_star - h)
        f_mid = zero_probability_chsh(phi_star)
        f_hi = zero_probability_chsh(phi_star + h)
        denom = f_hi - 2.0 * f_mid + f_lo
        if denom >= 0.0:
            break
        phi_star -= 0.5 * h * (f_hi - f_lo) / denom
    return CurveOptimum(zero_probability_chsh(phi_star), phi_star)


def constrained_chsh_grid_max(phi: float, step: float = 1e-4) -> float:
    """Grid maximum of the observed CHSH value subject to alpha + beta = phi.

    Brute-force check that the balance alpha = beta = phi/2 is optimal under
    the zero-probability constraint. Both angles must stay inside (0, pi/2),
    so alpha is scanned over (max(0, phi - pi/2), min(pi/2, phi)); the
    midpoint is the interior maximum for phi in (0, pi/2] where cos(phi) is
    non-negative.
    """
    lo = max(0.0, phi - 0.5 * math.pi)
    hi = min(0.5 * math.pi, phi)
    alphas = np.arange(lo + step, hi, step)
    if alphas.size == 0:
        return experimental_chsh(phi, AnglePair(0.5 * phi, 0.5 * phi))
    values = np.cos(2.0 * alphas - phi) * math.cos(phi) + math.sin(phi) ** 2
    return float(values.max())


@dataclass(frozen=True)
class ViolationSearchResult:
    max_tight_lhs: float
    max_chsh: float
    argmax_state_digest: str


def bound_violation_search(n_states: int, s: SeededSampler) -> ViolationSearchResult:
    """Search Haar-random pure states for violations of the tight bound.

    Records the largest tight-bound and CHSH values over the ensemble along
    with a digest of the extremal state; no quantum state can exceed 2, so
    the search certifies the bound empirically.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be positive, got {n_states}")
    psi = _haar_kets(s.rng(), n_states)
    c = _correlations_from_kets(psi)
    tight = tight_bound_from_components(c[:, 0], c[:, 1], c[:, 2], c[:, 3])
    chsh = chsh_from_components(c[:, 0], c[:, 1], c[:, 2], c[:, 3])
    top = int(np.argmax(tight))
    rho = np.outer(psi[top], psi[top].conj())
    digest = hashlib.sha256(np.ascontiguousarray(rho).tobytes()).hexdigest()
    return ViolationSearchResult(float(tight.max()), float(chsh.max()), digest)
