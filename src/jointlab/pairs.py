"""Two-qubit states and the 16-outcome statistics of two local joint measurements.

Two joint measurements performed independently on a qubit pair produce
outcomes (x_a, y_a, x_b, y_b) in {+-1}^4. Every moment containing a local
outcome product x_i*y_i vanishes identically, and the four surviving
correlations factor into visibility products times the state correlations
<X(x)Y on A tensor X/Y on B>. For states with vanishing local means the full
distribution is the closed form

    P(o) = (1/16) (1 + sum_{m,n in {x,y}} m_a n_b v_m(A) v_n(B) c_mn),

implemented both directly (``pair_probabilities_formula``) and through the
general trace path valid for arbitrary states (``pair_probabilities_trace``).

Every formula is defined once, on stacks: states are ``(..., 4, 4)`` arrays,
visibility pairs ``(..., 2)`` arrays ``(v_x, v_y)`` and distributions
``(..., 16)`` arrays in ``PAIR_OUTCOMES`` order. The dataclasses and the
functions taking them are thin wrappers over those kernels for one state;
``PairOutcomeDistribution`` holds one checked row of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from .joint import (
    FACTOR_SIGNS,
    VisibilityPair,
    _check_fields,
    admissible_visibilities,
    povm_elements,
)
from .linalg import (
    DEFAULT_TOL,
    PSD_TOL,
    _eigenvalues,
    _first_bad,
    _hermitian_stack,
    _member,
    _require_finite,
    pauli,
)

__all__ = [
    "PAIR_OUTCOMES",
    "PairOutcomeLabel",
    "MomentSpec",
    "PAULI_PAIRS",
    "DensityOperator4",
    "CorrelationVector",
    "PairOutcomeDistribution",
    "BellFamilyState",
    "validate_densities",
    "pure_density",
    "correlation_components",
    "local_mean_components",
    "correlations_of_state",
    "pair_probabilities_trace",
    "correlation_moments",
    "pair_probabilities_formula",
    "pair_marginals",
    "moment_signs",
    "pair_distribution_formula",
    "pair_moment",
    "bell_family_correlations",
]

PairOutcomeLabel = tuple[int, int, int, int]

#: All 16 outcomes (x_a, y_a, x_b, y_b), +1 before -1 in each slot; outcome
#: ``(*OUTCOMES[i], *OUTCOMES[j])`` sits at index ``4 * i + j``.
PAIR_OUTCOMES: tuple[PairOutcomeLabel, ...] = tuple(product((1, -1), repeat=4))

#: Slack below which a probability entry still counts as non-negative.
NEGATIVE_PROB_TOL = 1e-12


def _check_probabilities(probs: np.ndarray, hypothetical) -> None:
    """Each ``(..., k)`` member sums to one (a NaN sum fails); negatives only where hypothetical."""
    total = probs.sum(axis=-1)
    bad_sum = ~(np.abs(total - 1.0) <= DEFAULT_TOL)
    bad_sign = ~hypothetical & (probs.min(axis=-1) < -NEGATIVE_PROB_TOL)
    if not (bad_sum | bad_sign).any():
        return
    k = _first_bad(bad_sum)
    if k is not None:
        raise ValueError(f"probabilities must sum to 1, got {float(total[k])!r}{_member(k)}")
    k = _first_bad(bad_sign)
    raise ValueError(f"negative probability in a distribution not flagged hypothetical{_member(k)}")


MomentSpec = tuple[str, str]

#: f_a(x_a, y_a) * f_b(x_b, y_b) over ``PAIR_OUTCOMES`` for every moment spec.
_MOMENT_SIGNS = {
    (fa, fb): np.outer(FACTOR_SIGNS[fa], FACTOR_SIGNS[fb]).ravel()
    for fa in FACTOR_SIGNS
    for fb in FACTOR_SIGNS
}

#: Outcome signs of the four correlation terms of the closed form, (16, 4).
_CORRELATION_SIGNS = np.stack(
    [_MOMENT_SIGNS[spec] for spec in (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"))], axis=-1
)

#: P tensor Q, basis order |00>, |01>, |10>, |11>: the correlation operators
#: XX, XY, YX, YY (rows 0-3), then the local operators XI, YI, IX, IY (rows 4-7).
PAULI_PAIRS = np.stack(
    [np.kron(pauli(p), pauli(q)) for p, q in ("XX", "XY", "YX", "YY", "XI", "YI", "IX", "IY")]
)

for _table in (*_MOMENT_SIGNS.values(), _CORRELATION_SIGNS, PAULI_PAIRS):
    _table.setflags(write=False)


def _real(values: np.ndarray, what: str) -> np.ndarray:
    """Real part of ``(..., k)`` values, refusing any entry with |imag| above 1e-12."""
    k = _first_bad(np.abs(values.imag) > DEFAULT_TOL)
    if k is not None:
        raise ValueError(f"{what} has imaginary part {values.imag[k]:.3e}{_member(k[:-1])}")
    return values.real


@dataclass(frozen=True, eq=False)
class DensityOperator4:
    """A validated two-qubit density operator.

    Construction runs ``validate_densities``: hermiticity and unit trace
    within 1e-12, positive semidefiniteness within 1e-10; the stored matrix
    is a read-only copy. ``==`` and ``hash`` go by identity, as an array
    field has no truth value to compare by.
    """

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", validate_densities(self.mat))


def validate_densities(a) -> np.ndarray:
    """Certify a density operator ``(4, 4)`` or a stack ``(n, 4, 4)``; return a read-only copy.

    Every member must have finite entries, be Hermitian and have unit trace
    within ``DEFAULT_TOL`` (1e-12), and be positive semidefinite within
    ``PSD_TOL`` (1e-10), checked in that order. The entries and hermiticity
    are checked once, by ``linalg``'s one matrix check, and positivity by
    one eigenvalue call on the whole stack (a lone matrix is a stack of
    one). A failing stack raises ValueError naming its first bad member.
    """
    m = np.array(a, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {m.shape}")
    _hermitian_stack(m)
    tr = np.trace(m, axis1=-2, axis2=-1)
    k = _first_bad(np.abs(tr - 1.0) > DEFAULT_TOL)
    if k is not None:
        raise ValueError(f"density matrix trace is {tr[k]!r}, expected 1{_member(k)}")
    k = _first_bad(~(_eigenvalues(m)[..., 0] >= -PSD_TOL))
    if k is not None:
        raise ValueError(f"density matrix is not positive semidefinite{_member(k)}")
    m.setflags(write=False)
    return m


def _projectors(kets: np.ndarray) -> np.ndarray:
    """|psi><psi| of each ``(..., 4)`` ket, unchecked: the one place a pure state is formed."""
    return kets[..., :, None] * kets.conj()[..., None, :]


def pure_density(ket: np.ndarray) -> DensityOperator4:
    """Rank-1 density operator |psi><psi| from a normalized ``(4,)`` ket."""
    psi = np.asarray(ket, dtype=np.complex128)
    if psi.shape != (4,):
        raise ValueError(f"ket must have shape (4,), got {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise ValueError(f"ket must be normalized, got norm {norm}")
    return DensityOperator4(_projectors(psi))


@dataclass(frozen=True)
class CorrelationVector:
    """The four two-qubit correlations (<XX>, <XY>, <YX>, <YY>)."""

    c_xx: float
    c_xy: float
    c_yx: float
    c_yy: float

    def __post_init__(self):
        _check_fields(self, -1.0, 1.0, 1e-9)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c_xx, self.c_xy, self.c_yx, self.c_yy)


@dataclass(frozen=True, eq=False)
class PairOutcomeDistribution:
    """Probabilities over the 16 outcomes of two local joint measurements.

    ``probs`` is a read-only float64 copy of shape ``(16,)`` in
    ``PAIR_OUTCOMES`` order, i.e. one row of ``pair_probabilities_trace`` or
    ``pair_probabilities_formula``; ``d[(x_a, y_a, x_b, y_b)]`` reads one
    entry. Entries sum to one; negative entries require the ``hypothetical``
    flag (inadmissible visibilities or a non-quantum correlation vector).
    ``==`` and ``hash`` go by identity.
    """

    probs: np.ndarray
    hypothetical: bool = False

    def __post_init__(self):
        if isinstance(self.probs, Mapping):
            raise ValueError("probabilities must be an array in outcome order, not a mapping")
        row = np.array(self.probs, dtype=np.float64)
        if row.shape != (len(PAIR_OUTCOMES),):
            raise ValueError(
                f"expected {len(PAIR_OUTCOMES)} probabilities in outcome order, got {row.shape}"
            )
        if not isinstance(self.hypothetical, (bool, np.bool_)):
            raise ValueError(f"hypothetical must be a bool, got {self.hypothetical!r}")
        _check_probabilities(row, np.bool_(self.hypothetical))
        row.setflags(write=False)
        object.__setattr__(self, "probs", row)

    def __getitem__(self, outcome) -> float:
        try:
            return float(self.probs[PAIR_OUTCOMES.index(tuple(outcome))])
        except (TypeError, ValueError):
            raise ValueError(f"unknown outcome label {outcome!r}") from None


@dataclass(frozen=True)
class BellFamilyState:
    """Maximally entangled family (|00> + e^(i phi) |11>) / sqrt(2)."""

    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _require_finite("phi", self.phi) % (2.0 * math.pi))

    def ket(self) -> np.ndarray:
        return np.array([1.0, 0.0, 0.0, np.exp(1j * self.phi)]) / math.sqrt(2.0)

    def to_density(self) -> DensityOperator4:
        return pure_density(self.ket())


def correlation_components(rho) -> np.ndarray:
    """Correlations Re tr(rho (P tensor Q)) for P, Q in {X, Y}: ``(..., 4)`` for ``(..., 4, 4)``.

    Columns are (c_xx, c_xy, c_yx, c_yy); an imaginary part above 1e-12
    raises ValueError.
    """
    return _real(np.einsum("...ij,kji->...k", rho, PAULI_PAIRS[:4]), "expectation value")


def local_mean_components(rho) -> np.ndarray:
    """Local means (<X_A>, <Y_A>, <X_B>, <Y_B>): ``(..., 4)`` for ``(..., 4, 4)``."""
    return _real(np.einsum("...ij,kji->...k", rho, PAULI_PAIRS[4:]), "expectation value")


def correlations_of_state(rho: DensityOperator4) -> CorrelationVector:
    """Correlations Re tr(rho (P tensor Q)) for P, Q in {X, Y}."""
    return CorrelationVector(*correlation_components(rho.mat).tolist())


def pair_probabilities_trace(rho, va, vb) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities tr(rho (E_A tensor E_B)) of any states, batched.

    ``rho`` is ``(..., 4, 4)``; ``va`` and ``vb`` are ``(..., 2)`` visibility
    pairs (v_x, v_y), each in [0, 1], broadcast against the states. Returns
    the ``(..., 16)`` probabilities in ``PAIR_OUTCOMES`` order and the
    ``(...)`` hypothetical flags, set where either pair is inadmissible.
    Every entry must be real within 1e-12 and every member must pass the
    ``PairOutcomeDistribution`` checks, or ValueError is raised.
    """
    rho = np.asarray(rho)
    va = np.asarray(va, dtype=np.float64)
    vb = np.asarray(vb, dtype=np.float64)
    e_a = povm_elements(va[..., 0], va[..., 1])
    e_b = povm_elements(vb[..., 0], vb[..., 1])
    # rho[(a, c), (b, d)] with a, b on qubit A and c, d on qubit B
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    values = np.einsum("...acbd,...iba,...jdc->...ij", r, e_a, e_b)
    probs = _real(values.reshape(values.shape[:-2] + (16,)), "probability")
    admissible = admissible_visibilities(va[..., 0], va[..., 1]) & admissible_visibilities(
        vb[..., 0], vb[..., 1]
    )
    hypothetical = np.broadcast_to(~admissible, probs.shape[:-1])
    _check_probabilities(probs, hypothetical)
    return probs, hypothetical


def correlation_moments(c, va, vb) -> np.ndarray:
    """The surviving correlation moments <m_a n_b> = v_m(A) v_n(B) c_mn, batched.

    ``c`` is ``(..., 4)`` correlations (c_xx, c_xy, c_yx, c_yy) and ``va``,
    ``vb`` are ``(..., 2)`` visibility pairs; the result is ``(..., 4)`` in
    the order of ``c``.
    """
    va = np.asarray(va, dtype=np.float64)
    vb = np.asarray(vb, dtype=np.float64)
    return va[..., [0, 0, 1, 1]] * vb[..., [0, 1, 0, 1]] * np.asarray(c, dtype=np.float64)


def pair_probabilities_formula(c, va, vb) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form probabilities for states whose local means all vanish, batched.

    ``c`` is ``(..., 4)`` correlations (c_xx, c_xy, c_yx, c_yy); ``va`` and
    ``vb`` are ``(..., 2)`` visibility pairs. The sign in front of each
    correlation term is the product of the corresponding outcome values.
    Correlation vectors beyond the quantum set are accepted; a member is
    flagged hypothetical when any entry drops below -1e-12.
    """
    terms = _CORRELATION_SIGNS * correlation_moments(c, va, vb)[..., None, :]
    probs = (1.0 / 16.0) * (1.0 + terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3])
    hypothetical = probs.min(axis=-1) < -NEGATIVE_PROB_TOL
    _check_probabilities(probs, hypothetical)
    return probs, hypothetical


def pair_marginals(probs) -> tuple[np.ndarray, np.ndarray]:
    """Marginals of (x_a, y_a) and of (x_b, y_b), each ``(..., 4)`` in ``OUTCOMES`` order."""
    table = np.asarray(probs).reshape(np.shape(probs)[:-1] + (4, 4))
    return table.sum(axis=-1), table.sum(axis=-2)


def moment_signs(spec: MomentSpec) -> np.ndarray:
    """f_a(x_a, y_a) * f_b(x_b, y_b) on the 16 outcomes, in ``PAIR_OUTCOMES`` order.

    ``spec`` is a tuple or list of two factors, each named "one", "x", "y"
    or "xy". The moment of a ``(..., 16)`` stack of distributions is
    ``probs @ moment_signs(spec)``.
    """
    if not isinstance(spec, (tuple, list)) or len(spec) != 2:
        raise ValueError(f"spec must be a pair of factor names, got {spec!r}")
    try:
        return _MOMENT_SIGNS[tuple(spec)]
    except KeyError:
        bad = next((f for f in spec if f not in FACTOR_SIGNS), spec)
        raise ValueError(f"unknown moment factor {bad!r}") from None


def pair_distribution_formula(
    c: CorrelationVector, va: VisibilityPair, vb: VisibilityPair
) -> PairOutcomeDistribution:
    """Closed-form distribution for states whose local means all vanish.

    The sign in front of each correlation term is the product of the
    corresponding outcome values. Correlation vectors beyond the quantum set
    are accepted; the result is flagged hypothetical when any entry drops
    below -1e-12.
    """
    probs, hypothetical = pair_probabilities_formula(
        c.as_tuple(), (va.v_x, va.v_y), (vb.v_x, vb.v_y)
    )
    return PairOutcomeDistribution(probs, bool(hypothetical))


def pair_moment(d: PairOutcomeDistribution, spec: MomentSpec) -> float:
    """Expectation of f_a(x_a, y_a) * f_b(x_b, y_b) under the distribution.

    Factors are named "one", "x", "y" or "xy". On trace-generated
    distributions every spec containing an "xy" factor evaluates to zero.
    The sum is correctly rounded (``math.fsum``), so the value does not
    depend on the order of the 16 terms.
    """
    return math.fsum((d.probs * moment_signs(spec)).tolist())


def bell_family_correlations(phi: float) -> CorrelationVector:
    """Correlations (cos phi, sin phi, sin phi, -cos phi) of the Bell family."""
    phi = _require_finite("phi", phi)
    return CorrelationVector(math.cos(phi), math.sin(phi), math.sin(phi), -math.cos(phi))
