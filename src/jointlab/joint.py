"""Uncertainty-limited joint measurement of the equatorial qubit components X and Y.

A joint measurement of both components at once cannot be sharp: each outcome
average is reduced by a visibility factor, the outcome product averages to
zero, and the visibilities obey ``v_x**2 + v_y**2 <= 1``. The measurement is
realized here by the four-element POVM

    E(x, y) = (1/4) (I + x v_x X + y v_y Y),    x, y = +-1,

the unique completion built from I, X and Y alone that reproduces those
statistics. Inadmissible visibilities and Bloch vectors outside the unit
disk stay constructible on purpose: they are exactly the inputs whose
distributions go negative, which is what certifies both bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linalg import DEFAULT_TOL

__all__ = [
    "OUTCOMES",
    "OutcomeLabel",
    "FACTOR_SIGNS",
    "VisibilityPair",
    "BlochEquatorial",
    "SingleOutcomeDistribution",
    "Moments",
    "povm_element",
    "povm_elements",
    "admissible_visibilities",
    "equatorial_density",
    "outcome_probabilities",
    "outcome_distribution",
    "distribution_moments",
    "state_positivity_lhs",
    "check_visibility_admissible",
    "bloch_bound_lhs",
]

OutcomeLabel = tuple[int, int]

#: Fixed outcome ordering shared by distributions and samplers.
OUTCOMES: tuple[OutcomeLabel, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))

#: Slack below which a probability entry still counts as non-negative.
NEGATIVE_PROB_TOL = 1e-12

_BOX_SLACK = 1e-9


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _validate_outcome(outcome: OutcomeLabel) -> OutcomeLabel:
    x, y = outcome
    if x not in (-1, 1) or y not in (-1, 1):
        raise ValueError(f"outcome labels must be +-1, got {outcome!r}")
    return int(x), int(y)


@dataclass(frozen=True)
class VisibilityPair:
    """Visibilities (v_x, v_y) of one local joint measurement, each in [0, 1].

    A pair is *admissible* when v_x**2 + v_y**2 <= 1; inadmissible pairs can
    be built (they drive the negative-probability demonstrations) but every
    distribution derived from one carries a ``hypothetical`` flag.
    """

    v_x: float
    v_y: float

    def __post_init__(self):
        for name in ("v_x", "v_y"):
            value = _require_finite(name, getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)

    def is_admissible(self, tol: float = DEFAULT_TOL) -> bool:
        return admissible_visibilities(self.v_x, self.v_y, tol)


@dataclass(frozen=True)
class BlochEquatorial:
    """Equatorial Bloch components (<X>, <Y>) of a qubit input state.

    Physical states satisfy ex**2 + ey**2 <= 1. Points outside the disk are
    representable (with each component still in [-1, 1]) so that the
    negative probabilities they imply can be exhibited.
    """

    ex: float
    ey: float

    def __post_init__(self):
        for name in ("ex", "ey"):
            value = _require_finite(name, getattr(self, name))
            if abs(value) > 1.0 + _BOX_SLACK:
                raise ValueError(f"{name} must lie in [-1, 1], got {value}")
            object.__setattr__(self, name, value)

    def is_physical(self, tol: float = DEFAULT_TOL) -> bool:
        return self.ex**2 + self.ey**2 <= 1.0 + tol


@dataclass(frozen=True)
class SingleOutcomeDistribution:
    """Probabilities over the four joint outcomes (x, y) in {+-1}^2.

    Entries sum to one. Negative entries are only allowed when the
    distribution was produced from inadmissible visibilities or an
    unphysical Bloch vector, recorded in ``hypothetical``.
    """

    probs: Mapping[OutcomeLabel, float]
    hypothetical: bool = False

    def __post_init__(self):
        probs = {o: float(self.probs[o]) for o in OUTCOMES}
        if len(self.probs) != len(OUTCOMES):
            raise ValueError("distribution must have exactly four entries")
        total = math.fsum(probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        if not self.hypothetical and min(probs.values()) < -NEGATIVE_PROB_TOL:
            raise ValueError("negative probability in a distribution not flagged hypothetical")
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, outcome: OutcomeLabel) -> float:
        return self.probs[_validate_outcome(outcome)]

    def min_probability(self) -> float:
        return min(self.probs.values())


@dataclass(frozen=True)
class Moments:
    """First moments of a four-outcome distribution."""

    mean_x: float
    mean_y: float
    mean_xy: float


def admissible_visibilities(v_x, v_y, tol: float = DEFAULT_TOL):
    """Uncertainty relation v_x**2 + v_y**2 <= 1 (+ tol), elementwise on arrays."""
    return v_x**2 + v_y**2 <= 1.0 + tol


def _povm_off_diagonal(x, y, v_x, v_y):
    """Entry (0, 1) of E(x, y), for Python scalars or broadcast arrays alike."""
    return 0.25 * (x * v_x - 1j * y * v_y)


_OUTCOME_X = np.array([x for x, _ in OUTCOMES], dtype=np.float64)
_OUTCOME_Y = np.array([y for _, y in OUTCOMES], dtype=np.float64)

#: Value of each outcome function f(x, y) that a moment can select on one
#: side ("one", "x", "y", "xy"), on the four outcomes in ``OUTCOMES`` order.
FACTOR_SIGNS: Mapping[str, np.ndarray] = {
    "one": np.ones(4),
    "x": _OUTCOME_X,
    "y": _OUTCOME_Y,
    "xy": _OUTCOME_X * _OUTCOME_Y,
}
for _signs in FACTOR_SIGNS.values():
    _signs.setflags(write=False)


def povm_element(v: VisibilityPair, outcome: OutcomeLabel) -> np.ndarray:
    """POVM element E(x, y) = (1/4)(I + x v_x X + y v_y Y) as a 2x2 array.

    The four elements sum to the identity exactly, and tr(rho E(x, y))
    reproduces ``outcome_distribution`` for every state rho.
    """
    x, y = _validate_outcome(outcome)
    off = _povm_off_diagonal(x, y, v.v_x, v.v_y)
    return np.array([[0.25, off], [off.conjugate(), 0.25]])


def povm_elements(v_x, v_y) -> np.ndarray:
    """All four POVM elements for every visibility pair of two broadcast arrays.

    Returns a complex array of shape ``(..., 4, 2, 2)``, where ``...`` is the
    broadcast shape of ``v_x`` and ``v_y`` and axis -3 follows ``OUTCOMES``.
    Both builders evaluate one formula, so entry ``[..., k, :, :]`` equals
    ``povm_element(VisibilityPair(v_x, v_y), OUTCOMES[k])`` bit for bit; only
    a subnormal visibility can flip the sign of a zero. Visibilities must be
    finite and in [0, 1].
    """
    v_x, v_y = np.broadcast_arrays(
        np.asarray(v_x, dtype=np.float64), np.asarray(v_y, dtype=np.float64)
    )
    if not (np.all((v_x >= 0.0) & (v_x <= 1.0)) and np.all((v_y >= 0.0) & (v_y <= 1.0))):
        raise ValueError("visibilities must be finite and lie in [0, 1]")
    off = _povm_off_diagonal(_OUTCOME_X, _OUTCOME_Y, v_x[..., None], v_y[..., None])
    out = np.empty(off.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = 0.25
    out[..., 0, 1] = off
    out[..., 1, 0] = off.conj()
    out[..., 1, 1] = 0.25
    return out


def equatorial_density(s: BlochEquatorial) -> np.ndarray:
    """Density matrix (1/2)(I + ex X + ey Y) for the given Bloch components."""
    off = 0.5 * (s.ex - 1j * s.ey)
    return np.array([[0.5, off], [off.conjugate(), 0.5]])


def _outcome_probability(x, y, a, b):
    """P(x, y) for a = v_x ex and b = v_y ey, for Python scalars or broadcast arrays alike."""
    return 0.25 * (1.0 + x * a + y * b)


def outcome_probabilities(v_x, v_y, ex, ey) -> np.ndarray:
    """P(x, y) = (1/4)(1 + x v_x ex + y v_y ey) for broadcast arrays, shape ``(..., 4)``.

    Axis -1 follows ``OUTCOMES``; entry ``[..., k]`` equals the probability
    ``outcome_distribution`` gives for ``OUTCOMES[k]`` bit for bit. No range
    checks: inputs outside the physical sets give the hypothetical values.
    """
    a = np.asarray(v_x * ex, dtype=np.float64)[..., None]
    b = np.asarray(v_y * ey, dtype=np.float64)[..., None]
    return _outcome_probability(_OUTCOME_X, _OUTCOME_Y, a, b)


def outcome_distribution(v: VisibilityPair, s: BlochEquatorial) -> SingleOutcomeDistribution:
    """Joint outcome distribution P(x, y) = (1/4)(1 + x v_x ex + y v_y ey).

    Always defined; the result is flagged hypothetical when the visibilities
    are inadmissible or the state lies outside the Bloch disk.
    """
    a = v.v_x * s.ex
    b = v.v_y * s.ey
    probs = {(x, y): _outcome_probability(x, y, a, b) for x, y in OUTCOMES}
    hypothetical = not (v.is_admissible() and s.is_physical())
    return SingleOutcomeDistribution(probs, hypothetical)


def distribution_moments(d: SingleOutcomeDistribution) -> Moments:
    """Outcome averages <x>, <y> and <xy> of a four-outcome distribution.

    For any distribution produced by ``outcome_distribution`` these are
    v_x*ex, v_y*ey and exactly zero: the POVM carries no x-y cross term.
    """
    mean_x = math.fsum(x * d.probs[(x, y)] for x, y in OUTCOMES)
    mean_y = math.fsum(y * d.probs[(x, y)] for x, y in OUTCOMES)
    mean_xy = math.fsum(x * y * d.probs[(x, y)] for x, y in OUTCOMES)
    return Moments(mean_x, mean_y, mean_xy)


def state_positivity_lhs(v: VisibilityPair, s: BlochEquatorial) -> float:
    """|v_x ex| + |v_y ey|; at most 1 exactly when no outcome probability is negative."""
    return abs(v.v_x * s.ex) + abs(v.v_y * s.ey)


def check_visibility_admissible(v: VisibilityPair, tol: float = DEFAULT_TOL) -> bool:
    """Visibility uncertainty relation v_x**2 + v_y**2 <= 1 (+ tol).

    Agrees with positive semidefiniteness of all four POVM elements: the
    element spectrum is (1 +- sqrt(v_x**2 + v_y**2))/4 for every outcome.
    """
    return v.is_admissible(tol)


def bloch_bound_lhs(s: BlochEquatorial) -> float:
    """ex**2 + ey**2; physical states satisfy <= 1."""
    return s.ex**2 + s.ey**2
