"""Uncertainty-limited joint measurement of the equatorial qubit components X and Y.

A joint measurement of both components at once cannot be sharp: each outcome
average is reduced by a visibility factor, the outcome product averages to
zero, and the visibilities obey ``v_x**2 + v_y**2 <= 1``. The measurement is
realized here by the four-element POVM

    E(x, y) = (1/4) (I + x v_x X + y v_y Y),    x, y = +-1,

the unique completion built from I, X and Y alone that reproduces those
statistics. Inadmissible visibilities and Bloch vectors outside the unit
disk stay valid inputs on purpose: they are exactly the inputs whose
distributions go negative, which is what certifies both bounds.

Every formula here is defined on broadcast arrays, and every bounded record
checks its fields by one rule: a finite real number, never text or a bool,
inside its box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .linalg import DEFAULT_TOL, _require_finite

__all__ = [
    "OUTCOMES",
    "OutcomeLabel",
    "FACTOR_SIGNS",
    "VisibilityPair",
    "povm_elements",
    "admissible_visibilities",
    "equatorial_densities",
    "outcome_probabilities",
    "outcome_moments",
    "bloch_bound_lhs",
]

OutcomeLabel = tuple[int, int]

#: Fixed outcome ordering shared by distributions and samplers.
OUTCOMES: tuple[OutcomeLabel, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _check_fields(record, lo=-math.inf, hi=math.inf, slack=0.0) -> None:
    """Replace every field of a frozen record by its ``_require_finite`` float."""
    for f in fields(record):
        value = _require_finite(f.name, getattr(record, f.name), lo, hi, slack)
        object.__setattr__(record, f.name, value)


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
        _check_fields(self, 0.0, 1.0)


def admissible_visibilities(v_x, v_y, tol: float = DEFAULT_TOL):
    """Uncertainty relation v_x**2 + v_y**2 <= 1 (+ tol, finite, >= 0), elementwise on arrays."""
    tol = _require_finite("tol", tol, 0.0)
    return v_x * v_x + v_y * v_y <= 1.0 + tol


def bloch_bound_lhs(ex, ey):
    """ex**2 + ey**2, elementwise on arrays; physical states satisfy <= 1."""
    return ex * ex + ey * ey


def _hermitian_2x2(diagonal: float, off) -> np.ndarray:
    """[[d, off], [conj(off), d]] for every entry of ``off``, shape ``off.shape + (2, 2)``."""
    off = np.asarray(off, dtype=np.complex128)
    out = np.empty(off.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = out[..., 1, 1] = diagonal
    out[..., 0, 1] = off
    out[..., 1, 0] = off.conj()
    return out


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


def _unit_interval(name: str, v) -> np.ndarray:
    """``v`` as a float64 array once every entry is a real number in [0, 1]."""
    v = np.asarray(v)
    if v.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got dtype {v.dtype}")
    if not np.all((v >= 0.0) & (v <= 1.0)):
        raise ValueError(f"{name} must be finite and lie in [0, 1]")
    return v.astype(np.float64, copy=False)


def povm_elements(v_x, v_y) -> np.ndarray:
    """All four POVM elements for every visibility pair of two broadcast arrays.

    E(x, y) = (1/4)(I + x v_x X + y v_y Y). Returns a complex array of shape
    ``(..., 4, 2, 2)``, where ``...`` is the broadcast shape of ``v_x`` and
    ``v_y`` and axis -3 follows ``OUTCOMES``. The four elements sum to the
    identity exactly. Visibilities must be real numbers, never text or bools,
    and finite in [0, 1]; an error names the parameter.
    """
    v_x, v_y = np.broadcast_arrays(_unit_interval("v_x", v_x), _unit_interval("v_y", v_y))
    return _hermitian_2x2(
        0.25, 0.25 * (_OUTCOME_X * v_x[..., None] - 1j * _OUTCOME_Y * v_y[..., None])
    )


def equatorial_densities(ex, ey) -> np.ndarray:
    """(1/2)(I + ex X + ey Y) for every pair of two broadcast arrays, shape ``(..., 2, 2)``.

    No range checks: points outside the Bloch disk give the hypothetical
    operators.
    """
    ex, ey = np.asarray(ex, dtype=np.float64), np.asarray(ey, dtype=np.float64)
    return _hermitian_2x2(0.5, 0.5 * (ex - 1j * ey))


def outcome_probabilities(v_x, v_y, ex, ey) -> np.ndarray:
    """P(x, y) = (1/4)(1 + x v_x ex + y v_y ey) for broadcast arrays, shape ``(..., 4)``.

    Axis -1 follows ``OUTCOMES``. No range checks: inputs outside the
    physical sets give the hypothetical values.
    """
    a = np.asarray(v_x * ex, dtype=np.float64)[..., None]
    b = np.asarray(v_y * ey, dtype=np.float64)[..., None]
    return 0.25 * (1.0 + _OUTCOME_X * a + _OUTCOME_Y * b)


#: Signs of the outcome functions x, y and xy, (3, 4): the rows of ``outcome_moments``.
_MOMENT_SIGNS = np.stack([FACTOR_SIGNS[k] for k in ("x", "y", "xy")])


def outcome_moments(probs) -> np.ndarray:
    """Outcome averages (<x>, <y>, <xy>) of ``(..., 4)`` probabilities, shape ``(..., 3)``.

    Each average is ``math.fsum`` over the four signed probabilities of its
    row, so it is correctly rounded: a matrix product or a plain sum rounds
    differently and changes the last bits of a near-zero <xy>.
    """
    terms = np.asarray(probs, dtype=np.float64)[..., None, :] * _MOMENT_SIGNS
    rows = terms.reshape(-1, 4)
    # rows go to Python floats one block at a time, so their memory does not grow with n
    sums = [math.fsum(r) for k in range(0, len(rows), 512) for r in rows[k : k + 512].tolist()]
    return np.array(sums, dtype=np.float64).reshape(terms.shape[:-1])
