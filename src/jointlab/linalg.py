"""Dense complex linear algebra for single- and two-qubit operators.

Everything here operates on plain numpy complex arrays of dimension 2 or 4:
Pauli construction and the Hermitian eigenvalues used to certify
positivity of measurement operators and states.

The eigensolver takes a lone ``(n, n)`` matrix or a ``(..., n, n)`` stack,
and a lone matrix is a stack of one. One check (``_hermitian_stack``) guards
every matrix given from outside, and one kernel (``_eigenvalues``) computes
every eigenvalue: 2x2 matrices take the closed form, any other size numpy's
batched LAPACK ``eigvalsh``. Stacks the package builds Hermitian, such as
the POVM grid's, go straight to the kernel. LAPACK pays a fixed cost per
matrix that dominates at 2x2: on an 8-row block of the 201-step POVM grid
(6,432 matrices) it takes about 1 us per matrix, against about 0.02 us for
the closed form and 0.19 us for the check and the closed form together
(medians of 51 calls; Python 3.11, numpy 2.4, 2-core Xeon host).

All comparisons use absolute tolerances; every quantity in this package is
O(1) by construction.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "PSD_TOL",
    "pauli",
    "hermitian_eigenvalues",
    "is_positive_semidefinite",
]

DEFAULT_TOL = 1e-12
PSD_TOL = 1e-10

_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
for _m in _PAULI.values():
    _m.setflags(write=False)

_FLOAT64 = np.dtype(np.float64)


def _require_finite(name: str, value, lo=-math.inf, hi=math.inf, slack=0.0) -> float:
    """``value`` as a float once it is a finite real number in [lo - slack, hi + slack].

    Text and truth values are refused, although ``float`` would take them.
    """
    if isinstance(value, (str, bytes, bool)) or getattr(value, "dtype", _FLOAT64).kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not lo - slack <= value <= hi + slack:
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
    return value


def pauli(which: str) -> np.ndarray:
    """Return a 2x2 Pauli operator ("I", "X", "Y" or "Z") in the computational basis.

    Conventions: X|0> = |1> and Y|0> = i|1>, i.e. the standard matrices
    X = [[0,1],[1,0]] and Y = [[0,-i],[i,0]]. The returned array is read-only.
    """
    try:
        return _PAULI[which]
    except KeyError:
        raise ValueError(f"unknown Pauli label {which!r}; expected one of I, X, Y, Z") from None


def _first_bad(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first set flag in ``bad`` (``()`` for a lone flag), or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _member(index: tuple[int, ...]) -> str:
    """Error-message suffix naming stack member ``index``; empty for a lone matrix."""
    return f" (stack member {index[0] if len(index) == 1 else index})" if index else ""


def _hermitian_stack(m: np.ndarray) -> np.ndarray:
    """Return ``m`` once it is square, finite and Hermitian, max |m - m^dagger| <= DEFAULT_TOL."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    k = _first_bad(~np.isfinite(m).all(axis=(-2, -1)))
    if k is not None:
        raise ValueError(f"matrix entries must be finite{_member(k)}")
    with np.errstate(over="ignore"):  # a difference past the largest double is inf, not Hermitian
        asymmetry = np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    k = _first_bad(asymmetry > DEFAULT_TOL)
    if k is not None:
        raise ValueError(f"matrix is not Hermitian within tolerance{_member(k)}")
    return m


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a ``(..., n, n)`` complex stack that ``_hermitian_stack`` passes.

    Unchecked: 2x2 by the closed form (a+d)/2 -+ hypot((a-d)/2, |b|), else ``eigvalsh``.
    """
    if m.shape[-1] == 2:
        m00, m11 = m[..., 0, 0].real, m[..., 1, 1].real
        mean = 0.5 * (m00 + m11)
        half_gap = np.hypot(0.5 * (m00 - m11), np.abs(m[..., 0, 1]))
        return np.stack((mean - half_gap, mean + half_gap), axis=-1)
    return np.linalg.eigvalsh(m)


def hermitian_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or stack, ascending.

    A lone ``(n, n)`` matrix gives shape ``(n,)`` and a ``(..., n, n)`` stack
    gives ``(..., n)``. Every member must have finite entries and be
    Hermitian, max |m - m^dagger| <= ``DEFAULT_TOL``; an error names the
    first bad member. 2x2 matrices take the closed form, any other size
    ``np.linalg.eigvalsh``, whose ``LinAlgError`` on a member that does not
    converge reaches the caller unchanged.
    """
    return _eigenvalues(_hermitian_stack(np.asarray(a, dtype=np.complex128)))


def is_positive_semidefinite(a, tol: float = PSD_TOL) -> np.ndarray:
    """True when the smallest eigenvalue is >= -tol. Input must be Hermitian.

    ``tol`` is a finite real number >= 0. A numpy bool for a lone matrix, a
    boolean array of shape ``(...)`` for a ``(..., n, n)`` stack.
    """
    tol = _require_finite("tol", tol, 0.0)
    return hermitian_eigenvalues(a)[..., 0] >= -tol
