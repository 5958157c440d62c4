"""Dense complex linear algebra for single- and two-qubit operators.

Everything here operates on plain numpy complex arrays of dimension 2 or 4:
Pauli construction and a cyclic-Jacobi eigensolver used to certify
positivity of measurement operators and states.
The closed-form 2x2 eigenvalue formula is deliberately not used in
production, so a single eigenvalue path serves both dimensions; the test
suite keeps the closed form around as an independent oracle.

The eigensolver takes a lone ``(n, n)`` matrix or a ``(..., n, n)`` stack
and runs one cyclic Jacobi on both: a stack runs each rotation for all of
its members at once in numpy, and a lone matrix is a stack of one.

All comparisons use absolute tolerances; every quantity in this package is
O(1) by construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "PSD_TOL",
    "ConvergenceError",
    "pauli",
    "hermitian_eigenvalues",
    "is_positive_semidefinite",
]

DEFAULT_TOL = 1e-12
PSD_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Jacobi sweep cap reached before the off-diagonal norm dropped below tolerance."""


_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
for _m in _PAULI.values():
    _m.setflags(write=False)


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
    """View ``m`` as an (N, n, n) stack, validating shape, finiteness, hermiticity."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    k = _first_bad(~np.isfinite(m).all(axis=(-2, -1)))
    if k is not None:
        raise ValueError(f"matrix entries must be finite{_member(k)}")
    n = m.shape[-1]
    iu, ju = np.triu_indices(n, 1)
    hermitian = (np.abs(np.diagonal(m, axis1=-2, axis2=-1).imag) <= DEFAULT_TOL).all(axis=-1)
    hermitian &= (np.abs(m[..., iu, ju] - m[..., ju, iu].conj()) <= DEFAULT_TOL).all(axis=-1)
    k = _first_bad(~hermitian)
    if k is not None:
        raise ValueError(f"matrix is not Hermitian within tolerance{_member(k)}")
    return m.reshape(-1, n, n)


def _rotate_stack(w: np.ndarray, p: int, q: int) -> None:
    """Jacobi rotation in the (p, q) plane of each member with |w_pq| >= DEFAULT_TOL, in place."""
    r = np.abs(w[:, p, q])
    hit = r >= DEFAULT_TOL
    hits = np.count_nonzero(hit)
    if hits == 0:
        return
    partial = hits < len(hit)
    m, r = (w[hit], r[hit]) if partial else (w, r)
    phase = m[:, p, q] / r
    tau = (m[:, q, q].real - m[:, p, p].real) / (2.0 * r)
    t = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    t = np.where(tau < 0.0, -t, t)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    sp = (s * phase)[:, None]
    spc = (s * phase.conj())[:, None]
    c = c[:, None]
    cp, cq = m[:, :, p], m[:, :, q]
    m[:, :, p], m[:, :, q] = c * cp - spc * cq, sp * cp + c * cq
    rp, rq = m[:, p, :], m[:, q, :]
    m[:, p, :], m[:, q, :] = c * rp - sp * rq, spc * rp + c * rq
    # exact by construction; drop the rounding residue
    m[:, p, q] = 0j
    m[:, q, p] = 0j
    m[:, p, p] = m[:, p, p].real
    m[:, q, q] = m[:, q, q].real
    if partial:
        w[hit] = m


def _jacobi_sweeps_stack(w: np.ndarray) -> None:
    """Cyclic Jacobi on an (N, n, n) stack in place.

    A member leaves the sweeps once all its off-diagonal magnitudes are below
    ``DEFAULT_TOL``.
    """
    iu, ju = np.triu_indices(w.shape[-1], 1)
    if iu.size == 0:
        return
    live = np.arange(len(w))
    for _sweep in range(_JACOBI_MAX_SWEEPS):
        live = live[np.abs(w[live[:, None], iu, ju]).max(axis=1) >= DEFAULT_TOL]
        if live.size == 0:
            return
        sub = w if live.size == len(w) else w[live]
        for p, q in zip(iu.tolist(), ju.tolist()):
            _rotate_stack(sub, p, q)
        if sub is not w:
            w[live] = sub
    off = float(np.abs(w[live[:, None], iu, ju]).max())
    raise ConvergenceError(
        f"no convergence after {_JACOBI_MAX_SWEEPS} sweeps; off-diagonal residual {off:.3e}"
        f" ({live.size} of {len(w)} stack members)"
    )


def hermitian_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or stack, ascending, via the Jacobi path.

    A lone ``(n, n)`` matrix gives shape ``(n,)`` and a ``(..., n, n)`` stack
    gives ``(..., n)``. Every member must be Hermitian within ``DEFAULT_TOL``,
    which is also the off-diagonal magnitude below which Jacobi stops, and
    ConvergenceError is raised if any member hits the sweep cap.
    """
    m = np.array(a, dtype=np.complex128)
    w = _hermitian_stack(m)
    _jacobi_sweeps_stack(w)
    return np.sort(np.diagonal(w, axis1=1, axis2=2).real, axis=1).reshape(m.shape[:-1])


def is_positive_semidefinite(a, tol: float = PSD_TOL) -> np.ndarray:
    """True when the smallest eigenvalue is >= -tol. Input must be Hermitian.

    A numpy bool for a lone matrix, a boolean array of shape ``(...)`` for a
    ``(..., n, n)`` stack.
    """
    return hermitian_eigenvalues(a)[..., 0] >= -tol
