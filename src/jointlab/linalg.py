"""Dense complex linear algebra for single- and two-qubit operators.

Everything here operates on plain numpy complex arrays of dimension 2 or 4:
Pauli construction, Kronecker products, traces, and a cyclic-Jacobi
eigensolver used to certify positivity of measurement operators and states.
The closed-form 2x2 eigenvalue formula is deliberately not used in
production, so a single eigenvalue path serves both dimensions; the test
suite keeps the closed form around as an independent oracle.

The eigensolver takes a lone ``(n, n)`` matrix or a ``(..., n, n)`` stack.
Both run the same cyclic Jacobi (same rotations, same ``(p, q)`` order, the
same per-entry skip and sweep cap); a stack runs each rotation for all of
its members at once in numpy, a lone matrix runs it on Python scalars,
which for one matrix is about eight times cheaper than a stack of one.

All comparisons use absolute tolerances; every quantity in this package is
O(1) by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "PSD_TOL",
    "ConvergenceError",
    "Spectrum",
    "pauli",
    "tensor_product",
    "matmul",
    "trace",
    "is_hermitian",
    "is_unit_trace",
    "hermitian_eigenvalues",
    "hermitian_eigensystem",
    "is_positive_semidefinite",
]

DEFAULT_TOL = 1e-12
PSD_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Jacobi sweep cap reached before the off-diagonal norm dropped below tolerance."""


def _as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


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


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with index convention (i_a, i_b) -> i_a * dim_b + i_b.

    For two qubits this orders the product basis as |00>, |01>, |10>, |11>.
    """
    return np.kron(_as_complex_matrix(a), _as_complex_matrix(b))


def matmul(a, b) -> np.ndarray:
    """Matrix product of two equal-dimension square matrices."""
    ma, mb = _as_complex_matrix(a), _as_complex_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return ma @ mb


def trace(a) -> complex:
    """Sum of the diagonal entries of a square matrix."""
    return complex(np.trace(_as_complex_matrix(a)))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    """True when max |A - A^dagger| <= tol."""
    m = _as_complex_matrix(a)
    return float(np.abs(m - m.conj().T).max()) <= tol


def is_unit_trace(a, tol: float = DEFAULT_TOL) -> bool:
    """True when |tr A - 1| <= tol."""
    return abs(trace(a) - 1.0) <= tol


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues of a Hermitian matrix, sorted ascending."""

    eigenvalues: tuple[float, ...]

    @property
    def min(self) -> float:
        return self.eigenvalues[0]

    @property
    def max(self) -> float:
        return self.eigenvalues[-1]


def _scalar_hermitian(a, tol: float) -> list[list[complex]]:
    """Copy a matrix into nested scalar lists, validating shape, finiteness, hermiticity."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    w = [[complex(m[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        d = w[i][i]
        if not (math.isfinite(d.real) and math.isfinite(d.imag)):
            raise ValueError("matrix entries must be finite")
        if abs(d.imag) > tol:
            raise ValueError("matrix is not Hermitian within tolerance")
        for j in range(i + 1, n):
            u, l = w[i][j], w[j][i]
            if not all(map(math.isfinite, (u.real, u.imag, l.real, l.imag))):
                raise ValueError("matrix entries must be finite")
            if abs(u - l.conjugate()) > tol:
                raise ValueError("matrix is not Hermitian within tolerance")
    return w


def _jacobi_sweeps(w: list[list[complex]], v: list[list[complex]] | None, tol: float) -> None:
    """Cyclic Jacobi rotations in place until all off-diagonals are below tol."""
    n = len(w)
    for _sweep in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                mag = abs(w[p][q])
                if mag > off:
                    off = mag
        if off < tol:
            return
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p][q]
                r = abs(apq)
                if r < tol:
                    continue
                phase = apq / r
                tau = (w[q][q].real - w[p][p].real) / (2.0 * r)
                t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = s * phase.conjugate()
                for i in range(n):
                    aip = w[i][p]
                    aiq = w[i][q]
                    w[i][p] = c * aip - spc * aiq
                    w[i][q] = sp * aip + c * aiq
                for j in range(n):
                    apj = w[p][j]
                    aqj = w[q][j]
                    w[p][j] = c * apj - sp * aqj
                    w[q][j] = spc * apj + c * aqj
                if v is not None:
                    for i in range(n):
                        vip = v[i][p]
                        viq = v[i][q]
                        v[i][p] = c * vip - spc * viq
                        v[i][q] = sp * vip + c * viq
                # exact by construction; drop the rounding residue
                w[p][q] = 0j
                w[q][p] = 0j
                w[p][p] = complex(w[p][p].real)
                w[q][q] = complex(w[q][q].real)
    off = max(abs(w[p][q]) for p in range(n - 1) for q in range(p + 1, n))
    raise ConvergenceError(
        f"no convergence after {_JACOBI_MAX_SWEEPS} sweeps; off-diagonal residual {off:.3e}"
    )


def _first_failing(ok: np.ndarray, batch_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Stack index of the first member whose flag in ``ok`` is False."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), batch_shape))


def _stack_hermitian(a, tol: float) -> np.ndarray:
    """Copy a stack into an (N, n, n) array, validating shape, finiteness, hermiticity."""
    m = np.array(a, dtype=np.complex128)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    n = m.shape[-1]
    w = m.reshape(-1, n, n)
    finite = np.isfinite(w).all(axis=(1, 2))
    if not finite.all():
        k = _first_failing(finite, m.shape[:-2])
        raise ValueError(f"matrix entries must be finite (stack member {k})")
    iu, ju = np.triu_indices(n, 1)
    hermitian = (np.abs(np.diagonal(w, axis1=1, axis2=2).imag) <= tol).all(axis=1)
    hermitian &= (np.abs(w[:, iu, ju] - w[:, ju, iu].conj()) <= tol).all(axis=1)
    if not hermitian.all():
        k = _first_failing(hermitian, m.shape[:-2])
        raise ValueError(f"matrix is not Hermitian within tolerance (stack member {k})")
    return w


def _rotate_stack(w: np.ndarray, p: int, q: int, tol: float) -> None:
    """One Jacobi rotation in the (p, q) plane of every member with |w_pq| >= tol, in place."""
    r = np.abs(w[:, p, q])
    hit = r >= tol
    if not hit.any():
        return
    partial = not hit.all()
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
    cp, cq = m[:, :, p].copy(), m[:, :, q].copy()
    m[:, :, p] = c * cp - spc * cq
    m[:, :, q] = sp * cp + c * cq
    rp, rq = m[:, p, :].copy(), m[:, q, :].copy()
    m[:, p, :] = c * rp - sp * rq
    m[:, q, :] = spc * rp + c * rq
    # exact by construction; drop the rounding residue
    m[:, p, q] = 0j
    m[:, q, p] = 0j
    m[:, p, p] = m[:, p, p].real
    m[:, q, q] = m[:, q, q].real
    if partial:
        w[hit] = m


def _jacobi_sweeps_stack(w: np.ndarray, tol: float) -> None:
    """Cyclic Jacobi on an (N, n, n) stack in place.

    A member leaves the sweeps once all its off-diagonal magnitudes are below
    ``tol``, as the scalar path returns for a lone matrix.
    """
    iu, ju = np.triu_indices(w.shape[-1], 1)
    if iu.size == 0:
        return
    live = np.arange(len(w))
    for _sweep in range(_JACOBI_MAX_SWEEPS):
        live = live[np.abs(w[live[:, None], iu, ju]).max(axis=1) >= tol]
        if live.size == 0:
            return
        sub = w if live.size == len(w) else w[live]
        for p, q in zip(iu.tolist(), ju.tolist()):
            _rotate_stack(sub, p, q, tol)
        if sub is not w:
            w[live] = sub
    off = float(np.abs(w[live[:, None], iu, ju]).max())
    raise ConvergenceError(
        f"no convergence after {_JACOBI_MAX_SWEEPS} sweeps; off-diagonal residual {off:.3e}"
        f" ({live.size} of {len(w)} stack members)"
    )


def hermitian_eigensystem(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps over the strict upper triangle, annihilating each entry with a
    complex plane rotation, until every off-diagonal magnitude is below
    ``tol`` (at most 100 sweeps). Returns ``(w, u)`` where ``w`` holds the
    eigenvalues in ascending order and the columns of ``u`` are the matching
    eigenvectors, so ``a ~= u @ diag(w) @ u^dagger``.

    Raises ValueError for non-Hermitian input and ConvergenceError (with the
    residual) if the sweep cap is hit.
    """
    w = _scalar_hermitian(a, tol)
    n = len(w)
    v = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    _jacobi_sweeps(w, v, tol)
    eigs = [w[i][i].real for i in range(n)]
    order = sorted(range(n), key=eigs.__getitem__)
    values = np.array([eigs[i] for i in order])
    vectors = np.array([[v[i][j] for j in order] for i in range(n)])
    return values, vectors


def hermitian_eigenvalues(a, tol: float = DEFAULT_TOL) -> Spectrum | np.ndarray:
    """Eigenvalues of a Hermitian matrix (ascending), via the Jacobi path.

    A lone ``(n, n)`` matrix gives a ``Spectrum``. A ``(..., n, n)`` stack
    gives a real array of shape ``(..., n)``, ascending along the last axis;
    every member must be Hermitian within ``tol``, and ConvergenceError is
    raised if any member hits the sweep cap.
    """
    if np.ndim(a) > 2:
        m = np.asarray(a)
        w = _stack_hermitian(m, tol)
        _jacobi_sweeps_stack(w, tol)
        eigs = np.sort(np.diagonal(w, axis1=1, axis2=2).real, axis=1)
        return eigs.reshape(m.shape[:-1])
    w = _scalar_hermitian(a, tol)
    _jacobi_sweeps(w, None, tol)
    return Spectrum(tuple(sorted(w[i][i].real for i in range(len(w)))))


def is_positive_semidefinite(a, tol: float = PSD_TOL) -> bool | np.ndarray:
    """True when the smallest eigenvalue is >= -tol. Input must be Hermitian.

    For a ``(..., n, n)`` stack, a boolean array of shape ``(...)``.
    """
    eigs = hermitian_eigenvalues(a)
    if isinstance(eigs, Spectrum):
        return eigs.min >= -tol
    return eigs[..., 0] >= -tol
