import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointlab.linalg import (
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


def eig2_closed_form(m):
    """Quadratic-formula eigenvalues of a 2x2 Hermitian matrix (independent oracle)."""
    a = m[0, 0].real
    d = m[1, 1].real
    mean = 0.5 * (a + d)
    disc = math.sqrt((0.5 * (a - d)) ** 2 + abs(m[0, 1]) ** 2)
    return (mean - disc, mean + disc)


class TestPauli:
    def test_x_flips_ground_state(self):
        ket0 = np.array([1.0, 0.0])
        assert np.allclose(pauli("X") @ ket0, [0.0, 1.0])

    def test_y_convention(self):
        ket0 = np.array([1.0, 0.0])
        assert np.allclose(pauli("Y") @ ket0, [0.0, 1j])

    def test_identity(self):
        assert np.array_equal(pauli("I"), np.eye(2))

    @pytest.mark.parametrize("label", ["X", "Y", "Z"])
    def test_involution(self, label):
        assert np.allclose(matmul(pauli(label), pauli(label)), np.eye(2))

    def test_xy_gives_iz(self):
        assert np.allclose(matmul(pauli("X"), pauli("Y")), 1j * pauli("Z"))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown Pauli"):
            pauli("Q")

    def test_returned_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            pauli("X")[0, 0] = 5.0


class TestTensorAndTrace:
    def test_identity_tensor_identity(self):
        assert np.array_equal(tensor_product(pauli("I"), pauli("I")), np.eye(4))

    def test_traceless_factors(self):
        assert trace(tensor_product(pauli("X"), pauli("X"))) == 0

    def test_zz_diagonal(self):
        zz = tensor_product(pauli("Z"), pauli("Z"))
        assert np.allclose(np.diag(zz), [1, -1, -1, 1])

    def test_index_convention(self):
        # X on the first factor maps |0b> to |1b>: entry (2+b, b) is one
        xi = tensor_product(pauli("X"), pauli("I"))
        assert xi[2, 0] == 1 and xi[3, 1] == 1

    def test_trace_identity4(self):
        assert trace(np.eye(4)) == 4

    def test_trace_pauli_zero(self):
        assert trace(pauli("X")) == 0

    def test_matmul_identity(self):
        a = np.array([[1, 2j], [3, 4]], dtype=complex)
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(np.eye(2), np.eye(4))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            trace(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            trace(np.array([[np.nan, 0], [0, 1]]))


class TestEigenvalues:
    def test_pauli_z(self):
        assert hermitian_eigenvalues(pauli("Z")) == Spectrum((-1.0, 1.0))

    def test_tensor_xx(self):
        spec = hermitian_eigenvalues(tensor_product(pauli("X"), pauli("X")))
        assert spec.eigenvalues == pytest.approx((-1.0, -1.0, 1.0, 1.0), abs=1e-12)

    def test_povm_direction_matrix_frozen(self):
        # oracle: (1 +- sqrt(2))/4 for (1/4)(I + X + Y)
        m = 0.25 * (pauli("I") + pauli("X") + pauli("Y"))
        spec = hermitian_eigenvalues(m)
        assert spec.eigenvalues == pytest.approx(
            (-0.10355339059327379, 0.6035533905932737), abs=1e-12
        )
        assert spec.eigenvalues == pytest.approx(eig2_closed_form(m), abs=1e-12)

    @given(
        a=st.floats(-5, 5),
        d=st.floats(-5, 5),
        br=st.floats(-5, 5),
        bi=st.floats(-5, 5),
    )
    @settings(max_examples=200)
    def test_matches_closed_form_2x2(self, a, d, br, bi):
        m = np.array([[a, br + 1j * bi], [br - 1j * bi, d]])
        assert hermitian_eigenvalues(m).eigenvalues == pytest.approx(
            eig2_closed_form(m), abs=1e-12
        )

    def test_random_4x4_reconstruction_and_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = 0.5 * (g + g.conj().T)
            w, u = hermitian_eigensystem(a)
            assert abs(w.sum() - np.trace(a).real) < 1e-10
            assert np.abs(a - u @ np.diag(w) @ u.conj().T).max() < 1e-9

    def test_tensor_eigenvalues_are_products(self):
        # commuting tensor factors: eigenvalue multiset is all pairwise products
        for left, right in (("X", "X"), ("Z", "Z"), ("X", "Z")):
            spec = hermitian_eigenvalues(tensor_product(pauli(left), pauli(right)))
            products = sorted(
                a * b
                for a in hermitian_eigenvalues(pauli(left)).eigenvalues
                for b in hermitian_eigenvalues(pauli(right)).eigenvalues
            )
            assert spec.eigenvalues == pytest.approx(products, abs=1e-12)

    def test_sorted_ascending(self):
        w = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0, 0.0])).eigenvalues
        assert list(w) == sorted(w)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_already_diagonal_converges_immediately(self):
        assert hermitian_eigenvalues(np.diag([2.0, 5.0])).eigenvalues == (2.0, 5.0)


class TestPositivity:
    def test_identity_is_psd(self):
        assert is_positive_semidefinite(np.eye(2))

    def test_pauli_z_is_not(self):
        assert not is_positive_semidefinite(pauli("Z"))

    def test_projector_boundary(self):
        assert is_positive_semidefinite(0.25 * (pauli("I") + pauli("X")))

    def test_hermiticity_helpers(self):
        assert is_hermitian(pauli("Y"))
        assert not is_hermitian(np.array([[0, 1], [0.5, 0]]))
        assert is_unit_trace(np.eye(4) / 4)
        assert not is_unit_trace(np.eye(4))


def ginibre_hermitian_stack(rng, shape, n):
    g = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


class TestStackedEigenvalues:
    """The batched path on (..., n, n) stacks, against independent references."""

    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_2x2_stack_matches_closed_form(self, entries):
        stack = np.array([[[a, br + 1j * bi], [br - 1j * bi, d]] for a, d, br, bi in entries])
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (len(entries), 2)
        for m, w in zip(stack, eigs):
            assert tuple(w) == pytest.approx(eig2_closed_form(m), abs=1e-12)

    def test_ginibre_4x4_stack_matches_scalar_path_and_eigvalsh(self):
        stack = ginibre_hermitian_stack(np.random.default_rng(11), (25, 20), 4)
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (25, 20, 4)
        scalar = np.array(
            [[hermitian_eigenvalues(m).eigenvalues for m in row] for row in stack]
        )
        assert np.abs(eigs - scalar).max() < 1e-12
        # numpy's LAPACK solver as a test-only oracle
        assert np.abs(eigs - np.linalg.eigvalsh(stack)).max() < 1e-12

    def test_stack_positivity_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        stack = ginibre_hermitian_stack(rng, (200,), 4) + 2.0 * np.eye(4)
        flags = is_positive_semidefinite(stack)
        assert flags.shape == (200,) and flags.any() and not flags.all()
        assert flags.tolist() == [is_positive_semidefinite(m) for m in stack]

    def test_lone_matrix_keeps_spectrum_result(self):
        assert isinstance(hermitian_eigenvalues(np.eye(2)), Spectrum)
        assert hermitian_eigenvalues(np.eye(2)[None]).tolist() == [[1.0, 1.0]]

    def test_empty_stack(self):
        assert hermitian_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 4)

    def test_non_hermitian_member_rejected(self):
        stack = np.stack([np.eye(2)] * 5).astype(complex)
        stack[3, 0, 1] = 1e-6
        with pytest.raises(ValueError, match=r"not Hermitian.*\(3,\)"):
            hermitian_eigenvalues(stack)
        stack[3, 0, 1] = 0.0
        stack[1, 1, 1] = 1j * 1e-6
        with pytest.raises(ValueError, match=r"not Hermitian.*\(1,\)"):
            is_positive_semidefinite(stack)

    def test_non_finite_member_rejected(self):
        stack = np.stack([np.eye(4)] * 6).astype(complex).reshape(2, 3, 4, 4)
        stack[1, 2, 0, 3] = np.inf
        with pytest.raises(ValueError, match=r"finite.*\(1, 2\)"):
            hermitian_eigenvalues(stack)

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.zeros((3, 2, 4)))

    def test_sweep_cap_raises_on_stack(self, monkeypatch):
        import jointlab.linalg as linalg

        stack = ginibre_hermitian_stack(np.random.default_rng(3), (10,), 4)
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 2)
        with pytest.raises(linalg.ConvergenceError, match="residual"):
            hermitian_eigenvalues(stack)
