import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointlab.linalg import (
    PSD_TOL,
    hermitian_eigenvalues,
    is_positive_semidefinite,
    pauli,
)
from jointlab.pairs import validate_densities


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
        assert np.allclose(pauli(label) @ pauli(label), np.eye(2))

    def test_xy_gives_iz(self):
        assert np.allclose(pauli("X") @ pauli("Y"), 1j * pauli("Z"))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown Pauli"):
            pauli("Q")

    def test_returned_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            pauli("X")[0, 0] = 5.0


class TestTensorAndTrace:
    """Two-qubit operators are ``np.kron`` products in the |00>, |01>, |10>, |11> basis."""

    def test_identity_tensor_identity(self):
        assert np.array_equal(np.kron(pauli("I"), pauli("I")), np.eye(4))

    def test_traceless_factors(self):
        assert np.trace(np.kron(pauli("X"), pauli("X"))) == 0

    def test_zz_diagonal(self):
        zz = np.kron(pauli("Z"), pauli("Z"))
        assert np.allclose(np.diag(zz), [1, -1, -1, 1])

    def test_index_convention(self):
        # X on the first factor maps |0b> to |1b>: entry (2+b, b) is one
        xi = np.kron(pauli("X"), pauli("I"))
        assert xi[2, 0] == 1 and xi[3, 1] == 1

    def test_trace_identity4(self):
        assert np.trace(np.eye(4)) == 4

    def test_trace_pauli_zero(self):
        assert np.trace(pauli("X")) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigenvalues(np.array([[np.nan, 0], [0, 1]]))


class TestEigenvalues:
    def test_pauli_z(self):
        assert hermitian_eigenvalues(pauli("Z")).tolist() == [-1.0, 1.0]

    def test_tensor_xx(self):
        w = hermitian_eigenvalues(np.kron(pauli("X"), pauli("X")))
        assert tuple(w) == pytest.approx((-1.0, -1.0, 1.0, 1.0), abs=1e-12)

    def test_povm_direction_matrix_frozen(self):
        # oracle: (1 +- sqrt(2))/4 for (1/4)(I + X + Y)
        m = 0.25 * (pauli("I") + pauli("X") + pauli("Y"))
        w = tuple(hermitian_eigenvalues(m))
        assert w == pytest.approx((-0.10355339059327379, 0.6035533905932737), abs=1e-12)
        assert w == pytest.approx(eig2_closed_form(m), abs=1e-12)

    @given(
        a=st.floats(-5, 5),
        d=st.floats(-5, 5),
        br=st.floats(-5, 5),
        bi=st.floats(-5, 5),
    )
    @settings(max_examples=200)
    def test_matches_closed_form_2x2(self, a, d, br, bi):
        m = np.array([[a, br + 1j * bi], [br - 1j * bi, d]])
        assert tuple(hermitian_eigenvalues(m)) == pytest.approx(eig2_closed_form(m), abs=1e-12)

    def test_random_4x4_eigenvalues_sum_to_trace(self):
        a = ginibre_hermitian_stack(np.random.default_rng(7), (1000,), 4)
        w = hermitian_eigenvalues(a)
        assert np.abs(w.sum(axis=-1) - np.trace(a, axis1=-2, axis2=-1).real).max() < 1e-10

    def test_tensor_eigenvalues_are_products(self):
        # commuting tensor factors: eigenvalue multiset is all pairwise products
        for left, right in (("X", "X"), ("Z", "Z"), ("X", "Z")):
            w = hermitian_eigenvalues(np.kron(pauli(left), pauli(right)))
            products = sorted(
                a * b
                for a in hermitian_eigenvalues(pauli(left)).tolist()
                for b in hermitian_eigenvalues(pauli(right)).tolist()
            )
            assert tuple(w) == pytest.approx(products, abs=1e-12)

    def test_sorted_ascending(self):
        w = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0, 0.0])).tolist()
        assert w == sorted(w)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_already_diagonal_converges_immediately(self):
        assert hermitian_eigenvalues(np.diag([2.0, 5.0])).tolist() == [2.0, 5.0]


class TestPositivity:
    def test_identity_is_psd(self):
        assert is_positive_semidefinite(np.eye(2))

    def test_pauli_z_is_not(self):
        assert not is_positive_semidefinite(pauli("Z"))

    def test_projector_boundary(self):
        assert is_positive_semidefinite(0.25 * (pauli("I") + pauli("X")))

    def test_hermiticity_helpers(self):
        for label in "IXYZ":
            assert np.array_equal(pauli(label), pauli(label).conj().T)
        with pytest.raises(ValueError, match="Hermitian"):
            is_positive_semidefinite(np.array([[0, 1], [0.5, 0]]))


def ginibre_hermitian_stack(rng, shape, n):
    g = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def known_spectrum_stack(rng, spectra):
    """U diag(lam) U^dagger for each row lam of ``spectra``.

    U is unitary, from the QR of a complex Gaussian.
    """
    spectra = np.asarray(spectra, dtype=float)
    n = spectra.shape[-1]
    g = rng.normal(size=spectra.shape + (n,)) + 1j * rng.normal(size=spectra.shape + (n,))
    u, _ = np.linalg.qr(g)
    return (u * spectra[..., None, :]) @ u.conj().swapaxes(-1, -2)


# exact zeros, repeated values and negatives on the PSD_TOL scale, per size
KNOWN_SPECTRA = {
    1: [[0.0], [-1e-10], [0.7], [-2.0]],
    2: [[0.0, 0.0], [-1e-10, 0.0], [0.5, 0.5], [-0.5e-10, 1.0], [-1.0, 1.0], [0.0, 1.0]],
    3: [
        [0.0, 0.0, 1.0],
        [-1e-10, -1e-10, 0.5],
        [0.25, 0.25, 0.25],
        [-2e-10, 0.0, 0.0],
        [-1.0, 0.0, 2.0],
    ],
    4: [
        [0.0, 0.0, 0.0, 1.0],
        [-2e-10, 0.0, 0.5, 0.5],
        [0.25, 0.25, 0.25, 0.25],
        [-1.0, -1.0, 1.0, 1.0],
        [-0.5e-10, -0.5e-10, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
}


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
    def test_2x2_stack_matches_closed_form_and_eigvalsh(self, entries):
        stack = np.array([[[a, br + 1j * bi], [br - 1j * bi, d]] for a, d, br, bi in entries])
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (len(entries), 2)
        for m, w in zip(stack, eigs):
            assert tuple(w) == pytest.approx(eig2_closed_form(m), abs=1e-12)
        # production sends 2x2 to its closed form, so LAPACK is an independent oracle here
        assert np.abs(eigs - np.linalg.eigvalsh(stack)).max() < 1e-12

    @pytest.mark.parametrize("n", sorted(KNOWN_SPECTRA))
    def test_known_spectra(self, n):
        spectra = np.repeat(KNOWN_SPECTRA[n], 50, axis=0)
        stack = known_spectrum_stack(np.random.default_rng(19 + n), spectra)
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == spectra.shape
        assert np.abs(eigs - np.sort(spectra, axis=1)).max() < 1e-12

    def test_ginibre_4x4_stack_matches_scalar_path(self):
        stack = ginibre_hermitian_stack(np.random.default_rng(11), (25, 20), 4)
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (25, 20, 4)
        # each lone matrix is its row of the stack, bit for bit
        lone = np.array([[hermitian_eigenvalues(m) for m in row] for row in stack])
        assert lone.tobytes() == eigs.tobytes()

    def test_stack_positivity_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        stack = ginibre_hermitian_stack(rng, (200,), 4) + 2.0 * np.eye(4)
        flags = is_positive_semidefinite(stack)
        assert flags.shape == (200,) and flags.any() and not flags.all()
        assert flags.tolist() == [bool(is_positive_semidefinite(m)) for m in stack]

    @pytest.mark.parametrize("lam_min, passes", [(-0.5 * PSD_TOL, True), (-2.0 * PSD_TOL, False)])
    @pytest.mark.parametrize("n, via", [(2, "lone"), (4, "lone"), (4, "validate_densities")])
    def test_psd_tol_boundary(self, n, via, lam_min, passes):
        # unit-trace spectra, so that validate_densities judges positivity alone
        low = [lam_min, 1.0 - lam_min] if n == 2 else [lam_min, 0.2, 0.3, 0.5 - lam_min]
        if via == "lone":
            m = known_spectrum_stack(np.random.default_rng(23), low)
            assert is_positive_semidefinite(m) == passes
            return
        spectra = [[0.0, 0.2, 0.3, 0.5]] * 5
        spectra[2] = spectra[4] = low
        stack = known_spectrum_stack(np.random.default_rng(29), spectra)
        if passes:
            assert validate_densities(stack).shape == (5, 4, 4)
        else:
            with pytest.raises(ValueError, match=r"not positive semidefinite \(stack member 2\)"):
                validate_densities(stack)

    def test_lone_matrix_gives_an_array(self):
        w = hermitian_eigenvalues(np.eye(2))
        assert isinstance(w, np.ndarray) and w.tolist() == [1.0, 1.0]
        assert hermitian_eigenvalues(np.eye(2)[None]).tolist() == [[1.0, 1.0]]
        assert isinstance(is_positive_semidefinite(np.eye(2)), np.bool_)

    @pytest.mark.parametrize("n", [2, 4])
    def test_lone_is_a_stack_of_one_and_a_member_of_a_larger_stack(self, n):
        stack = ginibre_hermitian_stack(np.random.default_rng(13), (9,), n)
        eigs = hermitian_eigenvalues(stack)
        for k in (0, 4, 8):
            lone = hermitian_eigenvalues(stack[k])
            assert lone.shape == (n,)
            assert np.array_equal(lone, hermitian_eigenvalues(stack[k : k + 1])[0])
            assert np.array_equal(lone, eigs[k])

    @pytest.mark.parametrize("shape", [(3,), ()])
    def test_fewer_than_two_axes_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.ones(shape))
        with pytest.raises(ValueError, match="square"):
            is_positive_semidefinite(np.ones(shape))

    @pytest.mark.parametrize(
        "entry, match", [(1e-6, "not Hermitian"), (np.nan, "finite"), (np.inf, "finite")]
    )
    def test_lone_matrix_error_names_no_member(self, entry, match):
        m = np.eye(4, dtype=complex)
        m[1, 2] = entry
        with pytest.raises(ValueError, match=match) as info:
            hermitian_eigenvalues(m)
        assert "stack member" not in str(info.value)

    def test_empty_stack(self):
        assert hermitian_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 4)

    def test_non_hermitian_member_rejected(self):
        stack = np.stack([np.eye(2)] * 5).astype(complex)
        stack[3, 0, 1] = 1e-6
        with pytest.raises(ValueError, match=r"not Hermitian.*\(stack member 3\)"):
            hermitian_eigenvalues(stack)
        stack[3, 0, 1] = 0.0
        stack[1, 1, 1] = 1j * 1e-6
        with pytest.raises(ValueError, match=r"not Hermitian.*\(stack member 1\)"):
            is_positive_semidefinite(stack)

    def test_non_finite_member_rejected(self):
        stack = np.stack([np.eye(4)] * 6).astype(complex).reshape(2, 3, 4, 4)
        stack[1, 2, 0, 3] = np.inf
        with pytest.raises(ValueError, match=r"finite.*\(1, 2\)"):
            hermitian_eigenvalues(stack)

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.zeros((3, 2, 4)))

    def test_solver_error_reaches_validate_densities_caller(self, monkeypatch):
        failure = np.linalg.LinAlgError("Eigenvalues did not converge")

        def no_convergence(*args, **kwargs):
            raise failure

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        with pytest.raises(np.linalg.LinAlgError) as info:
            validate_densities(np.stack([np.eye(4) / 4] * 3))
        assert info.value is failure


# max |m - m^dagger| <= 1e-12 allows a diagonal imaginary part of at most 5e-13
@pytest.mark.parametrize("imag, accepted", [(4e-13, True), (6e-13, False)])
def test_one_hermitian_rule_for_eigenvalues_and_states(imag, accepted):
    rho = np.eye(4, dtype=np.complex128) / 4
    rho[1, 1] += 1j * imag
    calls = (
        lambda: hermitian_eigenvalues(rho),
        lambda: hermitian_eigenvalues(rho[:2, :2]),  # the 2x2 closed form
        lambda: validate_densities(rho),
    )
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                call()
