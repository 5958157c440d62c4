import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointlab.joint import (
    OUTCOMES,
    VisibilityPair,
    admissible_visibilities,
    bloch_bound_lhs,
    equatorial_densities,
    outcome_moments,
    outcome_probabilities,
    povm_elements,
)
from jointlab.linalg import hermitian_eigenvalues, is_positive_semidefinite
from jointlab.pairs import PAIR_OUTCOMES, PairOutcomeDistribution

from conftest import pauli_density, pauli_povm

INV_SQRT2 = 1.0 / math.sqrt(2.0)

visibilities = st.builds(
    VisibilityPair, st.floats(0.0, 1.0), st.floats(0.0, 1.0)
)
bloch_points = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


class TestTypes:
    @pytest.mark.parametrize("vx,vy", [(-0.1, 0.5), (1.1, 0.0), (0.2, math.nan)])
    def test_visibility_box_rejected(self, vx, vy):
        with pytest.raises(ValueError):
            VisibilityPair(vx, vy)

    def test_admissibility(self):
        assert admissible_visibilities(INV_SQRT2, INV_SQRT2)
        assert admissible_visibilities(1.0, 0.0)
        assert not admissible_visibilities(1.0, 1.0)

    def test_unphysical_bloch_point_lies_outside_the_disk(self):
        assert bloch_bound_lhs(0.9, 0.9) == pytest.approx(1.62, abs=1e-12)

    def test_distribution_invariants(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PairOutcomeDistribution(np.full(16, 0.07))
        bad = np.full(16, 1.0 / 16.0)
        bad[0] -= 0.1
        bad[1] += 0.1
        with pytest.raises(ValueError, match="hypothetical"):
            PairOutcomeDistribution(bad)
        PairOutcomeDistribution(bad, hypothetical=True)


UNIFORM = np.full(16, 1.0 / 16.0)


class TestOutcomeRows:
    @pytest.mark.parametrize(
        "probs",
        [np.full(15, 1.0 / 15.0), np.full(4, 0.25), np.full((4, 4), 1.0 / 16.0),
         {o: 1.0 / 16.0 for o in PAIR_OUTCOMES}],
    )
    def test_wrong_shape_or_mapping_rejected(self, probs):
        with pytest.raises(ValueError, match="outcome order"):
            PairOutcomeDistribution(probs)

    def test_probs_are_a_read_only_copy(self):
        source = np.arange(1.0, 17.0) / 136.0
        expected = source.tolist()
        d = PairOutcomeDistribution(source)
        assert isinstance(d.probs, np.ndarray) and d.probs.dtype == np.float64
        assert not d.probs.flags.writeable
        with pytest.raises(ValueError):
            d.probs[0] = 1.0
        source[0] = 1.0
        assert d.probs.tolist() == expected
        assert [d[o] for o in PAIR_OUTCOMES] == expected

    @pytest.mark.parametrize("label", [(1, 1, 0, 1), (1, 1), (1, 1, 1, 1, 1), "abcd", 1])
    def test_unknown_label_rejected(self, label):
        d = PairOutcomeDistribution(UNIFORM)
        with pytest.raises(ValueError, match="unknown outcome label"):
            d[label]

    @pytest.mark.parametrize("hypothetical", [False, True])
    def test_nan_distribution_rejected(self, hypothetical):
        with pytest.raises(ValueError, match="sum to 1, got nan"):
            PairOutcomeDistribution(np.full(16, math.nan), hypothetical)

    def test_equality_and_hash_go_by_identity(self):
        a = PairOutcomeDistribution(UNIFORM)
        b = PairOutcomeDistribution(UNIFORM)
        assert a == a and not a == b and a != b
        assert a in [b, a] and b not in [a] and len({a, b, a}) == 2
        assert hash(a) == hash(a)


class TestPovmElements:
    def test_projective_limit_in_x(self):
        e = povm_elements(1.0, 0.0)[OUTCOMES.index((1, 1))]
        assert np.allclose(e, 0.25 * np.array([[1, 1], [1, 1]]))
        assert tuple(hermitian_eigenvalues(e)) == pytest.approx((0.0, 0.5), abs=1e-12)

    def test_boundary_pair_touches_zero(self):
        for e in povm_elements(INV_SQRT2, INV_SQRT2):
            assert hermitian_eigenvalues(e)[0] == pytest.approx(0.0, abs=1e-12)

    def test_inadmissible_pair_not_psd(self):
        for e in povm_elements(1.0, 1.0):
            w = hermitian_eigenvalues(e)
            # oracle value (1 - sqrt(2))/4
            assert w[0] == pytest.approx(-0.10355339059327379, abs=1e-12)
            assert not is_positive_semidefinite(e)

    @given(v=visibilities)
    def test_completeness_is_exact(self, v):
        total = sum(povm_elements(v.v_x, v.v_y))
        assert np.abs(total - np.eye(2)).max() <= 1e-14


class TestOutcomeProbabilities:
    def test_perfect_x_measurement(self):
        p = outcome_probabilities(1.0, 0.0, 1.0, 0.0)
        assert p.tolist() == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)

    def test_boundary_case(self):
        p = outcome_probabilities(INV_SQRT2, INV_SQRT2, INV_SQRT2, INV_SQRT2)
        assert admissible_visibilities(INV_SQRT2, INV_SQRT2)
        assert p.tolist() == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=1e-12)

    def test_inadmissible_visibilities_go_negative(self):
        p = outcome_probabilities(1.0, 1.0, INV_SQRT2, INV_SQRT2)
        assert not admissible_visibilities(1.0, 1.0)
        # (1 - sqrt(2))/4
        assert p[OUTCOMES.index((-1, -1))] == pytest.approx(-0.10355339059327379, abs=1e-12)

    @given(v=visibilities, s=bloch_points)
    def test_matches_trace_oracle(self, v, s):
        rho = pauli_density(*s)
        assert np.abs(equatorial_densities(*s) - rho).max() <= 1e-15
        traced = np.einsum("ij,kji->k", rho, pauli_povm(v.v_x, v.v_y)).real
        assert outcome_probabilities(v.v_x, v.v_y, *s) == pytest.approx(traced, abs=1e-12)

    def test_trace_oracle_bulk(self):
        rng = np.random.default_rng(3)
        v_x, v_y, turn, radius = rng.random((4, 1000))
        ex, ey = radius * np.cos(2 * math.pi * turn), radius * np.sin(2 * math.pi * turn)
        traced = np.einsum("nij,nkji->nk", pauli_density(ex, ey), pauli_povm(v_x, v_y)).real
        assert np.abs(outcome_probabilities(v_x, v_y, ex, ey) - traced).max() < 1e-12


class TestMoments:
    def test_linearity_example(self):
        mean_x, mean_y, mean_xy = outcome_moments(outcome_probabilities(0.6, 0.8, 0.5, 0.5))
        assert mean_x == pytest.approx(0.30, abs=1e-12)
        assert mean_y == pytest.approx(0.40, abs=1e-12)
        assert mean_xy == pytest.approx(0.0, abs=1e-14)

    def test_uniform_distribution(self):
        assert outcome_moments(np.full(4, 0.25)).tolist() == [0.0, 0.0, 0.0]

    @given(v=visibilities)
    def test_maximally_mixed_input(self, v):
        assert outcome_moments(outcome_probabilities(v.v_x, v.v_y, 0.0, 0.0)).tolist() == [0.0] * 3

    @given(v=visibilities, s=bloch_points)
    def test_product_mean_always_zero(self, v, s):
        ex, ey = s
        mean_x, mean_y, mean_xy = outcome_moments(outcome_probabilities(v.v_x, v.v_y, ex, ey))
        assert abs(mean_xy) <= 1e-14
        assert mean_x == pytest.approx(v.v_x * ex, abs=1e-12)
        assert mean_y == pytest.approx(v.v_y * ey, abs=1e-12)


class TestBounds:
    @given(v=visibilities, s=bloch_points)
    def test_lhs_determines_min_probability(self, v, s):
        # the smallest probability is (1 - |v_x ex| - |v_y ey|) / 4: none is
        # negative exactly when |v_x ex| + |v_y ey| <= 1
        ex, ey = s
        min_prob = outcome_probabilities(v.v_x, v.v_y, ex, ey).min(-1)
        lhs = abs(v.v_x * ex) + abs(v.v_y * ey)
        assert min_prob == pytest.approx(0.25 * (1.0 - lhs), abs=1e-15)

    def test_state_positivity_examples(self):
        cases = [
            ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, INV_SQRT2), 0.0),
            ((1.0, 0.0), (1.0, 0.0), 0.0),
            ((0.0, 0.0), (0.3, -0.8), 0.25),
        ]
        for (vx, vy), (ex, ey), expected in cases:
            assert outcome_probabilities(vx, vy, ex, ey).min() == pytest.approx(expected, abs=1e-12)

    @given(v=visibilities)
    def test_admissibility_equals_povm_positivity(self, v):
        norm2 = v.v_x**2 + v.v_y**2
        if abs(norm2 - 1.0) < 1e-8:
            return  # tolerance collar: both predicates are fuzzy there
        admissible = admissible_visibilities(v.v_x, v.v_y, 1e-10)
        psd = all(is_positive_semidefinite(e, 1e-10) for e in povm_elements(v.v_x, v.v_y))
        assert admissible == psd

    def test_bloch_bound_values(self):
        assert bloch_bound_lhs(INV_SQRT2, INV_SQRT2) == pytest.approx(1.0)
        assert bloch_bound_lhs(0.0, 0.0) == 0.0


class TestStackedPovm:
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_subnormal=False),
                st.floats(0.0, 1.0, allow_subnormal=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_equals_the_pauli_reference(self, pairs):
        v_x = np.array([a for a, _ in pairs])
        v_y = np.array([b for _, b in pairs])
        stack = povm_elements(v_x, v_y)
        assert stack.shape == (len(pairs), 4, 2, 2)
        assert np.array_equal(stack, pauli_povm(v_x, v_y))

    def test_broadcast_grid_with_edges(self):
        values = np.linspace(0.0, 1.0, 9)
        stack = povm_elements(values[:, None], values[None, :])
        assert stack.shape == (9, 9, 4, 2, 2)
        assert np.array_equal(stack, pauli_povm(values[:, None], values[None, :]))

    @pytest.mark.parametrize("vx", [-0.1, 1.5, math.nan])
    def test_out_of_box_visibility_rejected(self, vx):
        with pytest.raises(ValueError, match="^v_x must be finite and lie in"):
            povm_elements(np.array([0.5, vx]), 0.5)
        with pytest.raises(ValueError, match="^v_y must be finite and lie in"):
            povm_elements(0.5, np.array([0.5, vx]))

    @pytest.mark.parametrize(
        "bad",
        [np.array([True, False]), np.array(["0.5", "1"]), np.array([0.5, None]),
         np.array([0.5 + 0j]), b"0.5"],
        ids=["bool", "text", "object", "complex", "bytes"],
    )
    def test_non_numeric_visibility_dtype_rejected(self, bad):
        with pytest.raises(ValueError, match="^v_x must be real numbers"):
            povm_elements(bad, 0.5)
        with pytest.raises(ValueError, match="^v_y must be real numbers"):
            povm_elements(0.5, bad)

    def test_integer_visibilities_are_the_floats(self):
        ints = np.array([0, 1], dtype=np.int64)
        assert np.array_equal(povm_elements(ints, np.uint8(1)), povm_elements([0.0, 1.0], 1.0))
