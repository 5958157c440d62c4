import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointlab.joint import (
    OUTCOMES,
    BlochEquatorial,
    SingleOutcomeDistribution,
    VisibilityPair,
    bloch_bound_lhs,
    check_visibility_admissible,
    distribution_moments,
    equatorial_density,
    outcome_distribution,
    povm_element,
    povm_elements,
    state_positivity_lhs,
)
from jointlab.linalg import hermitian_eigenvalues, is_positive_semidefinite

INV_SQRT2 = 1.0 / math.sqrt(2.0)

visibilities = st.builds(
    VisibilityPair, st.floats(0.0, 1.0), st.floats(0.0, 1.0)
)
bloch_states = st.builds(
    BlochEquatorial, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
)


class TestTypes:
    @pytest.mark.parametrize("vx,vy", [(-0.1, 0.5), (1.1, 0.0), (0.2, math.nan)])
    def test_visibility_box_rejected(self, vx, vy):
        with pytest.raises(ValueError):
            VisibilityPair(vx, vy)

    def test_bloch_box_rejected(self):
        with pytest.raises(ValueError):
            BlochEquatorial(1.5, 0.0)

    def test_admissibility(self):
        assert VisibilityPair(INV_SQRT2, INV_SQRT2).is_admissible()
        assert VisibilityPair(1.0, 0.0).is_admissible()
        assert not VisibilityPair(1.0, 1.0).is_admissible()

    def test_unphysical_bloch_is_constructible_but_flagged(self):
        s = BlochEquatorial(0.9, 0.9)
        assert not s.is_physical()
        assert bloch_bound_lhs(s) == pytest.approx(1.62, abs=1e-12)

    def test_distribution_invariants(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SingleOutcomeDistribution({o: 0.3 for o in OUTCOMES})
        bad = {(1, 1): -0.1, (1, -1): 0.4, (-1, 1): 0.4, (-1, -1): 0.3}
        with pytest.raises(ValueError, match="hypothetical"):
            SingleOutcomeDistribution(bad)
        SingleOutcomeDistribution(bad, hypothetical=True)


class TestPovmElement:
    def test_projective_limit_in_x(self):
        e = povm_element(VisibilityPair(1.0, 0.0), (1, 1))
        assert np.allclose(e, 0.25 * np.array([[1, 1], [1, 1]]))
        assert hermitian_eigenvalues(e).eigenvalues == pytest.approx((0.0, 0.5), abs=1e-12)

    def test_boundary_pair_touches_zero(self):
        v = VisibilityPair(INV_SQRT2, INV_SQRT2)
        for o in OUTCOMES:
            assert hermitian_eigenvalues(povm_element(v, o)).min == pytest.approx(0.0, abs=1e-12)

    def test_inadmissible_pair_not_psd(self):
        v = VisibilityPair(1.0, 1.0)
        for o in OUTCOMES:
            spec = hermitian_eigenvalues(povm_element(v, o))
            # oracle value (1 - sqrt(2))/4
            assert spec.min == pytest.approx(-0.10355339059327379, abs=1e-12)
            assert not is_positive_semidefinite(povm_element(v, o))

    @given(v=visibilities)
    def test_completeness_is_exact(self, v):
        total = sum(povm_element(v, o) for o in OUTCOMES)
        assert np.abs(total - np.eye(2)).max() <= 1e-14

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            povm_element(VisibilityPair(0.5, 0.5), (0, 1))


class TestOutcomeDistribution:
    def test_perfect_x_measurement(self):
        d = outcome_distribution(VisibilityPair(1.0, 0.0), BlochEquatorial(1.0, 0.0))
        assert d.probs[(1, 1)] == pytest.approx(0.5)
        assert d.probs[(1, -1)] == pytest.approx(0.5)
        assert d.probs[(-1, 1)] == pytest.approx(0.0, abs=1e-15)
        assert d.probs[(-1, -1)] == pytest.approx(0.0, abs=1e-15)

    def test_boundary_case(self):
        v = VisibilityPair(INV_SQRT2, INV_SQRT2)
        s = BlochEquatorial(INV_SQRT2, INV_SQRT2)
        d = outcome_distribution(v, s)
        assert not d.hypothetical
        assert d.probs[(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert d.probs[(1, -1)] == pytest.approx(0.25, abs=1e-12)
        assert d.probs[(-1, 1)] == pytest.approx(0.25, abs=1e-12)
        assert d.probs[(-1, -1)] == pytest.approx(0.0, abs=1e-12)

    def test_inadmissible_visibilities_go_negative(self):
        d = outcome_distribution(
            VisibilityPair(1.0, 1.0), BlochEquatorial(INV_SQRT2, INV_SQRT2)
        )
        assert d.hypothetical
        # (1 - sqrt(2))/4
        assert d.probs[(-1, -1)] == pytest.approx(-0.10355339059327379, abs=1e-12)

    @given(v=visibilities, s=bloch_states)
    def test_matches_trace_oracle(self, v, s):
        rho = equatorial_density(s)
        d = outcome_distribution(v, s)
        for o in OUTCOMES:
            traced = np.einsum("ij,ji->", rho, povm_element(v, o)).real
            assert d.probs[o] == pytest.approx(traced, abs=1e-12)

    def test_trace_oracle_bulk(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            v = VisibilityPair(rng.random(), rng.random())
            theta, radius = 2 * math.pi * rng.random(), rng.random()
            s = BlochEquatorial(radius * math.cos(theta), radius * math.sin(theta))
            rho = equatorial_density(s)
            d = outcome_distribution(v, s)
            for o in OUTCOMES:
                worst = max(
                    worst, abs(d.probs[o] - np.einsum("ij,ji->", rho, povm_element(v, o)).real)
                )
        assert worst < 1e-12


class TestMoments:
    def test_linearity_example(self):
        d = outcome_distribution(VisibilityPair(0.6, 0.8), BlochEquatorial(0.5, 0.5))
        m = distribution_moments(d)
        assert m.mean_x == pytest.approx(0.30, abs=1e-12)
        assert m.mean_y == pytest.approx(0.40, abs=1e-12)
        assert m.mean_xy == pytest.approx(0.0, abs=1e-14)

    def test_uniform_distribution(self):
        m = distribution_moments(SingleOutcomeDistribution({o: 0.25 for o in OUTCOMES}))
        assert (m.mean_x, m.mean_y, m.mean_xy) == (0.0, 0.0, 0.0)

    @given(v=visibilities)
    def test_maximally_mixed_input(self, v):
        m = distribution_moments(outcome_distribution(v, BlochEquatorial(0.0, 0.0)))
        assert (m.mean_x, m.mean_y, m.mean_xy) == (0.0, 0.0, 0.0)

    @given(v=visibilities, s=bloch_states)
    def test_product_mean_always_zero(self, v, s):
        m = distribution_moments(outcome_distribution(v, s))
        assert abs(m.mean_xy) <= 1e-14
        assert m.mean_x == pytest.approx(v.v_x * s.ex, abs=1e-12)
        assert m.mean_y == pytest.approx(v.v_y * s.ey, abs=1e-12)


class TestBounds:
    def test_state_positivity_examples(self):
        assert state_positivity_lhs(
            VisibilityPair(INV_SQRT2, INV_SQRT2), BlochEquatorial(INV_SQRT2, INV_SQRT2)
        ) == pytest.approx(1.0, abs=1e-12)
        assert state_positivity_lhs(
            VisibilityPair(1.0, 0.0), BlochEquatorial(1.0, 0.0)
        ) == pytest.approx(1.0)
        assert state_positivity_lhs(VisibilityPair(0.0, 0.0), BlochEquatorial(0.3, -0.8)) == 0.0

    @given(v=visibilities, s=bloch_states)
    def test_lhs_determines_min_probability(self, v, s):
        lhs = state_positivity_lhs(v, s)
        min_prob = outcome_distribution(v, s).min_probability()
        assert min_prob == pytest.approx(0.25 * (1.0 - lhs), abs=1e-15)

    @given(v=visibilities)
    def test_admissibility_equals_povm_positivity(self, v):
        norm2 = v.v_x**2 + v.v_y**2
        if abs(norm2 - 1.0) < 1e-8:
            return  # tolerance collar: both predicates are fuzzy there
        admissible = check_visibility_admissible(v, 1e-10)
        psd = all(is_positive_semidefinite(povm_element(v, o), 1e-10) for o in OUTCOMES)
        assert admissible == psd

    def test_bloch_bound_values(self):
        assert bloch_bound_lhs(BlochEquatorial(INV_SQRT2, INV_SQRT2)) == pytest.approx(1.0)
        assert bloch_bound_lhs(BlochEquatorial(0.0, 0.0)) == 0.0


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
    def test_equals_povm_element_bit_for_bit(self, pairs):
        v_x = np.array([a for a, _ in pairs])
        v_y = np.array([b for _, b in pairs])
        stack = povm_elements(v_x, v_y)
        assert stack.shape == (len(pairs), 4, 2, 2)
        for (a, b), elements in zip(pairs, stack):
            v = VisibilityPair(a, b)
            for o, e in zip(OUTCOMES, elements):
                assert e.tobytes() == povm_element(v, o).tobytes()

    def test_broadcast_grid_with_edges(self):
        values = np.linspace(0.0, 1.0, 9)
        stack = povm_elements(values[:, None], values[None, :])
        assert stack.shape == (9, 9, 4, 2, 2)
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                v = VisibilityPair(float(a), float(b))
                for k, o in enumerate(OUTCOMES):
                    assert stack[i, j, k].tobytes() == povm_element(v, o).tobytes()

    @pytest.mark.parametrize("vx", [-0.1, 1.5, math.nan])
    def test_out_of_box_visibility_rejected(self, vx):
        with pytest.raises(ValueError):
            povm_elements(np.array([0.5, vx]), 0.5)

