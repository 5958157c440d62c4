import math

import numpy as np
import pytest

from jointlab.joint import VisibilityPair, outcome_probabilities
from jointlab.pairs import (
    PAIR_OUTCOMES,
    BellFamilyState,
    CorrelationVector,
    DensityOperator4,
    PairOutcomeDistribution,
    bell_family_correlations,
    correlations_of_state,
    local_mean_components,
    moment_signs,
    pair_distribution_formula,
    pair_marginals,
    pair_moment,
    pair_probabilities_trace,
    pure_density,
)
from jointlab.sampling import SeededSampler, ShotRecord, estimate_moment, random_state_stack

from conftest import pauli_density

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def saturated(angle):
    return VisibilityPair(math.cos(angle), math.sin(angle))


def traced(rho, va, vb):
    """``pair_probabilities_trace`` of one state: its (16,) probabilities and its flag."""
    probs, hypothetical = pair_probabilities_trace(rho.mat, (va.v_x, va.v_y), (vb.v_x, vb.v_y))
    return probs, bool(hypothetical)


def at(probs, outcome):
    return float(probs[PAIR_OUTCOMES.index(outcome)])


def random_state(kind, s):
    """The one member of a ``kind`` stack of one drawn from ``s``."""
    return DensityOperator4(random_state_stack(kind, s, 1)[0])


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator4(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator4(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityOperator4(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_bell_state_is_pure(self):
        rho = BellFamilyState(0.7).to_density()
        assert np.einsum("ij,ji->", rho.mat, rho.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_ket_must_be_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            pure_density(np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "ket",
        [np.eye(2) / math.sqrt(2.0), np.array([[1.0, 0.0, 0.0, 0.0]]), np.full(5, 0.2) ** 0.5],
    )
    def test_ket_must_be_a_4_vector(self, ket):
        # a normalized 2x2 matrix or (1, 4) row once passed as a ket through reshape(4)
        with pytest.raises(ValueError, match=r"^ket must have shape \(4,\)"):
            pure_density(ket)

    def test_matrix_is_read_only(self):
        rho = BellFamilyState(0.0).to_density()
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 9.0

    def test_equality_and_hash_go_by_identity(self):
        a, b = DensityOperator4(np.eye(4) / 4), DensityOperator4(np.eye(4) / 4)
        assert a == a and not a == b and a != b
        assert a in [b, a] and b not in [a] and len({a, b, a}) == 2
        assert hash(a) == hash(a)


class TestCorrelations:
    def test_maximally_mixed(self):
        c = correlations_of_state(DensityOperator4(np.eye(4) / 4))
        assert c.as_tuple() == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-15)

    def test_bell_family_zero_phase(self):
        c = correlations_of_state(BellFamilyState(0.0).to_density())
        assert c.as_tuple() == pytest.approx((1.0, 0.0, 0.0, -1.0), abs=1e-12)

    def test_bell_family_quarter_turn(self):
        c = correlations_of_state(BellFamilyState(0.5 * math.pi).to_density())
        assert c.as_tuple() == pytest.approx((0.0, 1.0, 1.0, 0.0), abs=1e-12)

    def test_bell_family_closed_form_vs_trace(self):
        rng = np.random.default_rng(5)
        for phi in rng.uniform(0.0, 2.0 * math.pi, size=100):
            expected = bell_family_correlations(phi).as_tuple()
            computed = correlations_of_state(BellFamilyState(phi).to_density()).as_tuple()
            assert computed == pytest.approx(expected, abs=1e-12)

    def test_correlation_vector_validation(self):
        with pytest.raises(ValueError):
            CorrelationVector(1.5, 0.0, 0.0, 0.0)


class TestLocalMeans:
    def test_bell_states_have_no_local_means(self):
        means = local_mean_components(BellFamilyState(1.1).to_density().mat)
        assert means.tolist() == pytest.approx((0, 0, 0, 0), abs=1e-15)

    def test_product_state(self):
        plus_zero = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        ax, ay, bx, by = local_mean_components(pure_density(plus_zero).mat).tolist()
        assert ax == pytest.approx(1.0, abs=1e-12)
        assert (ay, bx, by) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_maximally_mixed(self):
        means = local_mean_components(DensityOperator4(np.eye(4) / 4).mat)
        assert means.tolist() == pytest.approx((0, 0, 0, 0), abs=1e-15)


class TestTraceDistribution:
    def test_maximally_mixed_is_uniform(self):
        probs, _ = traced(DensityOperator4(np.eye(4) / 4), saturated(0.3), saturated(1.2))
        assert probs.tolist() == pytest.approx([1.0 / 16.0] * 16, abs=1e-14)

    def test_bell_family_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            phi, alpha, beta = rng.uniform(0.0, 2.0 * math.pi, size=3)
            alpha, beta = alpha % (0.5 * math.pi), beta % (0.5 * math.pi)
            probs, _ = traced(BellFamilyState(phi).to_density(), saturated(alpha), saturated(beta))
            expected = (1.0 - math.cos(alpha + beta - phi)) / 16.0
            assert at(probs, (1, 1, -1, -1)) == pytest.approx(expected, abs=1e-12)

    def test_product_state_factorizes(self):
        sa, sb = (0.3, -0.5), (-0.2, 0.6)
        va, vb = VisibilityPair(0.5, 0.7), VisibilityPair(0.9, 0.1)
        rho = DensityOperator4(np.kron(pauli_density(*sa), pauli_density(*sb)))
        probs, _ = traced(rho, va, vb)
        da = outcome_probabilities(va.v_x, va.v_y, *sa)
        db = outcome_probabilities(vb.v_x, vb.v_y, *sb)
        # outcome (*OUTCOMES[i], *OUTCOMES[j]) sits at index 4 * i + j
        assert probs.tolist() == pytest.approx(np.outer(da, db).ravel().tolist(), abs=1e-13)

    def test_positivity_for_admissible_visibilities(self):
        master = SeededSampler(11)
        for i in range(50):
            rho = random_state("ginibre", master.derive(i))
            probs, hypothetical = traced(rho, saturated(0.4), saturated(1.0))
            assert not hypothetical
            assert probs.min() >= -1e-12

    def test_inadmissible_visibilities_flagged(self):
        _, hypothetical = traced(
            BellFamilyState(0.0).to_density(), VisibilityPair(1.0, 1.0), saturated(0.2)
        )
        assert hypothetical


class TestFormulaDistribution:
    def test_zero_correlations_give_uniform(self):
        d = pair_distribution_formula(
            CorrelationVector(0, 0, 0, 0), VisibilityPair(0.8, 0.2), VisibilityPair(0.1, 0.9)
        )
        for o in PAIR_OUTCOMES:
            assert d[o] == pytest.approx(1.0 / 16.0)

    def test_printed_outcome_signs(self):
        # for outcome (+1, +1, -1, -1) all four sign products are -1
        c = CorrelationVector(0.3, -0.4, 0.1, 0.6)
        va, vb = VisibilityPair(0.5, 0.6), VisibilityPair(0.7, 0.2)
        d = pair_distribution_formula(c, va, vb)
        expected = (1.0 / 16.0) * (
            1.0
            - va.v_x * vb.v_x * c.c_xx
            - va.v_x * vb.v_y * c.c_xy
            - va.v_y * vb.v_x * c.c_yx
            - va.v_y * vb.v_y * c.c_yy
        )
        assert d[(1, 1, -1, -1)] == pytest.approx(expected, abs=1e-15)

    def test_hypothetical_correlations_go_negative(self):
        # beyond-quantum correlations plus asymmetric visibilities produce a
        # negative entry (1 - sqrt(2))/16; equal visibilities would not
        c = CorrelationVector(1.0, 1.0, 1.0, -1.0)
        d = pair_distribution_formula(
            c, VisibilityPair(INV_SQRT2, INV_SQRT2), VisibilityPair(1.0, 0.0)
        )
        assert d.hypothetical
        assert d[(1, 1, -1, -1)] == pytest.approx(-0.025888347648318447, abs=1e-12)

    def test_equal_visibilities_cancel_for_these_correlations(self):
        c = CorrelationVector(1.0, 1.0, 1.0, -1.0)
        v = VisibilityPair(INV_SQRT2, INV_SQRT2)
        d = pair_distribution_formula(c, v, v)
        assert not d.hypothetical
        assert d[(1, 1, -1, -1)] == pytest.approx(0.0, abs=1e-15)

    def test_matches_trace_path_on_bell_mixtures(self):
        master = SeededSampler(23)
        rng = np.random.default_rng(23)
        worst = 0.0
        for i in range(300):
            rho = random_state("bell-diagonal", master.derive(i))
            va = saturated(rng.uniform(0, 0.5 * math.pi))
            vb = saturated(rng.uniform(0, 0.5 * math.pi))
            probs, _ = traced(rho, va, vb)
            df = pair_distribution_formula(correlations_of_state(rho), va, vb)
            worst = max(worst, float(np.abs(probs - df.probs).max()))
        assert worst < 1e-11

    def test_distribution_invariants(self):
        bad = np.full(16, 1.0 / 16.0)
        bad[PAIR_OUTCOMES.index((1, 1, 1, 1))] = -0.05
        bad[PAIR_OUTCOMES.index((1, 1, 1, -1))] = 2.0 / 16.0 + 0.05
        with pytest.raises(ValueError, match="hypothetical"):
            PairOutcomeDistribution(bad)


class TestPairMoments:
    def test_normalization_moment(self):
        d = pair_distribution_formula(
            bell_family_correlations(0.4), saturated(0.2), saturated(0.9)
        )
        assert pair_moment(d, ("one", "one")) == pytest.approx(1.0, abs=1e-14)

    def test_perfect_xx_correlation(self):
        probs, _ = traced(
            BellFamilyState(0.0).to_density(), VisibilityPair(1.0, 0.0), VisibilityPair(1.0, 0.0)
        )
        d = PairOutcomeDistribution(probs)
        assert pair_moment(d, ("x", "x")) == pytest.approx(1.0, abs=1e-12)

    def test_xy_moments_vanish_even_for_biased_states(self):
        master = SeededSampler(31)
        specs = [("xy", "one"), ("one", "xy"), ("xy", "x"), ("xy", "y"),
                 ("x", "xy"), ("y", "xy"), ("xy", "xy")]
        for i in range(25):
            rho = random_state("ginibre", master.derive(i))
            d = PairOutcomeDistribution(traced(rho, saturated(0.7), saturated(0.3))[0])
            for spec in specs:
                assert abs(pair_moment(d, spec)) < 1e-12

    def test_correlations_factor_into_visibilities(self):
        master = SeededSampler(37)
        rng = np.random.default_rng(37)
        for i in range(50):
            rho = random_state("bell-diagonal", master.derive(i))
            c = correlations_of_state(rho)
            va = saturated(rng.uniform(0, 0.5 * math.pi))
            vb = saturated(rng.uniform(0, 0.5 * math.pi))
            d = PairOutcomeDistribution(traced(rho, va, vb)[0])
            assert pair_moment(d, ("x", "x")) == pytest.approx(va.v_x * vb.v_x * c.c_xx, abs=1e-12)
            assert pair_moment(d, ("x", "y")) == pytest.approx(va.v_x * vb.v_y * c.c_xy, abs=1e-12)
            assert pair_moment(d, ("y", "x")) == pytest.approx(va.v_y * vb.v_x * c.c_yx, abs=1e-12)
            assert pair_moment(d, ("y", "y")) == pytest.approx(va.v_y * vb.v_y * c.c_yy, abs=1e-12)

    def test_marginals_reproduce_local_statistics(self):
        master = SeededSampler(41)
        for i in range(25):
            rho = random_state("ginibre", master.derive(i))
            va, vb = saturated(0.25), saturated(1.1)
            probs, _ = traced(rho, va, vb)
            ax, ay, bx, by = local_mean_components(rho.mat).tolist()
            marg_a, marg_b = pair_marginals(probs)
            da = outcome_probabilities(va.v_x, va.v_y, ax, ay)
            db = outcome_probabilities(vb.v_x, vb.v_y, bx, by)
            assert marg_a.tolist() == pytest.approx(da.tolist(), abs=1e-12)
            assert marg_b.tolist() == pytest.approx(db.tolist(), abs=1e-12)

    def test_unknown_factor_rejected(self):
        d = pair_distribution_formula(
            CorrelationVector(0, 0, 0, 0), VisibilityPair(0.5, 0.5), VisibilityPair(0.5, 0.5)
        )
        with pytest.raises(ValueError, match="factor"):
            pair_moment(d, ("z", "one"))

    @pytest.mark.parametrize("spec", ["xy", "one", ("x",), ("x", "y", "x"), None])
    def test_spec_must_be_a_pair(self, spec):
        # ("xy") lacks its comma: it once read as ("x", "y") and gave <x_a y_b>
        d = PairOutcomeDistribution(np.full(16, 1.0 / 16.0))
        shots = ShotRecord([0, 3, 15], "test")
        for call in (lambda: moment_signs(spec), lambda: pair_moment(d, spec),
                     lambda: estimate_moment(shots, spec)):
            with pytest.raises(ValueError, match="^spec must be a pair"):
                call()


class TestBellFamily:
    def test_zero_phase(self):
        assert bell_family_correlations(0.0).as_tuple() == pytest.approx((1, 0, 0, -1))

    def test_tsirelson_point(self):
        c = bell_family_correlations(0.25 * math.pi)
        assert c.as_tuple() == pytest.approx(
            (INV_SQRT2, INV_SQRT2, INV_SQRT2, -INV_SQRT2), abs=1e-15
        )

    def test_phase_wraps_into_range(self):
        assert BellFamilyState(2.0 * math.pi + 0.5).phi == pytest.approx(0.5)
