import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointlab import pairs, sampling
from jointlab.bounds import (
    TSIRELSON_BOUND,
    chsh_value,
    coherence_bound_lhs,
    coherence_from_matrices,
    simplified_bound_lhs,
    sup_over_angles,
    tight_bound_from_components,
    tight_bound_lhs,
)
from jointlab.joint import VisibilityPair
from jointlab.pairs import (
    PAIR_OUTCOMES,
    BellFamilyState,
    CorrelationVector,
    DensityOperator4,
    bell_family_correlations,
    correlation_components,
    correlations_of_state,
    pair_probabilities_formula,
)
from jointlab.sampling import (
    EstimateWithError,
    SeededSampler,
    correlation_ensemble,
    experimental_chsh,
    random_state_stack,
)
from jointlab.suites import run_bound_suite

from conftest import reference_angle_lhs

angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)
correlation_vectors = st.builds(
    CorrelationVector,
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.floats(-1, 1),
)


#: The outcome whose probability the positivity condition pins on [0, pi/2]^2.
REFERENCE_OUTCOME = (1, 1, -1, -1)
REFERENCE_INDEX = PAIR_OUTCOMES.index(REFERENCE_OUTCOME)


def signed_visibilities(alpha, beta, o):
    """(x_a cos alpha, y_a sin alpha, -x_b cos beta, -y_b sin beta): outcome o's signs absorbed."""
    xa, ya, xb, yb = o
    return xa * math.cos(alpha), ya * math.sin(alpha), -xb * math.cos(beta), -yb * math.sin(beta)


def selected_outcome(alpha, beta):
    """The one outcome whose signed visibilities at (alpha, beta) are all non-negative."""

    def sign(x):
        return 1 if x >= 0.0 else -1

    cos_a, sin_a, cos_b, sin_b = math.cos(alpha), math.sin(alpha), math.cos(beta), math.sin(beta)
    return sign(cos_a), sign(sin_a), -sign(cos_b), -sign(sin_b)


def outcome_lhs(c, sv):
    """sum of sv_m(A) sv_n(B) c_mn: 1 - 16 P of the outcome whose signs ``sv`` carries."""
    va_x, va_y, vb_x, vb_y = sv
    return va_x * vb_x * c.c_xx + va_x * vb_y * c.c_xy + va_y * vb_x * c.c_yx + va_y * vb_y * c.c_yy


def saturated_probabilities(c, alpha, beta):
    """The kernel's 16 probabilities and flag at (|cos alpha|, |sin alpha|), (|cos beta|, ...)."""
    va = (abs(math.cos(alpha)), abs(math.sin(alpha)))
    vb = (abs(math.cos(beta)), abs(math.sin(beta)))
    probs, hypothetical = pair_probabilities_formula(c.as_tuple(), va, vb)
    return probs, bool(hypothetical)


quarter_angles = st.floats(0.0, 0.5 * math.pi)


class TestSignedVisibilities:
    @given(c=correlation_vectors, alpha=quarter_angles, beta=quarter_angles)
    @settings(max_examples=150)
    def test_every_outcome_is_one_minus_its_signed_lhs(self, c, alpha, beta):
        # absorbing an outcome's signs into the visibilities makes one
        # expression cover all sixteen positivity conditions
        probs, _ = saturated_probabilities(c, alpha, beta)
        for o, p in zip(PAIR_OUTCOMES, probs.tolist()):
            expected = (1.0 / 16.0) * (1.0 - outcome_lhs(c, signed_visibilities(alpha, beta, o)))
            assert p == pytest.approx(expected, abs=1e-12)


#: One field of each bounded record or phase argument, set by ``build(x)``.
FIELD_BUILDERS = [
    pytest.param(lambda x: VisibilityPair(x, 0.5), "v_x", id="VisibilityPair"),
    pytest.param(lambda x: EstimateWithError(x, 0.1, 10), "value", id="EstimateWithError"),
    pytest.param(lambda x: CorrelationVector(x, 0, 0, 0), "c_xx", id="CorrelationVector"),
    pytest.param(lambda x: experimental_chsh(0.3, x, 0.2), "alpha", id="experimental_chsh"),
    pytest.param(BellFamilyState, "phi", id="BellFamilyState"),
    pytest.param(bell_family_correlations, "phi", id="bell_family_correlations"),
]


class TestFieldChecks:
    @pytest.mark.parametrize("value", ["0.5", b"0.5", True, False, np.bool_(True), np.array(True)])
    @pytest.mark.parametrize("build,field", FIELD_BUILDERS)
    def test_text_and_truth_values_are_refused(self, build, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            build(value)

    @pytest.mark.parametrize(
        "value,number",
        [(np.float64(0.5), 0.5), (np.float32(0.5), 0.5), (np.array(0.5), 0.5),
         (np.int64(1), 1.0), (np.uint8(1), 1.0)],
    )
    @pytest.mark.parametrize("build,field", FIELD_BUILDERS)
    def test_numpy_numbers_are_accepted(self, build, field, value, number):
        assert build(value) == build(number)


class TestOutcomeBound:
    def test_zero_correlations(self):
        probs, _ = saturated_probabilities(CorrelationVector(0, 0, 0, 0), 0.3, 1.1)
        assert probs.tolist() == [1.0 / 16.0] * 16

    def test_bell_family_reduces_to_angle_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            phi = rng.uniform(0, 2 * math.pi)
            alpha, beta = rng.uniform(0, 0.5 * math.pi, size=2)
            probs, _ = saturated_probabilities(bell_family_correlations(phi), alpha, beta)
            expected = (1.0 / 16.0) * (1.0 - math.cos(alpha + beta - phi))
            assert probs[REFERENCE_INDEX] == pytest.approx(expected, abs=1e-12)

    def test_boundary_case(self):
        probs, hypothetical = saturated_probabilities(CorrelationVector(1, 0, 0, -1), 0.0, 0.0)
        assert probs[REFERENCE_INDEX] == pytest.approx(0.0, abs=1e-15)
        assert not hypothetical

    @given(c=correlation_vectors, alpha=angles, beta=angles)
    @settings(max_examples=150)
    def test_probability_identity_at_selected_outcome(self, c, alpha, beta):
        # the lhs embedded at the reference outcome pins the probability of
        # the outcome whose embedded visibilities are all non-negative
        probs, _ = saturated_probabilities(c, alpha, beta)
        o = selected_outcome(alpha, beta)
        sv = signed_visibilities(alpha, beta, REFERENCE_OUTCOME)
        expected = (1.0 / 16.0) * (1.0 - outcome_lhs(c, sv))
        assert probs[PAIR_OUTCOMES.index(o)] == pytest.approx(expected, abs=1e-12)

    def test_zero_outcome_is_the_argmin_on_the_bell_family(self):
        # at the balance alpha = beta = phi / 2 the reference outcome and its
        # global flip, of the same probability when local means vanish, are
        # the outcomes of probability zero; argmin reads the reference first
        phi = np.linspace(0.01, math.pi - 0.01, 400)
        c = np.stack([np.cos(phi), np.sin(phi), np.sin(phi), -np.cos(phi)], axis=-1)
        v = np.stack([np.cos(0.5 * phi), np.sin(0.5 * phi)], axis=-1)
        probs, hypothetical = pair_probabilities_formula(c, v, v)
        flip = PAIR_OUTCOMES.index(tuple(-x for x in REFERENCE_OUTCOME))
        assert not hypothetical.any()
        assert (np.argmin(probs, axis=-1) == REFERENCE_INDEX).all()
        assert probs[:, REFERENCE_INDEX].tobytes() == probs[:, flip].tobytes()
        assert np.abs(probs[:, REFERENCE_INDEX]).max() <= 1e-12
        assert np.delete(probs, [REFERENCE_INDEX, flip], axis=-1).min() > 1e-6


class TestAngleInequality:
    def test_bell_family_saturates_at_matched_angles(self):
        for phi in (0.0, 0.4, 1.3, 2.2):
            c = bell_family_correlations(phi)
            assert reference_angle_lhs(c, 0.5 * phi, 0.5 * phi) == pytest.approx(2.0, abs=1e-12)
            probs, _ = saturated_probabilities(c, 0.5 * phi, 0.5 * phi)
            assert probs[PAIR_OUTCOMES.index(selected_outcome(0.5 * phi, 0.5 * phi))] == (
                pytest.approx(0.0, abs=1e-12)
            )

    def test_hypothetical_correlations_violate(self):
        c = CorrelationVector(1.0, 1.0, 1.0, -1.0)
        probs, hypothetical = saturated_probabilities(c, 0.25 * math.pi, 0.25 * math.pi)
        assert probs[REFERENCE_INDEX] == pytest.approx(0.0, abs=1e-12)
        assert not hypothetical
        # angle lhs 2 sqrt(2) > 2: the reference outcome goes negative
        probs, hypothetical = saturated_probabilities(c, 0.25 * math.pi, 0.0)
        assert probs[REFERENCE_INDEX] == pytest.approx((1.0 - math.sqrt(2.0)) / 16.0, abs=1e-12)
        assert hypothetical

    @given(c=correlation_vectors, alpha=angles, beta=angles)
    def test_equals_twice_one_minus_sixteen_times_the_selected_probability(self, c, alpha, beta):
        probs, _ = saturated_probabilities(c, alpha, beta)
        selected = probs[PAIR_OUTCOMES.index(selected_outcome(alpha, beta))]
        lhs = reference_angle_lhs(c, alpha, beta)
        assert lhs == pytest.approx(2.0 * (1.0 - 16.0 * selected), abs=1e-12)


class TestClosedFormBounds:
    def test_tight_bound_bell_family(self):
        for phi in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
            assert tight_bound_lhs(bell_family_correlations(phi)) == pytest.approx(2.0, abs=1e-12)

    def test_tight_bound_trivial_cases(self):
        assert tight_bound_lhs(CorrelationVector(0, 0, 0, 0)) == 0.0
        assert tight_bound_lhs(CorrelationVector(1, 0, 0, 1)) == pytest.approx(2.0)

    def test_simplified_bound(self):
        for phi in (0.0, 0.9, 2.4):
            assert simplified_bound_lhs(bell_family_correlations(phi)) == pytest.approx(
                4.0, abs=1e-12
            )
        assert simplified_bound_lhs(CorrelationVector(0, 0, 0, 0)) == 0.0
        assert simplified_bound_lhs(CorrelationVector(1, 0, 0, 1)) == 0.0

    def test_chsh_values(self):
        assert chsh_value(bell_family_correlations(0.25 * math.pi)) == pytest.approx(
            2.8284271247461903, abs=1e-12
        )
        assert chsh_value(bell_family_correlations(0.0)) == pytest.approx(2.0)
        assert chsh_value(bell_family_correlations(math.pi / 3.0)) == pytest.approx(
            2.732050807568877, abs=1e-9
        )

    def test_implication_chain_on_quantum_states(self, exact_ensemble):
        # each stage of the weakening chain holds on 10^5-state ensembles
        for kind, seed in (("haar", 19), ("ginibre", 20)):
            c = exact_ensemble(100_000, SeededSampler(seed), kind)
            cxx, cxy, cyx, cyy = c.T
            tight = tight_bound_from_components(cxx, cxy, cyx, cyy)
            simplified = (cxx - cyy) ** 2 + (cxy + cyx) ** 2
            chsh = cxx + cxy + cyx - cyy
            assert float(tight.max()) <= 2.0 + 1e-9
            assert float(simplified.max()) <= 4.0 + 1e-9
            assert float(chsh.max()) <= TSIRELSON_BOUND + 1e-9


class TestCoherence:
    def test_bell_family(self):
        for phi in (0.0, 1.0, 2.5):
            rho = BellFamilyState(phi).to_density()
            assert coherence_bound_lhs(rho) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed(self):
        assert coherence_bound_lhs(DensityOperator4(np.eye(4) / 4)) == 0.0

    def test_equal_mixture_of_both_families(self):
        singlet_type = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        rho = DensityOperator4(
            0.5 * BellFamilyState(0.0).to_density().mat
            + 0.5 * np.outer(singlet_type, singlet_type)
        )
        assert coherence_bound_lhs(rho) == pytest.approx(0.5, abs=1e-12)

    def test_identity_with_tight_bound(self):
        master = SeededSampler(43)
        for i in range(100):
            rho = DensityOperator4(random_state_stack("ginibre", master.derive(i), 1)[0])
            tight = tight_bound_lhs(correlations_of_state(rho))
            assert 4.0 * coherence_bound_lhs(rho) == pytest.approx(tight, abs=1e-10)

    def test_identity_and_validity_on_large_ensembles(self):
        for kind, seed in (("haar", 47), ("ginibre", 48)):
            sampler = SeededSampler(seed)
            c = correlation_ensemble(100_000, sampler, kind)
            # the ensemble's own members, as density matrices
            uniforms = sampling._member_uniforms(sampler, kind, 100_000, 0, 100_000)
            re, im = sampling._members(kind, *uniforms)
            m = re + 1j * im
            if kind == "haar":
                rho = m[:, :, None] * m[:, None, :].conj()
            else:
                rho = np.einsum("nij,nkj->nik", m, m.conj())
                rho /= np.einsum("nii->n", rho).real[:, None, None]
            assert np.abs(correlation_components(rho) - c).max() < 1e-12
            coherences = coherence_from_matrices(rho)
            tight = tight_bound_from_components(c[:, 0], c[:, 1], c[:, 2], c[:, 3])
            assert float(coherences.max()) <= 0.5 + 1e-12
            assert float(np.abs(4.0 * coherences - tight).max()) < 1e-10


class TestSupremum:
    def test_bell_family(self):
        assert sup_over_angles(bell_family_correlations(0.8)) == pytest.approx(2.0, abs=1e-9)

    def test_zero_correlations(self):
        assert sup_over_angles(CorrelationVector(0, 0, 0, 0)) == pytest.approx(0.0, abs=1e-12)

    @given(c=correlation_vectors)
    @settings(max_examples=100)
    def test_matches_closed_form(self, c):
        assert sup_over_angles(c) == pytest.approx(tight_bound_lhs(c), abs=1e-9)

    def test_matches_brute_force_grid(self):
        # independent oracle: exhaustive 0.001-radian scan of both angles
        rng = np.random.default_rng(11)
        c = CorrelationVector(*(2.0 * rng.random(4) - 1.0))
        grid = np.arange(0.0, 2.0 * math.pi, 0.001)
        best = -math.inf
        for start in range(0, grid.size, 512):
            alpha = grid[start : start + 512][:, None]
            u = alpha + grid[None, :]
            v = alpha - grid[None, :]
            values = (
                np.cos(u) * (c.c_xx - c.c_yy)
                + np.sin(u) * (c.c_xy + c.c_yx)
                + np.cos(v) * (c.c_xx + c.c_yy)
                - np.sin(v) * (c.c_xy - c.c_yx)
            )
            best = max(best, float(values.max()))
        assert sup_over_angles(c) == pytest.approx(best, abs=1e-6)
        assert sup_over_angles(c) >= best - 1e-12


class TestBoundSuite:
    def test_bell_state_saturates_tight_but_not_chsh(self):
        results, _ = run_bound_suite(7, 1e-9, "bell", 0.3, None)
        assert results["saturating"]["tight"] and results["saturating"]["simplified"]
        assert results["saturating"]["coherence"]
        assert not results["saturating"]["chsh"]
        assert results["sup_over_angles"] == pytest.approx(results["tight_bound_lhs"], abs=1e-9)

    def test_tsirelson_point_saturates_chsh(self):
        results, _ = run_bound_suite(7, 1e-9, "bell", 0.25 * math.pi, None)
        assert results["saturating"]["chsh"]
        assert results["chsh"] == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_mixed_state_saturates_nothing(self):
        results, _ = run_bound_suite(7, 1e-9, "file", 0.0, np.eye(4) / 4)
        assert not any(results["saturating"].values())

    @pytest.mark.parametrize("state", ["bell", "haar", "mixed", "file"])
    def test_state_correlations_read_once(self, state, monkeypatch):
        calls = []
        components = pairs.correlation_components

        def counted(rho):
            calls.append(1)
            return components(rho)

        monkeypatch.setattr(pairs, "correlation_components", counted)
        run_bound_suite(7, 1e-9, state, 0.3, np.eye(4) / 4)
        assert len(calls) == 1
