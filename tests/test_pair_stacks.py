"""The stacked pair-statistics core against the per-state code it replaced.

The reference functions below are the one-state-at-a-time implementations
the stacked core replaced: one ``np.kron`` per outcome pair for the trace
path, outcome-function lambdas summed with ``math.fsum`` for moments, column
products for shot estimates, and Python loops over ``DensityOperator4``
states for the acceptance residuals.
"""

import math

import numpy as np
import pytest

from jointlab.bounds import coherence_bound_lhs, tight_bound_lhs
from jointlab.joint import (
    FACTOR_SIGNS,
    OUTCOMES,
    BlochEquatorial,
    VisibilityPair,
    outcome_distribution,
    outcome_probabilities,
    povm_element,
)
from jointlab.pairs import (
    PAIR_OUTCOMES,
    PAULI_PAIRS,
    CorrelationVector,
    DensityOperator4,
    correlation_components,
    correlations_of_state,
    local_mean_components,
    local_means_of_state,
    pair_distribution_formula,
    pair_distribution_trace,
    pair_marginals,
    pair_moment,
    pair_probabilities_formula,
    pair_probabilities_trace,
    validate_densities,
)
from jointlab.sampling import (
    _CORR_OPS,
    SeededSampler,
    ShotRecord,
    bell_diagonal_random_state,
    estimate_moment,
    ginibre_random_mixed_state,
    random_state_stack,
    sample_outcomes,
)
from jointlab.verify import coherence_identity_residuals, pair_structure_residuals

REFERENCE_FACTORS = {
    "one": lambda x, y: 1.0,
    "x": lambda x, y: float(x),
    "y": lambda x, y: float(y),
    "xy": lambda x, y: float(x * y),
}
ALL_SPECS = [(fa, fb) for fa in REFERENCE_FACTORS for fb in REFERENCE_FACTORS]


def reference_trace(rho, va, vb):
    """tr(rho (E_A tensor E_B)) one outcome pair at a time, in PAIR_OUTCOMES order."""
    out = []
    for oa in OUTCOMES:
        for ob in OUTCOMES:
            op = np.kron(povm_element(va, oa), povm_element(vb, ob))
            out.append(complex(np.einsum("ij,ji->", rho, op)).real)
    return np.array(out)


def reference_formula(c, va, vb):
    return [
        (1.0 / 16.0)
        * (
            1.0
            + xa * xb * va.v_x * vb.v_x * c.c_xx
            + xa * yb * va.v_x * vb.v_y * c.c_xy
            + ya * xb * va.v_y * vb.v_x * c.c_yx
            + ya * yb * va.v_y * vb.v_y * c.c_yy
        )
        for xa, ya, xb, yb in PAIR_OUTCOMES
    ]


def reference_moment(d, spec):
    fa, fb = REFERENCE_FACTORS[spec[0]], REFERENCE_FACTORS[spec[1]]
    return math.fsum(
        d.probs[(xa, ya, xb, yb)] * fa(xa, ya) * fb(xb, yb) for xa, ya, xb, yb in PAIR_OUTCOMES
    )


def reference_estimate(r, spec):
    def column(name, first, second):
        return {"one": np.ones_like(first), "x": first, "y": second, "xy": first * second}[name]

    out = r.outcomes.astype(np.float64)
    values = column(spec[0], out[:, 0], out[:, 1]) * column(spec[1], out[:, 2], out[:, 3])
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(r.n))


def reference_visibility(gen):
    theta = 0.5 * math.pi * float(gen.random())
    radius = float(gen.random())
    return VisibilityPair(radius * math.cos(theta), radius * math.sin(theta))


def reference_pair_structure(seed, n, marginal_states):
    master = SeededSampler(seed)
    gen = master.derive(4).rng()
    max_xy = max_factor = max_formula = 0.0
    min_prob = math.inf
    for i in range(n):
        rho = bell_diagonal_random_state(master.derive(1000 + i))
        va, vb = reference_visibility(gen), reference_visibility(gen)
        dist_t = pair_distribution_trace(rho, va, vb)
        c = correlations_of_state(rho)
        dist_f = pair_distribution_formula(c, va, vb)
        max_formula = max(max_formula, *(abs(dist_t[o] - dist_f[o]) for o in PAIR_OUTCOMES))
        min_prob = min(min_prob, dist_t.min_probability())
        for spec in (("xy", "x"), ("xy", "y"), ("x", "xy"), ("y", "xy"), ("xy", "xy")):
            max_xy = max(max_xy, abs(reference_moment(dist_t, spec)))
        factors = {
            ("x", "x"): va.v_x * vb.v_x * c.c_xx,
            ("x", "y"): va.v_x * vb.v_y * c.c_xy,
            ("y", "x"): va.v_y * vb.v_x * c.c_yx,
            ("y", "y"): va.v_y * vb.v_y * c.c_yy,
        }
        for spec, value in factors.items():
            max_factor = max(max_factor, abs(reference_moment(dist_t, spec) - value))
    max_marginal = 0.0
    for i in range(marginal_states):
        rho = ginibre_random_mixed_state(master.derive(2000 + i))
        va, vb = reference_visibility(gen), reference_visibility(gen)
        dist = pair_distribution_trace(rho, va, vb)
        means = local_means_of_state(rho)
        local_a = outcome_distribution(va, BlochEquatorial(means.ax, means.ay))
        local_b = outcome_distribution(vb, BlochEquatorial(means.bx, means.by))
        marg_a, marg_b = dist.marginal_a(), dist.marginal_b()
        for o in OUTCOMES:
            max_marginal = max(
                max_marginal, abs(marg_a[o] - local_a[o]), abs(marg_b[o] - local_b[o])
            )
    return max_xy, max_factor, max_formula, max_marginal, min_prob


def reference_coherence_identity(seed, n):
    master = SeededSampler(seed)
    worst = 0.0
    for i in range(n):
        rho = ginibre_random_mixed_state(master.derive(3000 + i))
        gap = abs(4.0 * coherence_bound_lhs(rho) - tight_bound_lhs(correlations_of_state(rho)))
        worst = max(worst, gap)
    return worst


def ginibre_stack(seed, n):
    return random_state_stack("ginibre", [SeededSampler(seed).derive(i) for i in range(n)])


class TestTraceKernel:
    def test_matches_kron_path_with_inadmissible_visibilities(self):
        rho = ginibre_stack(5, 64)
        rng = np.random.default_rng(5)
        va, vb = rng.random((64, 2)), rng.random((64, 2))
        probs, hypothetical = pair_probabilities_trace(rho, va, vb)
        assert probs.shape == (64, 16) and hypothetical.shape == (64,)
        admissible = [
            VisibilityPair(*a).is_admissible() and VisibilityPair(*b).is_admissible()
            for a, b in zip(va, vb)
        ]
        assert 0 < sum(admissible) < 64
        assert np.array_equal(hypothetical, ~np.array(admissible))
        for k in range(64):
            expected = reference_trace(rho[k], VisibilityPair(*va[k]), VisibilityPair(*vb[k]))
            assert np.abs(probs[k] - expected).max() <= 1e-15

    def test_lone_wrapper_is_one_member_of_the_stack(self):
        rho = ginibre_stack(6, 8)
        va, vb = VisibilityPair(0.6, 0.7), VisibilityPair(0.9, 0.5)
        probs, hypothetical = pair_probabilities_trace(rho, (0.6, 0.7), (0.9, 0.5))
        for k in range(8):
            d = pair_distribution_trace(DensityOperator4(rho[k]), va, vb)
            assert d.as_array().tolist() == probs[k].tolist()
            assert d.hypothetical and hypothetical[k]  # 0.9**2 + 0.5**2 > 1

    def test_negative_member_not_flagged_hypothetical_is_named(self):
        rho = np.array(ginibre_stack(7, 4))
        rho[2] = np.eye(4) / 4 + 0.5 * PAULI_PAIRS[0]  # <XX> = 2: unit trace, not a state
        v = (1.0, 0.0)
        with pytest.raises(ValueError, match=r"not flagged hypothetical \(stack member 2\)"):
            pair_probabilities_trace(rho, v, v)

    def test_imaginary_probability_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 3] = 0.25j  # not Hermitian: the traces pick up an imaginary part
        with pytest.raises(ValueError, match="imaginary"):
            pair_probabilities_trace(rho, (0.6, 0.6), (0.6, 0.6))


class TestFormulaAndMoments:
    def test_formula_kernel_bit_equal_to_reference(self):
        rng = np.random.default_rng(11)
        c = 2.0 * rng.random((500, 4)) - 1.0
        va, vb = rng.random((500, 2)), rng.random((500, 2))
        probs, hypothetical = pair_probabilities_formula(c, va, vb)
        for k in range(500):
            cv = CorrelationVector(*c[k])
            expected = reference_formula(cv, VisibilityPair(*va[k]), VisibilityPair(*vb[k]))
            assert probs[k].tolist() == expected
            assert hypothetical[k] == (min(expected) < -1e-12)
            lone = pair_distribution_formula(cv, VisibilityPair(*va[k]), VisibilityPair(*vb[k]))
            assert list(lone.probs.values()) == expected

    def test_pair_moment_bit_equal_for_every_spec(self):
        rng = np.random.default_rng(12)
        states = ginibre_stack(12, 20)
        for k in range(20):
            va, vb = VisibilityPair(*rng.random(2)), VisibilityPair(*rng.random(2))
            c = CorrelationVector(*(2.0 * rng.random(4) - 1.0))
            for d in (
                pair_distribution_formula(c, va, vb),
                pair_distribution_trace(DensityOperator4(states[k]), va, vb),
            ):
                for spec in ALL_SPECS:
                    assert pair_moment(d, spec) == reference_moment(d, spec)

    def test_estimate_moment_bit_equal_for_every_spec(self):
        c = CorrelationVector(0.3, -0.5, 0.2, 0.4)
        d = pair_distribution_formula(c, VisibilityPair(0.6, 0.7), VisibilityPair(0.8, 0.5))
        shots = sample_outcomes(d, 20_000, SeededSampler(13))
        for spec in ALL_SPECS:
            est = estimate_moment(shots, spec)
            assert (est.value, est.std_error) == reference_estimate(shots, spec)

    def test_estimate_reads_strided_outcomes(self):
        wide = np.tile(np.array([[1, -1, -1, 1]], dtype=np.int8), (5, 2))
        shots = ShotRecord(wide[:, ::2], 5, "strided")
        assert estimate_moment(shots, ("x", "y")).value == reference_estimate(shots, ("x", "y"))[0]

    def test_factor_signs_follow_outcome_values(self):
        for name, fn in REFERENCE_FACTORS.items():
            assert FACTOR_SIGNS[name].tolist() == [fn(x, y) for x, y in OUTCOMES]

    def test_marginals_sum_out_the_other_side(self):
        probs = np.random.default_rng(14).random((3, 16))
        marg_a, marg_b = pair_marginals(probs)
        table = probs.reshape(3, 4, 4)
        assert np.allclose(marg_a, table.sum(axis=2), rtol=0, atol=1e-15)
        assert np.allclose(marg_b[:, 1], table[:, :, 1].sum(axis=1), rtol=0, atol=1e-15)


class TestSingleQubitKernel:
    def test_outcome_probabilities_bit_equal_to_outcome_distribution(self):
        rng = np.random.default_rng(21)
        v = rng.random((300, 2))
        e = 2.0 * rng.random((300, 2)) - 1.0
        probs = outcome_probabilities(v[:, 0], v[:, 1], e[:, 0], e[:, 1])
        for k in range(300):
            d = outcome_distribution(VisibilityPair(*v[k]), BlochEquatorial(*e[k]))
            assert probs[k].tolist() == list(d.probs.values())


class TestCorrelations:
    def test_stacked_correlations_bit_equal_to_lone(self):
        rho = ginibre_stack(15, 200)
        c, means = correlation_components(rho), local_mean_components(rho)
        for k in range(200):
            lone = DensityOperator4(rho[k])
            assert c[k].tolist() == list(correlations_of_state(lone).as_tuple())
            m = local_means_of_state(lone)
            assert means[k].tolist() == [m.ax, m.ay, m.bx, m.by]

    def test_ensemble_operators_are_the_correlation_rows(self):
        assert np.shares_memory(_CORR_OPS, PAULI_PAIRS)
        assert np.array_equal(_CORR_OPS, PAULI_PAIRS[:4])


class TestStateStacks:
    @pytest.mark.parametrize(
        "kind, lone",
        [("bell-diagonal", bell_diagonal_random_state), ("ginibre", ginibre_random_mixed_state)],
    )
    def test_members_bit_equal_to_lone_generators(self, kind, lone):
        samplers = [SeededSampler(16).derive(i) for i in range(30)]
        stack = random_state_stack(kind, samplers)
        assert not stack.flags.writeable
        for member, s in zip(stack, samplers):
            assert np.array_equal(member, lone(s).mat)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            random_state_stack("haar", [SeededSampler(1)])

    @pytest.mark.parametrize(
        "defect, match",
        [
            ("hermitian", "not Hermitian"),
            ("trace", "trace is"),
            ("negative", "not positive semidefinite"),
            ("finite", "finite"),
        ],
    )
    @pytest.mark.parametrize("index", [0, 3, 9])
    def test_validator_names_the_bad_member(self, defect, match, index):
        stack = np.array(ginibre_stack(17, 10))
        bad = np.eye(4, dtype=complex) / 4
        if defect == "hermitian":
            bad[0, 1] = 0.5
        elif defect == "trace":
            bad *= 2.0
        elif defect == "negative":
            bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        else:
            bad[1, 1] = np.nan
        stack[index] = bad
        with pytest.raises(ValueError, match=rf"{match}.*\(stack member {index}\)"):
            validate_densities(stack)
        with pytest.raises(ValueError, match=match):
            DensityOperator4(bad)

    def test_validator_returns_read_only_copy(self):
        stack = np.array(ginibre_stack(18, 3))
        out = validate_densities(stack)
        assert not out.flags.writeable and not np.shares_memory(out, stack)
        assert np.array_equal(out, stack)

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (4, 4, 4, 4), (3, 2, 2)])
    def test_validator_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="4x4"):
            validate_densities(np.zeros(shape))


class TestResidualsAgainstPerStateLoop:
    def test_pair_structure(self):
        got = pair_structure_residuals(19, 50, marginal_states=50)
        expected = reference_pair_structure(19, 50, 50)
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-15

    def test_coherence_identity(self):
        got = coherence_identity_residuals(20, 50)[0]
        assert abs(got - reference_coherence_identity(20, 50)) <= 1e-15
