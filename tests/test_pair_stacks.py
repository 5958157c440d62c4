"""The stacked pair-statistics core against the per-state code it replaced.

The reference functions below are the one-state-at-a-time implementations
the stacked core replaced: one ``np.kron`` per outcome pair of POVM elements
built from ``linalg.pauli`` for the trace path, outcome-function lambdas
summed with ``math.fsum`` for moments, column products for shot estimates,
and Python loops over ``DensityOperator4`` states for the acceptance
residuals. The random states themselves are built by hand from the stack's
one stream: Bell-diagonal states one member's cuts at a time, Haar states
from Box-Muller halves normalized on Python floats and one ``np.outer`` per
member, Ginibre states from concatenated Box-Muller halves and an einsum.
"""

import math

import numpy as np
import pytest

from jointlab import sampling, verify
from jointlab.bounds import coherence_bound_lhs, tight_bound_lhs
from jointlab.joint import (
    FACTOR_SIGNS,
    OUTCOMES,
    VisibilityPair,
    admissible_visibilities,
    outcome_probabilities,
)
from jointlab.pairs import (
    PAIR_OUTCOMES,
    PAULI_PAIRS,
    CorrelationVector,
    DensityOperator4,
    PairOutcomeDistribution,
    correlation_components,
    correlations_of_state,
    local_mean_components,
    pair_distribution_formula,
    pair_marginals,
    pair_moment,
    pair_probabilities_formula,
    pair_probabilities_trace,
    validate_densities,
)
from jointlab.sampling import (
    SeededSampler,
    correlation_ensemble,
    estimate_moment,
    random_state_stack,
    sample_outcomes,
)
from jointlab.verify import criterion_coherence_identity, criterion_pair_moment_structure

from conftest import assert_same_bytes, outcome_rows, pauli_povm, python_probabilities


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
    for e_a in pauli_povm(va.v_x, va.v_y):
        for e_b in pauli_povm(vb.v_x, vb.v_y):
            out.append(complex(np.einsum("ij,ji->", rho, np.kron(e_a, e_b))).real)
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


def reference_moment(probs, spec):
    fa, fb = REFERENCE_FACTORS[spec[0]], REFERENCE_FACTORS[spec[1]]
    return math.fsum(
        p * fa(xa, ya) * fb(xb, yb) for p, (xa, ya, xb, yb) in zip(probs, PAIR_OUTCOMES)
    )


def reference_estimate(r, spec):
    def column(name, first, second):
        return {"one": np.ones_like(first), "x": first, "y": second, "xy": first * second}[name]

    out = outcome_rows(r).astype(np.float64)
    values = column(spec[0], out[:, 0], out[:, 1]) * column(spec[1], out[:, 2], out[:, 3])
    # the standard error from the +-1 values in integers, rounded once:
    # sum((n v - S)**2) = n**2 (n - 1) var, exact in int64 for n up to 2**20
    ints = values.astype(np.int64)
    scaled = r.n * ints - int(ints.sum())
    variance = int((scaled * scaled).sum()) / (r.n * r.n * (r.n - 1))
    return float(values.mean()), math.sqrt(variance) / math.sqrt(r.n), values


def reference_visibility(gen):
    theta = 0.5 * math.pi * float(gen.random())
    radius = float(gen.random())
    return VisibilityPair(radius * math.cos(theta), radius * math.sin(theta))


#: The four Bell kets, each projector |B><B| mixed in by hand below.
REFERENCE_BELL_KETS = np.array(
    [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0]]
) / math.sqrt(2.0)


def reference_bell_stack(s, n):
    """n Bell-diagonal states, one ``gen.random(3)`` of simplex cuts per member on one stream."""
    gen = s.rng()
    out = []
    for _ in range(n):
        c0, c1, c2 = sorted(gen.random(3).tolist())
        weights = (c0, c1 - c0, c2 - c1, 1.0 - c2)
        rho = np.zeros((4, 4), dtype=complex)
        for w, ket in zip(weights, REFERENCE_BELL_KETS):
            rho = rho + w * np.outer(ket, ket.conj())
        out.append(rho)
    return np.array(out).reshape(n, 4, 4)


def reference_haar_stack(s, n):
    """n Haar states: all 4 n u1 then all u2, each ket normalized on Python floats, np.outer."""
    gen = s.rng()
    u1, u2 = gen.random(4 * n), gen.random(4 * n)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u1)), (2.0 * math.pi) * u2
    re, im = (radius * np.cos(angle)).reshape(n, 4), (radius * np.sin(angle)).reshape(n, 4)
    out = []
    for row_re, row_im in zip(re.tolist(), im.tolist()):
        t = [a * a + b * b for a, b in zip(row_re, row_im)]
        norm = math.sqrt(((t[0] + t[1]) + t[2]) + t[3])
        ket = np.array([complex(a / norm, b / norm) for a, b in zip(row_re, row_im)])
        out.append(np.outer(ket, ket.conj()))
    return np.array(out).reshape(n, 4, 4)


def reference_ginibre_stack(s, n):
    """n Ginibre states: all 16 n u1 then all u2, Box-Muller halves concatenated, one einsum."""
    gen = s.rng()
    u1, u2 = gen.random(16 * n), gen.random(16 * n)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u1)), (2.0 * math.pi) * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    g = (z[: 16 * n] + 1j * z[16 * n :]).reshape(n, 4, 4)
    rho = np.einsum("nij,nkj->nik", g, g.conj())
    return rho / np.einsum("nii->n", rho).real[:, None, None]


def reference_pair_structure(seed, n, marginal_states):
    master = SeededSampler(seed)
    gen = master.derive(4).rng()
    max_xy = max_factor = max_formula = 0.0
    min_prob = math.inf
    for mat in reference_bell_stack(master.derive(1000), n):
        rho = DensityOperator4(mat)
        va, vb = reference_visibility(gen), reference_visibility(gen)
        dist_t = reference_trace(rho.mat, va, vb)
        c = correlations_of_state(rho)
        dist_f = reference_formula(c, va, vb)
        max_formula = max(max_formula, *(abs(t - f) for t, f in zip(dist_t, dist_f)))
        min_prob = min(min_prob, dist_t.min())
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
    for mat in reference_ginibre_stack(master.derive(2000), marginal_states):
        rho = DensityOperator4(mat)
        va, vb = reference_visibility(gen), reference_visibility(gen)
        table = reference_trace(rho.mat, va, vb).reshape(4, 4)
        ax, ay, bx, by = local_mean_components(rho.mat).tolist()
        local_a = python_probabilities(va.v_x, va.v_y, ax, ay)
        local_b = python_probabilities(vb.v_x, vb.v_y, bx, by)
        for k in range(4):
            max_marginal = max(
                max_marginal,
                abs(math.fsum(table[k]) - local_a[k]),
                abs(math.fsum(table[:, k]) - local_b[k]),
            )
    return max_xy, max_factor, max_formula, max_marginal, min_prob


def reference_coherence_identity(seed, n):
    worst = 0.0
    for mat in reference_ginibre_stack(SeededSampler(seed).derive(3000), n):
        rho = DensityOperator4(mat)
        gap = abs(4.0 * coherence_bound_lhs(rho) - tight_bound_lhs(correlations_of_state(rho)))
        worst = max(worst, gap)
    return worst


def ginibre_stack(seed, n):
    return random_state_stack("ginibre", SeededSampler(seed), n)


class TestTraceKernel:
    def test_matches_kron_path_with_inadmissible_visibilities(self):
        rho = ginibre_stack(5, 64)
        rng = np.random.default_rng(5)
        va, vb = rng.random((64, 2)), rng.random((64, 2))
        probs, hypothetical = pair_probabilities_trace(rho, va, vb)
        assert probs.shape == (64, 16) and hypothetical.shape == (64,)
        admissible = [
            admissible_visibilities(*a) and admissible_visibilities(*b) for a, b in zip(va, vb)
        ]
        assert 0 < sum(admissible) < 64
        assert np.array_equal(hypothetical, ~np.array(admissible))
        for k in range(64):
            expected = reference_trace(rho[k], VisibilityPair(*va[k]), VisibilityPair(*vb[k]))
            assert np.abs(probs[k] - expected).max() <= 1e-15

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

    def test_imaginary_part_names_the_stack_member(self):
        rho = np.array(ginibre_stack(9, 5))
        rho[3, 0, 3] += 0.1  # rho_03 no longer conjugate to rho_30
        with pytest.raises(ValueError, match=r"probability has imaginary.*\(stack member 3\)$"):
            pair_probabilities_trace(rho, (0.6, 0.6), (0.6, 0.6))
        with pytest.raises(ValueError, match=r"expectation value has .*\(stack member 3\)$"):
            correlation_components(rho)
        with pytest.raises(ValueError, match=r"imaginary part [-+.0-9e]+$"):
            correlation_components(rho[3])


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
            assert lone.probs.tolist() == expected

    def test_pair_moment_bit_equal_for_every_spec(self):
        rng = np.random.default_rng(12)
        states = ginibre_stack(12, 20)
        for k in range(20):
            va, vb = VisibilityPair(*rng.random(2)), VisibilityPair(*rng.random(2))
            c = CorrelationVector(*(2.0 * rng.random(4) - 1.0))
            traced, _ = pair_probabilities_trace(states[k], (va.v_x, va.v_y), (vb.v_x, vb.v_y))
            for d in (pair_distribution_formula(c, va, vb), PairOutcomeDistribution(traced)):
                for spec in ALL_SPECS:
                    assert pair_moment(d, spec) == reference_moment(d.probs, spec)

    def test_estimate_moment_bit_equal_for_every_spec(self):
        c = CorrelationVector(0.3, -0.5, 0.2, 0.4)
        d = pair_distribution_formula(c, VisibilityPair(0.6, 0.7), VisibilityPair(0.8, 0.5))
        shots = sample_outcomes(d, 20_000, SeededSampler(13))
        for spec in ALL_SPECS:
            est = estimate_moment(shots, spec)
            value, error, values = reference_estimate(shots, spec)
            assert (est.value, est.std_error) == (value, error)
            numpy_error = float(values.std(ddof=1) / math.sqrt(shots.n))
            assert abs(est.std_error - numpy_error) <= 1e-15 * numpy_error

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
    def test_outcome_probabilities_bit_equal_to_python_formula(self):
        rng = np.random.default_rng(21)
        v = rng.random((300, 2))
        e = 2.0 * rng.random((300, 2)) - 1.0
        probs = outcome_probabilities(v[:, 0], v[:, 1], e[:, 0], e[:, 1])
        for k in range(300):
            assert probs[k].tolist() == python_probabilities(*v[k].tolist(), *e[k].tolist())


class TestCorrelations:
    def test_stacked_correlations_bit_equal_to_lone(self):
        rho = ginibre_stack(15, 200)
        c, means = correlation_components(rho), local_mean_components(rho)
        for k in range(200):
            lone = DensityOperator4(rho[k])
            assert c[k].tolist() == list(correlations_of_state(lone).as_tuple())
            assert means[k].tolist() == local_mean_components(lone.mat).tolist()


#: Seeds on either side of the 32- and 64-bit boundaries of a Philox key.
EDGE_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]

#: Members per ensemble block, by kind.
ENSEMBLE_BLOCK = {
    kind: sampling._ENSEMBLE_NORMALS // math.prod(shape)
    for kind, shape in sampling._MEMBER_SHAPE.items()
}

#: Each stack kind and its hand-built reference stack.
REFERENCE_STACKS = {
    "bell-diagonal": reference_bell_stack,
    "haar": reference_haar_stack,
    "ginibre": reference_ginibre_stack,
}
STACK_KINDS = tuple(REFERENCE_STACKS)


class TestStateStacks:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("kind", STACK_KINDS)
    def test_stack_of_one_is_the_lone_state(self, kind, seed):
        s = SeededSampler(seed)
        stack = random_state_stack(kind, s, 1)
        assert not stack.flags.writeable
        assert_same_bytes(stack[0], REFERENCE_STACKS[kind](s, 1)[0])

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_haar_stack_bit_equal_to_per_member_outer_products(self, seed):
        s = SeededSampler(seed)
        assert_same_bytes(random_state_stack("haar", s, 300), reference_haar_stack(s, 300))

    @pytest.mark.parametrize(
        "kind, reference, stream, n",
        [
            ("bell-diagonal", reference_bell_stack, 1000, 1000),
            ("ginibre", reference_ginibre_stack, 2000, 200),
            ("ginibre", reference_ginibre_stack, 3000, 1000),
        ],
    )
    def test_verify_stacks_bit_equal_to_per_member_loop(self, kind, reference, stream, n):
        """The stacks criteria 4 and 8 draw at the default seed, against the hand-built states."""
        s = SeededSampler(7).derive(stream)
        assert_same_bytes(random_state_stack(kind, s, n), reference(s, n))

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    # around each kind's ensemble block size: a block ending mid-ensemble, a full last block,
    # a short one
    @pytest.mark.parametrize(
        "n", [1, 7] + [n for b in ENSEMBLE_BLOCK.values() for n in (b - 1, b, b + 1, 2 * b + 7)]
    )
    def test_ginibre_correlations_equal_the_ensemble(self, n, seed):
        """The certified full-matrix stack and the blocked antidiagonal ensemble agree."""
        s = SeededSampler(seed)
        stack = random_state_stack("ginibre", s, n)
        assert_same_bytes(correlation_components(stack), correlation_ensemble(n, s, "ginibre"))

    @pytest.mark.parametrize("kind", STACK_KINDS)
    def test_stack_sizes(self, kind):
        s = SeededSampler(21)
        assert random_state_stack(kind, s, 0).shape == (0, 4, 4)
        assert_same_bytes(random_state_stack(kind, s, np.int64(3)), random_state_stack(kind, s, 3))

    @pytest.mark.parametrize("n", [-1, np.int64(-2), 2.0, 0.5, "3", None, True, [3]])
    def test_bad_stack_size_rejected_before_any_draw(self, n, monkeypatch):
        def no_draw(*args):
            raise AssertionError("the stream was read before the size was checked")

        monkeypatch.setattr(SeededSampler, "rng", no_draw)
        monkeypatch.setattr(sampling, "_stream_at", no_draw)
        for kind in STACK_KINDS:
            with pytest.raises(ValueError, match="^n must be a non-negative integer"):
                random_state_stack(kind, SeededSampler(1), n)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            random_state_stack("wishart", SeededSampler(1), 1)

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


def record_stacks(monkeypatch):
    """The stacks ``verify`` draws, in order, each as its ``random_state_stack`` returned it."""
    drawn = []

    def recording(kind, s, n):
        drawn.append(random_state_stack(kind, s, n))
        return drawn[-1]

    monkeypatch.setattr(verify, "random_state_stack", recording)
    return drawn


class TestResidualsAgainstPerStateLoop:
    """The residuals alone do not tell states apart (any state gives ~1e-16), so the
    stacks ``verify`` drew are compared with the hand-built ones byte for byte."""

    def test_pair_structure(self, monkeypatch):
        drawn = record_stacks(monkeypatch)
        got = [c.value for c in criterion_pair_moment_structure(19, 50, marginal_states=50)]
        expected = reference_pair_structure(19, 50, 50)
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-15
        master = SeededSampler(19)
        assert len(drawn) == 2
        assert_same_bytes(drawn[0], reference_bell_stack(master.derive(1000), 50))
        assert_same_bytes(drawn[1], reference_ginibre_stack(master.derive(2000), 50))

    def test_coherence_identity(self, monkeypatch):
        drawn = record_stacks(monkeypatch)
        got = criterion_coherence_identity(20, 50)[0].value
        assert abs(got - reference_coherence_identity(20, 50)) <= 1e-15
        assert len(drawn) == 1
        assert_same_bytes(drawn[0], reference_ginibre_stack(SeededSampler(20).derive(3000), 50))
