"""The single-qubit checks on stacks against the per-state loops they replaced.

Each reference below is the per-state loop that criterion 2, criterion 3's
spot checks and the two ``single`` residuals used to run, one state and one
scalar draw at a time, in Python floats, with the operators built from
``linalg.pauli`` (``conftest.pauli_povm``, ``conftest.pauli_density``). The
stacked paths draw the same stream and must give the same floats, bit for
bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jointlab import suites, verify
from jointlab.joint import OUTCOMES, bloch_bound_lhs, equatorial_densities, outcome_moments
from jointlab.sampling import SeededSampler

from conftest import pauli_density, pauli_povm, python_probabilities

SEEDS = range(20)


def reference_moment_identity_residuals(seed, n=1000):
    gen = SeededSampler(seed).derive(2).rng()
    xy = []
    prop = []
    for _ in range(n):
        v_x, v_y = float(gen.random()), float(gen.random())
        ex, ey = float(2.0 * gen.random() - 1.0), float(2.0 * gen.random() - 1.0)
        mean_x, mean_y, mean_xy = reference_moments(python_probabilities(v_x, v_y, ex, ey))
        xy.append(abs(mean_xy))
        prop += (abs(mean_x - v_x * ex), abs(mean_y - v_y * ey))
    return verify.max_residual(xy), verify.max_residual(prop)


def reference_bloch_disk_sweep(seed, state_grid=41, angle_step=0.01, spot_checks=60):
    coords = np.linspace(-1.0, 1.0, state_grid)
    ex, ey = [a.ravel() for a in np.meshgrid(coords, coords)]
    lhs = ex**2 + ey**2
    alphas = np.arange(0.0, 0.5 * math.pi + 0.5 * angle_step, angle_step)
    table = 0.25 * (
        1.0
        - np.abs(ex)[:, None] * np.cos(alphas)[None, :]
        - np.abs(ey)[:, None] * np.sin(alphas)[None, :]
    )
    min_prob = table.min(axis=1)
    unphysical = lhs > 1.0 + 1e-12
    worst_unphysical = float(min_prob[unphysical].max())
    best_physical = float(min_prob[~unphysical].min())
    gen = SeededSampler(seed).derive(3).rng()
    api_residuals = []
    for _ in range(spot_checks):
        i = int(gen.integers(ex.size))
        j = int(gen.integers(alphas.size))
        v_x, v_y = math.cos(alphas[j]), math.sin(alphas[j])
        sweep_value = 0.25 * (
            1.0 - abs(ex[i]) * math.cos(alphas[j]) - abs(ey[i]) * math.sin(alphas[j])
        )
        api_value = min(python_probabilities(v_x, v_y, float(ex[i]), float(ey[i])))
        api_residuals.append(abs(api_value - sweep_value))
    return worst_unphysical, best_physical, verify.max_residual(api_residuals)


def reference_completeness_residual(seed, n=200):
    gen = SeededSampler(seed).derive(20).rng()
    identity = np.eye(2, dtype=np.complex128)
    residuals = []
    for _ in range(n):
        total = sum(pauli_povm(float(gen.random()), float(gen.random())))
        residuals.append(float(np.abs(total - identity).max()))
    return verify.max_residual(residuals)


def reference_distribution_trace_residual(seed, n=1000):
    gen = SeededSampler(seed).derive(21).rng()
    residuals = []
    for _ in range(n):
        v_x, v_y = float(gen.random()), float(gen.random())
        theta = 2.0 * math.pi * float(gen.random())
        radius = float(gen.random())
        ex, ey = radius * math.cos(theta), radius * math.sin(theta)
        rho = pauli_density(ex, ey)
        for p, e in zip(python_probabilities(v_x, v_y, ex, ey), pauli_povm(v_x, v_y)):
            residuals.append(abs(p - float(np.einsum("ij,ji->", rho, e).real)))
    return verify.max_residual(residuals)


@pytest.mark.parametrize(
    "stacked, reference",
    [
        (
            lambda seed: [c.value for c in verify.criterion_outcome_product_rule(seed)],
            lambda seed: list(reference_moment_identity_residuals(seed)),
        ),
        (
            lambda seed: [c.value for c in verify.criterion_bloch_disk_bound(seed)],
            lambda seed: list(reference_bloch_disk_sweep(seed)),
        ),
        (suites._completeness_residual, reference_completeness_residual),
        (suites._distribution_trace_residual, reference_distribution_trace_residual),
    ],
    ids=["moment_identity", "bloch_disk_sweep", "completeness", "distribution_trace"],
)
def test_stacked_residuals_equal_the_per_state_loops(stacked, reference):
    for seed in SEEDS:
        assert stacked(seed) == reference(seed), seed


def test_spot_check_indices_follow_the_scalar_stream():
    # one draw with alternating bounds reproduces alternating scalar draws; the
    # spot residuals are mostly exactly zero, so the sweep test alone would not show it
    for seed in SEEDS:
        bounds = np.tile([41 * 41, 158], 60)  # bloch_disk_sweep's states and angles
        gen = SeededSampler(seed).derive(3).rng()
        scalar = [int(gen.integers(high)) for high in bounds.tolist()]
        assert SeededSampler(seed).derive(3).rng().integers(bounds).tolist() == scalar


def reference_moments(probs):
    """Per-row ``math.fsum`` of the signed probabilities, one row at a time."""
    rows = np.asarray(probs).reshape(-1, 4).tolist()
    out = [
        [
            math.fsum(x * p for (x, _), p in zip(OUTCOMES, row)),
            math.fsum(y * p for (_, y), p in zip(OUTCOMES, row)),
            math.fsum(x * y * p for (x, y), p in zip(OUTCOMES, row)),
        ]
        for row in rows
    ]
    return np.array(out).reshape(np.shape(probs)[:-1] + (3,))


# hypothetical distributions included: entries may be negative or above one
probability_rows = arrays(
    np.float64,
    st.tuples(st.integers(0, 12), st.just(4)),
    elements=st.floats(-1.0, 2.0, allow_subnormal=False),
)


@given(probs=probability_rows)
def test_outcome_moments_match_per_row_fsum(probs):
    moments = outcome_moments(probs)
    assert moments.shape == (probs.shape[0], 3)
    assert moments.tolist() == reference_moments(probs).tolist()


def test_outcome_moments_shapes():
    probs = np.full((2, 3, 4), 0.25)
    assert outcome_moments(probs).shape == (2, 3, 3)
    assert outcome_moments([0.25, 0.25, 0.25, 0.25]).tolist() == [0.0, 0.0, 0.0]
    # 2,100 sums: more than one block of rows
    probs = np.random.default_rng(0).uniform(-1.0, 2.0, (700, 4))
    assert outcome_moments(probs).tolist() == reference_moments(probs).tolist()


def test_outcome_moments_are_correctly_rounded():
    # <x> = 1 + 1e-17 - 1 - 0; a left-to-right sum loses the 1e-17 in 1 + 1e-17
    assert outcome_moments([1.0, 1e-17, 1.0, 0.0])[0] == 1e-17


bloch_components = st.floats(-1.5, 1.5, allow_subnormal=False)


def reference_equatorial_density(ex, ey):
    """(1/2)(I + ex X + ey Y) in Python complex arithmetic, one matrix at a time."""
    off = 0.5 * (ex - 1j * ey)
    return np.array([[0.5, off], [off.conjugate(), 0.5]])


@given(ex=st.lists(bloch_components, min_size=1, max_size=20), data=st.data())
def test_equatorial_densities_bit_equal_to_python_reference(ex, data):
    # signed zeros included: the bytes must match, not just the values
    ey = data.draw(st.lists(bloch_components, min_size=len(ex), max_size=len(ex)))
    stack = equatorial_densities(np.array(ex), np.array(ey))
    assert stack.shape == (len(ex), 2, 2)
    for k, (x, y) in enumerate(zip(ex, ey)):
        assert stack[k].tobytes() == reference_equatorial_density(x, y).tobytes()


def test_equatorial_densities_broadcast():
    rho = equatorial_densities(np.array([[0.6], [-0.2]]), np.array([0.0, 0.8, -0.8]))
    assert rho.shape == (2, 3, 2, 2)
    assert np.array_equal(rho[1, 2], pauli_density(-0.2, -0.8))
    assert np.all(np.trace(rho, axis1=-2, axis2=-1) == 1.0)


def test_bloch_bound_lhs_on_floats_and_arrays():
    assert bloch_bound_lhs(0.6, 0.8) == 0.6**2 + 0.8**2
    assert bloch_bound_lhs(0.0, 0.0) == 0.0
    ex, ey = np.array([0.6, 0.9, 0.0]), np.array([0.8, 0.9, 0.0])
    assert bloch_bound_lhs(ex, ey).tolist() == (ex * ex + ey * ey).tolist()
    assert bloch_bound_lhs(0.9, 0.9) > 1.0 + 1e-12
    assert bloch_bound_lhs(0.6, 0.8) <= 1.0 + 1e-12
