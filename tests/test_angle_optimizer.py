"""The batched golden-section optimizer against the scalar searches it replaced.

The reference functions below are the one-vector-at-a-time implementations:
a golden-section search on Python floats with plain branches, the angle
supremum evaluating the positivity condition (``conftest.reference_angle_lhs``)
at one angle pair per point, and the CHSH and zero-probability-curve searches
built on them. The batched optimizer keeps their iteration count, update
order and final pick, so every comparison here is exact (``==``), not
approximate.
"""

import math

import numpy as np
import pytest

from jointlab.bounds import (
    _GOLDEN,
    _golden_section_max,
    sup_over_angles,
    tight_bound_lhs,
)
from jointlab.pairs import CorrelationVector, bell_family_correlations
from jointlab.sampling import (
    ChshOptimum,
    CurveOptimum,
    SeededSampler,
    chsh_surface,
    experimental_chsh,
    max_experimental_chsh,
    zero_probability_chsh,
    zero_probability_curve_max,
)
from jointlab.verify import sup_identity_residual

from conftest import reference_angle_lhs


def reference_golden_section_max(f, lo, hi, iters):
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    xm = 0.5 * (lo + hi)
    fm = f(xm)
    best = max([(f1, x1), (f2, x2), (fm, xm)])
    return best[1], best[0]


def reference_sup_over_angles(c, coarse_steps=64, refine_iters=60):
    grid = np.linspace(0.0, 2.0 * math.pi, coarse_steps, endpoint=False)
    step = 2.0 * math.pi / coarse_steps

    def f_u(u):
        return reference_angle_lhs(c, 0.5 * u, 0.5 * u)

    def f_v(v):
        return reference_angle_lhs(c, 0.5 * v, -0.5 * v)

    p = c.c_xx - c.c_yy
    q = c.c_xy + c.c_yx
    r = c.c_xx + c.c_yy
    s = c.c_xy - c.c_yx
    u0 = float(grid[int(np.argmax(np.cos(grid) * p + np.sin(grid) * q))])
    v0 = float(grid[int(np.argmax(np.cos(grid) * r - np.sin(grid) * s))])
    _, fu = reference_golden_section_max(f_u, u0 - step, u0 + step, refine_iters)
    _, fv = reference_golden_section_max(f_v, v0 - step, v0 + step, refine_iters)
    return (fu - r) + (fv - p)


def reference_max_experimental_chsh(phi, grid_steps=181, refine_iters=60):
    half_pi = 0.5 * math.pi
    step = half_pi / grid_steps
    grid, surface = chsh_surface(phi, grid_steps)
    i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
    alpha, beta = float(grid[i]), float(grid[j])
    lo, hi = 0.5 * step, half_pi - 0.5 * step
    for _ in range(8):
        alpha, _ = reference_golden_section_max(
            lambda a: experimental_chsh(phi, a, beta), lo, hi, refine_iters
        )
        beta, _ = reference_golden_section_max(
            lambda b: experimental_chsh(phi, alpha, b), lo, hi, refine_iters
        )
    return ChshOptimum(experimental_chsh(phi, alpha, beta), alpha, beta)


def reference_zero_probability_curve_max(lo=0.0, hi=math.pi, step=1e-4, refine_iters=80):
    phis = np.arange(lo, hi + 0.5 * step, step)
    values = 1.0 + np.cos(phis) - np.cos(phis) ** 2
    phi0 = float(phis[int(np.argmax(values))])
    phi_star, _ = reference_golden_section_max(
        zero_probability_chsh, max(lo, phi0 - step), min(hi, phi0 + step), refine_iters
    )
    h = 1e-5
    for _ in range(2):
        f_lo = zero_probability_chsh(phi_star - h)
        f_mid = zero_probability_chsh(phi_star)
        f_hi = zero_probability_chsh(phi_star + h)
        denom = f_hi - 2.0 * f_mid + f_lo
        if denom >= 0.0:
            break
        phi_star -= 0.5 * h * (f_hi - f_lo) / denom
    return CurveOptimum(zero_probability_chsh(phi_star), phi_star)


def reference_draws(sampler, n):
    """n vectors as the scalar criterion drew them: one random(4) call each."""
    gen = sampler.rng()
    return np.array([2.0 * gen.random(4) - 1.0 for _ in range(n)])


def reference_sups(rows):
    return np.array([reference_sup_over_angles(CorrelationVector(*row)) for row in rows])


def special_vectors():
    corners = [[a, b, c, d] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1) for d in (-1, 1)]
    bell = [bell_family_correlations(phi).as_tuple() for phi in np.linspace(0.0, 2.0 * math.pi, 24)]
    return np.array([[0.0, 0.0, 0.0, 0.0], *corners, *bell], dtype=float)


# criterion 6's vectors at two seeds, and the 200 vectors of the bound suite
@pytest.mark.parametrize(
    ("seed", "stream", "n"), [(7, 6, 1000), (11, 6, 1000), (7, 72, 200)]
)
def test_stack_equals_scalar_search_bit_for_bit(seed, stream, n):
    sampler = SeededSampler(seed).derive(stream)
    rows = reference_draws(sampler, n)
    assert np.array_equal(2.0 * sampler.rng().random((n, 4)) - 1.0, rows)
    batched = sup_over_angles(rows)
    assert batched.shape == (n,)
    assert np.array_equal(batched, reference_sups(rows))


@pytest.mark.parametrize(("seed", "stream", "n"), [(7, 6, 1000), (7, 72, 200)])
def test_sup_identity_residual_equals_scalar_loop(seed, stream, n):
    sampler = SeededSampler(seed).derive(stream)
    worst = 0.0
    for row in reference_draws(sampler, n):
        c = CorrelationVector(*row)
        worst = max(worst, abs(reference_sup_over_angles(c) - tight_bound_lhs(c)))
    assert sup_identity_residual(sampler, n) == worst


def test_special_vectors_bit_for_bit():
    rows = special_vectors()
    assert np.array_equal(sup_over_angles(rows), reference_sups(rows))


def test_lone_vector_stays_a_python_float():
    for row in special_vectors()[:5]:
        c = CorrelationVector(*row)
        value = sup_over_angles(c)
        assert type(value) is float
        assert value == reference_sup_over_angles(c)


def signed_zero_vectors(scale):
    """Random rows at ``scale`` with +-0.0 components, and all-zero rows of either sign."""
    rows = scale * (2.0 * SeededSampler(5).rng().random((40, 4)) - 1.0)
    rows[::3, 1] = 0.0
    rows[1::4, 2] = -0.0
    rows[2::5, 0] = -0.0
    rows[3::6, 3] = 0.0
    rows[-2] = 0.0
    rows[-1] = -0.0
    return rows


# each search holds one angle at +0.0 and skips its trig; the reference takes
# cos and sin of all four angles, so signed zeros and subnormals must agree
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-310, 0.0])
def test_fixed_angle_skips_no_signed_zero(scale):
    rows = signed_zero_vectors(scale)
    expected = reference_sups(rows)
    assert sup_over_angles(rows).tobytes() == expected.tobytes()
    lone = [sup_over_angles(CorrelationVector(*row)) for row in rows]
    assert np.array(lone).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(0, 4), (1, 4), (5, 4), (2, 3, 4), (4,)])
def test_stack_shapes(shape):
    rows = 2.0 * SeededSampler(3).rng().random(shape) - 1.0
    out = sup_over_angles(rows)
    assert out.shape == shape[:-1]
    flat = rows.reshape(-1, 4)
    assert np.array_equal(out.reshape(-1), reference_sups(flat))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_stack_raises(bad):
    rows = np.zeros((3, 4))
    rows[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        sup_over_angles(rows)


@pytest.mark.parametrize("shape", [(3, 3), (4, 5), ()])
def test_wrong_shape_raises(shape):
    with pytest.raises(ValueError, match="shape"):
        sup_over_angles(np.zeros(shape))


class TestKernel:
    def test_floats_in_floats_out(self):
        x, fx = _golden_section_max(lambda t: -((t - 0.3) ** 2), 0.0, 1.0, 60)
        assert type(x) is float and type(fx) is float
        assert (x, fx) == reference_golden_section_max(lambda t: -((t - 0.3) ** 2), 0.0, 1.0, 60)

    @pytest.mark.parametrize("iters", [0, 1, 5, 60])
    def test_constant_function_ties_pick_the_reference_point(self, iters):
        expected = reference_golden_section_max(lambda t: 1.0, -0.5, 2.0, iters)
        assert _golden_section_max(lambda t: 1.0, -0.5, 2.0, iters) == expected
        lo, hi = np.full(3, -0.5), np.full(3, 2.0)
        x, fx = _golden_section_max(lambda t: np.ones_like(t), lo, hi, iters)
        assert np.array_equal(x, np.full(3, expected[0]))
        assert np.array_equal(fx, np.full(3, expected[1]))

    def test_each_element_is_its_own_float_search(self):
        # a plateau-topped and a stepped objective force ties in the final pick
        centres = np.array([0.1, 0.45, 0.5, 0.77, 0.9])
        lo, hi = np.zeros(5), np.ones(5)

        def flat_top(t, c):
            return np.minimum(0.0, 0.01 - np.abs(t - c))

        def steps(t, c):
            return -np.floor(8.0 * np.abs(t - c))

        for g in (flat_top, steps):
            x, fx = _golden_section_max(lambda t: g(t, centres), lo, hi, 40)
            for k, c in enumerate(centres.tolist()):
                xr, fr = reference_golden_section_max(lambda t: float(g(t, c)), 0.0, 1.0, 40)
                assert (x[k], fx[k]) == (xr, fr)


@pytest.mark.parametrize("phi", [0.0, 0.3, 0.25 * math.pi, 1.2])
@pytest.mark.parametrize("grid_steps", [9, 64, 181, 256])
def test_max_experimental_chsh_equals_reference(phi, grid_steps):
    expected = reference_max_experimental_chsh(phi, grid_steps)
    assert max_experimental_chsh(phi, grid_steps) == expected


@pytest.mark.parametrize("step", [1e-4, 3e-4, math.pi / 1e4])
def test_zero_probability_curve_max_equals_reference(step):
    assert zero_probability_curve_max(step=step) == reference_zero_probability_curve_max(step=step)
