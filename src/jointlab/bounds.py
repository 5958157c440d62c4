"""Positivity-derived bounds on the four two-qubit correlations.

Requiring every probability of a pair of saturated local joint measurements
to stay non-negative, for every visibility balance, pins the correlations
inside

    sqrt((c_xx - c_yy)**2 + (c_xy + c_yx)**2)
      + sqrt((c_xx + c_yy)**2 + (c_xy - c_yx)**2) <= 2,

which is tight on maximally entangled states and implies both the squared
single-radical bound (<= 4) and the Tsirelson bound chsh <= 2*sqrt(2). The
same quantity equals four times the sum of two density-matrix coherences,
|<00|rho|11>| + |<10|rho|01>|. A grid-plus-golden-section optimizer over the
visibility angles, of fixed size (a 64-point grid, then 60 golden-section
steps), provides an independent numerical route to the supremum. The
optimizer runs on stacks: ``sup_over_angles`` takes an ``(n, 4)`` array
of correlation vectors and makes each golden-section step for all n at once,
with the same result, bit for bit, as n searches on Python floats. A lone
``CorrelationVector`` stays on Python floats, where a stack of one would cost
more.
"""

from __future__ import annotations

import math

import numpy as np

from .pairs import CorrelationVector, DensityOperator4

__all__ = [
    "tight_bound_from_components",
    "tight_bound_lhs",
    "simplified_bound_lhs",
    "chsh_from_components",
    "chsh_value",
    "coherence_from_matrices",
    "coherence_bound_lhs",
    "sup_over_angles",
    "TSIRELSON_BOUND",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_SUP_GRID_STEPS = 64
_SUP_REFINE_ITERS = 60


def _angle_combination(p, q, r, s, cu, su, cv, sv):
    """cu p + su q + cv r - sv s, given the cosines and sines of u and v.

    At u = a + b, v = a - b and p, q, r, s as in ``sup_over_angles``, this is
    2 (1 - 16 P(+1, +1, -1, -1)) at the balances (cos a, sin a), (cos b, sin b).
    """
    return cu * p + su * q + cv * r - sv * s


def tight_bound_from_components(c_xx, c_xy, c_yx, c_yy):
    """Tight-bound left-hand side from raw components; scalars and arrays square as ``x * x``."""
    p, q = c_xx - c_yy, c_xy + c_yx
    r, s = c_xx + c_yy, c_xy - c_yx
    return np.sqrt(p * p + q * q) + np.sqrt(r * r + s * s)


def tight_bound_lhs(c: CorrelationVector) -> float:
    """Sum of the two correlation-plane radii; quantum states satisfy <= 2."""
    return float(tight_bound_from_components(*c.as_tuple()))


def simplified_bound_lhs(c: CorrelationVector) -> float:
    """(c_xx - c_yy)**2 + (c_xy + c_yx)**2; quantum states satisfy <= 4."""
    p, q = c.c_xx - c.c_yy, c.c_xy + c.c_yx
    return p * p + q * q


def chsh_from_components(c_xx, c_xy, c_yx, c_yy):
    """CHSH combination c_xx + c_xy + c_yx - c_yy (scalars or arrays)."""
    return c_xx + c_xy + c_yx - c_yy


def chsh_value(c: CorrelationVector) -> float:
    """CHSH combination; the quantum maximum is the Tsirelson bound 2*sqrt(2)."""
    return float(chsh_from_components(*c.as_tuple()))


def coherence_from_matrices(rho):
    """|<00|rho|11>| + |<10|rho|01>|, moduli by ``hypot``, for a (..., 4, 4) state or stack."""
    rho = np.asarray(rho)
    a, b = rho[..., 0, 3], rho[..., 2, 1]
    return np.hypot(a.real, a.imag) + np.hypot(b.real, b.imag)


def coherence_bound_lhs(rho: DensityOperator4) -> float:
    """|<00|rho|11>| + |<10|rho|01>|; quantum states satisfy <= 1/2.

    Equals a quarter of the tight-bound left-hand side of the state's
    correlations, since each coherence collects one pair of correlation
    combinations.
    """
    return float(coherence_from_matrices(rho.mat))


def _golden_section_max(f, lo: float | np.ndarray, hi: float | np.ndarray, iters: int):
    """Golden-section search for the maximum of a unimodal function on [lo, hi].

    On Python floats this is one search. When ``lo`` is an ndarray, ``lo``
    and ``hi`` bound one independent search per element and ``f`` maps an
    array of points to an array of values. Every step makes the same choice,
    by ``pick`` (``np.where`` on arrays, a conditional expression on floats),
    evaluates ``f`` once at the new points, and the final pick breaks ties as
    Python's ``max`` over the ``(f, x)`` tuples does, so each element equals
    its own float search. Returns ``(x, f(x))``.
    """
    if isinstance(lo, np.ndarray):
        pick = np.where
    else:
        def pick(cond, a, b):
            return a if cond else b

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        right = f1 < f2
        lo, hi = pick(right, x1, lo), pick(right, hi, x2)
        x = pick(right, lo + _GOLDEN * (hi - lo), hi - _GOLDEN * (hi - lo))
        fx = f(x)
        x1, x2 = pick(right, x2, x), pick(right, x, x1)
        f1, f2 = pick(right, f2, fx), pick(right, fx, f1)
    xm = 0.5 * (lo + hi)
    fm = f(xm)
    best_x, best_f = x1, f1
    for x, fx in ((x2, f2), (xm, fm)):
        later = (fx > best_f) | ((fx == best_f) & (x > best_x))
        best_x, best_f = pick(later, x, best_x), pick(later, fx, best_f)
    return best_x, best_f


def sup_over_angles(c: CorrelationVector | np.ndarray) -> float | np.ndarray:
    """Numerical supremum of ``_angle_combination`` over all angle pairs.

    The objective, cos(u) p + sin(u) q + cos(v) r - sin(v) s with p, q, r, s
    formed below, decouples in the sum and difference angles u = alpha + beta
    and v = alpha - beta, so each is scanned on a 64-point grid over
    [0, 2 pi) and refined by 60 golden-section steps. Agrees with
    ``tight_bound_lhs`` to high accuracy for arbitrary correlation vectors;
    the identity is purely trigonometric.

    ``c`` is one ``CorrelationVector``, searched on Python floats, or a
    finite ``(..., 4)`` array of (c_xx, c_xy, c_yx, c_yy) rows, searched all
    at once, which returns a ``(...)`` array. Each row gives the same value,
    bit for bit, as its ``CorrelationVector`` does.
    """
    if isinstance(c, CorrelationVector):
        c_xx, c_xy, c_yx, c_yy = c.as_tuple()
        cos, sin, start = math.cos, math.sin, float
    else:
        comps = np.asarray(c, dtype=float)
        if comps.ndim < 1 or comps.shape[-1] != 4:
            raise ValueError(f"expected a (..., 4) array of correlations, got shape {comps.shape}")
        if not np.isfinite(comps).all():
            raise ValueError("correlations must be finite")
        c_xx, c_xy, c_yx, c_yy = np.moveaxis(comps, -1, 0)
        cos, sin, start = np.cos, np.sin, np.asarray
    grid = np.linspace(0.0, 2.0 * math.pi, _SUP_GRID_STEPS, endpoint=False)
    step = 2.0 * math.pi / _SUP_GRID_STEPS

    p = c_xx - c_yy
    q = c_xy + c_yx
    r = c_xx + c_yy
    s = c_xy - c_yx

    # each search holds one of u, v at +0.0 exactly (0.5 x - 0.5 x), whose
    # cosine is 1.0 and sine +0.0, so only the varying angle takes trig
    def f_u(u):
        u = 0.5 * u + 0.5 * u
        return _angle_combination(p, q, r, s, cos(u), sin(u), 1.0, 0.0)

    def f_v(v):
        # alpha - beta = v with alpha + beta = 0 leaves only the v terms
        v = 0.5 * v + 0.5 * v
        return _angle_combination(p, q, r, s, 1.0, 0.0, cos(v), sin(v))

    u_values = np.cos(grid) * np.expand_dims(p, -1) + np.sin(grid) * np.expand_dims(q, -1)
    v_values = np.cos(grid) * np.expand_dims(r, -1) - np.sin(grid) * np.expand_dims(s, -1)
    u0 = start(grid[np.argmax(u_values, axis=-1)])
    v0 = start(grid[np.argmax(v_values, axis=-1)])
    # f_u(u) includes the constant v-term cos(0)*r, and vice versa; subtract it
    _, fu = _golden_section_max(f_u, u0 - step, u0 + step, _SUP_REFINE_ITERS)
    _, fv = _golden_section_max(f_v, v0 - step, v0 + step, _SUP_REFINE_ITERS)
    return (fu - r) + (fv - p)
