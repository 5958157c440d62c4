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
visibility angles provides an independent numerical route to the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .pairs import CorrelationVector, DensityOperator4, PairOutcomeLabel, correlations_of_state

__all__ = [
    "AnglePair",
    "SignedVisibilities",
    "BoundReport",
    "signed_visibilities",
    "selected_outcome",
    "outcome_bound_lhs",
    "angle_inequality_lhs",
    "tight_bound_from_components",
    "tight_bound_lhs",
    "simplified_bound_lhs",
    "chsh_from_components",
    "chsh_value",
    "coherence_from_matrices",
    "coherence_bound_lhs",
    "sup_over_angles",
    "bound_report",
    "TSIRELSON_BOUND",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SATURATION_TOL = 1e-6


@dataclass(frozen=True)
class AnglePair:
    """Angles (alpha, beta) parametrizing saturated visibility balances.

    alpha splits measurement A between its X and Y sensitivity, beta does the
    same for B. No range restriction: signs are absorbed into the selected
    outcome.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SignedVisibilities:
    """Signed visibility products (va_x, va_y, vb_x, vb_y), each in [-1, 1].

    Each side saturates the visibility trade-off: va_x**2 + va_y**2 = 1 and
    likewise for B.
    """

    va_x: float
    va_y: float
    vb_x: float
    vb_y: float

    def __post_init__(self):
        for name in ("va_x", "va_y", "vb_x", "vb_y"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or abs(value) > 1.0 + 1e-12:
                raise ValueError(f"{name} must lie in [-1, 1], got {value!r}")
            object.__setattr__(self, name, value)
        for side in ("a", "b"):
            vx = getattr(self, f"v{side}_x")
            vy = getattr(self, f"v{side}_y")
            if vx * vx + vy * vy > 1.0 + 1e-9:
                raise ValueError(f"side {side} visibilities exceed the unit disk")


def signed_visibilities(a: AnglePair, o: PairOutcomeLabel) -> SignedVisibilities:
    """Embed the outcome signs into saturated visibilities.

    Returns (x_a cos(alpha), y_a sin(alpha), -x_b cos(beta), -y_b sin(beta)).
    For each angle pair the result is non-negative for exactly one outcome,
    which makes a single expression cover all sixteen positivity conditions.
    """
    xa, ya, xb, yb = o
    if any(v not in (-1, 1) for v in (xa, ya, xb, yb)):
        raise ValueError(f"outcome labels must be +-1, got {o!r}")
    return SignedVisibilities(
        xa * math.cos(a.alpha),
        ya * math.sin(a.alpha),
        -xb * math.cos(a.beta),
        -yb * math.sin(a.beta),
    )


def selected_outcome(a: AnglePair) -> PairOutcomeLabel:
    """The unique outcome whose signed visibilities are all non-negative."""

    def sign(x: float) -> int:
        return 1 if x >= 0.0 else -1

    return (
        sign(math.cos(a.alpha)),
        sign(math.sin(a.alpha)),
        -sign(math.cos(a.beta)),
        -sign(math.sin(a.beta)),
    )


def outcome_bound_lhs(c: CorrelationVector, sv: SignedVisibilities) -> float:
    """Left-hand side of the per-outcome positivity bound.

    With the angle embedding evaluated at the reference outcome
    (+1, +1, -1, -1), the outcome values cancel and the result is the signed
    trigonometric sum common to all outcomes; the probability of the outcome
    the angles actually select (see ``selected_outcome``) is (1/16)(1 - lhs),
    so positivity of every outcome for every angle pair is exactly lhs <= 1.
    """
    return (
        sv.va_x * sv.vb_x * c.c_xx
        + sv.va_x * sv.vb_y * c.c_xy
        + sv.va_y * sv.vb_x * c.c_yx
        + sv.va_y * sv.vb_y * c.c_yy
    )


def angle_inequality_lhs(c: CorrelationVector, a: AnglePair) -> float:
    """Single positivity condition over all outcomes for one angle pair.

    cos(a+b)(c_xx - c_yy) + sin(a+b)(c_xy + c_yx)
      + cos(a-b)(c_xx + c_yy) - sin(a-b)(c_xy - c_yx),

    bounded by 2 for every (alpha, beta) exactly when the correlations are
    compatible with positive joint-measurement statistics.
    """
    u = a.alpha + a.beta
    v = a.alpha - a.beta
    return (
        math.cos(u) * (c.c_xx - c.c_yy)
        + math.sin(u) * (c.c_xy + c.c_yx)
        + math.cos(v) * (c.c_xx + c.c_yy)
        - math.sin(v) * (c.c_xy - c.c_yx)
    )


def tight_bound_from_components(c_xx, c_xy, c_yx, c_yy):
    """Tight-bound left-hand side from raw components (scalars or arrays)."""
    return np.sqrt((c_xx - c_yy) ** 2 + (c_xy + c_yx) ** 2) + np.sqrt(
        (c_xx + c_yy) ** 2 + (c_xy - c_yx) ** 2
    )


def tight_bound_lhs(c: CorrelationVector) -> float:
    """Sum of the two correlation-plane radii; quantum states satisfy <= 2."""
    return float(tight_bound_from_components(*c.as_tuple()))


def simplified_bound_lhs(c: CorrelationVector) -> float:
    """(c_xx - c_yy)**2 + (c_xy + c_yx)**2; quantum states satisfy <= 4."""
    return (c.c_xx - c.c_yy) ** 2 + (c.c_xy + c.c_yx) ** 2


def chsh_from_components(c_xx, c_xy, c_yx, c_yy):
    """CHSH combination c_xx + c_xy + c_yx - c_yy (scalars or arrays)."""
    return c_xx + c_xy + c_yx - c_yy


def chsh_value(c: CorrelationVector) -> float:
    """CHSH combination; the quantum maximum is the Tsirelson bound 2*sqrt(2)."""
    return float(chsh_from_components(*c.as_tuple()))


def coherence_from_matrices(rho):
    """|<00|rho|11>| + |<10|rho|01>| for a (..., 4, 4) stack of states."""
    rho = np.asarray(rho)
    return np.abs(rho[..., 0, 3]) + np.abs(rho[..., 2, 1])


def coherence_bound_lhs(rho: DensityOperator4) -> float:
    """|<00|rho|11>| + |<10|rho|01>|; quantum states satisfy <= 1/2.

    Equals a quarter of the tight-bound left-hand side of the state's
    correlations, since each coherence collects one pair of correlation
    combinations. Uses Python's complex ``abs``, which can differ from
    numpy's (``coherence_from_matrices``) in the last bit.
    """
    return float(abs(rho.mat[0, 3]) + abs(rho.mat[2, 1]))


def _golden_section_max(f, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function on [lo, hi]."""
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
    candidates = [(f1, x1), (f2, x2), (fm, xm)]
    best = max(candidates)
    return best[1], best[0]


def sup_over_angles(c: CorrelationVector, coarse_steps: int = 64, refine_iters: int = 60) -> float:
    """Numerical supremum of ``angle_inequality_lhs`` over all angle pairs.

    The objective decouples in the sum and difference angles u = alpha + beta
    and v = alpha - beta, so each is scanned on a coarse grid and refined by
    golden-section search. Agrees with ``tight_bound_lhs`` to high accuracy
    for arbitrary correlation vectors; the identity is purely trigonometric.
    """
    if coarse_steps < 8:
        raise ValueError(f"coarse_steps must be at least 8, got {coarse_steps}")
    grid = np.linspace(0.0, 2.0 * math.pi, coarse_steps, endpoint=False)
    step = 2.0 * math.pi / coarse_steps

    def f_u(u: float) -> float:
        return angle_inequality_lhs(c, AnglePair(0.5 * u, 0.5 * u))

    def f_v(v: float) -> float:
        # alpha - beta = v with alpha + beta = 0 leaves only the v terms
        return angle_inequality_lhs(c, AnglePair(0.5 * v, -0.5 * v))

    p = c.c_xx - c.c_yy
    q = c.c_xy + c.c_yx
    r = c.c_xx + c.c_yy
    s = c.c_xy - c.c_yx
    u_values = np.cos(grid) * p + np.sin(grid) * q
    v_values = np.cos(grid) * r - np.sin(grid) * s
    u0 = float(grid[int(np.argmax(u_values))])
    v0 = float(grid[int(np.argmax(v_values))])
    # f_u(u) includes the constant v-term cos(0)*r, and vice versa; subtract it
    _, fu = _golden_section_max(f_u, u0 - step, u0 + step, refine_iters)
    _, fv = _golden_section_max(f_v, v0 - step, v0 + step, refine_iters)
    return (fu - r) + (fv - p)


@dataclass(frozen=True)
class BoundReport:
    """All bound evaluations for one state, with saturation flags."""

    tight_lhs: float
    simplified_lhs: float
    chsh: float
    coherence_lhs: float
    sup_angles: float
    saturating: Mapping[str, bool]

    def __post_init__(self):
        if self.tight_lhs < 0.0 or self.coherence_lhs < 0.0:
            raise ValueError("bound left-hand sides must be non-negative")
        if abs(self.tight_lhs - 4.0 * self.coherence_lhs) > 1e-10:
            raise ValueError("tight bound and coherence values are inconsistent")


def bound_report(
    rho: DensityOperator4,
    coarse_steps: int = 64,
    refine_iters: int = 60,
    saturation_tol: float = SATURATION_TOL,
) -> BoundReport:
    """Evaluate every bound for a state and flag the ones it saturates."""
    c = correlations_of_state(rho)
    tight = tight_bound_lhs(c)
    simplified = simplified_bound_lhs(c)
    chsh = chsh_value(c)
    coherence = coherence_bound_lhs(rho)
    sup = sup_over_angles(c, coarse_steps, refine_iters)
    saturating = {
        "tight": abs(tight - 2.0) <= saturation_tol,
        "simplified": abs(simplified - 4.0) <= saturation_tol,
        "chsh": abs(chsh - TSIRELSON_BOUND) <= saturation_tol,
        "coherence": abs(coherence - 0.5) <= saturation_tol,
    }
    return BoundReport(tight, simplified, chsh, coherence, sup, saturating)
