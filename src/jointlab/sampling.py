"""Random states, seeded outcome sampling, and the observable-statistics optima.

Randomness policy: every public operation takes a ``SeededSampler`` naming a
counter-based bit generator (Philox) plus a 64-bit seed, and Gaussian
variates are produced by a Box-Muller transform of uniform pairs drawn from
that stream. Identical seeds therefore reproduce results bit-for-bit,
independent of library version details of higher-level distributions.

The hot paths are exact kernels on that stream. ``random_state_stack`` draws
all its members from one stream, laid out as the lone generators lay out
one state, so a stack of one is the lone state bit for bit.
``correlation_ensemble`` forms only rho's antidiagonal and trace, since the
four correlation operators are antidiagonal, summing in real arithmetic in
the order einsum sums the full matrices. It builds the members in blocks of
2,048 that fit in L2: each block reads its uniforms from the ensemble's one
long stream at its own offsets, through ``Philox.advance``, so the bits do
not depend on the thread count. ``sample_outcomes`` draws its shots the same
way, in blocks of 32,768, inverting the CDF through a table of 4,096 equal
buckets and searching only the shots whose bucket holds a CDF entry. Each of
these matches the direct numpy form bit for bit. These blocks, and the shot
archive's, run through one scheduler, ``_run_blocks``: a bounded in-order
pipeline with one worker per usable CPU, the caller's thread among them.
``estimate_moment`` reads only the 16 outcome counts: the mean as ``mean()``
gives it, and the standard error from the exact sample variance of +-1
values, 4 n_plus n_minus / (n (n - 1)), rounded once.

The experiment helpers evaluate the CHSH combination actually observed
through two saturated local joint measurements on a maximally entangled
state,

    cos(alpha - beta) cos(phi) + sin(alpha + beta) sin(phi),

whose unconstrained maximum is sqrt(2) (at alpha = beta = pi/4), and whose
maximum subject to one outcome having probability zero (alpha + beta = phi)
is 1 + cos(phi) - cos(phi)**2, peaking at 1.25 when cos(phi) = 1/2.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import AnglePair, _golden_section_max
from .joint import NEGATIVE_PROB_TOL
from .pairs import (
    PAIR_OUTCOMES,
    DensityOperator4,
    MomentSpec,
    PairOutcomeDistribution,
    moment_signs,
    outcome_indices,
    validate_densities,
)

__all__ = [
    "SeededSampler",
    "ShotRecord",
    "EstimateWithError",
    "ChshOptimum",
    "CurveOptimum",
    "haar_random_pure_state",
    "ginibre_random_mixed_state",
    "bell_diagonal_random_state",
    "random_state_stack",
    "correlation_ensemble",
    "sample_outcomes",
    "estimate_moment",
    "experimental_chsh",
    "chsh_surface",
    "max_experimental_chsh",
    "zero_probability_curve",
    "zero_probability_chsh",
    "zero_probability_curve_max",
    "constrained_chsh_grid_max",
]

#: Probabilities below this are floating-point zeros; treated as exact zeros
#: when building a sampling CDF so analytically suppressed outcomes can
#: never appear in a finite sample.
_PROB_FLOOR = 4.0 * np.finfo(float).eps

_BELL_KETS = (
    np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0),
    np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
    np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
    np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
)
_BELL_PROJECTORS = tuple(np.outer(ket, ket.conj()) for ket in _BELL_KETS)

_PAIR_OUTCOME_ARRAY = np.array(PAIR_OUTCOMES, dtype=np.int8)
_PAIR_OUTCOME_ARRAY.setflags(write=False)

#: Equal-width buckets over [0, 1) for the inverse CDF; u * _BUCKETS is exact.
_BUCKETS = 4096
_BUCKET_EDGES = np.arange(_BUCKETS + 1) / _BUCKETS

#: Ensemble members per block: a Ginibre block's working arrays fit in L2.
_ENSEMBLE_BLOCK = 2048
#: Shots per sampling block: a block's working arrays fit in L2, and a multiple
#: of 4, so every block's uniforms start on a Philox counter step.
_SHOT_BLOCK = 32768
#: Gaussian normals per ensemble member: a 4-vector or a 4x4 matrix.
_NORMALS_PER_MEMBER = {"haar": 4, "ginibre": 16}


@dataclass(frozen=True)
class SeededSampler:
    """A Philox stream keyed by ``seed``, named ``philox-boxmuller-v1:{seed}``.

    ``rng()`` builds a fresh generator each call, so the same sampler value
    always reproduces the same draws.
    """

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))

    def derive(self, index: int) -> "SeededSampler":
        """Independent child stream for task ``index`` of this master seed."""
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(index),))
        return SeededSampler(int(child.generate_state(1, np.uint64)[0]))

    def describe(self) -> str:
        return f"philox-boxmuller-v1:{self.seed}"


def _require_size(what: str, n, minimum: int) -> int:
    """``n`` as an int once it is an integer (not a bool) of at least ``minimum``, 0 or 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {n!r}")
    return int(n)


def _normal_parts(
    gen: np.random.Generator, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of complex Gaussians; deterministic given the stream."""
    count = int(np.prod(shape))
    u1 = gen.random(count)
    return _box_muller(u1, gen.random(count), shape)


def _box_muller(
    u1: np.ndarray, u2: np.ndarray, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """One Box-Muller transform per uniform pair (u1, u2) of contiguous 1-d arrays.

    The real part, of the given shape, is its cosine branch and the
    imaginary part its sine branch. u1 and u2 are overwritten.
    """
    radius, angle = u1, u2
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)  # 1 - u1 in (0, 1], log is finite
    radius *= -2.0
    np.sqrt(radius, out=radius)  # sqrt(-2 log1p(-u1))
    angle *= 2.0 * math.pi
    re, im = np.empty((2, radius.size))
    np.cos(angle, out=re)
    np.sin(angle, out=im)
    re *= radius
    im *= radius
    return re.reshape(shape), im.reshape(shape)


def _complex_normals(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = _normal_parts(gen, shape)
    return z


def _haar_kets(gen: np.random.Generator, n: int) -> np.ndarray:
    psi = np.empty((n, 4), dtype=np.complex128)
    psi.real, psi.imag = _unit_rows(*_normal_parts(gen, (n, 4)))
    return psi


def _unit_rows(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parts of each row of re + i im over sqrt(((t0 + t1) + t2) + t3), t = re*re + im*im.

    Real arithmetic throughout, so the bits equal a Python-float loop's on any host.
    """
    norm = np.sqrt(_sum_last(re * re + im * im))[:, None]
    return re / norm, im / norm


def _ginibre_rhos(gen: np.random.Generator, n: int) -> np.ndarray:
    """G G^dagger / tr(G G^dagger) for n complex Gaussian 4x4 G drawn from ``gen``."""
    g = _complex_normals(gen, (n, 4, 4))
    rho = np.einsum("nij,nkj->nik", g, g.conj())
    tr = np.einsum("nii->n", rho).real
    return rho / tr[:, None, None]


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis from left to right, the order einsum accumulates in."""
    total = x[..., 0]
    for j in range(1, x.shape[-1]):
        total = total + x[..., j]
    return total


def _antidiagonal(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (G G^dagger)_03 and _12 for an (n, 4, m) stack G = a + ib.

    Each entry sums over j in real arithmetic, bit-equal to einsum's
    "nij,nkj->nik". The other two antidiagonal entries are the exact
    conjugates of these.
    """
    re = a[:, :2] * a[:, :1:-1] + b[:, :2] * b[:, :1:-1]
    im = b[:, :2] * a[:, :1:-1] - a[:, :2] * b[:, :1:-1]
    return _sum_last(re), _sum_last(im)


def _antidiagonal_correlations(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(n, 4) correlations (c_xx, c_xy, c_yx, c_yy) from rho_03 and rho_12.

    XX, XY, YX and YY are antidiagonal, so c_k = sum_i Re(rho_(i,3-i) O_k(3-i,i)).
    Row i contributes t0, t1, t1, t0 (rho_30 and rho_21 are the conjugates
    of rho_03 and rho_12), added in row order as einsum adds them.
    """
    terms = (
        (re[:, 0], re[:, 1]),
        (-im[:, 0], im[:, 1]),
        (-im[:, 0], -im[:, 1]),
        (-re[:, 0], re[:, 1]),
    )
    out = np.empty((re.shape[0], 4))
    for k, (t0, t1) in enumerate(terms):
        out[:, k] = ((t0 + t1) + t1) + t0
    return out


def haar_random_pure_state(s: SeededSampler) -> DensityOperator4:
    """Rank-1 state from a normalized complex Gaussian 4-vector (Haar measure)."""
    psi = _haar_kets(s.rng(), 1)[0]
    return DensityOperator4(np.outer(psi, psi.conj()))


def ginibre_random_mixed_state(s: SeededSampler) -> DensityOperator4:
    """Full-rank state G G^dagger / tr(G G^dagger) for complex Gaussian G."""
    return DensityOperator4(_ginibre_rhos(s.rng(), 1)[0])


def bell_diagonal_random_state(s: SeededSampler) -> DensityOperator4:
    """Random convex mixture of the four Bell states (uniform simplex weights).

    Every such state has exactly vanishing local X and Y means, which makes
    the family the canonical test set for the closed-form pair distribution.
    """
    return DensityOperator4(_bell_mixtures(s.rng().random(3)))


def _bell_mixtures(cuts: np.ndarray) -> np.ndarray:
    """Bell-diagonal states weighted by the gaps between (..., 3) sorted uniform cuts."""
    cuts = np.sort(cuts, axis=-1)
    ends = np.zeros(cuts.shape[:-1] + (1,))
    weights = np.diff(np.concatenate([ends, cuts, ends + 1.0], axis=-1), axis=-1)
    rho = np.zeros(cuts.shape[:-1] + (4, 4), dtype=np.complex128)
    for k, projector in enumerate(_BELL_PROJECTORS):
        rho += weights[..., k, None, None] * projector
    return rho


def random_state_stack(kind: str, s: SeededSampler, n: int) -> np.ndarray:
    """Certified (n, 4, 4) stack of random states, all n drawn from the one stream ``s``.

    ``kind`` is "bell-diagonal" or "ginibre". The stream is laid out as for
    the lone generators, so a stack of one is bit-identical to
    ``bell_diagonal_random_state(s)`` or ``ginibre_random_mixed_state(s)``,
    and a Ginibre stack's correlations to ``correlation_ensemble(n, s,
    "ginibre")``. The stack is certified by one ``validate_densities`` call.
    """
    n = _require_size("stack size", n, 0)
    if kind == "bell-diagonal":
        return validate_densities(_bell_mixtures(s.rng().random((n, 3))))
    if kind == "ginibre":
        return validate_densities(_ginibre_rhos(s.rng(), n))
    raise ValueError(f"unknown stack kind {kind!r}; expected 'bell-diagonal' or 'ginibre'")


def correlation_ensemble(n: int, s: SeededSampler, kind: str = "haar") -> np.ndarray:
    """(n, 4) array of correlations (c_xx, c_xy, c_yx, c_yy) of random states.

    Only rho's antidiagonal and trace are formed, never the states
    themselves; the result is bit-equal to the einsum correlations of the
    full states drawn from the same stream. The members are built in blocks
    of ``_ENSEMBLE_BLOCK``, each reading its uniforms from its own offsets
    in the stream and writing its rows in place, through ``_run_blocks``.
    """
    n = _require_size("ensemble size", n, 1)
    if kind not in _NORMALS_PER_MEMBER:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    out = np.empty((n, 4))
    starts = range(0, n, _ENSEMBLE_BLOCK)
    for _ in _run_blocks(lambda i0: _ensemble_block(out, s, kind, i0), starts):
        pass
    return out


def _stream_at(s: SeededSampler, position: int) -> np.random.Generator:
    """``s.rng()`` with its first ``position`` outputs skipped; position is a multiple of 4."""
    bits = np.random.Philox(key=s.seed)
    bits.advance(position // 4)  # Philox's counter steps once per four outputs
    return np.random.Generator(bits)


def _ensemble_block(out: np.ndarray, s: SeededSampler, kind: str, i0: int) -> None:
    """Correlations of members [i0, i0 + _ENSEMBLE_BLOCK) of ``out``, written in place.

    ``_normal_parts`` over the whole ensemble draws all n * per u1 before all
    n * per u2, so member i's u1 sit at stream position per * i and its u2
    at per * (n + i).
    """
    n = len(out)
    i1 = min(i0 + _ENSEMBLE_BLOCK, n)
    per = _NORMALS_PER_MEMBER[kind]
    count = per * (i1 - i0)
    u1 = _stream_at(s, per * i0).random(count)
    u2 = _stream_at(s, per * (n + i0)).random(count)
    if kind == "haar":
        re, im = _unit_rows(*_box_muller(u1, u2, (i1 - i0, 4)))
        out[i0:i1] = _antidiagonal_correlations(*_antidiagonal(re[:, :, None], im[:, :, None]))
    else:
        a, b = _box_muller(u1, u2, (i1 - i0, 4, 4))
        scale = 1.0 / _sum_last(_sum_last(a * a + b * b))
        re, im = _antidiagonal(a, b)
        out[i0:i1] = _antidiagonal_correlations(re * scale[:, None], im * scale[:, None])


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(work, starts):
    """Yield ``work(start)`` for every start, in order, computed ahead on every usable CPU.

    The one block scheduler, a bounded in-order pipeline: blocks are computed
    ahead of the one the caller holds, at most ``2 * _usable_cpus()`` at a
    time counting that one until the caller asks for the next, so the caller
    can write block k while the next ones are computed. The caller's thread
    is one of the workers: while the block it asks for is not ready, it
    computes the next block due, so a single block starts no thread. After a
    block fails no new block starts, and the first failure is raised here.
    When the caller stops early, closing the generator, the workers stop
    after their current block; every worker is joined before the generator
    ends. Blocks that write their results in place, as the ensembles and the
    shot draw do, return None, and their caller just drains the generator.
    """
    cpus = _usable_cpus()
    window = 2 * cpus
    ready = {}  # position in starts -> result, not yet yielded
    errors = []
    cond = threading.Condition()
    handed_out = released = 0
    stopped = False

    def take():
        """Under ``cond``: the position of the next block due, or None if none may start now."""
        nonlocal handed_out
        if stopped or errors or handed_out == len(starts) or handed_out - released >= window:
            return None
        handed_out += 1
        return handed_out - 1

    def compute(k):
        try:
            result = work(starts[k])
        except BaseException as exc:  # raised again in the caller's thread
            with cond:
                errors.append(exc)
                cond.notify_all()
            return
        with cond:
            ready[k] = result
            cond.notify_all()

    def worker():
        while True:
            with cond:
                k = take()
                while k is None and not (stopped or errors or handed_out == len(starts)):
                    cond.wait()
                    k = take()
            if k is None:
                return
            compute(k)

    helpers = []
    try:
        for _ in range(min(cpus, len(starts)) - 1):
            # daemon: a generator that is never closed must not keep the interpreter alive
            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            helpers.append(thread)
        for k in range(len(starts)):
            while True:
                with cond:
                    if errors:
                        raise errors[0]
                    if k in ready:
                        result = ready.pop(k)
                        break
                    j = take()
                    if j is None:
                        cond.wait()
                        continue
                compute(j)
            yield result
            del result
            with cond:
                released = k + 1
                cond.notify_all()
    finally:
        with cond:
            stopped = True
            cond.notify_all()
        for thread in helpers:
            thread.join()


@dataclass(frozen=True)
class ShotRecord:
    """Finite sample of pair outcomes, stored as each shot's index in ``PAIR_OUTCOMES``.

    ``index`` is the record's own read-only (n,) uint8 copy of the indices
    given, each checked to lie in [0, 16) before the cast; ``sample_outcomes``
    gives the indices it drew, the shot archive reads them and every moment
    estimate reads ``counts``, derived from them. ``source`` documents the
    distribution and sampler that produced the record. ``from_outcomes``
    builds a record from (n, 4) rows of +-1 outcomes (x_a, y_a, x_b, y_b).
    """

    index: np.ndarray
    source: str

    def __post_init__(self):
        given = np.asarray(self.index)
        if given.ndim != 1 or given.dtype.kind not in "iu":
            raise ValueError(f"shot index must be 1-d integers, got {given.dtype} {given.shape}")
        if given.size and not (given.min() >= 0 and given.max() < len(PAIR_OUTCOMES)):
            raise ValueError(f"shot index must lie in [0, {len(PAIR_OUTCOMES)})")
        index = given.astype(np.uint8)
        index.setflags(write=False)
        object.__setattr__(self, "index", index)

    @classmethod
    def from_outcomes(cls, rows, source: str) -> "ShotRecord":
        """Record of (n, 4) +-1 outcome rows, checked as given before any cast."""
        given = np.asarray(rows)
        if given.ndim != 2 or given.shape[1] != 4:
            raise ValueError(f"expected outcome shape (n, 4), got {given.shape}")
        if not ((given == 1) | (given == -1)).all():
            raise ValueError("shot outcomes must be +-1")
        return cls(outcome_indices(given), source)

    @property
    def n(self) -> int:
        """Number of shots."""
        return len(self.index)

    @functools.cached_property
    def outcomes(self) -> np.ndarray:
        """Read-only (n, 4) int8 +-1 rows, ``PAIR_OUTCOMES[index]``."""
        rows = _PAIR_OUTCOME_ARRAY[self.index]
        rows.setflags(write=False)
        return rows

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """Read-only (16,) ``np.bincount(index, minlength=16)``."""
        counts = np.bincount(self.index, minlength=16)
        counts.setflags(write=False)
        return counts


@dataclass(frozen=True)
class EstimateWithError:
    """Sample mean with its standard error."""

    value: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("standard error must be non-negative")


def sample_outcomes(
    d: PairOutcomeDistribution, n: int, s: SeededSampler, label: str = ""
) -> ShotRecord:
    """Draw n outcomes by inverse-CDF on the fixed outcome ordering.

    Distributions with entries below -1e-12 cannot be sampled. Entries
    within floating-point noise of zero are treated as exact zeros, so an
    analytically suppressed outcome never shows up in the sample.
    """
    n = _require_size("sample size", n, 1)
    p = d.as_array()
    if p.min() < -NEGATIVE_PROB_TOL:
        raise ValueError("distribution has negative entries and cannot be sampled")
    p = np.where(p < _PROB_FLOOR, 0.0, p)
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    invert = _inverse_cdf(cdf)
    idx = np.empty(n, dtype=np.uint8)

    def draw_block(i0: int) -> None:
        # shots [i0, i1) read the stream at their own offsets, as s.rng().random(n)[i0:i1]
        i1 = min(i0 + _SHOT_BLOCK, n)
        idx[i0:i1] = invert(_stream_at(s, i0).random(i1 - i0))

    for _ in _run_blocks(draw_block, range(0, n, _SHOT_BLOCK)):
        pass
    return ShotRecord(idx, f"{label + ';' if label else ''}{s.describe()}")


def _inverse_cdf(cdf: np.ndarray):
    """u -> uint8 count #{cdf <= u} for each u in [0, 1), as ``searchsorted(cdf, u, "right")``.

    Every u in a bucket [k, k + 1) / _BUCKETS that holds no cdf entry
    strictly inside gets the count at the bucket's start; only the shots in
    the few buckets that hold one are searched. The bucket table is built
    once, here, for every block the returned function inverts.
    """
    start = np.searchsorted(cdf, _BUCKET_EDGES[:-1], "right").astype(np.uint8)
    holds_entry = np.searchsorted(cdf, _BUCKET_EDGES[1:], "left") != start

    def invert(u: np.ndarray) -> np.ndarray:
        bucket = (u * _BUCKETS).astype(np.uint16)
        idx = np.take(start, bucket)
        search = np.flatnonzero(np.take(holds_entry, bucket))
        idx[search] = np.searchsorted(cdf, u[search], "right")
        return idx

    return invert


def estimate_moment(r: ShotRecord, spec: MomentSpec) -> EstimateWithError:
    """Sample estimate of a pair moment with std_error = sample std / sqrt(n).

    Both come from the 16 outcome counts (``r.counts``), so no step reads
    the shots themselves. The mean is exact before its one rounding, since
    the sum of +-1 values is an integer. Every moment takes only the values
    +-1, so with n_plus shots at +1 and n_minus at -1 the sample variance is
    exactly 4 n_plus n_minus / (n (n - 1)), a ratio of integers that Python
    rounds once, correctly.
    """
    if r.n < 2:
        raise ValueError("need at least two shots to estimate a moment")
    signs = moment_signs(spec)
    mean = (r.counts * signs).sum() / r.n
    n_plus = int(r.counts[signs > 0].sum())
    variance = 4 * n_plus * (r.n - n_plus) / (r.n * (r.n - 1))
    return EstimateWithError(float(mean), math.sqrt(variance) / math.sqrt(r.n), r.n)


def _chsh(phi: float, alpha: float, beta: float) -> float:
    return math.cos(alpha - beta) * math.cos(phi) + math.sin(alpha + beta) * math.sin(phi)


def experimental_chsh(phi: float, a: AnglePair) -> float:
    """CHSH combination observed through two saturated joint measurements.

    Equals cos(alpha - beta) cos(phi) + sin(alpha + beta) sin(phi) for the
    maximally entangled state of phase phi measured with visibility balances
    (cos alpha, sin alpha) and (cos beta, sin beta).
    """
    return _chsh(phi, a.alpha, a.beta)


@dataclass(frozen=True)
class ChshOptimum:
    value: float
    alpha: float
    beta: float


def chsh_surface(phi: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The observed CHSH value on a midpoint grid of alpha, beta in (0, pi/2).

    Returns the ``steps`` grid angles, (k + 1/2) pi / (2 steps), and the
    ``(steps, steps)`` surface with alpha along the first axis.
    """
    angles = (np.arange(steps) + 0.5) * (0.5 * math.pi / steps)
    surface = np.cos(angles[:, None] - angles[None, :]) * math.cos(phi) + np.sin(
        angles[:, None] + angles[None, :]
    ) * math.sin(phi)
    return angles, surface


def max_experimental_chsh(phi: float, grid_steps: int = 181) -> ChshOptimum:
    """Maximize the observed CHSH value over alpha, beta in (0, pi/2).

    Coarse grid (offset by half a step, so the open interval is respected)
    followed by eight rounds of alternating 60-step golden-section
    refinement in each coordinate.
    Peaks at sqrt(2), reached for alpha = beta = pi/4 when phi = pi/4.
    """
    half_pi = 0.5 * math.pi
    step = half_pi / grid_steps
    grid, surface = chsh_surface(phi, grid_steps)
    i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
    alpha, beta = float(grid[i]), float(grid[j])
    lo, hi = 0.5 * step, half_pi - 0.5 * step
    for _ in range(8):
        alpha, _ = _golden_section_max(lambda a: _chsh(phi, a, beta), lo, hi, 60)
        beta, _ = _golden_section_max(lambda b: _chsh(phi, alpha, b), lo, hi, 60)
    return ChshOptimum(_chsh(phi, alpha, beta), alpha, beta)


def zero_probability_curve(cos_phi):
    """The zero-probability CHSH curve 1 + c - c * c at c = cos(phi), on a float or an array."""
    return 1.0 + cos_phi - cos_phi * cos_phi


def zero_probability_chsh(phi: float) -> float:
    """Observed CHSH value when one outcome probability is pinned at zero.

    Uses the maximizing balance alpha = beta = phi/2 (so alpha + beta = phi)
    and certifies that the suppressed outcome probability
    (1/16)(1 - cos(alpha + beta - phi)) vanishes before returning

        1 + cos(phi) - cos(phi)**2.
    """
    half = 0.5 * float(phi)
    suppressed = (1.0 / 16.0) * (1.0 - math.cos(half + half - phi))
    if abs(suppressed) > 1e-12:
        raise ArithmeticError(f"suppressed outcome has probability {suppressed!r}")
    return zero_probability_curve(math.cos(phi))


@dataclass(frozen=True)
class CurveOptimum:
    value: float
    phi: float


def zero_probability_curve_max(step: float = 1e-4) -> CurveOptimum:
    """Maximum of the zero-probability-constrained CHSH curve over phi in [0, pi].

    Grid scan at the given step, 80 golden-section steps, then a quadratic
    vertex polish: pure value comparisons stall about 1e-8 from a flat
    quadratic top, while the three-point vertex recovers the stationary
    point to ~1e-11. The analytic optimum is 1.25 at cos(phi) = 1/2.
    """
    phis = np.arange(0.0, math.pi + 0.5 * step, step)
    values = zero_probability_curve(np.cos(phis))
    phi0 = float(phis[int(np.argmax(values))])
    phi_star, _ = _golden_section_max(
        zero_probability_chsh, max(0.0, phi0 - step), min(math.pi, phi0 + step), 80
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


def constrained_chsh_grid_max(phi: float) -> float:
    """Grid maximum of the observed CHSH value subject to alpha + beta = phi.

    Brute-force check that the balance alpha = beta = phi/2 is optimal under
    the zero-probability constraint. Both angles must stay inside (0, pi/2),
    so alpha is scanned in steps of 1e-4 over (max(0, phi - pi/2),
    min(pi/2, phi)); the midpoint is the interior maximum for phi in
    (0, pi/2] where cos(phi) is non-negative.
    """
    lo = max(0.0, phi - 0.5 * math.pi)
    hi = min(0.5 * math.pi, phi)
    alphas = np.arange(lo + 1e-4, hi, 1e-4)
    if alphas.size == 0:
        return experimental_chsh(phi, AnglePair(0.5 * phi, 0.5 * phi))
    sin = math.sin(phi)
    values = np.cos(2.0 * alphas - phi) * math.cos(phi) + sin * sin
    return float(values.max())
