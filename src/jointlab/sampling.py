"""Random states, seeded outcome sampling, and the observable-statistics optima.

Randomness policy: every public operation takes a ``SeededSampler`` naming a
counter-based bit generator (Philox) plus a 64-bit seed, and Gaussian
variates are produced by a Box-Muller transform of uniform pairs drawn from
that stream. Identical seeds therefore reproduce results bit-for-bit,
independent of library version details of higher-level distributions.

The hot paths are exact kernels on that stream. Every Box-Muller draw reads
its uniforms through ``_member_uniforms``, the one place of their layout, so
a stack of one is the lone state bit for bit. ``correlation_ensemble`` forms
only rho's antidiagonal and trace, since the four correlation operators are
antidiagonal, summing in real arithmetic in the order einsum sums the full
matrices; ``_ensemble_maxima`` gives its two maxima bit for bit. It screens
each block straight from the uniforms, in float32, by the coherence identity
in polar form, keeps the uniforms of the members near the block's maximum,
and recomputes those exactly in one call per ensemble. Both run
``_ensemble_blocks``: blocks of 32,768 normals (8,192 Haar or 2,048 Ginibre
members) that fit in L2, each reading its uniforms from the ensemble's one
long stream at its own offsets, through ``Philox.advance``, so the bits do
not depend on the thread count.
``sample_outcomes`` draws its shots the same way, in blocks of 32,768,
inverting the CDF through a table of 4,096 equal buckets and searching only
the shots whose bucket holds a CDF entry. Each of these matches the direct
numpy form bit for bit. These blocks, and the shot archive's, run through
one scheduler, ``_run_blocks``: a bounded in-order pipeline with one worker
per usable CPU, the caller's thread among them.
``estimate_moment`` reads only the 16 outcome counts: the mean as ``mean()``
gives it, and the standard error from the exact sample variance of +-1
values, 4 n_plus n_minus / (n (n - 1)), rounded once. The counts are
summed over the same blocks of 32,768 shots, so ``np.bincount``'s intp copy
of the index never spans the whole sample.

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

from .bounds import (
    AnglePair,
    _golden_section_max,
    chsh_from_components,
    tight_bound_from_components,
)
from .joint import NEGATIVE_PROB_TOL, _require_finite
from .pairs import (
    PAIR_OUTCOMES,
    DensityOperator4,
    MomentSpec,
    PairOutcomeDistribution,
    moment_signs,
    outcome_indices,
    pure_density,
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
_BELL_PROJECTORS = tuple(pure_density(ket).mat for ket in _BELL_KETS)

_PAIR_OUTCOME_ARRAY = np.array(PAIR_OUTCOMES, dtype=np.int8)
_PAIR_OUTCOME_ARRAY.setflags(write=False)

#: Equal-width buckets over [0, 1) for the inverse CDF; u * _BUCKETS is exact.
_BUCKETS = 4096
_BUCKET_EDGES = np.arange(_BUCKETS + 1) / _BUCKETS

#: Shots per sampling block: a block's working arrays fit in L2, and a multiple
#: of 4, so every block's uniforms start on a Philox counter step.
_SHOT_BLOCK = 32768
#: Gaussian normals of one ensemble member: a 4-vector or a 4x4 matrix.
_MEMBER_SHAPE = {"haar": (4,), "ginibre": (4, 4)}
#: Normals per ensemble block, 8,192 Haar or 2,048 Ginibre members: a block's
#: working arrays fit in L2, and a multiple of 4, as ``_SHOT_BLOCK`` is.
_ENSEMBLE_NORMALS = 32768
#: How far below its block's screened maximum a member's screened value may
#: lie and still be recomputed exactly. If every screened value is within eps
#: of the exact one, a block's screened maximum is at most E* + eps and the
#: exact maximizer's screened value at least E* - eps, so with a margin of
#: 2 eps or more the maximizer is kept, and the maximum of the kept, exact
#: values is E* bit for bit, whatever the screen's own bits.
_SCREEN_MARGIN = 1e-3
#: The bound eps of ``_screen``, each term relative to the trace t = sum(l),
#: l = -log(1 - u1) = r**2 / 2, with u = 2**-24. A column's term w e^(i d) of
#: the row pair (p, q) has w = sqrt(l_p l_q) <= (l_p + l_q) / 2, so the w of
#: both pairs sum to at most t / 2. The casts of l (u), their product (u / 2)
#: and the square root (u) put w within 2.5u. The angle d = 2 pi (u2_p - u2_q)
#: takes two casts and a difference below 1 (3 * 2**-25 turns, 5.6e-7), the
#: float32 2 pi (1.75e-7) and the product's rounding below 8 (2**-22): under
#: 9.8e-7 in all. Cos and sin (1.5 ulp each) add 1.3e-7 and the products
#: w cos d, w sin d another u, so each term is within 1.31e-6 w, and the
#: float32 sums over at most four columns (3 sqrt(2) u) bring that to
#: c = 1.57e-6 w. The lhs, 4 (|rho_03| + |rho_12|) <= 2, so moves by
#: 2c = 3.2e-6, and the CHSH value, 4 (Re - Im) rho_03 <= 2 sqrt(2), by
#: 2 sqrt(2) c = 4.5e-6. The float32 trace (16u) and its division (u), then
#: the moduli, their sum and the product (4.5u) or the difference and the
#: product (2u), add 21.5u and 19u relative, 2.6e-6 and 3.2e-6. With float64
#: within 1e-14, eps < 7.7e-6, against at most 1.7e-6 measured on 10^6
#: members of each kind. The margin is 130 times eps and keeps 0.1 to 0.25 %
#: of the members.
_SCREEN_ERROR = 7.7e-6
assert _SCREEN_MARGIN >= 2 * _SCREEN_ERROR


@dataclass(frozen=True)
class SeededSampler:
    """A Philox stream keyed by ``seed``, named ``philox-boxmuller-v1:{seed}``.

    The seed and each ``derive`` index are integers, never bools, and not
    negative; the seed is below 2**64 and stored as a Python int. ``rng()``
    builds a fresh generator each call, so the same sampler value always
    reproduces the same draws.
    """

    seed: int

    def __post_init__(self):
        seed = _require_size("seed", self.seed, 0)
        if seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        object.__setattr__(self, "seed", seed)

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))

    def derive(self, index: int) -> "SeededSampler":
        """Independent child stream for task ``index`` of this master seed."""
        index = _require_size("derive index", index, 0)
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        return SeededSampler(int(child.generate_state(1, np.uint64)[0]))

    def describe(self) -> str:
        return f"philox-boxmuller-v1:{self.seed}"


def _require_size(what: str, n, minimum: int) -> int:
    """``n`` as an int once it is an integer (not a bool) of at least ``minimum``, 0 or 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {n!r}")
    return int(n)


def _stream_at(s: SeededSampler, position: int) -> np.random.Generator:
    """``s.rng()`` with its first ``position`` outputs skipped; position is a multiple of 4."""
    bits = np.random.Philox(key=s.seed)
    bits.advance(position // 4)  # Philox's counter steps once per four outputs
    return np.random.Generator(bits)


def _member_uniforms(
    s: SeededSampler, kind: str, n: int, i0: int, i1: int
) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller uniforms (u1, u2) of members [i0, i1) of an n-member ``kind`` ensemble on ``s``.

    The one reader of Box-Muller uniforms, and so the one place of their
    layout: with per normals a member, all n * per u1 come before all
    n * per u2, so member i's u1 sit at stream position per * i and its u2 at
    per * (n + i). A lone state or a stack reads members [0, n).
    """
    per = math.prod(_MEMBER_SHAPE[kind])
    count = per * (i1 - i0)
    return _stream_at(s, per * i0).random(count), _stream_at(s, per * (n + i0)).random(count)


def _box_muller_polar(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller's radius sqrt(-2 log1p(-u1)) and angle 2 pi u2, computed in u1 and u2."""
    radius, angle = u1, u2
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)  # 1 - u1 in (0, 1], log is finite
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    return radius, angle


def _box_muller_cartesian(
    radius: np.ndarray, angle: np.ndarray, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Real parts radius cos(angle) and imaginary parts radius sin(angle), of the given shape.

    Each normal depends only on its own radius and angle, so any subset of
    a transform's pairs gives those normals' bits.
    """
    re, im = np.empty((2, radius.size))
    np.cos(angle, out=re)
    np.sin(angle, out=im)
    re *= radius
    im *= radius
    return re.reshape(shape), im.reshape(shape)


def _haar_kets(s: SeededSampler, n: int) -> np.ndarray:
    psi = np.empty((n, 4), dtype=np.complex128)
    polar = _box_muller_polar(*_member_uniforms(s, "haar", n, 0, n))
    normals = _box_muller_cartesian(*polar, (n, 4))
    psi.real, psi.imag = _unit_rows(*normals)
    return psi


def _unit_rows(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parts of each row of re + i im over sqrt(((t0 + t1) + t2) + t3), t = re*re + im*im.

    Real arithmetic throughout, so the bits equal a Python-float loop's on any host.
    """
    norm = np.sqrt(_sum_last(re * re + im * im))[:, None]
    return re / norm, im / norm


def _ginibre_rhos(s: SeededSampler, n: int) -> np.ndarray:
    """G G^dagger / tr(G G^dagger) for n complex Gaussian 4x4 G drawn from ``s``."""
    g = np.empty((n, 4, 4), dtype=np.complex128)
    polar = _box_muller_polar(*_member_uniforms(s, "ginibre", n, 0, n))
    g.real, g.imag = _box_muller_cartesian(*polar, (n, 4, 4))
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
    return pure_density(_haar_kets(s, 1)[0])


def ginibre_random_mixed_state(s: SeededSampler) -> DensityOperator4:
    """Full-rank state G G^dagger / tr(G G^dagger) for complex Gaussian G."""
    return DensityOperator4(_ginibre_rhos(s, 1)[0])


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
        return validate_densities(_ginibre_rhos(s, n))
    raise ValueError(f"unknown stack kind {kind!r}; expected 'bell-diagonal' or 'ginibre'")


def correlation_ensemble(n: int, s: SeededSampler, kind: str = "haar") -> np.ndarray:
    """(n, 4) array of correlations (c_xx, c_xy, c_yx, c_yy) of random states.

    Only rho's antidiagonal and trace are formed, never the states
    themselves; the result is bit-equal to the einsum correlations of the
    full states drawn from the same stream. Each block of
    ``_ensemble_blocks`` returns its rows, and the blocks are concatenated.
    """

    def rows(i0: int, i1: int, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        return _member_correlations(kind, *_box_muller_polar(u1, u2))

    return np.concatenate(list(_ensemble_blocks(n, s, kind, rows)))


def _ensemble_blocks(n: int, s: SeededSampler, kind: str, block):
    """``_run_blocks`` of ``block(i0, i1, u1, u2)`` over blocks of ``_ENSEMBLE_NORMALS``.

    The ensembles' one block loop; ``n`` and ``kind`` are checked on the call.
    """
    n = _require_size("ensemble size", n, 1)
    if kind not in _MEMBER_SHAPE:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    size = _ENSEMBLE_NORMALS // math.prod(_MEMBER_SHAPE[kind])

    def run(i0: int):
        i1 = min(i0 + size, n)
        return block(i0, i1, *_member_uniforms(s, kind, n, i0, i1))

    return _run_blocks(run, range(0, n, size))


def _member_correlations(kind: str, radius: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """(k, 4) correlations, as einsum gives them, of k members from their Box-Muller parts.

    A member's normals G = re + i im are a 4-vector for Haar, the ket G / |G|,
    and a 4x4 matrix for Ginibre, the state G G^dagger / tr(G G^dagger).
    """
    re, im = _box_muller_cartesian(radius, angle, (-1,) + _MEMBER_SHAPE[kind])
    if kind == "haar":
        re, im = _unit_rows(re, im)
        return _antidiagonal_correlations(*_antidiagonal(re[:, :, None], im[:, :, None]))
    scale = 1.0 / _sum_last(_sum_last(re * re + im * im))
    re, im = _antidiagonal(re, im)
    return _antidiagonal_correlations(re * scale[:, None], im * scale[:, None])


def _ensemble_maxima(n: int, s: SeededSampler, kind: str) -> tuple[float, float]:
    """(max tight-bound lhs, max CHSH) of ``correlation_ensemble(n, s, kind)``, bit for bit.

    Each block of ``_ensemble_blocks`` is screened in float32 and hands back
    the uniforms of the members ``_near_top`` keeps; those are recomputed
    exactly in one call, and the result is their maximum, NaN when any
    recomputed member is NaN.
    """

    def kept_uniforms(i0: int, i1: int, u1: np.ndarray, u2: np.ndarray):
        kept = _near_top(*_screen(u1, u2, i1 - i0))  # a member's uniforms are a row
        return tuple(u.reshape(i1 - i0, -1)[kept].ravel() for u in (u1, u2))

    kept = list(_ensemble_blocks(n, s, kind, kept_uniforms))
    u1, u2 = (np.concatenate(parts) for parts in zip(*kept))
    c = _member_correlations(kind, *_box_muller_polar(u1, u2)).T
    return float(tight_bound_from_components(*c).max()), float(chsh_from_components(*c).max())


def _screen(u1: np.ndarray, u2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Float32 (tight-bound lhs, CHSH) of k members from their Box-Muller uniforms.

    By the coherence identity in polar form: with l = log(1 - u1) = -r**2 / 2
    for each of a member's normals G, (4, 1) or (4, 4), and t their sum,
    rho_03 and rho_12 are -sum_j w_j e^(i d_j) / t over G's columns j, where
    w = sqrt(l_0j l_3j) and d = 2 pi (u2_0j - u2_3j) for rows 0 and 3, and
    likewise for rows 1 and 2. Within ``_SCREEN_ERROR`` of the exact values.
    """
    per = u1.size // k
    log64 = np.negative(u1)
    np.log1p(log64, out=log64)  # 1 - u1 in (0, 1], log is finite
    log, turns = np.empty((2, per, k), dtype=np.float32)  # planar: one row per normal of a member
    log[...] = log64.reshape(k, per).T
    turns[...] = u2.reshape(k, per).T
    scale = -4.0 / log.sum(axis=0)
    # (row, column, member) views; rows 0 and 1 pair with rows 3 and 2. The
    # pairs' weights and angles overwrite rows 0 and 1 and the cosines rows 2
    # and 3 of log, which saves three allocations a block (2-4 % of the ensemble)
    log, turns = log.reshape(4, -1, k), turns.reshape(4, -1, k)
    weight, angle = log[:2], turns[:2]
    weight *= log[:1:-1]
    np.sqrt(weight, out=weight)
    angle -= turns[:1:-1]
    angle *= np.float32(2.0 * math.pi)
    re = np.cos(angle, out=log[2:])
    re *= weight
    im = np.sin(angle, out=angle)
    im *= weight
    re, im = re.sum(axis=1), im.sum(axis=1)
    moduli = re * re + im * im
    np.sqrt(moduli, out=moduli)
    return (moduli[0] + moduli[1]) * scale, (re[0] - im[0]) * scale


def _near_top(*screened: np.ndarray) -> np.ndarray:
    """Members within ``_SCREEN_MARGIN`` of their block's finite maximum in any of ``screened``.

    A member whose screened value is not finite is kept too, so the kept
    set always holds each quantity's exact maximizer.
    """
    kept = np.zeros(screened[0].shape, dtype=bool)
    for values in screened:
        finite = np.isfinite(values)
        top = np.max(values, where=finite, initial=-np.inf)
        kept |= ~finite | (values >= top - _SCREEN_MARGIN)
    return np.flatnonzero(kept)


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
    can write block k while the next ones are computed. The helper threads
    and the caller's thread run one loop, ``help_until``, the caller's until
    the block it asks for is ready, so a single block starts no thread. The
    first failure stops the run, no new block starts, and it is raised here.
    When the caller stops early, closing the generator, the workers stop
    after their current block; every worker is joined before the generator
    ends. The shot draw's blocks write in place and return None.
    """
    cpus = _usable_cpus()
    window = 2 * cpus
    ready = {}  # position in starts -> result, not yet yielded
    failure = None  # the first block's exception
    cond = threading.Condition()
    handed_out = released = 0
    stopped = False  # by the first failure, or by closing the generator

    def help_until(done):
        """Claim the next block due and compute it, or wait, until ``done()`` or the run stops."""
        nonlocal handed_out, failure, stopped
        while True:
            with cond:
                cond.wait_for(
                    lambda: done() or stopped or handed_out < min(len(starts), released + window)
                )
                if done() or stopped:
                    return
                k = handed_out
                handed_out += 1
            try:
                result = work(starts[k])
            except BaseException as exc:  # raised again in the caller's thread
                with cond:
                    if failure is None:
                        failure, stopped = exc, True
                    cond.notify_all()
                return
            with cond:
                ready[k] = result
                cond.notify_all()
            del result  # a waiting worker holds no block

    helpers = []
    try:
        for _ in range(min(cpus, len(starts)) - 1):
            # daemon: a generator that is never closed must not keep the interpreter alive
            every_block_out = lambda: handed_out == len(starts)
            thread = threading.Thread(target=help_until, args=(every_block_out,), daemon=True)
            thread.start()
            helpers.append(thread)
        for k in range(len(starts)):
            help_until(lambda: k in ready)
            with cond:
                if failure is not None:
                    raise failure
                result = ready.pop(k)
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


def _check_shot_index(given: np.ndarray) -> None:
    """Raise unless ``given`` is a 1-d integer array of indices into ``PAIR_OUTCOMES``."""
    if given.ndim != 1 or given.dtype.kind not in "iu":
        raise ValueError(f"shot index must be 1-d integers, got {given.dtype} {given.shape}")
    if given.size and not (given.min() >= 0 and given.max() < len(PAIR_OUTCOMES)):
        raise ValueError(f"shot index must lie in [0, {len(PAIR_OUTCOMES)})")


@dataclass(frozen=True)
class ShotRecord:
    """Finite sample of pair outcomes, stored as each shot's index in ``PAIR_OUTCOMES``.

    ``index`` is the record's own read-only (n,) uint8 copy of the indices
    given, each checked to lie in [0, 16) before the cast; the shot archive
    reads them and every moment estimate reads ``counts``, derived from
    them. ``sample_outcomes`` hands over the uint8 array it drew, which
    nothing else holds, through ``_adopt``: checked and made read-only, but
    not copied. ``source`` documents the distribution and sampler that
    produced the record. ``from_outcomes`` builds a record from (n, 4) rows
    of +-1 outcomes (x_a, y_a, x_b, y_b).
    """

    index: np.ndarray
    source: str

    def __post_init__(self):
        given = np.asarray(self.index)
        _check_shot_index(given)
        index = given.astype(np.uint8)
        index.setflags(write=False)
        object.__setattr__(self, "index", index)

    @classmethod
    def _adopt(cls, index: np.ndarray, source: str) -> "ShotRecord":
        """Record that takes ``index``, a uint8 array no caller holds, without a copy."""
        _check_shot_index(index)
        index.setflags(write=False)
        record = object.__new__(cls)
        object.__setattr__(record, "index", index)
        object.__setattr__(record, "source", source)
        return record

    @classmethod
    def from_outcomes(cls, rows, source: str) -> "ShotRecord":
        """Record of (n, 4) +-1 outcome rows, checked as given before any cast."""
        given = np.asarray(rows)
        if given.ndim != 2 or given.shape[1] != 4:
            raise ValueError(f"expected outcome shape (n, 4), got {given.shape}")
        if given.dtype.kind not in "iuf":
            raise ValueError(f"shot outcomes must be +-1 integers or floats, got {given.dtype}")
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
        """Read-only (16,) ``np.bincount(index, minlength=16)``, summed over shot blocks.

        ``np.bincount`` casts its input to intp, eight bytes a shot; one
        ``_SHOT_BLOCK`` at a time, that copy stays at 256 KiB.
        """
        counts = np.zeros(16, dtype=np.intp)
        for i in range(0, self.n, _SHOT_BLOCK):
            counts += np.bincount(self.index[i : i + _SHOT_BLOCK], minlength=16)
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
    p = d.probs
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
    return ShotRecord._adopt(idx, f"{label + ';' if label else ''}{s.describe()}")


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


def _chsh(phi: float, alpha, beta, cos=math.cos, sin=math.sin):
    """cos(alpha - beta) cos(phi) + sin(alpha + beta) sin(phi); numpy's cos, sin on arrays."""
    return cos(alpha - beta) * math.cos(phi) + sin(alpha + beta) * math.sin(phi)


def experimental_chsh(phi: float, a: AnglePair) -> float:
    """CHSH combination observed through two saturated joint measurements.

    Equals cos(alpha - beta) cos(phi) + sin(alpha + beta) sin(phi) for the
    maximally entangled state of phase phi measured with visibility balances
    (cos alpha, sin alpha) and (cos beta, sin beta).
    """
    return _chsh(_require_finite("phi", phi), a.alpha, a.beta)


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
    phi = _require_finite("phi", phi)
    steps = _require_size("steps", steps, 1)
    angles = (np.arange(steps) + 0.5) * (0.5 * math.pi / steps)
    return angles, _chsh(phi, angles[:, None], angles[None, :], np.cos, np.sin)


def max_experimental_chsh(phi: float, grid_steps: int = 181) -> ChshOptimum:
    """Maximize the observed CHSH value over alpha, beta in (0, pi/2).

    Coarse grid (offset by half a step, so the open interval is respected)
    followed by eight rounds of alternating 60-step golden-section
    refinement in each coordinate.
    Peaks at sqrt(2), reached for alpha = beta = pi/4 when phi = pi/4.
    """
    phi = _require_finite("phi", phi)
    grid_steps = _require_size("grid_steps", grid_steps, 1)
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
    suppressed = _suppressed_probability(phi)
    if not abs(suppressed) <= 1e-12:  # a non-finite phi makes it NaN, which must fail
        raise ArithmeticError(f"suppressed outcome has probability {suppressed!r} at phi={phi!r}")
    return zero_probability_curve(math.cos(phi))


def _suppressed_probability(phi: float) -> float:
    """(1/16)(1 - cos(alpha + beta - phi)) at alpha = beta = phi/2, the outcome pinned at zero."""
    half = 0.5 * float(phi)
    return (1.0 / 16.0) * (1.0 - math.cos(half + half - phi))


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
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
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
    phi = _require_finite("phi", phi)
    lo = max(0.0, phi - 0.5 * math.pi)
    hi = min(0.5 * math.pi, phi)
    alphas = np.arange(lo + 1e-4, hi, 1e-4)
    if alphas.size == 0:
        return experimental_chsh(phi, AnglePair(0.5 * phi, 0.5 * phi))
    sin = math.sin(phi)
    values = np.cos(2.0 * alphas - phi) * math.cos(phi) + sin * sin
    return float(values.max())
