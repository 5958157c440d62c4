"""One rounding per formula: a lone value and a stack give the same bits.

Each closed form is built from operations that round the same on Python
floats, on numpy arrays and on any host: squares as ``x * x`` (Python's
``x ** 2`` calls libm ``pow``, which is not correctly rounded), complex
moduli by ``hypot`` (numpy's complex ``abs`` rounds differently from it) and
the Haar norm in real arithmetic (numpy's complex multiply may be
FMA-contracted). Every comparison is on raw bytes.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from jointlab import sampling
from jointlab.bounds import (
    coherence_bound_lhs,
    coherence_from_matrices,
    simplified_bound_lhs,
    tight_bound_from_components,
    tight_bound_lhs,
)
from jointlab.pairs import CorrelationVector, DensityOperator4
from jointlab.sampling import SeededSampler, random_state_stack

SRC = Path(__file__).parents[1] / "src" / "jointlab"
SEEDS = [0, 7, 2**64 - 1]


def same_bytes(actual, expected):
    return np.asarray(actual).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_tight_and_simplified_bounds_lone_equal_stacked(seed):
    # 10^4 uniform vectors: on a host whose libm pow is not correctly rounded,
    # some of their combinations p, q, r, s have p ** 2 != p * p
    c = 2.0 * SeededSampler(seed).rng().random((10_000, 4)) - 1.0
    c_xx, c_xy, c_yx, c_yy = c.T
    vectors = [CorrelationVector(*row) for row in c.tolist()]
    tight = tight_bound_from_components(c_xx, c_xy, c_yx, c_yy)
    assert same_bytes([tight_bound_lhs(v) for v in vectors], tight)
    assert same_bytes([tight_bound_from_components(*row) for row in c.tolist()], tight)
    simplified = (c_xx - c_yy) ** 2 + (c_xy + c_yx) ** 2  # numpy squares arrays exactly
    assert same_bytes([simplified_bound_lhs(v) for v in vectors], simplified)


@pytest.mark.parametrize("seed", SEEDS)
def test_coherence_lone_equals_stacked_on_a_ginibre_stack(seed):
    rho = random_state_stack("ginibre", SeededSampler(seed), 2000)
    stacked = coherence_from_matrices(rho)
    assert same_bytes([coherence_bound_lhs(DensityOperator4(m)) for m in rho], stacked)
    # Python's complex abs is hypot too
    assert same_bytes([abs(r[0][3]) + abs(r[2][1]) for r in rho.tolist()], stacked)


def python_unit_rows(re, im):
    """Each row of re + i im over sqrt(((t0 + t1) + t2) + t3), t = a*a + b*b, on Python floats."""
    rows = []
    for row_re, row_im in zip(re.tolist(), im.tolist()):
        t = [a * a + b * b for a, b in zip(row_re, row_im)]
        norm = math.sqrt(((t[0] + t[1]) + t[2]) + t[3])
        rows.append([complex(a / norm, b / norm) for a, b in zip(row_re, row_im)])
    return np.array(rows, dtype=np.complex128)


@pytest.mark.parametrize("seed", SEEDS)
def test_haar_kets_equal_a_python_float_normalization(seed):
    # the normals themselves are checked against a reference Box-Muller elsewhere
    s = SeededSampler(seed)

    def normals(n):
        polar = sampling._box_muller_polar(*sampling._member_uniforms(s, "haar", n, 0, n))
        return sampling._box_muller_cartesian(*polar, (n, 4))

    kets = python_unit_rows(*normals(3000))
    re, im = sampling._members("haar", *sampling._member_uniforms(s, "haar", 3000, 0, 3000))
    assert same_bytes(re, kets.real) and same_bytes(im, kets.imag)
    # the stack's broadcast outer products round as np.outer does, member by member
    outers = [np.outer(ket, ket.conj()) for ket in kets]
    assert same_bytes(random_state_stack("haar", s, 3000), outers)


def test_no_square_by_power_in_the_package():
    squares = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    ]
    assert squares == []
