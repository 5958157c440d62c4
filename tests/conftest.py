import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from jointlab.joint import OUTCOMES
from jointlab.linalg import pauli
from jointlab.pairs import PAIR_OUTCOMES

settings.register_profile("jointlab", max_examples=100, deadline=None)
settings.load_profile("jointlab")

_I, _X, _Y = (pauli(k) for k in "IXY")
_OUTCOME_SIGNS = np.array(OUTCOMES, dtype=np.float64).T[..., None, None]  # x and y, (2, 4, 1, 1)


def pauli_povm(v_x, v_y):
    """E(x, y) = (I + x v_x X + y v_y Y)/4 from ``linalg.pauli``, shape ``(..., 4, 2, 2)``.

    Axis -3 follows ``OUTCOMES``. A reference that shares no code with ``joint``.
    """
    x, y = _OUTCOME_SIGNS
    v_x = np.asarray(v_x, dtype=np.float64)[..., None, None, None]
    v_y = np.asarray(v_y, dtype=np.float64)[..., None, None, None]
    return (_I + x * v_x * _X + y * v_y * _Y) / 4


def pauli_density(ex, ey):
    """rho = (I + e_x X + e_y Y)/2 from ``linalg.pauli``: ``(..., 2, 2)``."""
    ex = np.asarray(ex, dtype=np.float64)[..., None, None]
    ey = np.asarray(ey, dtype=np.float64)[..., None, None]
    return (_I + ex * _X + ey * _Y) / 2


def reference_angle_lhs(c, alpha, beta):
    """cos(u) p + sin(u) q + cos(v) r - sin(v) s at u = alpha + beta, v = alpha - beta.

    The positivity condition at one angle pair, with p, q, r, s the combinations
    c_xx - c_yy, c_xy + c_yx, c_xx + c_yy, c_xy - c_yx of a ``CorrelationVector``,
    in the operation order of ``bounds._angle_combination`` but sharing no code with it.
    """
    p, q = c.c_xx - c.c_yy, c.c_xy + c.c_yx
    r, s = c.c_xx + c.c_yy, c.c_xy - c.c_yx
    u = alpha + beta
    v = alpha - beta
    return math.cos(u) * p + math.sin(u) * q + math.cos(v) * r - math.sin(v) * s


def python_probabilities(v_x, v_y, ex, ey):
    """P(x, y) = (1/4)(1 + x v_x ex + y v_y ey) in Python floats, in ``OUTCOMES`` order."""
    return [0.25 * (1.0 + x * (v_x * ex) + y * (v_y * ey)) for x, y in OUTCOMES]


def outcome_rows(record):
    """The (n, 4) int8 +-1 outcome rows (x_a, y_a, x_b, y_b) of a ``ShotRecord``."""
    return np.array(PAIR_OUTCOMES, dtype=np.int8)[record.index]


def assert_same_bytes(actual, expected):
    """Same dtype, shape and bytes: unlike ``==``, tells -0.0 from 0.0 and NaN payloads apart."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual.reshape(-1).view(np.uint8), expected.reshape(-1).view(np.uint8))


#: A fresh process that prints the exit code of ``jointlab.cli.main(argv)`` on
#: two workers (each extra one adds about 1.6 MiB) and its peak-RSS growth over
#: the call, in KiB. The peak is the process's own VmHWM where /proc has it:
#: ``ru_maxrss`` carries the parent's peak across fork and exec, so under
#: pytest it hides any child that stays below pytest's own peak. ``ru_maxrss``
#: is in KiB on Linux and bytes on macOS.
_RSS_CHILD = """\
import resource, sys, jointlab.sampling, jointlab.cli
jointlab.sampling._usable_cpus = lambda: 2

def peak_kib():
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (
            1024 if sys.platform == "darwin" else 1
        )

before = peak_kib()
rc = jointlab.cli.main(sys.argv[1:])
print(rc, peak_kib() - before)
"""


@pytest.fixture
def cli_rss_growth_mib():
    """``run(argv)``: the exit code and peak-RSS growth, in MiB, of one CLI run in a fresh process."""

    def run(argv):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD, *map(str, argv)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        rc, growth_kib = map(int, proc.stdout.split())
        return rc, growth_kib / 1024

    return run


@pytest.fixture(scope="session")
def exact_ensemble():
    """``build(n, s, kind)``: ``correlation_ensemble(n, s, kind)``, read-only, built once.

    Several tests read the same 10^5-member references; each is built on its
    first use and shared after that.
    """
    from jointlab.sampling import correlation_ensemble

    @functools.cache
    def build(n, s, kind):
        c = correlation_ensemble(n, s, kind)
        c.setflags(write=False)
        return c

    return build
