import numpy as np
import pytest

from jointlab.joint import OUTCOMES, VisibilityPair, check_visibility_admissible, povm_element
from jointlab.linalg import is_positive_semidefinite
from jointlab.verify import povm_grid_mismatches


def per_point_mismatches(grid_steps, tol):
    """The grid count one point and one lone 2x2 matrix at a time (the reference)."""
    values = np.linspace(0.0, 1.0, grid_steps)
    mismatches = 0
    for vx in values:
        for vy in values:
            v = VisibilityPair(float(vx), float(vy))
            admissible = check_visibility_admissible(v, tol)
            psd = all(is_positive_semidefinite(povm_element(v, o), tol) for o in OUTCOMES)
            mismatches += admissible != psd
    return mismatches


# 8 steps fit one block of rows; 33 and 101 end in a partial block
@pytest.mark.parametrize("grid_steps", [8, 33, 101])
@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_blocked_grid_matches_per_point_loop(grid_steps, tol):
    expected = per_point_mismatches(grid_steps, tol)
    assert povm_grid_mismatches(grid_steps, tol) == expected
    if tol == 1e-3 and grid_steps > 8:
        # the predicates differ on the collar 1 + tol < v_x**2 + v_y**2 <= (1 + 4 tol)**2
        assert expected > 0

