"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; the same ``run_acceptance`` backs the CLI ``verify`` subcommand.
"""

import pytest

from jointlab.verify import CRITERIA, RUNTIME_LIMITS, run_acceptance

SEED = 7


@pytest.fixture(scope="module")
def results():
    return {result.key: result for result in run_acceptance(SEED)}


@pytest.mark.parametrize("key", [key for key, _, _ in CRITERIA])
def test_criterion(results, key):
    result = results[key]
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance] {result.key}: {status} ({len(result.checks)} checks, {result.elapsed:.2f}s)")
    failures = [c for c in result.checks if not c.passed]
    assert not failures, f"failing checks: {failures}"
    if key in RUNTIME_LIMITS:
        assert result.elapsed < RUNTIME_LIMITS[key]
