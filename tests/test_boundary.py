"""The public boundary: every callable ``jointlab`` exports refuses a bad scalar by name.

``VALID_CALLS`` holds one valid call of each callable the package exports,
naming every parameter. Each parameter whose valid argument is a real scalar
then gets NaN, +-inf, ``True`` and ``"0.5"`` in turn, and each flag whose
valid argument is a bool gets NaN, 0, 1.0 and ``"false"``; the call must
raise a ``ValueError`` whose message starts with the parameter's name.
``EXEMPT`` lists the parameters that take such values on purpose, each with
its reason. A callable exported without an entry here fails the suite, so
the boundary stays tested as it grows.

The module tests check the ``__all__`` lists themselves: every entry of
every module resolves, and the package exports only names that its modules
list.
"""

import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import jointlab

_S = jointlab.SeededSampler(1)
_BELL = jointlab.BellFamilyState(0.3).to_density()
_C = jointlab.CorrelationVector(0.1, 0.2, 0.3, 0.4)
_V = jointlab.VisibilityPair(0.6, 0.8)
_UNIFORM = np.full(16, 1.0 / 16.0)
_DIST = jointlab.PairOutcomeDistribution(_UNIFORM)

VALID_CALLS = {
    "BellFamilyState": dict(phi=0.3),
    "ChshOptimum": dict(value=1.0, alpha=0.5, beta=0.5),
    "CorrelationVector": dict(c_xx=0.1, c_xy=0.2, c_yx=0.3, c_yy=0.4),
    "CurveOptimum": dict(value=1.25, phi=1.0),
    "DensityOperator4": dict(mat=np.eye(4) / 4),
    "EstimateWithError": dict(value=0.1, std_error=0.01, n=10),
    "PairOutcomeDistribution": dict(probs=_UNIFORM, hypothetical=False),
    "SeededSampler": dict(seed=7),
    "ShotRecord": dict(index=[0, 3, 15], source="test"),
    "VisibilityPair": dict(v_x=0.6, v_y=0.8),
    "admissible_visibilities": dict(v_x=0.6, v_y=0.8, tol=1e-12),
    "bell_family_correlations": dict(phi=0.3),
    "bloch_bound_lhs": dict(ex=0.3, ey=0.4),
    "chsh_surface": dict(phi=0.3, steps=4),
    "chsh_value": dict(c=_C),
    "coherence_bound_lhs": dict(rho=_BELL),
    "coherence_from_matrices": dict(rho=_BELL.mat),
    "constrained_chsh_grid_max": dict(phi=0.3),
    "correlation_components": dict(rho=_BELL.mat),
    "correlation_ensemble": dict(n=3, s=_S, kind="haar"),
    "correlation_moments": dict(c=_C.as_tuple(), va=(0.6, 0.8), vb=(0.6, 0.8)),
    "correlations_of_state": dict(rho=_BELL),
    "equatorial_densities": dict(ex=0.3, ey=0.4),
    "estimate_moment": dict(r=jointlab.ShotRecord([0, 3, 15], "test"), spec=("x", "x")),
    "experimental_chsh": dict(phi=0.3, alpha=0.2, beta=0.1),
    "hermitian_eigenvalues": dict(a=np.eye(2)),
    "is_positive_semidefinite": dict(a=np.eye(2), tol=1e-10),
    "local_mean_components": dict(rho=_BELL.mat),
    "max_experimental_chsh": dict(phi=0.3, grid_steps=16),
    "moment_signs": dict(spec=("x", "y")),
    "outcome_moments": dict(probs=np.full(4, 0.25)),
    "outcome_probabilities": dict(v_x=0.6, v_y=0.8, ex=0.3, ey=0.4),
    "pair_distribution_formula": dict(c=_C, va=_V, vb=_V),
    "pair_marginals": dict(probs=_UNIFORM),
    "pair_moment": dict(d=_DIST, spec=("x", "x")),
    "pair_probabilities_formula": dict(c=_C.as_tuple(), va=(0.6, 0.8), vb=(0.6, 0.8)),
    "pair_probabilities_trace": dict(rho=_BELL.mat, va=(0.6, 0.8), vb=(0.6, 0.8)),
    "pauli": dict(which="X"),
    "povm_elements": dict(v_x=0.6, v_y=0.8),
    "pure_density": dict(ket=jointlab.BellFamilyState(0.3).ket()),
    "random_state_stack": dict(kind="haar", s=_S, n=2),
    "sample_outcomes": dict(d=_DIST, n=10, s=_S, label=""),
    "simplified_bound_lhs": dict(c=_C),
    "sup_over_angles": dict(c=_C),
    "tight_bound_lhs": dict(c=_C),
    "validate_densities": dict(a=np.eye(4) / 4),
    "zero_probability_chsh": dict(phi=0.3),
    "zero_probability_curve": dict(cos_phi=0.5),
    "zero_probability_curve_max": dict(step=0.01),
}

_ELEMENTWISE = (
    "elementwise kernel: inadmissible visibilities and points outside the Bloch disk give "
    "the hypothetical values that certify the bounds, so its inputs are not checked"
)
_RESULT = (
    "result record: the package builds it from checked inputs, and a non-finite result "
    "must reach its check and fail it, not raise"
)

#: (callable, parameter) pairs that take any value on purpose, with the reason.
EXEMPT = {
    **{("admissible_visibilities", p): _ELEMENTWISE for p in ("v_x", "v_y")},
    **{("bloch_bound_lhs", p): _ELEMENTWISE for p in ("ex", "ey")},
    **{("equatorial_densities", p): _ELEMENTWISE for p in ("ex", "ey")},
    **{("outcome_probabilities", p): _ELEMENTWISE for p in ("v_x", "v_y", "ex", "ey")},
    ("zero_probability_curve", "cos_phi"): _ELEMENTWISE,
    **{("ChshOptimum", p): _RESULT for p in ("value", "alpha", "beta")},
    **{("CurveOptimum", p): _RESULT for p in ("value", "phi")},
}

BAD_SCALARS = [math.nan, math.inf, -math.inf, True, "0.5"]
BAD_FLAGS = [math.nan, 0, 1.0, "false"]


def exported_callables():
    return sorted(
        name
        for name, value in vars(jointlab).items()
        if not name.startswith("_") and callable(value) and not inspect.ismodule(value)
    )


def _is_real_scalar(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


SCALAR_PARAMETERS = [
    (name, parameter)
    for name, kwargs in VALID_CALLS.items()
    for parameter, value in kwargs.items()
    if _is_real_scalar(value) and (name, parameter) not in EXEMPT
]
FLAG_PARAMETERS = [
    (name, parameter)
    for name, kwargs in VALID_CALLS.items()
    for parameter, value in kwargs.items()
    if isinstance(value, bool)
]


def test_every_exported_callable_has_a_valid_call():
    assert sorted(VALID_CALLS) == exported_callables()


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_valid_call_names_every_parameter_and_runs(name):
    fn = getattr(jointlab, name)
    assert list(VALID_CALLS[name]) == list(inspect.signature(fn).parameters)
    fn(**VALID_CALLS[name])


def test_exemptions_name_real_scalar_parameters():
    for name, parameter in EXEMPT:
        assert _is_real_scalar(VALID_CALLS[name][parameter]), (name, parameter)


@pytest.mark.parametrize("bad", BAD_SCALARS, ids=repr)
@pytest.mark.parametrize(
    "name, parameter", SCALAR_PARAMETERS, ids=[f"{n}-{p}" for n, p in SCALAR_PARAMETERS]
)
def test_bad_scalar_refused_naming_the_parameter(name, parameter, bad):
    kwargs = dict(VALID_CALLS[name], **{parameter: bad})
    with pytest.raises(ValueError, match=f"^{parameter} must "):
        getattr(jointlab, name)(**kwargs)


@pytest.mark.parametrize("bad", BAD_FLAGS, ids=repr)
@pytest.mark.parametrize(
    "name, parameter", FLAG_PARAMETERS, ids=[f"{n}-{p}" for n, p in FLAG_PARAMETERS]
)
def test_bad_flag_refused_naming_the_parameter(name, parameter, bad):
    kwargs = dict(VALID_CALLS[name], **{parameter: bad})
    with pytest.raises(ValueError, match=f"^{parameter} must "):
        getattr(jointlab, name)(**kwargs)


MODULES = sorted(
    info.name for info in pkgutil.iter_modules(jointlab.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_all_entry_resolves(module_name):
    # perfbench's tracer wraps each __all__ name, so a stale entry would crash a traced run
    module = importlib.import_module(f"jointlab.{module_name}")
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_exports_only_listed_names():
    tree = ast.parse(Path(jointlab.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module in MODULES
            listed = importlib.import_module(f"jointlab.{node.module}").__all__
            names = [alias.name for alias in node.names]
            assert [n for n in names if n not in listed] == [], node.module
            imported.update(names)
    public = {
        name
        for name, value in vars(jointlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == imported
