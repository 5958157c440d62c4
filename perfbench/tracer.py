"""Outside-in layer tracing for the jointlab benchmark.

The layers are the modules of the ``jointlab`` package. ``Tracer.install``
wraps every function named in each module's ``__all__`` in every module that
imports it (and in the defining module when another module reaches it as a
module attribute, as ``cli`` does with ``suites``), plus ``DensityOperator4``
construction. Nothing under ``src/`` changes: the wrappers are set from here.

A span is recorded only when a call crosses from one layer into another.
Calls made from the same layer, such as the recursion in ``dumps_json`` or
``is_positive_semidefinite -> hermitian_eigenvalues``, cost one comparison.
Spans (name, start, end, parent) live in flat arrays until the run ends.
Counters are taken at the same boundaries, so every ratio is measured where
the work happens.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
import types
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "suites", "verify", "reporting", "sampling", "bounds", "pairs", "joint", "linalg")

CRITERIA = (
    "povm_positivity_grid",
    "outcome_product_rule",
    "bloch_disk_bound",
    "pair_moment_structure",
    "tight_bound_validity",
    "sup_matches_closed_form",
    "tsirelson_corollary",
    "coherence_identity",
    "observable_optima",
    "monte_carlo_consistency",
)

#: Per-layer metrics derived from one traced cycle, with their units.
LAYER_METRICS = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("linalg.matrices_2x2", "count"),
    ("linalg.matrices_4x4", "count"),
    ("linalg.us_per_matrix_2x2", "us"),
    ("linalg.us_per_matrix_4x4", "us"),
    ("joint.calls", "count"),
    ("pairs.trace_dists", "count"),
    ("pairs.us_per_trace_dist", "us"),
    ("pairs.states_validated", "count"),
    ("pairs.moment_calls", "count"),
    ("bounds.sup_calls", "count"),
    ("bounds.us_per_sup", "us"),
    ("sampling.shots", "count"),
    ("sampling.shots_per_s", "1/s"),
    ("sampling.states_drawn", "count"),
    ("sampling.estimate_calls", "count"),
    *((f"verify.{key}_s", "s") for key in CRITERIA),
    ("reporting.json_bytes", "B"),
    ("reporting.json_mb_per_s", "MB/s"),
    ("reporting.csv_bytes", "B"),
    ("reporting.csv_mb_per_s", "MB/s"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _eigen(counts, args, kwargs, result, seconds):
    # Counts matrices, summing any leading batch axis, so that a batched
    # solver does not redefine the count.
    shape = np.shape(_arg(args, kwargs, 0, "a"))
    n = shape[-1]
    counts[f"linalg.matrices_{n}x{n}"] += math.prod(shape[:-2])
    counts[f"linalg.eigen_s_{n}x{n}"] += seconds


def _timed(count_key, time_key):
    def meter(counts, args, kwargs, result, seconds):
        counts[count_key] += 1
        counts[time_key] += seconds

    return meter


def _counted(key, index=None, name=None):
    def meter(counts, args, kwargs, result, seconds):
        counts[key] += 1 if index is None else _arg(args, kwargs, index, name)

    return meter


def _sample_outcomes(counts, args, kwargs, result, seconds):
    counts["sampling.shots"] += _arg(args, kwargs, 1, "n")
    counts["sampling.sample_s"] += seconds


def _criteria(counts, args, kwargs, result, seconds):
    for criterion in result:
        counts[f"verify.{criterion.key}_s"] += criterion.elapsed


def _json_text(counts, args, kwargs, result, seconds):
    counts["reporting.json_bytes"] += len(result)  # dumps_json emits ASCII only
    counts["reporting.json_s"] += seconds


def _csv_text(counts, args, kwargs, result, seconds):
    counts["reporting.csv_bytes"] += len(result)
    counts["reporting.csv_s"] += seconds


def _write_report(counts, args, kwargs, result, seconds):
    kind = "json" if _arg(args, kwargs, 2, "fmt", "json") == "json" else "csv"
    counts[f"reporting.{kind}_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    counts[f"reporting.{kind}_s"] += seconds


def _write_shots(counts, args, kwargs, result, seconds):
    counts["reporting.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    counts["reporting.csv_s"] += seconds


METERS = {
    "linalg.hermitian_eigenvalues": _eigen,
    "linalg.hermitian_eigensystem": _eigen,
    "linalg.is_positive_semidefinite": _eigen,
    "pairs.pair_distribution_trace": _timed("pairs.trace_dists", "pairs.trace_dist_s"),
    "pairs.pair_moment": _counted("pairs.moment_calls"),
    "bounds.sup_over_angles": _timed("bounds.sup_calls", "bounds.sup_s"),
    "sampling.sample_outcomes": _sample_outcomes,
    "sampling.estimate_moment": _counted("sampling.estimate_calls"),
    "sampling.haar_random_pure_state": _counted("sampling.states_drawn"),
    "sampling.ginibre_random_mixed_state": _counted("sampling.states_drawn"),
    "sampling.bell_diagonal_random_state": _counted("sampling.states_drawn"),
    "sampling.correlation_ensemble": _counted("sampling.states_drawn", 0, "n"),
    "sampling.coherence_ensemble": _counted("sampling.states_drawn", 0, "n"),
    "sampling.bound_violation_search": _counted("sampling.states_drawn", 0, "n_states"),
    "verify.run_acceptance": _criteria,
    "reporting.report_to_json": _json_text,
    "reporting.shots_csv_text": _csv_text,
    "reporting.write_report": _write_report,
    "reporting.write_shots_csv": _write_shots,
}


class Tracer:
    """Records layer-boundary spans and counters for the traced run."""

    def __init__(self):
        self.labels: list[str] = []  # "layer.function" by name id
        self.label_layer = array("H")  # layer index by name id
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._layers = ["bench"]  # layer of each open span, innermost last
        self._spans = [-1]

    def wrap(self, fn, layer: str, name: str):
        """Return ``fn`` wrapped so that calls into it from another layer make a span."""
        label = f"{layer}.{name}"
        name_id = len(self.labels)
        self.labels.append(label)
        self.label_layer.append(LAYERS.index(layer))
        meter = METERS.get(label)
        calls_key = f"{layer}.calls"
        layers, spans, counts = self._layers, self._spans, self.counts
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(spans[-1])
            ends.append(0.0)
            layers.append(layer)
            spans.append(index)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[index] = t1
                layers.pop()
                spans.pop()
            counts[calls_key] += 1
            if meter is not None:
                meter(counts, args, kwargs, result, t1 - t0)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every jointlab module where they are called from."""
        modules = {layer: importlib.import_module(f"jointlab.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, owner layer, wrapper)
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType):
                    wrapped[id(fn)] = (fn, layer, self.wrap(fn, layer, name))
        reached_as_module = {
            value
            for module in modules.values()
            for value in vars(module).values()
            if isinstance(value, types.ModuleType) and value in modules.values()
        }
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is None or entry[0] is not value:
                    continue
                if entry[1] != layer or module in reached_as_module:
                    setattr(module, attr, entry[2])

        density = modules["pairs"].DensityOperator4
        post_init = self.wrap(density.__post_init__, "pairs", "DensityOperator4")
        counts = self.counts

        def validated(state):
            counts["pairs.states_validated"] += 1  # every construction, inside pairs too
            post_init(state)

        density.__post_init__ = validated

    def mark(self) -> int:
        """Index of the next span; cycles are the span ranges between marks."""
        return len(self.name)

    def cycle_metrics(self, first: int, last: int, counts: dict) -> dict[str, float]:
        """Per-layer metrics of the spans in [first, last) and that cycle's counters."""
        start = np.frombuffer(self.start, dtype=np.float64)[first:last]
        end = np.frombuffer(self.end, dtype=np.float64)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        layer = np.frombuffer(self.label_layer, dtype=np.uint16)[
            np.frombuffer(self.name, dtype=np.uint16)[first:last]
        ]
        duration = end - start
        nested = parent >= first
        child = np.bincount(parent[nested] - first, weights=duration[nested], minlength=last - first)
        self_time = np.bincount(layer, weights=duration - child, minlength=len(LAYERS))

        def ratio(numerator, denominator, scale=1.0):
            d = counts.get(denominator, 0.0)
            return scale * counts.get(numerator, 0.0) / d if d else 0.0

        out = {f"{name}.self_s": float(self_time[i]) for i, name in enumerate(LAYERS)}
        out["linalg.us_per_matrix_2x2"] = ratio("linalg.eigen_s_2x2", "linalg.matrices_2x2", 1e6)
        out["linalg.us_per_matrix_4x4"] = ratio("linalg.eigen_s_4x4", "linalg.matrices_4x4", 1e6)
        out["pairs.us_per_trace_dist"] = ratio("pairs.trace_dist_s", "pairs.trace_dists", 1e6)
        out["bounds.us_per_sup"] = ratio("bounds.sup_s", "bounds.sup_calls", 1e6)
        out["sampling.shots_per_s"] = ratio("sampling.shots", "sampling.sample_s")
        out["reporting.json_mb_per_s"] = ratio("reporting.json_bytes", "reporting.json_s", 1e-6)
        out["reporting.csv_mb_per_s"] = ratio("reporting.csv_bytes", "reporting.csv_s", 1e-6)
        for name, _unit in LAYER_METRICS:
            out.setdefault(name, float(counts.get(name, 0.0)))
        return out

    def save(self, path, cycles: list[tuple[int, int]]) -> None:
        """Write every span, with the span ranges of the traced cycles, as an .npz file."""
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            cycles=np.array(cycles, dtype=np.int64).reshape(-1, 2),
        )
