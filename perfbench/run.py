"""jointlab benchmark: drives the public CLI in-process, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from a traced phase that follows an untraced phase of the same length.
The line before it holds the provenance, the per-cycle samples and the sha256
digest of every report and shot archive; the same details go to
``perfbench/out/``. See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import COMMANDS, WORKLOADS, Client, cycle_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Pinned before numpy loads, so linear algebra runs on one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: A fresh process that times the import of jointlab (numpy included) plus
#: the CLI parser build.
PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import jointlab.cli
jointlab.cli.build_parser()
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "cycle_s": "s",
    "cycle_cpu_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds() -> float:
    """Set-up time, measured in a fresh process."""
    env = {**os.environ, **BLAS_ENV}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def phase(client, seeds, seconds: float, tracer=None, setup=None) -> list[dict]:
    """Run cycles until ``seconds`` have passed (at least one); one sample per cycle.

    With a ``setup`` list, a set-up probe runs before each cycle, outside its
    timing, so that set-up is sampled across the whole run.
    """
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        if setup is not None:
            setup.append(setup_seconds())
        seed = next(seeds)
        if tracer is not None:
            tracer.counts.clear()
            first = tracer.mark()
        wall, cpu, commands = client.cycle(seed)
        sample = {"seed": seed, "wall_s": wall, "cpu_s": cpu, "commands": commands}
        if tracer is not None:
            sample["spans"] = (first, tracer.mark())
            sample["layers"] = tracer.cycle_metrics(*sample["spans"], dict(tracer.counts))
        samples.append(sample)
    return samples


def median_of(samples, key) -> float:
    return statistics.median(s[key] for s in samples)


def measure(args, cli) -> tuple[dict, dict]:
    from tracer import LAYER_METRICS, Tracer  # imports numpy, so only after BLAS_ENV is set

    client = Client(args.workload, cli.main)
    seeds = (cycle_seed(args.seed, i) for i in itertools.count())
    warm_seed = next(seeds)
    client.cycle(warm_seed)  # untimed warm-up; its digests are the reference for the rerun
    budget = args.seconds / 2 if args.trace else args.seconds
    setup = None if args.trace else []  # set-up is an end-to-end metric only
    untraced = phase(client, seeds, budget, setup=setup)
    samples = {"untraced": untraced}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        client.main = tracer.wrap(cli.main, "cli", "main")
        traced = samples["traced"] = phase(client, seeds, budget, tracer)

    # Determinism oracle: the warm-up seed runs again and must give the same digests.
    client.cycle(warm_seed)

    if args.trace:
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz", [s["spans"] for s in traced])
        metrics = {
            f"cli.{name}_s": statistics.median(s["commands"].get(name, 0.0) for s in untraced)
            for name in COMMANDS
        }
        for name, _unit in LAYER_METRICS:
            metrics[name] = statistics.median(s["layers"][name] for s in traced)
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        units = {name: "s" for name in metrics} | dict(LAYER_METRICS)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "cycle_s": median_of(untraced, "wall_s"),
            "cycle_cpu_s": median_of(untraced, "cpu_s"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (client.attempted - client.failed) / client.attempted,
        }
        units = END_TO_END

    import numpy

    detail = {
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "openblas_threads": openblas_threads(),
            "python_threads": threading.active_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "cycle_seeds": {
                "warm_up_and_rerun": warm_seed,
                "untraced": [s["seed"] for s in untraced],
                "traced": [s["seed"] for s in samples.get("traced", [])],
            },
            "sample_counts": {
                "setup_s": len(setup or []),
                "untraced_cycles": len(untraced),
                "traced_cycles": len(samples.get("traced", [])),
            },
        },
        "setup_samples_s": setup,
        "samples": {
            phase_name: [{k: v for k, v in s.items() if k != "spans"} for s in rows]
            for phase_name, rows in samples.items()
        },
        "digests": client.digests,
        "problems": client.problems,
    }
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jointlab" / "cli.py").is_file():
        print(f"error: no jointlab sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    os.environ.pop("JOINTLAB_OUTPUT_DIR", None)  # outputs go to the run's own directory
    sys.path.insert(0, str(SRC))
    import jointlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported jointlab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    os.chdir(work)
    try:
        detail, result = measure(args, cli)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
