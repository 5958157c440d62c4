"""Self-check of the benchmark: each workload, traced and untraced, for one cycle.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Asserts that every run exits 0, passes every command, and emits exactly the
metrics that ``BENCHMARK.json`` names, with their units.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1"]
                + ["--trace", str(trace)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, done.stdout.splitlines()[-2]
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            print(f"ok {workload} trace={trace}: {len(units)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
