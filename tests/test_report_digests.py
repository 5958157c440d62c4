"""The determinism contract as committed digests.

Each configuration of CI's determinism loop, and the shot archive it checks,
maps in ``report_digests.json`` to the sha256 of its report without the
``timestamp`` and ``output_path`` lines (and of the archive's bytes); a test
reads the loop from the workflow, so the two lists cannot drift apart. Every
run writes to relative paths in a fresh directory, so the paths the report
echoes are the same on every host. A change of report bytes is then one
edit of the manifest, whose diff is the old -> new record; regenerate it with
``PYTHONPATH=src python tests/test_report_digests.py``.

Three reports' bits follow numpy's SIMD dispatch as well as the program:
``verify --seed 11`` and ``bound --state mixed --seed 11`` (their Box-Muller
``log1p`` differs between numpy's AVX-512 loop and libm's) and ``bound
--state haar --seed 7`` (also FMA contraction in the complex multiply of
``pairs._projectors``, where every pure state is formed). Their digests are
keyed by numpy's version and the dispatch targets the process runs, and are
skipped, saying so, in any other process.
Every other report held its bits with each dispatch level disabled in turn.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from jointlab.cli import OUTPUT_DIR_ENV, main

MANIFEST = Path(__file__).with_name("report_digests.json")
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"

#: I/4, as CI's determinism loop writes it: every correlation is zero.
IDENTITY_STATE = json.dumps([[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)])

REPORTS = (
    "verify --seed 7",
    "bound --state mixed --seed 7",
    "scan --what chsh-surface --grid-steps 256",
    "scan --what chsh-surface --grid-steps 512",
    "single --seed 7 --grid-steps 33",
    "pair --seed 11",
    "single --seed 7 --grid-steps 1024",
    "single --seed 7 --grid-steps 33 --tolerance 1e-3",
    "pair --seed 7 --tolerance 1e-3",
    "scan --what zero-prob-curve --grid-steps 101",
    "sample --n-shots 1000 --alpha 0.3 --beta 1.2 --phi 0.4",
    "sample --seed 7",
    "verify --seed 7 --format csv",
    "bound --state bell --phi 0.3",
    "sample --n-shots 2000000 --seed 7",
    "bound --state mixed --seed 11",
    "scan --what chsh-surface --phi 0.3 --grid-steps 64",
    "bound --state file --state-file identity.json",
    "single --seed 7 --grid-steps 201",
    "verify --seed 11",
    "bound --state haar --seed 7",
    "sample --n-shots 200000 --seed 7 --shots-output shots.csv",
)

#: Each file a configuration writes besides its report, digested whole.
ARCHIVES = {"sample --n-shots 200000 --seed 7 --shots-output shots.csv": "shots.csv"}

#: The reports whose bits change when numpy runs another SIMD dispatch target.
DISPATCH_DEPENDENT = {
    "verify --seed 11",
    "bound --state haar --seed 7",
    "bound --state mixed --seed 11",
}


def dispatch_key() -> str:
    """numpy's version and the SIMD dispatch targets this process runs."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return " ".join([f"numpy-{np.__version__}", *targets])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(args: str) -> dict[str, str]:
    """The digests of one configuration, run in the current directory."""
    Path("identity.json").write_text(IDENTITY_STATE + "\n")
    assert main(args.split() + ["--output", "report.out"]) == 0
    lines = Path("report.out").read_text().splitlines(keepends=True)
    kept = [l for l in lines if not l.lstrip().startswith(('"timestamp":', '"output_path":'))]
    out = {"report": _sha256("".join(kept).encode())}
    if args in ARCHIVES:
        out["archive"] = _sha256(Path(ARCHIVES[args]).read_bytes())
    if args in DISPATCH_DEPENDENT:
        out["dispatch"] = dispatch_key()
    return out


@pytest.fixture
def scratch_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def test_manifest_covers_every_configuration():
    assert list(json.loads(MANIFEST.read_text())) == list(REPORTS)


def test_ci_determinism_loop_runs_every_configuration():
    # the first loop of the "Determinism contract" step; only this suite digests the archive
    step = WORKFLOW.read_text().split("- name: Determinism contract", 1)[1]
    loop = re.search(r"for args in (.*?); do", step, re.S).group(1)
    quoted = re.findall(r'"([^"]*)"', loop)
    configs = [args.replace("$RUNNER_TEMP/identity.json", "identity.json") for args in quoted]
    assert sorted(configs) == sorted(args for args in REPORTS if args not in ARCHIVES)


@pytest.mark.parametrize("args", REPORTS)
def test_report_matches_committed_digest(scratch_dir, args):
    expected, here = json.loads(MANIFEST.read_text())[args], dispatch_key()
    if expected.get("dispatch", here) != here:
        pytest.skip(f"bits follow SIMD dispatch: digest of {expected['dispatch']}, not {here}")
    assert _digests(args) == expected


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop(OUTPUT_DIR_ENV, None)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        manifest = {args: _digests(args) for args in REPORTS}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(manifest)} digests to {MANIFEST}", file=sys.stderr)
