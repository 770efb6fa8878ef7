"""The benchmark's traced ``refine-generality`` gate, in the test suite.

``perfbench/run.py --trace`` marks a run incorrect when a task raises, an
``expand-*`` task finds an edge whose parent is not more general, the edges
per depth differ from ``references.json``, a pairwise space is not a
quasi-order of the reference size and related-pair count, or two traced
passes of the same inputs count different per-layer figures.  A traced pass
can exit 0 and still fail that gate.  These tests make the same checks on
two traced worker passes, each in a fresh interpreter under its own hash
seed; they read ``perfbench/`` and change nothing there.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def _traced_pass(hash_seed: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "refine-generality", "--seed", "0", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def passes():
    return [_traced_pass(1), _traced_pass(2)]


def test_no_task_fails_and_every_edge_is_general(passes):
    for payload in passes:
        for task in payload["tasks"]:
            assert task["error"] is None, task
            if task["name"].startswith("expand-"):
                assert task["out"]["nongeneral"] == 0, task


def test_outputs_match_the_references(passes):
    for payload in passes:
        outputs = payload["outputs"]
        assert outputs["edges"] == workloads.REFERENCES["refine-generality"]["edges"]
        for space in ("loner", "likes"):
            assert workloads.check_quasi_order(space, outputs["relations"].get(space, [])) is None


def test_per_layer_counts_repeat_across_hash_seeds(passes):
    first, second = (p["trace"] for p in passes)
    assert first["counts"] == second["counts"]
    assert {k: v["calls"] for k, v in first["layers"].items()} == {k: v["calls"] for k, v in second["layers"].items()}
