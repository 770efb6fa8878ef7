#!/usr/bin/env python3
"""Digests of the benchmark's outputs, to check that a change leaves them
identical.

Prints two SHA-256 digests for the checkout that holds this script:

- ``bundled``: the 29 commands of the ``bundled`` workload, as
  ``perfbench/workloads.py`` lists them, each run as ``python -m
  ontorules.cli`` on this checkout's ``src/``, as the benchmark runs it: per
  command, its exit code, its standard error and its JSON report without
  ``timings``.
- ``refine-generality``: the ``outputs`` of one pass of the benchmark's
  worker (``perfbench/worker.py refine-generality``): the edges of the
  depth-3 walks and both relation matrices.

Equal digests on two commits mean identical outputs.  The script only reads
``perfbench/``.

Run from a checkout: ``python scripts/output_digest.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import bundled_tasks  # noqa: E402


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, check=False)


def digest(value) -> str:
    """SHA-256 of the value's JSON with sorted keys."""
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def bundled_outcome(task: dict) -> dict:
    """One ``bundled`` command's exit code, standard error and report
    without ``timings`` (None when it printed no report)."""
    proc = _run(["-m", "ontorules.cli", *task["argv"]])
    report = json.loads(proc.stdout) if proc.stdout.strip() else None
    if isinstance(report, dict):
        report.pop("timings", None)
    return {"name": task["name"], "exit": proc.returncode, "stderr": proc.stderr, "report": report}


def worker_outputs() -> dict:
    """The ``outputs`` of one ``refine-generality`` worker pass."""
    proc = _run([str(ROOT / "perfbench" / "worker.py"), "refine-generality", "--seed", "0"])
    if proc.returncode:
        raise SystemExit(f"the worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["outputs"]


def main() -> None:
    print(f"bundled            {digest([bundled_outcome(t) for t in bundled_tasks()])}")
    print(f"refine-generality  {digest(worker_outputs())}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: end without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so that the exit flush cannot fail again
        sys.exit(1)
