#!/usr/bin/env python3
"""Where the time of one cold ``ontorules`` call goes.

Runs one bundled ``check`` (does ``LONER(X) :- famous(X).`` cover
``LONER(Mary)`` on the family KB: one cell of the paper's coverage table) in
25 fresh processes and prints the median milliseconds of each step:

* the stdlib imports: the standard-library modules that ``ontorules.cli``
  loads and a bare interpreter has not (listed once, in a separate process);
* ``import ontorules``: the package, which loads every module but the CLI;
* the rest of ``ontorules.cli``;
* argument parsing: ``ontorules.cli.parse_args``;
* the command: the function it returns, report printing included;
* the whole call, ``python -m ontorules.cli check ...`` timed from outside
  like the benchmark's ``bundled`` workload, and the part of it outside the
  command: the whole call less the report's ``timings.total`` (the
  benchmark's ``setup_s`` is this plus the report's ``parse`` phase);
* two bare interpreters: ``python -c pass``, and ``python -c "import os;
  os._exit(0)"``, which ends without the interpreter's teardown, as
  ``ontorules.cli.entry`` does.

The first five steps run in this order in one probe process, each timed with
``time.perf_counter``.  ``src/`` is byte-compiled first, as the benchmark
does, and probes, whole calls and bare interpreters alternate after one
warm-up round.  The step times do not add up to the whole call: interpreter
start-up and exit fall outside them.

Run from a checkout: ``python scripts/profile_startup.py`` (no flags)
"""

import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KB = str(ROOT / "src" / "ontorules" / "data" / "family.okb")
ARGV = ["check", "--kb", KB, "--rule", "LONER(X) :- famous(X).", "--example", "LONER(Mary)", "--format", "json"]
RUNS = 25

LIST_STDLIB = """
import sys
before = set(sys.modules)
import ontorules.cli
print(",".join(sorted(n for n in set(sys.modules) - before if "." not in n and n != "ontorules")))
"""

PROBE = """
import sys, time
t0 = time.perf_counter()
for name in filter(None, sys.argv[1].split(",")):
    __import__(name)
t1 = time.perf_counter()
import ontorules
t2 = time.perf_counter()
import ontorules.cli
t3 = time.perf_counter()
args = ontorules.cli.parse_args(sys.argv[2:])
t4 = time.perf_counter()
code = args.fn(args)
t5 = time.perf_counter()
print(code, t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, file=sys.stderr)
"""

STEPS = ("stdlib imports", "import ontorules", "rest of ontorules.cli", "argument parsing", "the command")


def _timed(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, done


def main() -> None:
    compileall.compile_dir(ROOT / "src", quiet=1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    stdlib = subprocess.run([sys.executable, "-c", LIST_STDLIB], env=env, capture_output=True, text=True,
                            check=True).stdout.strip()
    names = (*STEPS, "whole call", "outside the command", "python -c pass", "python -c os._exit(0)")
    samples: dict[str, list[float]] = {name: [] for name in names}
    for round_ in range(RUNS + 1):
        _, probe = _timed(["-c", PROBE, stdlib, *ARGV], env)
        code, *times = probe.stderr.split()
        if code != "0":
            raise SystemExit(f"the probe's check exited {code}")
        whole, call = _timed(["-m", "ontorules.cli", *ARGV], env)
        outside = whole - json.loads(call.stdout)["timings"]["total"]
        bare, _ = _timed(["-c", "pass"], env)
        bare_exit, _ = _timed(["-c", "import os; os._exit(0)"], env)
        if round_:  # round 0 warms the file cache
            for name, value in zip(samples, [*map(float, times), whole, outside, bare, bare_exit]):
                samples[name].append(value)
    print(f"median ms of {RUNS} fresh processes, one bundled check, Python {sys.version.split()[0]}")
    print(f"stdlib modules loaded: {stdlib.replace(',', ', ')}")
    medians = {name: 1000 * statistics.median(values) for name, values in samples.items()}
    for name, ms in medians.items():
        print(f"  {name:<24}{ms:8.1f}")
    print(f"  {'whole - bare':<24}{medians['whole call'] - medians['python -c pass']:8.1f}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: end without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so that the exit flush cannot fail again
        sys.exit(1)
