#!/usr/bin/env python3
"""The ontorules benchmark: one closed-loop client, one task at a time.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 40 --trace 0

Workloads (see README.md in this directory for why each exists):

* `bundled`: cold `python -m ontorules.cli ... --format json` invocations that
  reproduce the paper's tables on the bundled family KB;
* `refine-generality`: depth-3 refinement with `more_general` on every edge,
  plus pairwise `more_general` over two refinement spaces.

A run repeats whole passes until `--seconds` have gone by, each pass in fresh
interpreters, so the program's process-global caches start cold every time, as
they do for each command-line call.  Every output is checked against
references stored in `references.json`.  Times are scaled to a reference host
speed by calibration slices from `speed.py`.  With `--trace 0` the last line of
standard output carries the end-to-end metrics; with `--trace 1` it carries
per-layer metrics recorded by wrappers from `tracing.py`.  A full report, and
with tracing the spans, go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

from speed import Speed
from tracing import SPAN_LAYERS
from workloads import (
    HERE,
    REFERENCES,
    ROOT,
    SRC,
    WORKLOADS,
    bundled_tasks,
    check_cli_result,
    check_quasi_order,
    order,
)

#: Everything a run starts must end by then: a run has to exit within 180 s.
DEADLINE_S = 165.0
#: Setup-only processes per run of a worker workload: its `setup_s` samples.
SETUP_PROBES = 25
#: Passes an untraced run makes at least, however short `--seconds` is.  The
#: tail percentile is fixed from this many passes' tasks, so every run reports
#: the same percentile with at least ten tasks above it.
MIN_PASSES = {"bundled": 4, "refine-generality": 2}
#: Passes a traced run makes at least: two untraced and two traced, so that the
#: per-layer counts of two traced passes are always compared.
MIN_TRACED_PASSES = 4
OUT = HERE / "out"
WORKER = HERE / "worker.py"
PROGRAM_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


class Run:
    """Process bookkeeping and failure accounting for one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.anchors: dict[str, int | None] = {}

    def spawn(self, argv: list[str]):
        """Run one child to completion.  Returns (spawn time, exit time, exit
        code, stdout, stderr); a child still running at the deadline is killed
        and reported with exit code None."""
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=PROGRAM_ENV,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, DEADLINE_S - (t_spawn - self.t0)))
        except subprocess.TimeoutExpired:
            return t_spawn, time.monotonic(), None, "", "killed at the run deadline"
        return t_spawn, time.monotonic(), proc.returncode, proc.stdout, proc.stderr

    def spawn_worker(self, argv: list[str]):
        """A worker child; returns its JSON payload (None if it failed)."""
        t_spawn, t_exit, code, out, err = self.spawn([str(WORKER), *argv])
        if code != 0:
            self.problems.append(f"worker {' '.join(argv)} exited with {code}: {err.strip()[-400:]}")
            return t_spawn, t_exit, None
        return t_spawn, t_exit, json.loads(out.splitlines()[-1])

    def task(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{name}: {problem}")

    def may_start(self, passes: list[dict], min_passes: int) -> bool:
        elapsed = time.monotonic() - self.t0
        if passes and elapsed + 1.3 * passes[-1]["raw_wall_s"] + 5 > DEADLINE_S:
            return False
        return len(passes) < min_passes or elapsed < self.args.seconds


# --- passes ------------------------------------------------------------------

def bundled_pass(run: Run, traced: bool) -> dict:
    """29 cold command invocations in seed order.  Untraced, each is exactly
    what a user types; traced, each runs `cli.main` in a traced worker."""
    tasks = bundled_tasks()
    # one command takes about as long as a slice: bracket each one
    speed, raw, traces = Speed(interval=0), [], []
    for i in order(run.args.seed, len(tasks)):
        task = tasks[i]
        if traced:
            t_spawn, t_exit, payload = run.spawn_worker(["bundled", "--task", str(i), "--trace"])
            if payload is None:
                run.task(task["name"], "worker produced no result")
                continue
            code, stdout, err = payload["exit"], payload["stdout"], payload["error"] or ""
            traces.append(payload)
            if task["name"] == "learn-likes":
                layers, counts = payload["trace"]["layers"], payload["trace"]["counts"]
                run.anchors["learn-likes.covers_calls"] = layers.get("hybrid.covers", {}).get("calls")
                run.anchors["learn-likes.distinct_rules"] = counts.get("hybrid.covers.distinct_rules")
        else:
            t_spawn, t_exit, code, stdout, err = run.spawn(["-m", "ontorules.cli", *task["argv"]])
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        problem = check_cli_result(task["expect"], code, report)
        run.task(task["name"], problem and f"{problem} {err.strip()[-300:]}")
        wall, setup = t_exit - t_spawn, None
        if report is not None and not traced:
            timings = report["timings"]
            # everything but the command's own work: interpreter start,
            # imports, argument and file parsing, report output and exit
            setup = wall - timings["total"] + timings.get("parse", 0.0)
        raw.append((wall, setup))
        speed.add((wall, setup))
        if task["name"].startswith("learn-") and report is not None:
            run.anchors[f"{task['name']}.canonical_runs"] = report.get("counters", {}).get("canonical_runs")
    return timed_pass(raw, speed.scaled(), traces)


def worker_pass(run: Run, traced: bool) -> dict:
    """One pass of `refine-generality` in a worker process."""
    wl, seed = run.args.workload, run.args.seed
    argv = [wl, "--seed", str(seed)] + (["--trace"] if traced else [])
    t_spawn, t_exit, payload = run.spawn_worker(argv)
    if payload is None:  # a pass whose worker died counts as one failed task
        run.task(f"{wl} pass", "worker produced no result")
        return timed_pass([], [], [])
    for task in payload["tasks"]:
        problem = task["error"]
        if problem is None and task["name"].startswith("expand-") and task["out"]["nongeneral"]:
            problem = f"{task['out']['nongeneral']} edges whose parent is not more general"
        run.task(f"{wl} task {task['name']}", problem)
    outputs = payload["outputs"]
    run.anchors["likes.edges"] = sum(outputs["edges"]["likes"])
    problems = [check_quasi_order(space, outputs["relations"].get(space, []))
                for space in ("loner", "likes")]
    if outputs["edges"] != REFERENCES["refine-generality"]["edges"]:
        problems.append(f"edges per depth {outputs['edges']}, expected "
                        f"{REFERENCES['refine-generality']['edges']}")
    # the whole-pass checks count as one more task
    run.task(f"{wl} pass outputs", "; ".join(filter(None, problems)) or None)
    if traced:
        run.anchors["canonical_runs"] = payload["trace"]["counts"].get("hybrid.canonical_runs")
    return timed_pass([(t["s"], None) for t in payload["tasks"]],
                      [(t["scaled_s"], None) for t in payload["tasks"]], [payload])


def timed_pass(raw: list[tuple], scaled: list[tuple], traces: list[dict]) -> dict:
    """A pass's task latencies and set-up samples, at reference speed and raw.
    Its wall time is the sum of its task latencies."""
    return {
        "wall_s": sum(s[0] for s in scaled), "raw_wall_s": sum(r[0] for r in raw),
        "latencies": [s[0] for s in scaled], "raw_latencies": [r[0] for r in raw],
        "setups": [s[1] for s in scaled if s[1] is not None],
        "raw_setups": [r[1] for r in raw if r[1] is not None],
        "traces": traces,
    }


def setup_probes(run: Run) -> dict:
    """Set-up samples of a worker workload, from setup-only processes."""
    speed, raw = Speed(interval=0), []
    for _ in range(SETUP_PROBES):
        t_spawn, _, payload = run.spawn_worker([run.args.workload, "--setup-only"])
        if payload is not None:
            raw.append((0.0, payload["t_ready"] - t_spawn))
            speed.add(raw[-1])
    return timed_pass(raw, speed.scaled(), [])


# --- metrics -----------------------------------------------------------------

def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten of `samples` tasks above it."""
    return math.floor(100 * (samples - 10) / samples)


def end_to_end(run: Run, passes: list[dict], setup: dict) -> tuple[dict, dict, str]:
    """The end-to-end metrics at reference speed, the same figures in raw
    seconds, and a note on the samples behind them."""
    n = len([s for p in passes for s in p["latencies"]])
    if n < 11:
        raise SystemExit(f"error: only {n} task latencies measured: {run.problems[:3]}")
    # from the fewest passes a run makes, so it is the same in every run
    pct = tail_percentile(MIN_PASSES[run.args.workload] * max(len(p["latencies"]) for p in passes))

    def timings(prefix: str) -> dict:
        latencies = [s for p in passes for s in p[prefix + "latencies"]]
        setups = [s for p in passes + [setup] for s in p[prefix + "setups"]]
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p[prefix + "wall_s"] for p in passes),
            "task_s.p50": statistics.median(latencies),
            "task_s.tail": statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1],
        }

    metrics = {k: (v, "s") for k, v in timings("").items()}
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    n_setups = len([s for p in passes + [setup] for s in p["setups"]])
    note = (f"task_s.tail is p{pct} of {n} task latencies from {len(passes)} passes; "
            f"setup_s is the median of {n_setups} samples; times are at reference speed")
    return metrics, timings("raw_"), note


def per_layer(run: Run, untraced: list[dict], traced: list[dict]) -> tuple[dict, str]:
    """Per-layer figures of each traced pass; counts must repeat exactly."""
    traced = [p for p in traced if p["traces"]]
    if not traced:
        raise SystemExit(f"error: no traced pass produced a result: {run.problems[:3]}")
    if len(traced) < 2:
        run.problems.append("one traced pass only: per-layer counts were not compared")
    summaries = []
    for p in traced:
        layers: dict[str, dict] = {}
        counts: dict[str, int] = {}
        speed = p["wall_s"] / p["raw_wall_s"]  # span times to reference speed
        for payload in p["traces"]:
            for name, v in payload["trace"]["layers"].items():
                acc = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                acc["calls"] += v["calls"]
                acc["busy_s"] += v["busy_s"] * speed
                acc["self_s"] += v["self_s"] * speed
            for name, v in payload["trace"]["counts"].items():
                counts[name] = counts.get(name, 0) + v
        summaries.append((layers, counts))
    layers, counts = summaries[0]
    for other_layers, other_counts in summaries[1:]:
        calls = {k: v["calls"] for k, v in layers.items()}
        if other_counts != counts or {k: v["calls"] for k, v in other_layers.items()} != calls:
            run.problems.append("per-layer counts differ between passes of the same inputs")
    metrics: dict[str, tuple[float, str]] = {}
    for name, v in layers.items():
        metrics[f"{name}.calls"] = (v["calls"], "count")
        for k in ("busy_s", "self_s"):
            metrics[f"{name}.{k}"] = (statistics.median(s[0][name][k] for s in summaries), "s")
    for name, v in counts.items():
        metrics[name] = (v, "count")

    def ratio(num: str, den: str, name: str) -> None:
        if num in metrics and den in metrics:
            d = metrics[den][0]
            metrics[name] = (metrics[num][0] / d if d else 0.0, "ratio")

    ratio("hybrid.entails.calls", "hybrid.covers.calls", "hybrid.covers_miss_ratio")
    ratio("hybrid.canonical_runs", "hybrid.covers.distinct_rules", "hybrid.model_runs_per_rule")
    ratio("refine.children", "refine.candidates", "refine.unique_child_ratio")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio")
    absent = sorted({name for p in traced for t in p["traces"] for name in t["trace"]["absent"]})
    note = (f"tracing overhead: median traced pass {traced_wall:.3f} s over {len(traced)}, "
            f"untraced {untraced_wall:.3f} s over {len(untraced)}; absent bindings: {absent or 'none'}")
    return metrics, note


# --- reporting ---------------------------------------------------------------

def environment(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = None
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            rev = path.read_text().strip() if path.is_file() else ref[5:]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_rev": rev,
            "src_lines": src_lines, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "traced": bool(args.trace)}


def write_outputs(args, report: dict, traced: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if traced:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for k, p in enumerate(traced):
                for payload in p["traces"]:
                    line = {"pass": k, "layers": list(SPAN_LAYERS), "spans": payload.pop("spans")}
                    fh.write(json.dumps(line, separators=(",", ":")) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for the whole process tree, so calibration slices run where the
    # measured work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "ontorules" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'ontorules'} is missing", file=sys.stderr)
        return 2
    # byte-compile up front, as an installed package would be, so no pass pays it
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    run = Run(args)
    one_pass = bundled_pass if args.workload == "bundled" else worker_pass
    passes: list[dict] = []
    if args.trace:
        # untraced and traced passes alternate, so both see the same machine
        while run.may_start(passes, MIN_TRACED_PASSES):
            passes.append(one_pass(run, traced=len(passes) % 2 == 1))
        metrics, note = per_layer(run, passes[0::2], passes[1::2])
        raw = None
    else:
        setup = timed_pass([], [], []) if args.workload == "bundled" else setup_probes(run)
        while run.may_start(passes, MIN_PASSES[args.workload]):
            passes.append(one_pass(run, traced=False))
        metrics, raw, note = end_to_end(run, passes, setup)

    correct = run.failed == 0 and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"environment": environment(args), "note": note, "anchors": run.anchors,
              "problems": run.problems, **result, "raw_seconds": raw,
              "passes": [{k: v for k, v in p.items() if k != "traces"} for p in passes]}
    write_outputs(args, report, passes[1::2] if args.trace else [])
    print(json.dumps({"environment": report["environment"]}))
    print(note)
    baseline = REFERENCES["anchors"][args.workload]
    for name, value in sorted(run.anchors.items()):
        known = f" (ROADMAP baseline {baseline[name]})" if name in baseline else ""
        print(f"anchor {name} = {value}{known}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
