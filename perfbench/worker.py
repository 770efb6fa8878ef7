"""One pass of a workload in a fresh interpreter.

Run by `run.py`, never by hand:

    python3 perfbench/worker.py refine-generality --seed N [--setup-only] [--trace]
    python3 perfbench/worker.py bundled --task I --trace

The last line of standard output is a JSON object with the moment the inputs
were ready (`time.monotonic()`, which every process on the machine shares),
each task's latency (raw, and at reference speed from `speed.py`) and output,
and with `--trace` the per-layer summary and the raw spans.  A task that
raises is recorded as failed and the pass goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import sys
import time
from pathlib import Path

from speed import Speed
from tracing import Tracer
from workloads import DATA, LIKES_RULES, SRC, WORKLOADS, bundled_tasks, order


def _program():
    """Import the program from this checkout's `src/` and nowhere else."""
    ontorules = importlib.import_module("ontorules")
    if SRC.resolve() not in Path(ontorules.__file__).resolve().parents:
        raise SystemExit(f"ontorules was imported from {ontorules.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"ontorules.{name}")
            for name in ("model", "parser", "hybrid", "refine")}


class RefineGenerality:
    """Depth-3 refinement from the LONER and LIKES seeds with `more_general`
    on every edge (criterion 4), then pairwise `more_general` over the LONER
    depth-3 space and the LIKES depth-1 neighbourhood (criterion 7)."""

    def __init__(self, m, seed: int):
        self.m = m
        model, parse = m["model"], m["parser"]
        self.kb = parse.parse_kb((DATA / "family.okb").read_text(encoding="utf-8"), "family.okb")
        self.bias = {t: parse.parse_bias((DATA / f"{t}.obias").read_text(encoding="utf-8"), self.kb)
                     for t in ("loner", "likes")}
        self.target = {"loner": model.Predicate("LONER", 1, model.CONCEPT),
                       "likes": model.Predicate("LIKES", 2, model.ROLE)}
        self.likes_rules = [parse.parse_rule(text, self.kb) for text in LIKES_RULES.values()]
        self.seed = seed
        self.edges = {t: [0, 0, 0] for t in self.target}
        self.children = {t: [] for t in self.target}
        self.spaces: dict[str, list] = {}
        self.rows: dict[str, dict[int, list[bool]]] = {}

    def tasks(self):
        refine = self.m["refine"]
        for t in self.target:
            frontier = [refine.seed_rule(self.target[t])]
            seen = {refine.canonical_form(frontier[0])}
            for depth in range(3):
                nxt: list = []
                for parent in frontier:
                    yield (f"expand-{t}-d{depth + 1}",
                           functools.partial(self.expand, t, depth, parent, seen, nxt))
                frontier = nxt
        yield "space-loner", self.loner_space
        yield "space-likes", self.likes_space
        for t in ("loner", "likes"):
            for a in order(self.seed, len(self.spaces[t])):
                yield f"row-{t}", functools.partial(self.row, t, a)

    def expand(self, t: str, depth: int, parent, seen: set, nxt: list) -> dict:
        refine, hybrid = self.m["refine"], self.m["hybrid"]
        steps = refine.refine(parent, self.bias[t], self.kb.tbox)
        nongeneral = sum(not hybrid.more_general(parent, s.child, self.kb) for s in steps)
        for s in steps:
            self.children[t].append(s.child)
            key = refine.canonical_form(s.child)
            if key not in seen:
                seen.add(key)
                nxt.append(s.child)
        self.edges[t][depth] += len(steps)
        return {"edges": len(steps), "nongeneral": nongeneral}

    def loner_space(self) -> dict:
        cf = self.m["refine"].canonical_form
        space = {cf(self.m["refine"].seed_rule(self.target["loner"]))}
        space.update(cf(c) for c in self.children["loner"])
        self.spaces["loner"] = sorted(space, key=str)
        return {"rules": len(space)}

    def likes_space(self) -> dict:
        refine = self.m["refine"]
        cf, seed, bias = refine.canonical_form, refine.seed_rule(self.target["likes"]), self.bias["likes"]
        space = {cf(seed)}
        for rule in (seed, self.likes_rules[0]):
            space.update(cf(s.child) for s in refine.refine(rule, bias, self.kb.tbox))
        space.update(cf(r) for r in self.likes_rules)
        self.spaces["likes"] = sorted(space, key=str)
        return {"rules": len(space)}

    def row(self, t: str, a: int) -> dict:
        more_general, space = self.m["hybrid"].more_general, self.spaces[t]
        self.rows.setdefault(t, {})[a] = [more_general(space[a], b, self.kb) for b in space]
        return {"related": sum(self.rows[t][a])}

    def outputs(self) -> dict:
        return {
            "edges": self.edges,
            "relations": {t: [rows[a] for a in sorted(rows)] for t, rows in self.rows.items()},
        }


def run_pass(seed: int, setup_only: bool, trace: bool) -> dict:
    m = _program()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        before = tracer.program_counters()
    work = RefineGenerality(m, seed)
    t_ready = time.monotonic()
    if setup_only:
        return {"t_ready": t_ready}
    speed = Speed()
    tasks = []
    for index, (name, fn) in enumerate(work.tasks()):
        if tracer:
            tracer.task = index
        t0 = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:  # a failed task is counted, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        tasks.append({"name": name, "s": time.perf_counter() - t0, "out": out, "error": error})
        speed.add((tasks[-1]["s"],))
    for task, (scaled,) in zip(tasks, speed.scaled()):
        task["scaled_s"] = scaled
    result = {"t_ready": t_ready, "tasks": tasks, "outputs": work.outputs()}
    if tracer:
        result["trace"] = tracer.summary(before)
        result["spans"] = tracer.spans
    return result


def run_cli_traced(index: int) -> dict:
    """One bundled command, in process through `ontorules.cli.main`."""
    _program()
    cli = importlib.import_module("ontorules.cli")
    tracer = Tracer()
    tracer.install()
    before = tracer.program_counters()
    tracer.task = index
    argv = bundled_tasks()[index]["argv"]
    stdout = io.StringIO()
    t0 = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught error is the command's failure
        code, error = 1, f"{type(exc).__name__}: {exc}"
    return {"s": time.perf_counter() - t0, "exit": code, "stdout": stdout.getvalue(),
            "error": error, "trace": tracer.summary(before), "spans": tracer.spans}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--task", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.workload == "bundled":
        result = run_cli_traced(args.task)
    else:
        result = run_pass(args.seed, args.setup_only, args.trace)
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
