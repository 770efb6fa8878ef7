"""Workload definitions shared by the benchmark driver and its worker.

A workload is a fixed list of tasks that makes up one *pass*.  Every pass runs
in fresh interpreters, so the program's process-global caches start cold, as
they do for a user of the command line.  The `--seed` argument only orders the
tasks; the work in a pass, and so every figure, is the same for every seed.

Nothing in this module imports `ontorules`: the driver never loads the program
into its own process.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "ontorules" / "data"

REFERENCES = json.loads((HERE / "references.json").read_text(encoding="utf-8"))

WORKLOADS = ("bundled", "refine-generality")


def order(seed: int, n: int) -> list[int]:
    """Task order for a seed; the same seed gives the same order."""
    idx = list(range(n))
    random.Random(seed).shuffle(idx)
    return idx


# --- bundled: cold command-line invocations on the bundled family KB ---------

LONER_RULES = {
    "h1": "LONER(X) :- famous(X).",
    "h2": "LONER(X) :- famous(X), UNMARRIED(X).",
    "h3": "LONER(X) :- famous(X), not happy(X).",
}
LIKES_RULES = {
    "h1": "LIKES(X,Y) :- meets(X,Z,Y).",
    "h2": "LIKES(X,Y) :- meets(X,Z,Y), happy(X).",
    "h3": "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z).",
    "h4": "LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z).",
    "h5": "LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z).",
}
LONER_EXAMPLES = ("LONER(Mary)", "LONER(Joe)", "LONER(Paul)")
LIKES_EXAMPLES = ("LIKES(Mary,Italy)", "LIKES(Mary,Germany)", "LIKES(Joe,Italy)")


def bundled_tasks() -> list[dict]:
    """The 29 invocations behind the paper's tables: two `learn` runs
    (criterion 5), 18 coverage cells (criterion 1) and 9 generality pairs
    (criterion 2), each with the verdict the reference expects."""
    ref = REFERENCES["bundled"]
    kb = str(DATA / "family.okb")
    tasks = []
    for task in ("loner", "likes"):
        tasks.append({
            "name": f"learn-{task}",
            "argv": ["learn", "--kb", kb, "--examples", str(DATA / f"{task}.oex"),
                     "--bias", str(DATA / f"{task}.obias"), "--format", "json"],
            "expect": {"exit": 0, "rules": ref["learned"][task]},
        })
    for task, rules, examples in (("LONER", LONER_RULES, LONER_EXAMPLES),
                                  ("LIKES", LIKES_RULES, LIKES_EXAMPLES)):
        for h, row in ref["coverage"][task].items():
            for example, cell in zip(examples, row):
                tasks.append({
                    "name": f"check-{task}-{h}-{example}",
                    "argv": ["check", "--kb", kb, "--rule", rules[h], "--example", example,
                             "--format", "json"],
                    "expect": {"exit": 0, "verdict": "covers" if cell else "does-not-cover"},
                })
    for task, h1, h2, verdict in ref["generality"]:
        rules = LONER_RULES if task == "LONER" else LIKES_RULES
        tasks.append({
            "name": f"compare-{task}-{h1}-{h2}",
            "argv": ["compare", "--kb", kb, "--rule1", rules[h1], "--rule2", rules[h2],
                     "--format", "json"],
            "expect": {"exit": 0, "verdict": verdict},
        })
    return tasks


def check_cli_result(expect: dict, exit_code: int, report: dict | None) -> str | None:
    """Why a command-line task's outcome differs from the reference, or None."""
    if exit_code != expect["exit"]:
        return f"exit code {exit_code}, expected {expect['exit']}"
    if report is None:
        return "no JSON report on stdout"
    if "verdict" in expect and report.get("verdict") != expect["verdict"]:
        return f"verdict {report.get('verdict')!r}, expected {expect['verdict']!r}"
    if "rules" in expect:
        got = [r.get("rule") for r in report.get("rules", [])]
        if got != expect["rules"] or report.get("status") != "ok":
            return f"learned {got} ({report.get('status')}), expected {expect['rules']}"
    return None


# --- refine-generality: depth-3 refinement with generality on every edge ----

def check_quasi_order(space: str, rel: list[list[bool]]) -> str | None:
    """Reflexivity and transitivity of a pairwise `more_general` matrix, and
    its number of related pairs against the reference."""
    n = len(rel)
    ref = REFERENCES["refine-generality"]["spaces"][space]
    if n != ref["rules"]:
        return f"{space}: {n} rules in the space, expected {ref['rules']}"
    bad = sum(not rel[a][a] for a in range(n))
    for a in range(n):
        for b in range(n):
            if rel[a][b]:
                bad += sum(rel[b][c] and not rel[a][c] for c in range(n))
    if bad:
        return f"{space}: {bad} quasi-order violations"
    pairs = sum(map(sum, rel))
    if pairs != ref["related_pairs"]:
        return f"{space}: {pairs} related pairs, expected {ref['related_pairs']}"
    return None
