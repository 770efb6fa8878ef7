#!/usr/bin/env python3
"""Reproduce the two bundled learning tasks end to end.

Prints the coverage matrix of the named candidate rules, the pairwise
generality verdicts, and the learned hypothesis for each task.
"""

import argparse
import os
import sys
import time
from importlib import resources

from ontorules import (
    compare,
    covers,
    learn,
    parse_bias,
    parse_examples,
    parse_ground_atom,
    parse_kb,
    parse_rule,
)

DATA = resources.files("ontorules") / "data"

TASKS = {
    "loner": {
        "examples": "loner.oex",
        "bias": "loner.obias",
        "rules": [
            "LONER(X) :- famous(X).",
            "LONER(X) :- famous(X), UNMARRIED(X).",
            "LONER(X) :- famous(X), not happy(X).",
        ],
        "example_atoms": ["LONER(Mary)", "LONER(Joe)", "LONER(Paul)"],
    },
    "likes": {
        "examples": "likes.oex",
        "bias": "likes.obias",
        "rules": [
            "LIKES(X,Y) :- meets(X,Z,Y).",
            "LIKES(X,Y) :- meets(X,Z,Y), happy(X).",
            "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z).",
            "LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z).",
            "LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z).",
        ],
        "example_atoms": ["LIKES(Mary,Italy)", "LIKES(Mary,Germany)", "LIKES(Joe,Italy)"],
    },
}


def run_task(kb, name: str) -> None:
    spec = TASKS[name]
    examples = parse_examples((DATA / spec["examples"]).read_text(), kb)
    bias = parse_bias((DATA / spec["bias"]).read_text(), kb)
    rules = [parse_rule(t, kb) for t in spec["rules"]]
    kbx = kb.with_predicate(examples.target)
    atoms = [parse_ground_atom(t, kbx) for t in spec["example_atoms"]]

    print(f"== task {name} ==")
    print("coverage matrix (rows: candidate rules, cols: examples)")
    header = "  ".join(f"{a}" for a in spec["example_atoms"])
    print(f"  {'rule':<55}  {header}")
    for rule in rules:
        row = "  ".join("x" if covers(kb, rule, a) else "." for a in atoms)
        print(f"  {str(rule):<55}  {row}")

    print("pairwise generality")
    for i, a in enumerate(rules):
        for b in rules[i + 1 :]:
            print(f"  {a}  vs  {b}  ->  {compare(a, b, kb).value}")

    t0 = time.perf_counter()
    result = learn(kb, examples.target, examples, bias)
    dt = time.perf_counter() - t0
    print(f"learned hypothesis ({dt:.2f}s)")
    for rule, stats in zip(result.rules, result.per_rule_stats):
        print(f"  {rule}  (pos={stats.pos_covered}, neg={stats.neg_covered}, cf={stats.confidence:.3f})")
    for atom in result.uncovered_positives:
        print(f"  uncovered positive: {atom}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("task", nargs="?", choices=sorted(TASKS), help="run a single task")
    args = parser.parse_args()
    kb = parse_kb((DATA / "family.okb").read_text(), "family.okb")
    for name in [args.task] if args.task else sorted(TASKS):
        run_task(kb, name)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: end without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so that the exit flush cannot fail again
        sys.exit(1)
