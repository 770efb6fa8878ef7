#!/usr/bin/env python3
"""Size-scaling ladders for the hybrid model builder and the learner.

Each ladder builds the criterion-8 KB template (``tests/genhybrid.template_kb``)
with N people and N ``meets`` facts, from the seed N, and prints one line per
N.

- ``models`` (N = 5, 10, 20, 40, 80): the number of negated ground atoms that
  the model builder branches over, the wall time of one canonical model run,
  and its outcome (the number of models, or the budget error).
- ``loner`` (N = 80, 160, 320, 640): ``learn`` of ``LONER/1`` with the bundled
  LONER bias.  The positives are the people that
  ``LONER(X) :- famous(X), UNMARRIED(X), not happy(X).`` covers, and every
  other person is a negative.
- ``likes`` (N = 10, 20, 40, 80, 160): ``learn`` of ``LIKES/2`` with the bias
  ``datalog+ = happy/1, meets/3, famous/1; concepts = RICH/1; roles = LOVES/2,
  WANTS-TO-MARRY/2``.  The positives are the (person, place) pairs that
  ``LIKES(X,Y) :- meets(X,Z,Y), famous(Z).`` covers; the negatives are the
  first 2 x |positives| other pairs, people first.
- ``check`` (N = 20, 40, 80, 160, 320): what ``ontorules check`` computes,
  ``covers`` of the LIKES labelling rule, on the first positive and the first
  negative example of the ``likes`` ladder.  The line gives the wall time of
  the two calls, their verdicts, and whether they agree with the learner's
  coverage test (``KBModels.covered``), which labelled the examples.

A ``learn`` line gives the wall time of ``learn`` alone (examples labelled
beforehand) and the learned rules.  Both learn ladders learn the labelling
rule at every size, and the check ladder agrees at every size;
``tests/test_scripts.py`` checks one small size of each.

Run from a checkout: ``PYTHONPATH=src python scripts/scale_ladder.py
[models|loner|likes|check ...]`` (all four by default).
"""

import argparse
import itertools
import os
import sys
import time
from importlib import resources
from pathlib import Path

from ontorules import learn, parse_bias, parse_rule
from ontorules.hybrid import KBModels, _partial_ground, covers, nm_models
from ontorules.model import Atom, BudgetError, Const, ExampleSet

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from genhybrid import PLACES, template_kb  # noqa: E402

SIZES = (5, 10, 20, 40, 80)
CHECK_SIZES = (20, 40, 80, 160, 320)
LEARN = {
    "loner": {
        "sizes": (80, 160, 320, 640),
        "rule": "LONER(X) :- famous(X), UNMARRIED(X), not happy(X).",
        "bias": (resources.files("ontorules") / "data" / "loner.obias").read_text(encoding="utf-8"),
    },
    "likes": {
        "sizes": (10, 20, 40, 80, 160),
        "rule": "LIKES(X,Y) :- meets(X,Z,Y), famous(Z).",
        "bias": "datalog+ = happy/1, meets/3, famous/1\nconcepts = RICH/1\nroles = LOVES/2, WANTS-TO-MARRY/2\n",
    },
}


def negated_atoms(kb) -> int:
    """Distinct negated ground atoms in the KB's grounding."""
    domain = tuple(sorted(kb.constants()))
    instances = _partial_ground(kb.rules, frozenset(kb.facts), domain)
    return len({a for i in instances for a in i.naf})


def models_ladder() -> None:
    print(f"{'N':>4} {'negated':>8} {'seconds':>9}  outcome")
    for n in SIZES:
        kb = template_kb(n, seed=n)
        t0 = time.perf_counter()
        try:
            outcome = f"{len(nm_models(kb))} model(s)"
        except BudgetError as exc:
            outcome = f"budget exceeded: {exc}"
        elapsed = time.perf_counter() - t0
        print(f"{n:>4} {negated_atoms(kb):>8} {elapsed:>9.3f}  {outcome}", flush=True)


def examples(kb, rule, n: int) -> ExampleSet:
    """The examples of a learn ladder over ``n`` people, labelled by ``rule``."""
    people = [Const(f"Person{i}") for i in range(n)]
    if rule.head.pred.arity == 1:
        candidates = [Atom(rule.head.pred, (p,)) for p in people]
    else:
        places = [Const(name) for name in PLACES]
        candidates = [Atom(rule.head.pred, pair) for pair in itertools.product(people, places)]
    positives = KBModels(kb, rule.head.pred).covered(rule, candidates)
    others = [a for a in candidates if a not in positives]
    if rule.head.pred.arity == 2:
        others = others[: 2 * len(positives)]
    return ExampleSet(rule.head.pred, tuple(a for a in candidates if a in positives), tuple(others))


def learn_ladder(task: str) -> None:
    spec = LEARN[task]
    print(f"{task.upper()} learn\n{'N':>4} {'pos':>5} {'neg':>5} {'seconds':>9}  learned")
    for n in spec["sizes"]:
        kb = template_kb(n, seed=n)
        rule = parse_rule(spec["rule"], kb)
        labelled = examples(kb, rule, n)
        bias = parse_bias(spec["bias"], kb)
        t0 = time.perf_counter()
        result = learn(kb, rule.head.pred, labelled, bias)
        elapsed = time.perf_counter() - t0
        learned = " ".join(map(str, result.rules)) or "nothing"
        print(f"{n:>4} {len(labelled.positives):>5} {len(labelled.negatives):>5} {elapsed:>9.3f}  {learned}",
              flush=True)


def check_ladder() -> None:
    print(f"CHECK covers\n{'N':>4} {'seconds':>9}  verdicts  agrees")
    for n in CHECK_SIZES:
        kb = template_kb(n, seed=n)
        rule = parse_rule(LEARN["likes"]["rule"], kb)
        labelled = examples(kb, rule, n)
        pair = (labelled.positives[0], labelled.negatives[0])
        t0 = time.perf_counter()
        verdicts = tuple(covers(kb, rule, e) for e in pair)
        elapsed = time.perf_counter() - t0
        agrees = "yes" if verdicts == (True, False) else "NO"
        shown = "/".join("covers" if v else "does-not-cover" for v in verdicts)
        print(f"{n:>4} {elapsed:>9.3f}  {shown}  {agrees}", flush=True)


def main() -> None:
    ladders = ("models", *LEARN, "check")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ladders", nargs="*", metavar="{models,loner,likes,check}", help="default: all four")
    chosen = ap.parse_args().ladders or ladders
    for bad in set(chosen) - set(ladders):
        ap.error(f"unknown ladder {bad!r}")
    for ladder in chosen:
        if ladder == "models":
            models_ladder()
        elif ladder == "check":
            check_ladder()
        else:
            learn_ladder(ladder)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: end without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so that the exit flush cannot fail again
        sys.exit(1)
