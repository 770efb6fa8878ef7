#!/usr/bin/env python3
"""Size-scaling ladder for the hybrid model builder.

Builds the criterion-8 KB template (``tests/genhybrid.template_kb``) with N
people and N ``meets`` facts, for N in 5, 10, 20, 40 and 80, each from a fixed
seed, and prints one line per N: the number of negated ground atoms that the
model builder branches over, the wall time of one canonical model run, and
its outcome (the number of models, or the budget error).

Run from a checkout: ``PYTHONPATH=src python scripts/scale_ladder.py``
"""

import sys
import time
from pathlib import Path

from ontorules.datalog import extensional_predicates
from ontorules.hybrid import _partial_ground, nm_models
from ontorules.model import DEFAULT_GROUNDING_BUDGET, BudgetError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from genhybrid import template_kb  # noqa: E402

SIZES = (5, 10, 20, 40, 80)


def negated_atoms(kb) -> int:
    """Distinct negated ground atoms in the KB's grounding."""
    domain = tuple(sorted(kb.constants()))
    instances = _partial_ground(
        kb.rules, frozenset(kb.facts), domain, DEFAULT_GROUNDING_BUDGET, extensional_predicates(kb.rules)
    )
    return len({a for i in instances for a in i.naf})


def main() -> None:
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


if __name__ == "__main__":
    main()
