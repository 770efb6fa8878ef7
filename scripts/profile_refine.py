#!/usr/bin/env python3
"""Profile of depth-3 refinement with the generality test on every edge.

Refines the LIKES seed of the bundled family KB to depth 3 (children are
deduplicated across expansions by their canonical form, as in criterion 4),
calls ``more_general(parent, child, kb)`` on every edge, all under
``cProfile``, and prints the 25 functions with the most self time followed by
the call counts of ``canonical_form``, ``more_general``, ``skolemize``,
``validate_safeness`` and ``is_linked``, and by where the canonical keys came
from: built by ``refine`` from the parent's sorted literals, built from
scratch by ``canonical_form``, or read back from the rule by it (a memo hit).
Times include the profiler's own per-call cost; use the benchmark for
end-to-end timings.

Run from a checkout: ``PYTHONPATH=src python scripts/profile_refine.py``
"""

import cProfile
import io
import pstats
from importlib import resources

from ontorules.hybrid import more_general
from ontorules.model import ROLE, Predicate
from ontorules.parser import parse_bias, parse_kb
from ontorules.refine import canonical_form, refine, seed_rule

DEPTH = 3
COUNTED = (
    ("refine.py", "canonical_form"),
    ("hybrid.py", "more_general"),
    ("model.py", "skolemize"),
    ("model.py", "validate_safeness"),
    ("model.py", "is_linked"),
)


def refine_with_generality(kb, bias) -> tuple[int, int]:
    """Edges walked and edges on which the parent is not more general."""
    frontier = [seed_rule(Predicate("LIKES", 2, ROLE))]
    seen = {canonical_form(frontier[0])}
    edges = nongeneral = 0
    for _ in range(DEPTH):
        nxt = []
        for parent in frontier:
            for step in refine(parent, bias, kb.tbox):
                edges += 1
                nongeneral += not more_general(parent, step.child, kb)
                if step.key not in seen:
                    seen.add(step.key)
                    nxt.append(step.child)
        frontier = nxt
    return edges, nongeneral


def main() -> None:
    data = resources.files("ontorules") / "data"
    kb = parse_kb((data / "family.okb").read_text(encoding="utf-8"), "family.okb")
    bias = parse_bias((data / "likes.obias").read_text(encoding="utf-8"), kb)

    profiler = cProfile.Profile()
    edges, nongeneral = profiler.runcall(refine_with_generality, kb, bias)
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    print(f"LIKES depth {DEPTH}: {edges} edges, {nongeneral} with a parent not more general")
    stats.sort_stats(pstats.SortKey.TIME).print_stats(25)
    print(out.getvalue())
    for filename, name in COUNTED:
        calls = sum(
            nc for (path, _, func), (_, nc, *_) in stats.stats.items()
            if func == name and path.endswith(filename)
        )
        print(f"{name:>17} calls: {calls}")
    built = {
        caller[2]: nc
        for (path, _, func), (_, _, _, _, callers) in stats.stats.items()
        if func == "_canonical_rule" and path.endswith("refine.py")
        for caller, (_, nc, *_) in callers.items()
    }
    forms = sum(
        nc for (path, _, func), (_, nc, *_) in stats.stats.items()
        if func == "canonical_form" and path.endswith("refine.py")
    )
    scratch = built.get("canonical_form", 0)  # any other caller is inside refine
    print(f"keys built by refine: {sum(built.values()) - scratch}, "
          f"from scratch: {scratch}, memo hits: {forms - scratch}")


if __name__ == "__main__":
    main()
