#!/usr/bin/env python3
"""Profile of depth-3 refinement with the generality test on every edge,
and of the pairwise generality checks.

Refines the LIKES seed of the bundled family KB to depth 3 (children are
deduplicated across expansions by their canonical form, as in criterion 4),
calls ``more_general(parent, child, kb)`` on every edge, all under
``cProfile``, and prints the 25 functions with the most self time followed by
the call counts of ``canonical_form``, ``more_general``, ``skolemize``,
``validate_safeness`` and ``is_linked``, and by how the steps' keys were
built.  ``refine`` keys a child that adds a literal from the parent's key:
the new literal is inserted into it, or, when the child's sorted body has a
tie before the new literal's place (the new literal's sort key equals a
parent literal's, or two of the parent's are equal), the literals from the
first tie on are keyed afresh (the tail; its mean length is printed).  A
specialized child is keyed from scratch.  Tails keyed afresh, and the
parent's literals after an inserted one that numbers a variable first (a
renumbered suffix), come from a memo that ``refine`` shares between calls;
a second, unprofiled walk from an empty memo counts how many of each it
computed and how many it reused.  The paths are read off the
returned steps after the run, so children dropped as variants are not
counted.  ``canonical_form`` calls either build a key from scratch (the
parents', the specialized children's, the seed's) or read back the key a rule
already carries (a memo hit).  It also prints the ``cache_info()`` of the
candidate-literal cache (``refine._added_literals``) and how many rules were
built through the public ``Rule`` constructor, which drops duplicate
literals, and how many through the private ``Rule._distinct``, which does
not, and the sizes of the tables that intern names, predicates, atoms and
literals (``model._NAMES`` ...), which live for the process, and how many
TBoxes ``dlreason.subsumes`` holds closures for (``dlreason._CLOSURES``).
No table shares canonical keys: each step's key is its own object, and the
script prints how many distinct forms the steps' keys have (variant children
of different parents have keys of one form).

It then runs the criterion-7 LIKES pairwise pass on the same KB: more_general
over every ordered pair of the 60 rules of the depth-1 neighbourhood of the
seed and of ``LIKES(X,Y) :- meets(X,Z,Y).``, plus the named LIKES rules.  It
prints, for each phase (edges and pairs), the ``more_general`` calls, how
many of them the syntactic fast path decided through a TBox inclusion (a
literal of ``h1`` met by one below it in ``h2``, as on a specialized edge:
the calls that neither the body-subset case decides nor go on to look up
their premises and theory through ``hybrid._prepared``), how many augmented
theories the generality test prepared (calls of ``hybrid._augmented``, one
``skolemize`` and one ground ``hybrid._Theory`` each) and how many canonical
model runs those took (``hybrid.counters``).  The pairs reuse the theories
that the edges left in the KB's memo.  After each phase's first line it
prints what CPython's cyclic garbage collector did in that phase, through
``gc.callbacks``: ``collector: <g0>/<g1>/<g2> collections, <ms> ms, <n>
collected``, by generation; each phase starts after a full collection, so
that the line counts its own work alone.  Times include the profiler's own
per-call cost; use the benchmark for end-to-end timings.

Run from a checkout: ``PYTHONPATH=src python scripts/profile_refine.py``
"""

import bisect
import cProfile
import gc
import importlib
import io
import os
import pstats
import sys
import time
from collections import Counter
from importlib import resources

from ontorules import dlreason, model
from ontorules.hybrid import _augmented, counters, more_general
from ontorules.model import ROLE, Predicate, Rule
from ontorules.parser import parse_bias, parse_kb, parse_rule
from ontorules.refine import (
    SPECIALIZE_ONTOLOGY,
    _added_literals,
    _head_ids,
    _literal_key,
    canonical_form,
    refine,
    seed_rule,
)

DEPTH = 3
COUNTED = (
    ("refine.py", "canonical_form"),
    ("hybrid.py", "more_general"),
    ("model.py", "skolemize"),
    ("model.py", "validate_safeness"),
    ("model.py", "is_linked"),
)
LIKES_RULES = (
    "LIKES(X,Y) :- meets(X,Z,Y).",
    "LIKES(X,Y) :- meets(X,Z,Y), happy(X).",
    "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z).",
    "LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z).",
    "LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z).",
)


class Collections:
    """The cyclic collector's passes while the ``with`` block runs, which
    starts after a full collection: their number per generation, the time
    they took and the objects they freed."""

    def __enter__(self):
        gc.collect()
        self.passes, self.seconds, self.collected, self._start = [0, 0, 0], 0.0, 0, 0.0
        gc.callbacks.append(self._observe)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._observe)

    def _observe(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.passes[info["generation"]] += 1
            self.seconds += time.perf_counter() - self._start
            self.collected += info["collected"]

    def __str__(self) -> str:
        return (f"collector: {'/'.join(map(str, self.passes))} collections, "
                f"{self.seconds * 1e3:.1f} ms, {self.collected} collected")


def refine_with_generality(kb, bias, steps: list) -> tuple[int, int]:
    """Edges walked and edges on which the parent is not more general; the
    steps are appended to ``steps``."""
    frontier = [seed_rule(Predicate("LIKES", 2, ROLE))]
    seen = {canonical_form(frontier[0])}
    edges = nongeneral = 0
    for _ in range(DEPTH):
        nxt = []
        for parent in frontier:
            for step in refine(parent, bias, kb.tbox):
                steps.append(step)
                edges += 1
                nongeneral += not more_general(parent, step.child, kb)
                if step.key not in seen:
                    seen.add(step.key)
                    nxt.append(step.child)
        frontier = nxt
    return edges, nongeneral


def keying_path(step) -> tuple[str, int]:
    """How ``refine`` keyed the step's child, and the length of the tail it
    keyed afresh (0 unless tail-keyed)."""
    if step.rule_applied == SPECIALIZE_ONTOLOGY:
        return "specialized", 0
    ids = _head_ids(step.parent.head)
    keys = sorted(_literal_key(l, ids) for l in step.parent.body)
    k = _literal_key(step.literal, ids)
    p = bisect.bisect_right(keys, k)
    tie = next((i for i, (a, b) in enumerate(zip(keys, keys[1:])) if a == b), len(keys))
    s = min(tie, bisect.bisect_left(keys, k))
    return ("tail", len(keys) + 1 - s) if s < p else ("inserted", 0)


class _CountedTails(dict):
    """One place's entry of ``refine``'s memo of key tails, counting its
    lookups: a tie tail is keyed by the new literal's sort key and ids, a
    renumbered suffix by ids alone."""

    def __init__(self, counts: Counter):
        super().__init__()
        self.counts = counts

    def get(self, key, default=None):
        found = super().get(key, default)
        kind = "tie tails" if isinstance(key[0], tuple) else "suffixes"
        self.counts[kind, "computed" if found is None else "reused"] += 1
        return found


class _CountingMemo(dict):
    """A stand-in for ``refine._TAILS`` whose entries count their lookups."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def setdefault(self, key, default=None):
        return super().setdefault(key, _CountedTails(self.counts))


def count_tails(kb, bias) -> Counter:
    """Lookups of the memo of key tails over the LIKES depth-3 walk, from an
    empty memo, by kind and by whether the tail was computed or reused."""
    module = importlib.import_module("ontorules.refine")
    saved, module._TAILS = module._TAILS, _CountingMemo()
    try:
        frontier = [seed_rule(Predicate("LIKES", 2, ROLE))]
        seen = {canonical_form(frontier[0])}
        for _ in range(DEPTH):
            nxt = []
            for parent in frontier:
                for step in refine(parent, bias, kb.tbox):
                    if step.key not in seen:
                        seen.add(step.key)
                        nxt.append(step.child)
            frontier = nxt
        return module._TAILS.counts
    finally:
        module._TAILS = saved


def likes_space(kb, bias) -> list:
    """The criterion-7 LIKES space, in canonical form, sorted by ``str``."""
    seed = seed_rule(Predicate("LIKES", 2, ROLE))
    named = [parse_rule(text, kb) for text in LIKES_RULES]
    space = {canonical_form(seed)}
    for rule in (seed, named[0]):
        space.update(canonical_form(s.child) for s in refine(rule, bias, kb.tbox))
    space.update(canonical_form(r) for r in named)
    return sorted(space, key=str)


def pairwise(space, kb) -> int:
    """Ordered pairs of the space whose first rule is more general."""
    return sum(more_general(a, b, kb) for a in space for b in space)


def by_subset(pairs) -> int:
    """Pairs (h1, h2) that the body-subset case of the fast path decides."""
    return sum(h1.head == h2.head and set(h1.body) <= set(h2.body) for h1, h2 in pairs)


def past_fast_path(stats) -> int:
    """``more_general`` calls that the syntactic fast path did not decide:
    each makes two ``hybrid._prepared`` calls, for h1 and for h2."""
    return sum(
        nc for (path, _, func), (_, _, _, _, by) in stats.stats.items()
        if func == "_prepared" and path.endswith("hybrid.py")
        for caller, (_, nc, *_) in by.items() if caller[2] == "more_general"
    ) // 2


def calls(stats, filename: str, name: str) -> int:
    return sum(
        nc for (path, _, func), (_, nc, *_) in stats.stats.items()
        if func == name and path.endswith(filename)
    )


def code_calls(stats, code) -> int:
    """Calls of the function with code object ``code``."""
    where = (code.co_filename, code.co_firstlineno, code.co_name)
    return sum(nc for site, (_, nc, *_) in stats.stats.items() if site == where)


def main() -> None:
    data = resources.files("ontorules") / "data"
    kb = parse_kb((data / "family.okb").read_text(encoding="utf-8"), "family.okb")
    bias = parse_bias((data / "likes.obias").read_text(encoding="utf-8"), kb)

    profiler = cProfile.Profile()
    steps: list = []
    runs = [counters["canonical_runs"]]
    with Collections() as walk_collections:
        edges, nongeneral = profiler.runcall(refine_with_generality, kb, bias, steps)
    runs.append(counters["canonical_runs"])
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    print(f"LIKES depth {DEPTH}: {edges} edges, {nongeneral} with a parent not more general")
    print(walk_collections)
    stats.sort_stats(pstats.SortKey.TIME).print_stats(25)
    print(out.getvalue())
    for filename, name in COUNTED:
        print(f"{name:>17} calls: {calls(stats, filename, name)}")
    paths, tails = Counter(), 0
    for step in steps:
        path, length = keying_path(step)
        paths[path] += 1
        tails += length
    print(f"keys of the steps: {paths['inserted']} inserted into the parent's key, "
          f"{paths['tail']} tail-keyed on a tie (mean tail {tails / max(paths['tail'], 1):.2f} literals), "
          f"{paths['specialized']} specialized")
    forms = calls(stats, "refine.py", "canonical_form")
    scratch = sum(
        nc for (path, _, func), (_, _, _, _, by) in stats.stats.items()
        if func == "_canonical_tail" and path.endswith("refine.py")
        for caller, (_, nc, *_) in by.items() if caller[2] == "canonical_form"
    )
    print(f"canonical_form calls: {scratch} from scratch, {forms - scratch} memo hits")
    print(f"candidate literals: {_added_literals.cache_info()}")
    print(f"rules built: {code_calls(stats, Rule.__init__.__code__)} public (dedupe), "
          f"{code_calls(stats, Rule._distinct.__code__)} private (Rule._distinct)")
    print(f"intern tables: {len(model._NAMES)} names, {len(model._PREDICATES)} predicates, "
          f"{len(model._ATOMS)} atoms, {len(model._LITERALS)} literals")
    print(f"subsumes memo: closures of {len(dlreason._CLOSURES)} TBox(es)")
    print(f"canonical keys: {len({step.key for step in steps})} distinct forms among the {len(steps)} steps' keys")
    tails = count_tails(kb, bias)
    print("memo of key tails: " + "; ".join(
        f"{kind} {tails[kind, 'computed']} computed, {tails[kind, 'reused']} reused"
        for kind in ("suffixes", "tie tails")))

    space = likes_space(kb, bias)
    pairs = cProfile.Profile()
    with Collections() as pair_collections:
        related = pairs.runcall(pairwise, space, kb)
    runs.append(counters["canonical_runs"])
    print(f"\nLIKES pairwise: {len(space)} rules, {related} of {len(space) ** 2} ordered pairs related")
    print(pair_collections)
    print(f"{'phase':>6} {'more_general':>13} {'by inclusion':>13} {'theories':>9} {'canonical runs':>15}")
    phases = (("edges", stats, [(s.parent, s.child) for s in steps], runs[1] - runs[0]),
              ("pairs", pstats.Stats(pairs), [(a, b) for a in space for b in space], runs[2] - runs[1]))
    for phase, profile, checked, ran in phases:
        made = calls(profile, "hybrid.py", "more_general")
        print(f"{phase:>6} {made:>13} {made - by_subset(checked) - past_fast_path(profile):>13} "
              f"{code_calls(profile, _augmented.__code__):>9} {ran:>15}")

if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: end without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so that the exit flush cannot fail again
        sys.exit(1)
