"""The program and CPython's cyclic garbage collector.

The value layer makes no reference cycle, so importing ``ontorules.model``
raises the collector's young-generation threshold (see its docstring).  Each
test runs in a fresh interpreter, whose collector no earlier test has set.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

NO_CYCLES = '''
import gc, importlib
from collections import Counter
from importlib import resources

from ontorules import learn, parse_bias, parse_examples, parse_kb, parse_rule
from ontorules.hybrid import more_general
from ontorules.refine import canonical_form, refine, seed_rule

LIKES_RULES = ("LIKES(X,Y) :- meets(X,Z,Y).", "LIKES(X,Y) :- meets(X,Z,Y), happy(X).",
               "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z).", "LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z).",
               "LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z).")


def work():
    """Both bundled learning tasks, the LIKES depth-3 walk with more_general
    on every edge, and the criterion-7 LIKES pairwise pass."""
    data = resources.files("ontorules") / "data"
    kb = parse_kb((data / "family.okb").read_text(encoding="utf-8"), "family.okb")
    out = []
    for task in ("loner", "likes"):
        bias = parse_bias((data / f"{task}.obias").read_text(encoding="utf-8"), kb)
        examples = parse_examples((data / f"{task}.oex").read_text(encoding="utf-8"), kb)
        out.append(learn(kb, examples.target, examples, bias))
    seed = seed_rule(examples.target)
    frontier, seen, edges = [seed], {canonical_form(seed)}, 0
    for _ in range(3):
        nxt = []
        for parent in frontier:
            for step in refine(parent, bias, kb.tbox):
                out.append(more_general(parent, step.child, kb))
                edges += 1
                if step.key not in seen:
                    seen.add(step.key)
                    nxt.append(step.child)
        frontier = nxt
    named = [parse_rule(text, kb) for text in LIKES_RULES]
    space = {canonical_form(seed)} | {canonical_form(r) for r in named}
    for rule in (seed, named[0]):
        space.update(canonical_form(s.child) for s in refine(rule, bias, kb.tbox))
    out.append([more_general(a, b, kb) for a in space for b in space])
    assert edges > 20000 and len(space) > 50, (edges, len(space))
    return out


gc.collect()  # what importing left
gc.disable()
results = work()
del results
refine = importlib.import_module("ontorules.refine")
refine._TAILS.clear()
gc.set_debug(gc.DEBUG_SAVEALL)
found = gc.collect()
print(found, sorted(Counter(type(o).__name__ for o in gc.garbage).items()))
'''


def _fresh(code: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter that
    imports the program from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_learning_and_refinement_make_no_reference_cycle():
    """With the collector off, learning both bundled tasks, the LIKES
    depth-3 walk with the generality test on each edge, and the LIKES
    pairwise pass leave no garbage once their results and the tables of
    keys and tails are dropped: reference counting freed it all."""
    found, types = _fresh(NO_CYCLES).split(" ", 1)
    assert found == "0", f"{found} objects in cycles: {types}"


PROBE = "import gc; {before}; t = gc.get_threshold(); import ontorules; print((t, gc.get_threshold(), gc.isenabled()))"


@pytest.mark.parametrize("before, raised, enabled", [
    ("pass", True, True),
    ("gc.set_threshold(0)", False, True),
    ("gc.set_threshold(250_000, 5, 5)", False, True),
    ("gc.disable()", True, False),
])
def test_import_raises_only_the_young_generations_threshold(before, raised, enabled):
    """Importing the program sets the young-generation threshold to 100,000
    and keeps the older two; a threshold of 0 (collection off) or a higher
    one is left alone, and the collector is neither enabled nor disabled."""
    start, after, on = ast.literal_eval(_fresh(PROBE.format(before=before)))
    assert after == ((100_000, *start[1:]) if raised else start)
    assert on is enabled
    if before == "pass" and sys.version_info[:2] == (3, 11):
        assert after == (100_000, 10, 10)  # from CPython's (700, 10, 10)
