"""Metamorphic tests of the learner: relations that hold by the semantics,
checked on inputs too large for a brute-force oracle.

Renaming the KB's constants by a bijection and listing its facts in another
order change no verdict, so ``learn`` must return the same rules, their
bodies in the same order, the same ``per_rule_stats`` and the uncovered
positives renamed.  The inputs are the criterion-8 template KBs
(``genhybrid.template_text``), labelled as ``scripts/scale_ladder.py``
labels its LONER and LIKES ladders.  Predicates are not renamed: the learner
breaks ties by ``str(rule)``.
"""

import itertools
import random
import re

import pytest

from conftest import data_text
from genhybrid import PLACES, template_text
from ontorules import learn, parse_bias, parse_kb, parse_rule
from ontorules.hybrid import KBModels
from ontorules.model import Atom, Const, ExampleSet

TASKS = {
    "loner": ("LONER(X) :- famous(X), UNMARRIED(X), not happy(X).", data_text("loner.obias")),
    "likes": ("LIKES(X,Y) :- meets(X,Z,Y), famous(Z).",
              "datalog+ = happy/1, meets/3, famous/1\nconcepts = RICH/1\nroles = LOVES/2, WANTS-TO-MARRY/2\n"),
}
NAME = re.compile(r"\b(?:Person\d+|" + "|".join(PLACES) + r")\b")


def _labelled(kb, rule, n: int) -> ExampleSet:
    """The examples of ``scale_ladder.examples``: the candidates that the
    labelling rule covers, and the others (for a pair target, the first
    2 x |positives| of them, people first)."""
    people = [Const(f"Person{i}") for i in range(n)]
    if rule.head.pred.arity == 1:
        candidates = [Atom(rule.head.pred, (p,)) for p in people]
    else:
        candidates = [Atom(rule.head.pred, pair) for pair in itertools.product(people, map(Const, PLACES))]
    positives = KBModels(kb, rule.head.pred).covered(rule, candidates)
    others = [a for a in candidates if a not in positives]
    if rule.head.pred.arity == 2:
        others = others[: 2 * len(positives)]
    return ExampleSet(rule.head.pred, tuple(a for a in candidates if a in positives), tuple(others))


def _variant(text: str, n: int, rng: random.Random) -> tuple[str, dict[str, str]]:
    """``text`` with each of the ``n`` people and every place renamed by a
    random bijection to fresh names, which also shuffles their sorted order,
    and its fact lines shuffled; and the renaming."""
    names = [f"Person{i}" for i in range(n)] + list(PLACES)
    fresh = [f"Ind{k}" for k in rng.sample(range(10 * len(names)), len(names))]
    renaming = dict(zip(names, fresh))
    header, facts = text.split("#facts\n")
    lines = NAME.sub(lambda m: renaming[m[0]], facts).splitlines()
    rng.shuffle(lines)
    return header + "#facts\n" + "\n".join(lines) + "\n", renaming


def _renamed(atom: Atom, renaming: dict[str, str]) -> Atom:
    return Atom(atom.pred, tuple(Const(renaming[c.name]) for c in atom.args))


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("task", sorted(TASKS))
def test_learn_is_invariant_under_renaming_constants_and_reordering_facts(task, n):
    rule_text, bias_text = TASKS[task]
    text = template_text(n, seed=n)
    kb = parse_kb(text)
    rule = parse_rule(rule_text, kb)
    examples = _labelled(kb, rule, n)
    expected = learn(kb, rule.head.pred, examples, parse_bias(bias_text, kb))
    assert expected.rules == (rule,)  # the labelling rule is learned back

    rng = random.Random(f"{task}-{n}")
    for _ in range(5):
        variant_text, renaming = _variant(text, n, rng)
        variant = parse_kb(variant_text)
        renamed = ExampleSet(
            examples.target,
            tuple(_renamed(a, renaming) for a in examples.positives),
            tuple(_renamed(a, renaming) for a in examples.negatives),
        )
        got = learn(variant, rule.head.pred, renamed, parse_bias(bias_text, variant))
        assert list(map(str, got.rules)) == list(map(str, expected.rules))  # body order included
        assert got.per_rule_stats == expected.per_rule_stats
        assert got.uncovered_positives == tuple(_renamed(a, renaming) for a in expected.uncovered_positives)
