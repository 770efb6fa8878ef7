"""Metamorphic tests of the learner and of the ``check`` and ``query``
verdicts: relations that hold by the semantics, checked on inputs too large
for a brute-force oracle.

Renaming the KB's constants by a bijection and listing its facts in another
order change no verdict, so ``learn`` must return the same rules, their
bodies in the same order, the same ``per_rule_stats`` and the uncovered
positives renamed, and ``covers`` and ``entails``, which ``check`` and
``query`` call, the same verdicts on the renamed atoms.  The inputs are the
criterion-8 template KBs
(``genhybrid.template_text``), labelled as ``scripts/scale_ladder.py``
labels its LONER and LIKES ladders.  Predicates are not renamed: the learner
breaks ties by ``str(rule)``.
"""

import importlib.util
import itertools
import json
import random
import re
from pathlib import Path

import pytest

from conftest import data_text
from genhybrid import PLACES, template_text
from ontorules import covers, entails, learn, parse_bias, parse_kb, parse_rule
from ontorules.cli import main
from ontorules.hybrid import Entailment, KBModels
from ontorules.model import Atom, Const, ExampleSet, Var

TASKS = {
    "loner": ("LONER(X) :- famous(X), UNMARRIED(X), not happy(X).", data_text("loner.obias")),
    "likes": ("LIKES(X,Y) :- meets(X,Z,Y), famous(Z).",
              "datalog+ = happy/1, meets/3, famous/1\nconcepts = RICH/1\nroles = LOVES/2, WANTS-TO-MARRY/2\n"),
}
#: A second rule checked per task, through a concept that a datalog rule with
#: a negated literal derives.
CHECKED = {"loner": "LONER(X) :- RICH(X), not happy(X).", "likes": "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z)."}
#: The predicates queried on every person.
QUERIED = ("famous", "scientist", "happy", "RICH", "UNMARRIED", "WANTS-TO-MARRY")
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


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("task", sorted(TASKS))
def test_check_is_invariant_under_renaming_constants_and_reordering_facts(task, n):
    text = template_text(n, seed=n)
    kb = parse_kb(text)
    rules = [parse_rule(TASKS[task][0], kb), parse_rule(CHECKED[task], kb)]
    examples = _labelled(kb, rules[0], n)
    atoms = examples.positives + examples.negatives
    expected = [[covers(kb, rule, a) for a in atoms] for rule in rules]
    assert all(True in verdicts and False in verdicts for verdicts in expected)

    rng = random.Random(f"check-{task}-{n}")
    for _ in range(3):
        variant_text, renaming = _variant(text, n, rng)
        variant = parse_kb(variant_text)
        renamed = [_renamed(a, renaming) for a in atoms]
        assert [[covers(variant, rule, a) for a in renamed] for rule in rules] == expected


@pytest.mark.parametrize("n", [20, 40])
def test_query_is_invariant_under_renaming_constants_and_reordering_facts(n):
    text = template_text(n, seed=n)
    kb = parse_kb(text)
    preds = {p.name: p for p in kb.alphabet}
    people = [Const(f"Person{i}") for i in range(n)]
    # each unary predicate on each person, a role on each person and the
    # next, and each meets fact and its reversal
    atoms = [Atom(preds[name], (p,) if preds[name].arity == 1 else (p, q))
             for name in QUERIED for p, q in zip(people, people[1:] + people[:1])]
    meets = [f for f in kb.facts if f.pred.name == "meets"]
    atoms += meets + [Atom(f.pred, (f.args[1], f.args[0], f.args[2])) for f in meets]
    expected = [entails(kb, (), a) for a in atoms]
    assert set(expected) == {Entailment.ENTAILED, Entailment.NOT_ENTAILED}

    rng = random.Random(f"query-{n}")
    for _ in range(3):
        variant_text, renaming = _variant(text, n, rng)
        variant = parse_kb(variant_text)
        assert [entails(variant, (), _renamed(a, renaming)) for a in atoms] == expected


def _bundled():
    """The benchmark's workload module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _run(capsys, argv: list[str]) -> tuple[int, dict]:
    """The exit code and the JSON report, without its timings, of one call."""
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    del report["timings"]
    return code, report


def test_every_bundled_report_is_invariant_under_duplicating_facts(capsys, tmp_path):
    workloads = _bundled()
    tasks = workloads.bundled_tasks()
    kb = tasks[0]["argv"][tasks[0]["argv"].index("--kb") + 1]
    header, facts = Path(kb).read_text(encoding="utf-8").split("#facts\n")
    doubled = tmp_path / "doubled.okb"
    doubled.write_text(header + "#facts\n" + "".join(f"{line}\n{line}\n" for line in facts.splitlines()))
    assert len(tasks) == 29
    for task in tasks:
        code, report = _run(capsys, task["argv"])
        assert workloads.check_cli_result(task["expect"], code, report) is None, task["name"]
        argv = [str(doubled) if arg == kb else arg for arg in task["argv"]]
        assert _run(capsys, argv) == (code, report), task["name"]


#: Variable names that the bundled rules do not use.
FRESH = tuple(Var(n) for n in ("A", "B", "C", "F", "G", "H", "U", "V", "W", "X1", "Y2", "Z3"))


def _renamed_apart(text: str, kb, fresh) -> str:
    rule = parse_rule(text, kb)
    return str(rule.substitute(dict(zip(sorted(rule.variables(), key=str), fresh))))


@pytest.mark.parametrize("renamed", ["rule1", "rule2", "both"])
def test_compare_is_invariant_under_renaming_variables_apart(capsys, kb, renamed):
    workloads = _bundled()
    tasks = [t for t in workloads.bundled_tasks() if t["argv"][0] == "compare"]
    assert len(tasks) == 9
    rng = random.Random(f"compare-{renamed}")
    for task in tasks:
        for _ in range(24):
            fresh = rng.sample(FRESH, 6)
            argv = list(task["argv"])
            for i, option in enumerate(("--rule1", "--rule2")):
                if renamed in (option[2:], "both"):
                    at = argv.index(option) + 1
                    argv[at] = _renamed_apart(argv[at], kb, fresh[3 * i:3 * i + 3])
            assert workloads.check_cli_result(task["expect"], *_run(capsys, argv)) is None, argv
