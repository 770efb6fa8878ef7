import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from genprog import brute_force_stable_models, random_ground_program
from ontorules.datalog import (
    GroundProgram,
    InconsistentProgramError,
    Interpretation,
    answer_query,
    ground_program,
    is_stable_model,
    stable_models,
)
from ontorules.model import Atom, Const, Literal, Predicate, Rule, DATALOG, Var

p = Atom(Predicate("p", 1, DATALOG), (Const("c"),))
q = Atom(Predicate("q", 1, DATALOG), (Const("c"),))


def _prog(rules, facts=()):
    return GroundProgram(tuple(rules), frozenset(facts))


def test_naf_free_least_model():
    prog = _prog([Rule(q, (Literal(p),))], [p])
    (m,) = stable_models(prog)
    assert m.true_atoms == {p, q}


def test_odd_loop_has_no_model():
    prog = _prog([Rule(p, (Literal(p, True),))])
    assert stable_models(prog) == []


def test_even_loop_two_models():
    prog = _prog([Rule(p, (Literal(q, True),)), Rule(q, (Literal(p, True),))])
    models = {m.true_atoms for m in stable_models(prog)}
    assert models == {frozenset({p}), frozenset({q})}


def test_is_stable_model_oracle_cases():
    prog = _prog([Rule(p, (Literal(q, True),))])
    assert is_stable_model(prog, Interpretation(frozenset({p})))
    assert not is_stable_model(prog, Interpretation(frozenset({q})))
    loop = _prog([Rule(p, (Literal(p),))])
    assert not is_stable_model(loop, Interpretation(frozenset({p})))
    assert is_stable_model(loop, Interpretation(frozenset()))


def test_unfounded_positive_loop():
    a = Atom(Predicate("a", 1, DATALOG), (Const("c"),))
    prog = _prog([Rule(p, (Literal(a),)), Rule(a, (Literal(p),))])
    (m,) = stable_models(prog)
    assert m.true_atoms == frozenset()


def test_grounding_counts(kb):
    # wealth rule recast with a datalog head, over the KB's 5 constants
    X = Var("X")
    rich = Predicate("rich", 1, DATALOG)
    r1 = Rule(
        Atom(rich, (X,)),
        (
            Literal(Atom(kb.predicate("famous"), (X,))),
            Literal(Atom(kb.predicate("scientist"), (X,)), True),
        ),
    )
    prog = ground_program((r1,), frozenset(kb.facts), kb.constants())
    # extensional pruning keeps only instances whose famous-atom is a fact
    assert len(prog.rules) == 3
    (m,) = stable_models(prog)
    derived = {str(a) for a in m.true_atoms if a.pred == rich}
    assert derived == {"rich(Mary)", "rich(Paul)"}


X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = Const("a"), Const("b")


def test_ground_program_counts_and_order():
    # q heads the rule, so no literal is joined and nothing is pruned
    Q = Predicate("q", 2, DATALOG)
    r = Rule(Atom(Q, (X, Y)), (Literal(Atom(Q, (Y, X))),))
    prog = ground_program((r,), frozenset(), {b, a})
    assert all(g.is_ground() for g in prog.rules)
    assert [g.head.args for g in prog.rules] == [(a, a), (a, b), (b, a), (b, b)]


@given(st.sets(st.sampled_from([a, b, Const("c")]), min_size=1), st.integers(1, 3))
def test_ground_program_cardinality_property(consts, nvars):
    P = Predicate("p", 1, DATALOG)
    vs = (X, Y, Z)[:nvars]
    r = Rule(Atom(P, (vs[0],)), tuple(Literal(Atom(P, (v,))) for v in vs))
    prog = ground_program((r,), frozenset(), consts)
    assert len(prog.rules) == len(consts) ** nvars
    # lexicographic by the constants of the variables in order of first occurrence
    assert list(prog.rules) == [
        r.substitute(dict(zip(vs, combo))) for combo in itertools.product(sorted(consts), repeat=nvars)]


_HASH_PROBE = """
from ontorules.datalog import answer_query, ground_program
from ontorules.parser import parse_kb, parse_rule
facts = "".join(f"edge(n{i},n{(i * 7 + 3) % 12}).\\nedge(n{i},n{(i * 5 + 1) % 12}).\\nnode(n{i}).\\n"
                for i in range(12))
kb = parse_kb("pred edge/2. pred node/1. pred path/2. pred far/2.\\n#rules\\n"
              "path(X,Y) :- edge(X,Y).\\npath(X,Z) :- edge(X,Y), path(Y,Z).\\n"
              "far(X,Y) :- node(X), node(Y), not path(X,Y).\\n#facts\\n" + facts)
prog = ground_program(kb.rules, frozenset(kb.facts), kb.constants())
print([str(r) for r in prog.rules])
for query in ("path(X,Y)", "edge(X,Y), path(Y,X)", "node(X), not path(X,Y)", "far(n0,Y)"):
    body = parse_rule("q(X) :- " + query + ".", kb.with_predicate(prog.rules[0].head.pred)).body
    print(answer_query(prog, body))
"""


def test_grounding_and_answers_do_not_depend_on_string_hashing():
    """The join walks an index of the facts, whose order follows the hashes
    of the constants' names; the instances and answers come out in product
    order all the same."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _HASH_PROBE], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_query_answering(kb):
    prog = ground_program((), frozenset(kb.facts), kb.constants())
    X, Z = Var("X"), Var("Z")
    famous = kb.predicate("famous")
    answers = answer_query(prog, (Literal(Atom(famous, (X,))),))
    assert {t[X].name for t in answers} == {"Mary", "Paul", "Joe"}
    meets = kb.predicate("meets")
    qy = (Literal(Atom(meets, (Const("Mary"), Z, Const("Italy")))),)
    answers = answer_query(prog, qy)
    assert [t[Z].name for t in answers] == ["Paul"]


def test_query_on_inconsistent_program_raises():
    prog = _prog([Rule(p, (Literal(p, True),))])
    with pytest.raises(InconsistentProgramError):
        answer_query(prog, (Literal(p),))


def test_random_programs_match_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        prog = random_ground_program(rng, max_atoms=8)
        got = {m.true_atoms for m in stable_models(prog)}
        assert got == brute_force_stable_models(prog)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_every_returned_model_is_stable(seed):
    prog = random_ground_program(random.Random(seed), max_atoms=9)
    for m in stable_models(prog):
        assert is_stable_model(prog, m)


def test_is_stable_model_holds_exactly_of_the_brute_force_models():
    """Both directions over every interpretation of the Herbrand base:
    ``is_stable_model`` accepts exactly the oracle's stable models."""
    rng = random.Random(31)
    for _ in range(40):
        prog = random_ground_program(rng, max_atoms=8)
        stable = brute_force_stable_models(prog)
        base = sorted(prog.herbrand_base(), key=str)
        for bits in itertools.product((False, True), repeat=len(base)):
            interp = frozenset(a for a, b in zip(base, bits) if b)
            assert is_stable_model(prog, Interpretation(interp)) == (interp in stable), sorted(map(str, interp))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_fact_monotonicity_naf_free(seed):
    rng = random.Random(seed)
    prog = random_ground_program(rng, max_atoms=8)
    positive_rules = tuple(
        Rule(r.head, tuple(l for l in r.body if not l.negated)) for r in prog.rules
    )
    base = sorted(prog.herbrand_base(), key=str)
    smaller = GroundProgram(positive_rules, prog.facts)
    bigger = GroundProgram(positive_rules, prog.facts | {rng.choice(base)})
    (m1,), (m2,) = stable_models(smaller), stable_models(bigger)
    assert m1.true_atoms <= m2.true_atoms
