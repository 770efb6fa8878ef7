"""Differential tests: coverage as a query over the KB's canonical models
(`KBModels`) against full entailment over the models of KB + rule (`covers`)."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import target_atom
from genhybrid import (
    CONCEPTS, D, E, IDB, ROLES, X, Y, brute_force_covered, brute_force_models, random_body, random_hybrid_kb,
)
from ontorules import parse_bias, parse_kb, parse_rule
from ontorules.hybrid import InconsistentKBError, KBModels, covers
from ontorules.learner import choose_best, gain, learn
from ontorules.model import (
    Atom, BudgetError, Const, ExampleSet, LanguageBias, ModelError, Predicate, Rule,
    CONCEPT, DEFAULT_GROUNDING_BUDGET, ROLE,
)
from ontorules.refine import refine, seed_rule
from test_acceptance import LIKES_EXAMPLES, LONER_EXAMPLES, _random_kb_from_template

LONER = Predicate("LONER", 1, CONCEPT)
LONER_BIAS = "datalog+ = famous/1\ndatalog- = happy/1\nconcepts = RICH/1, UNMARRIED/1\n"


def _space(kb, bias, target, depth):
    """The seed and every child generated by `depth` rounds of refinement."""
    rules = [seed_rule(target)]
    frontier = list(rules)
    for _ in range(depth):
        frontier = [s.child for parent in frontier for s in refine(parent, bias, kb.tbox)]
        rules += frontier
    return rules


def _disagreements(kb, rules, examples):
    models = KBModels(kb, rules[0].head.pred)
    bad = []
    for rule in rules:
        oracle = frozenset(e for e in examples if covers(kb, rule, e))
        if models.covered(rule, examples) != oracle:
            bad.append(rule)
    return bad


@pytest.mark.parametrize("task, depth, checks", [("loner", 3, 33), ("likes", 2, 975)])
def test_bundled_spaces_agree_with_covers(kb, loner_bias, likes_bias, loner_rules, likes_rules,
                                          task, depth, checks):
    bias, named, texts = {
        "loner": (loner_bias, loner_rules, LONER_EXAMPLES),
        "likes": (likes_bias, likes_rules, LIKES_EXAMPLES),
    }[task]
    rule = named["h1"]
    examples = [target_atom(kb, rule, t) for t in texts]
    rules = _space(kb, bias, rule.head.pred, depth)
    assert len(rules) * len(examples) == checks
    assert _disagreements(kb, rules, examples) == []


def test_random_template_kbs_agree_with_covers():
    rng = random.Random(42)
    for _ in range(3):
        rkb, people = _random_kb_from_template(rng)
        bias = parse_bias(LONER_BIAS, rkb)
        examples = [Atom(LONER, (Const(p),)) for p in people]
        assert _disagreements(rkb, _space(rkb, bias, LONER, 2), examples) == []


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from((LONER, Predicate("LIKES", 2, ROLE))),
    st.sets(st.sampled_from(CONCEPTS)),
    st.sets(st.sampled_from(ROLES)),
    st.sets(st.sampled_from((D, E, *IDB))),
    st.sets(st.sampled_from((D, *IDB))),
)
def test_a_child_covers_a_subset_of_what_its_parent_covers(seed, target, concepts, roles, pos, neg):
    """The learner evaluates a child only on the examples its parent covers;
    that holds as long as every refinement move specializes."""
    kb = random_hybrid_kb(random.Random(seed))
    bias = LanguageBias(frozenset(concepts), frozenset(roles), frozenset(pos), frozenset(neg))
    examples = [Atom(target, args) for args in itertools.product(sorted(kb.constants()), repeat=target.arity)]
    models = KBModels(kb, target)
    try:
        frontier = [(seed_rule(target), models.covered(seed_rule(target), examples))]
    except InconsistentKBError:
        return
    for _ in range(2):
        nxt = []
        for parent, covered in frontier:
            for step in refine(parent, bias, kb.tbox):
                child = models.covered(step.child, examples)
                assert child <= covered, (parent, step.child)
                nxt.append((step.child, child))
        frontier = nxt


def test_example_constant_absent_from_kb(kb, loner_rules):
    stranger = Atom(LONER, (Const("Zoe"),))
    rules = [seed_rule(LONER), *loner_rules.values()]
    assert [covers(kb, r, stranger) for r in rules] == [True, False, False, False]
    assert _disagreements(kb, rules, [stranger]) == []


def test_a_variable_only_under_negation_ranges_over_an_absent_example_constant():
    # every KB constant is a d, so only z, which the KB lacks, makes not d(Y)
    # true: Y ranges over the example's constants, which no model atom holds
    kb = parse_kb("pred d/1.\npred e/1.\n#facts\nd(a).\nd(b).\ne(a).\n")
    rules = [parse_rule(text, kb) for text in ("T(X) :- not d(Y).", "T(X) :- e(X), not d(Y).")]
    examples = [Atom(rules[0].head.pred, (Const(c),)) for c in "abz"]
    assert [[covers(kb, r, e) for e in examples] for r in rules] == [[False, False, True], [False, False, False]]
    assert _disagreements(kb, rules, examples) == []


def test_open_variable_met_only_by_anonymous_witness(kb):
    # Mary is RICH and UNMARRIED, so the TBox forces an unnamed suitor;
    # Paul is RICH but married, and nobody is a named WANTS-TO-MARRY filler
    rule = parse_rule("LONER(X) :- famous(X), WANTS-TO-MARRY(Y,X).", kb)
    examples = [target_atom(kb, rule, t) for t in LONER_EXAMPLES]
    assert [covers(kb, rule, e) for e in examples] == [True, False, False]
    assert _disagreements(kb, [rule], examples) == []


def test_target_already_in_kb_is_rejected(kb, loner_bias):
    rich = Predicate("RICH", 1, CONCEPT)
    examples = ExampleSet(rich, (Atom(rich, (Const("Mary"),)),), (Atom(rich, (Const("Joe"),)),))
    rule = parse_rule("RICH(X) :- famous(X).", kb)
    with pytest.raises(ModelError, match="already occurs"):
        KBModels(kb, rich)
    with pytest.raises(ModelError, match="already occurs"):
        learn(kb, rich, examples, loner_bias)
    with pytest.raises(ModelError, match="already occurs"):
        gain(rule, seed_rule(rich), kb, examples)
    with pytest.raises(ModelError, match="already occurs"):
        choose_best([rule], seed_rule(rich), kb, examples)


def test_recursive_rule_is_rejected(kb):
    rule = parse_rule("LONER(X) :- famous(X), LONER(X).", kb)
    with pytest.raises(ModelError, match="non-recursively"):
        KBModels(kb, LONER).covered(rule, [])


def test_inconsistent_kb():
    kb = parse_kb("pred p/1.\npred q/1.\n#rules\np(X) :- q(X), not p(X).\n#facts\nq(a).\n")
    target = Predicate("T", 1, CONCEPT)
    rule = parse_rule("T(X) :- q(X).", kb)
    with pytest.raises(InconsistentKBError):
        KBModels(kb, target).covered(rule, [Atom(target, (Const("a"),))])
    examples = ExampleSet(target, (Atom(target, (Const("a"),)),), ())
    bias = parse_bias("datalog+ = q/1\n", kb)
    with pytest.raises(InconsistentKBError):
        learn(kb, target, examples, bias)


def test_kb_models_cover_what_the_brute_force_models_cover():
    """`KBModels.covered` against the brute-force models, which share no code
    with the hybrid reasoner: `covers` and `covered` both match open atoms
    with `_open_satisfied`, so the differentials above cannot see a fault in
    it."""
    concept, role = Predicate("T", 1, CONCEPT), Predicate("U", 2, ROLE)
    stranger = Const("z")
    verdicts = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        kb = random_hybrid_kb(rng, shared=rng.random() < 0.5)
        consts = sorted(kb.constants())
        body, bound = random_body(rng, [Const(f"c{i}") for i in range(3)], shared=rng.random() < 0.7)
        body = body[:1 + (Y in bound)] + [l for l in body[1 + (Y in bound):] if rng.random() < 0.6]
        if Y in bound and rng.random() < 0.5:
            rule = Rule(Atom(role, (X, Y)), tuple(body))
            examples = [Atom(role, args) for args in itertools.product(consts + [stranger], repeat=2)]
        else:
            rule = Rule(Atom(concept, (X,)), tuple(body))
            examples = [Atom(concept, (c,)) for c in consts + [stranger]]
        want = brute_force_covered(kb, rule, examples)
        if not brute_force_models(kb):
            with pytest.raises(InconsistentKBError):
                KBModels(kb, rule.head.pred).covered(rule, examples)
            continue
        assert KBModels(kb, rule.head.pred).covered(rule, examples) == want, seed
        opened = any(l.atom.pred.is_dl and not set(l.atom.variables()) <= bound for l in rule.body)
        verdicts.update((e in want, opened) for e in examples)
    assert min(verdicts.values()) >= 30, verdicts  # examples covered or not, by rules with open atoms or without


def test_a_join_past_the_grounding_budget_is_decided():
    """Four variables beyond the head over 40 constants are 2.56 M groundings,
    past the grounding budget; the body's literals bind them all, so the join
    decides from the facts, and only a variable that no positive literal binds
    still counts against the budget."""
    nodes = [f"n{i}" for i in range(40)]
    facts = [f"e({a},{b})." for a, b in zip(nodes, nodes[1:])] + ["f(n4)."]
    kb = parse_kb("pred e/2.\npred f/1.\n#facts\n" + "\n".join(facts) + "\n")
    target = Predicate("T", 1, CONCEPT)
    rule = parse_rule("T(X) :- e(X,Y), e(Y,Z), e(Z,V), e(V,W), f(W).", kb.with_predicate(target))
    examples = [Atom(target, (Const(p),)) for p in nodes]
    assert len(kb.constants()) ** 4 > DEFAULT_GROUNDING_BUDGET
    # the independent verdict: the nodes four e-steps before an f
    edges = dict(zip(nodes, nodes[1:]))
    walk = {}
    for p in nodes:
        q = p
        for _ in range(4):
            q = edges.get(q)
        walk[p] = q
    want = frozenset(Atom(target, (Const(p),)) for p in nodes if walk[p] == "n4")
    assert want == {Atom(target, (Const("n0"),))}
    assert KBModels(kb, target).covered(rule, examples) == want
    unbound = parse_rule("T(X) :- e(X,Y), not e(Y,Z), not e(Z,V), not e(V,W), not e(W,U).", kb.with_predicate(target))
    with pytest.raises(BudgetError, match=f"grounding exceeded the budget of {DEFAULT_GROUNDING_BUDGET} instances"):
        KBModels(kb, target).covered(unbound, examples)
