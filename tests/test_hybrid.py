import itertools
import random
from collections import Counter

import pytest

from conftest import target_atom
from genhybrid import brute_force_models, null_shape, random_hybrid_kb, template_kb
from ontorules import hybrid, model, parse_rule
from ontorules.datalog import (
    DEFAULT_BRANCH_BUDGET,
    GroundProgram,
    answer_query,
    branch_search,
    ground_program,
    is_stable_model,
)
from ontorules.hybrid import (
    Entailment,
    GeneralityVerdict,
    InconsistentKBError,
    compare,
    covers,
    entails,
    more_general,
    nm_models,
)
from ontorules.model import Atom, Const, HybridKB, Literal, Predicate, Rule, Var, CONCEPT, DATALOG, ROLE
from ontorules.refine import SPECIALIZE_ONTOLOGY, refine, seed_rule
from test_refine import _steps

LONER_EXAMPLES = ["LONER(Mary)", "LONER(Joe)", "LONER(Paul)"]
LIKES_EXAMPLES = ["LIKES(Mary,Italy)", "LIKES(Mary,Germany)", "LIKES(Joe,Italy)"]

LONER_COVERAGE = {"h1": [1, 1, 1], "h2": [1, 1, 0], "h3": [0, 1, 1]}
LIKES_COVERAGE = {"h1": [1, 1, 1], "h2": [1, 1, 0], "h3": [1, 0, 1]}


def test_canonical_model_of_background_kb(kb):
    models = nm_models(kb)
    assert len(models) == 1
    (m,) = models
    names = {str(a) for a in m.guess.true_atoms}
    assert {"RICH(Mary)", "RICH(Paul)"} <= names
    assert "RICH(Joe)" not in names
    dnames = {str(a) for a in m.datalog_model.true_atoms}
    # the forced anonymous suitor for Mary, a null of the chase that wants to
    # marry and so loves her, makes her happy; Joe and Paul stay unhappy
    assert "happy(Mary)" in dnames
    assert "happy(Joe)" not in dnames and "happy(Paul)" not in dnames
    (suitor,) = {a.args[0] for a in m.existentials}
    assert suitor not in kb.constants()
    assert {(a.pred.name, a.args) for a in m.existentials} == {
        ("WANTS-TO-MARRY", (suitor, Const("Mary"))), ("LOVES", (suitor, Const("Mary")))}


def test_nm_models_verify_stability(kb):
    for m in nm_models(kb):
        naf_preds = {
            l.atom.pred
            for r in kb.rules
            for l in r.body
            if l.negated
        }
        assert naf_preds  # the background program does use NAF
        # datalog part restricted to datalog-headed reduced rules is stable
        assert m.datalog_model.true_atoms >= set(kb.facts)


def test_empty_dl_part_reduces_to_stable_models():
    p = Predicate("p", 1, DATALOG)
    q = Predicate("q", 1, DATALOG)
    c = Const("c")
    kb = HybridKB(
        rules=(Rule(Atom(q, (c,)), (Literal(Atom(p, (c,))),)),),
        facts=(Atom(p, (c,)),),
        alphabet=(p, q),
    )
    models = nm_models(kb)
    assert len(models) == 1
    assert models[0].guess.true_atoms == frozenset()
    assert {str(a) for a in models[0].datalog_model.true_atoms} == {"p(c)", "q(c)"}


def test_odd_loop_kb_has_no_models():
    p = Predicate("p", 1, DATALOG)
    c = Const("c")
    kb = HybridKB(
        rules=(Rule(Atom(p, (c,)), (Literal(Atom(p, (c,)), True),)),),
        alphabet=(p,),
    )
    assert nm_models(kb) == []
    assert entails(kb, (), Atom(p, (c,))) is Entailment.INCONSISTENT


def test_entailment_basics(kb):
    def q(text):
        from ontorules import parse_ground_atom

        return entails(kb, (), parse_ground_atom(text, kb))

    assert q("famous(Mary)") is Entailment.ENTAILED
    assert q("RICH(Mary)") is Entailment.ENTAILED
    assert q("RICH(Joe)") is Entailment.NOT_ENTAILED
    assert q("happy(Mary)") is Entailment.ENTAILED
    assert q("happy(Paul)") is Entailment.NOT_ENTAILED


@pytest.mark.parametrize("name", ["h1", "h2", "h3"])
def test_loner_coverage_rows(kb, loner_rules, name):
    h = loner_rules[name]
    row = [int(covers(kb, h, target_atom(kb, h, e))) for e in LONER_EXAMPLES]
    assert row == LONER_COVERAGE[name]


@pytest.mark.parametrize("name", ["h1", "h2", "h3"])
def test_likes_coverage_rows(kb, likes_rules, name):
    h = likes_rules[name]
    row = [int(covers(kb, h, target_atom(kb, h, e))) for e in LIKES_EXAMPLES]
    assert row == LIKES_COVERAGE[name]


def test_covers_rejects_wrong_predicate(kb, loner_rules, likes_rules):
    from ontorules.model import ModelError

    with pytest.raises(ModelError):
        covers(kb, loner_rules["h1"], target_atom(kb, likes_rules["h1"], "LIKES(Mary,Italy)"))


def test_covers_raises_on_inconsistent_theory():
    p = Predicate("p", 1, DATALOG)
    t = Predicate("T", 1, "concept")
    c = Const("c")
    kb = HybridKB(
        rules=(Rule(Atom(p, (c,)), (Literal(Atom(p, (c,)), True),)),),
        alphabet=(p, t),
    )
    rule = Rule(Atom(t, (c,)))
    with pytest.raises(InconsistentKBError):
        covers(kb, rule, Atom(t, (c,)))


def test_loner_generality(kb, loner_rules):
    h1, h2, h3 = (loner_rules[k] for k in ("h1", "h2", "h3"))
    assert compare(h1, h2, kb) is GeneralityVerdict.STRICTLY_MORE_GENERAL
    assert compare(h1, h3, kb) is GeneralityVerdict.STRICTLY_MORE_GENERAL
    assert compare(h2, h3, kb) is GeneralityVerdict.INCOMPARABLE
    assert compare(h2, h1, kb) is GeneralityVerdict.STRICTLY_LESS_GENERAL


def test_likes_generality(kb, likes_rules):
    h = likes_rules
    assert compare(h["h1"], h["h2"], kb) is GeneralityVerdict.STRICTLY_MORE_GENERAL
    assert compare(h["h1"], h["h3"], kb) is GeneralityVerdict.STRICTLY_MORE_GENERAL
    assert compare(h["h2"], h["h3"], kb) is GeneralityVerdict.INCOMPARABLE
    assert compare(h["h1"], h["h4"], kb) is GeneralityVerdict.STRICTLY_MORE_GENERAL
    assert compare(h["h1"], h["h5"], kb) is GeneralityVerdict.STRICTLY_MORE_GENERAL
    assert compare(h["h4"], h["h5"], kb) is GeneralityVerdict.STRICTLY_MORE_GENERAL


def test_reflexivity(kb, loner_rules, likes_rules):
    for h in list(loner_rules.values()) + list(likes_rules.values()):
        assert more_general(h, h, kb)
        assert compare(h, h, kb) is GeneralityVerdict.EQUIVALENT


def test_add_literal_edges_and_reflexivity_need_no_skolemization(kb, likes_bias, monkeypatch):
    def no_skolemize(*args):
        raise AssertionError("skolemize called")

    monkeypatch.setattr(model, "skolemize", no_skolemize)
    frontier, edges = [seed_rule(Predicate("LIKES", 2, ROLE))], 0
    for _ in range(2):
        steps = [s for parent in frontier for s in refine(parent, likes_bias, kb.tbox)]
        for s in steps:
            if s.rule_applied != SPECIALIZE_ONTOLOGY:
                assert more_general(s.parent, s.child, kb), str(s.child)
                edges += 1
        frontier = [s.child for s in steps]
    assert edges == 324
    for text in (
        "LIKES(X,Y) :- meets(X,Mary,Y), not happy(X).",
        "LONER(X) :- famous(X), not happy(X), not famous(Paul).",
    ):
        h = parse_rule(text, kb)
        assert more_general(h, h, kb)


def test_every_walk_edge_is_general_by_prefix_and_by_set(kb, loner_bias, likes_bias):
    # an added-literal child extends its parent's body tuple, so the fast path
    # matches a prefix; with the new literal moved to the front it must match
    # the same pairs as sets
    prefix = 0
    for target, bias, edges in ((Predicate("LONER", 1, CONCEPT), loner_bias, 4),
                                (Predicate("LIKES", 2, ROLE), likes_bias, 324)):
        steps = _steps(seed_rule(target), bias, kb.tbox, 2)
        assert len(steps) == edges
        for s in steps:
            parent, child = s.parent, s.child
            moved = Rule(child.head, child.body[-1:] + child.body[:-1])
            assert more_general(parent, child, kb), str(child)
            assert more_general(parent, moved, kb), str(moved)
            n = len(parent.body)
            if s.rule_applied != SPECIALIZE_ONTOLOGY and n:
                assert child.body[:n] == parent.body and moved.body[:n] != parent.body
                prefix += 1
    assert prefix == 3 + 318


@pytest.mark.parametrize("general, special", [
    ("LIKES(X,Y) :- meets(X,Z,Y).", "LIKES(Y,X) :- meets(X,Z,Y)."),
    ("LONER(X) :- famous(X), not happy(X).", "LONER(X) :- famous(X), happy(X)."),
    ("LONER(X) :- famous(X), happy(X).", "LONER(X) :- famous(X), not happy(X)."),
])
def test_body_subset_with_other_head_or_polarity_is_not_more_general(kb, general, special):
    assert not more_general(parse_rule(general, kb), parse_rule(special, kb), kb)


def test_generality_preserves_coverage_downward(kb, loner_rules, likes_rules):
    # if h_gen is more general than h_spec, everything h_spec covers h_gen covers
    groups = [(loner_rules, LONER_EXAMPLES), (likes_rules, LIKES_EXAMPLES)]
    for rules, examples in groups:
        for g in rules.values():
            for s in rules.values():
                if not more_general(g, s, kb):
                    continue
                for e in examples:
                    if covers(kb, s, target_atom(kb, s, e)):
                        assert covers(kb, g, target_atom(kb, g, e))


def test_entails_agrees_with_datalog_engine_without_dl():
    p = Predicate("p", 1, DATALOG)
    q = Predicate("q", 1, DATALOG)
    a, b = Const("a"), Const("b")
    kb = HybridKB(
        rules=(Rule(Atom(q, (a,)), (Literal(Atom(p, (a,))), Literal(Atom(q, (b,)), True))),),
        facts=(Atom(p, (a,)),),
        alphabet=(p, q),
    )
    prog = ground_program(kb.rules, frozenset(kb.facts), kb.constants())
    for atom in [Atom(q, (a,)), Atom(q, (b,)), Atom(p, (a,)), Atom(p, (b,))]:
        certain = bool(answer_query(prog, (Literal(atom),)))
        assert (entails(kb, (), atom) is Entailment.ENTAILED) == certain


def test_nm_models_agree_with_brute_force_checker(monkeypatch):
    settled = []

    def observed(naf_atoms, least_model):
        runs = []

        def counted(truth):
            runs.append(truth)
            return least_model(truth)

        found = branch_search(naf_atoms, counted)
        # the iteration takes at most |naf|+1 runs; enumeration adds 2^|naf|
        settled.append(len(runs) <= len(naf_atoms) + 1)
        return found

    monkeypatch.setattr(hybrid, "branch_search", observed)
    for seed in range(300):
        kb = random_hybrid_kb(random.Random(seed))
        got = {
            (
                m.datalog_model.true_atoms,
                m.guess.true_atoms,
                null_shape(m.existentials, kb.constants()),
            )
            for m in nm_models(kb)
        }
        assert got == brute_force_models(kb), f"seed {seed}"
    assert set(settled) == {True, False}  # both the iteration and the enumeration were checked


def test_stratified_kb_past_the_branch_budget_has_one_model():
    # the criterion-8 template over 40 people: one negated scientist(p) per
    # famous p, more than the branch budget, but stratified, so the iteration
    # settles on the one model
    kb = template_kb(40, seed=40)
    assert sum(f.pred.name == "famous" for f in kb.facts) > DEFAULT_BRANCH_BUDGET
    assert len(nm_models(kb)) == 1


def test_nm_models_agree_with_brute_force_checker_on_shared_open_variables():
    """Rules whose ontology atoms share an open variable: one named constant
    or one null of the chase must meet them all."""
    for seed in range(300):
        kb = random_hybrid_kb(random.Random(seed), shared=True)
        got = {
            (
                m.datalog_model.true_atoms,
                m.guess.true_atoms,
                null_shape(m.existentials, kb.constants()),
            )
            for m in nm_models(kb)
        }
        assert got == brute_force_models(kb), f"seed {seed}"


def _reference_open_satisfied(open_atoms, gtrue, nulls, elements):
    """Open ontology atoms matched, per connected component of shared
    variables, by a product over ``elements``, the named domain and the
    nulls, into the named and the null role atoms."""
    if not open_atoms:
        return True
    true = gtrue | nulls
    comps = []
    for a in open_atoms:
        vs = set(a.variables())
        merged = [a]
        rest = []
        for comp in comps:
            if vs & {v for x in comp for v in x.variables()}:
                merged.extend(comp)
            else:
                rest.append(comp)
        comps = rest + [merged]
    for comp in comps:
        comp_vars = tuple(dict.fromkeys(v for a in comp for v in a.variables()))
        if not any(
            all(a.substitute(dict(zip(comp_vars, combo))) in true for a in comp)
            for combo in itertools.product(elements, repeat=len(comp_vars))
        ):
            return False
    return True


def test_open_satisfied_agrees_with_the_product_matcher():
    """Named atoms and null role atoms, each null with one or two roles at
    one anchor, against open atoms that may share a variable."""
    concepts = [Predicate(n, 1, CONCEPT) for n in "AB"]
    roles = [Predicate(n, 2, ROLE) for n in "RS"]
    names = [Const(n) for n in "abcd"]
    variables = [Var(n) for n in "YZW"]
    verdicts = Counter()
    for seed in range(2000):
        rng = random.Random(seed)
        gtrue = {Atom(rng.choice(concepts), (rng.choice(names),)) for _ in range(rng.randint(0, 4))}
        gtrue |= {Atom(rng.choice(roles), (rng.choice(names), rng.choice(names))) for _ in range(rng.randint(0, 10))}
        domain = tuple(sorted(rng.sample(names, rng.randint(1, 4))))
        nulls = set()
        fillers = [Const(f"_:{i}") for i in range(rng.randint(0, 3))]
        for null in fillers:
            anchor = rng.choice(domain)
            args = (null, anchor) if rng.random() < 0.5 else (anchor, null)
            nulls |= {Atom(r, args) for r in rng.sample(roles, rng.randint(1, 2))}
        atoms = []
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(variables)
            if rng.random() < 0.3:
                atoms.append(Atom(rng.choice(concepts), (v,)))
            else:
                other = rng.choice(names + variables)
                atoms.append(Atom(rng.choice(roles), (v, other) if rng.random() < 0.5 else (other, v)))
        atoms = tuple(dict.fromkeys(atoms))
        members = domain + tuple(fillers)
        want = _reference_open_satisfied(atoms, gtrue, nulls, members)
        assert hybrid._open_satisfied(atoms, hybrid._index(gtrue, nulls), frozenset(members)) == want, seed
        verdicts[want, len({v for a in atoms for v in a.variables()}) < sum(len(a.variables()) for a in atoms)] += 1
    assert min(verdicts.values()) >= 50, verdicts  # both verdicts, with and without a shared variable
