import sys

import pytest

from ontorules import parse_rule
from ontorules.model import ModelError, Predicate, CONCEPT, DATALOG, ROLE, is_linked, validate_safeness
from ontorules.refine import (
    ADD_DATALOG,
    ADD_NEGATED_DATALOG,
    ADD_ONTOLOGY,
    SPECIALIZE_ONTOLOGY,
    canonical_form,
    in_language,
    refine,
    seed_rule,
)


def _children(steps):
    return {canonical_form(s.child) for s in steps}


def _by_label(steps, label):
    return {canonical_form(s.child) for s in steps if s.rule_applied == label}


def test_seed_rules(kb):
    loner = seed_rule(Predicate("LONER", 1, CONCEPT))
    assert str(loner) == "LONER(X)."
    likes = seed_rule(Predicate("LIKES", 2, ROLE))
    assert str(likes) == "LIKES(X,Y)."
    with pytest.raises(ModelError):
        seed_rule(Predicate("p", 1, DATALOG))


def test_refine_loner_seed(kb, loner_bias, loner_rules):
    steps = refine(seed_rule(loner_rules["h1"].head.pred), loner_bias, kb.tbox)
    assert _children(steps) == {canonical_form(loner_rules["h1"])}
    assert all(s.rule_applied == ADD_DATALOG for s in steps)


def test_refine_h1_loner(kb, loner_bias, loner_rules):
    steps = refine(loner_rules["h1"], loner_bias, kb.tbox)
    kids = _children(steps)
    assert canonical_form(loner_rules["h2"]) in _by_label(steps, ADD_ONTOLOGY)
    assert canonical_form(loner_rules["h3"]) in _by_label(steps, ADD_NEGATED_DATALOG)
    assert not _by_label(steps, ADD_DATALOG)  # famous(X) is already there
    assert not _by_label(steps, SPECIALIZE_ONTOLOGY)
    assert len(kids) == len(steps)  # no duplicates modulo renaming


def test_refine_h1_likes_contains_named_specializations(kb, likes_bias, likes_rules):
    steps = refine(likes_rules["h1"], likes_bias, kb.tbox)
    kids = _children(steps)
    for name in ("h2", "h3", "h4", "h5"):
        assert canonical_form(likes_rules[name]) in kids


def test_steps_carry_the_canonical_form_of_their_child(kb, likes_bias, likes_rules):
    frontier, steps = [seed_rule(likes_rules["h1"].head.pred)], []
    for _ in range(2):
        level = [s for parent in frontier for s in refine(parent, likes_bias, kb.tbox)]
        steps += level
        frontier = [s.child for s in level]
    assert len(steps) == 6 + 318
    assert all(s.key == canonical_form(s.child) for s in steps)
    assert all(str(s.key) == str(canonical_form(s.child)) for s in steps)


def test_specialize_along_hierarchy(kb, likes_bias, likes_rules):
    steps = refine(likes_rules["h4"], likes_bias, kb.tbox)
    spec = _by_label(steps, SPECIALIZE_ONTOLOGY)
    assert spec == {canonical_form(likes_rules["h5"])}


def test_subsuming_ontology_literal_blocked(kb, likes_bias, likes_rules):
    # the body already holds WANTS-TO-MARRY, which lies below LOVES, so no
    # LOVES literal may be added
    steps = refine(likes_rules["h5"], likes_bias, kb.tbox)
    added = [s.literal.atom.pred.name for s in steps if s.rule_applied == ADD_ONTOLOGY]
    assert "LOVES" not in added
    assert "WANTS-TO-MARRY" not in added
    assert "RICH" in added


def test_negated_literal_uses_existing_variables_only(kb, loner_bias, loner_rules):
    for steps in (refine(loner_rules[k], loner_bias, kb.tbox) for k in ("h1", "h2")):
        for s in steps:
            if s.rule_applied == ADD_NEGATED_DATALOG:
                parent_pos = {
                    v for l in s.parent.body if not l.negated for v in l.atom.variables()
                }
                assert set(s.literal.atom.variables()) <= parent_pos


def _space(seed, bias, tbox, depth):
    """The rules within ``depth`` steps of ``seed``, one per canonical form."""
    space, frontier, seen = [seed], [seed], {canonical_form(seed)}
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            for s in refine(parent, bias, tbox):
                if s.key not in seen:
                    seen.add(s.key)
                    nxt.append(s.child)
        space += nxt
        frontier = nxt
    return space


def test_children_are_safe_and_linked(kb, loner_bias, likes_bias):
    # children of a safe, linked parent are not checked one by one, so check
    # every step out of every rule of the LONER depth-3 and LIKES depth-2 spaces
    for target, bias, depth, edges in (
        (Predicate("LONER", 1, CONCEPT), loner_bias, 3, 13),
        (Predicate("LIKES", 2, ROLE), likes_bias, 2, 20682),
    ):
        steps = 0
        for parent in _space(seed_rule(target), bias, kb.tbox, depth):
            for s in refine(parent, bias, kb.tbox):
                steps += 1
                assert not validate_safeness(s.child)
                assert is_linked(s.child)
        assert steps == edges


@pytest.mark.parametrize("parent", [
    "LONER(X).",
    "LIKES(X,Y).",
    "LIKES(X,Y) :- meets(X,Z,Y), famous(W).",  # unlinked, and a bridging child links it
])
def test_inadmissible_parent_has_each_child_filtered(kb, loner_bias, likes_bias, monkeypatch, parent):
    rule = parse_rule(parent, kb)
    bias = loner_bias if rule.head.pred.name == "LONER" else likes_bias
    assert validate_safeness(rule) or not is_linked(rule)
    kept = refine(rule, bias, kb.tbox)
    # ``ontorules.refine`` the attribute is the function, hence sys.modules
    monkeypatch.setattr(sys.modules["ontorules.refine"], "_admissible", lambda child: True)
    every = refine(rule, bias, kb.tbox)
    filtered = [s for s in every if not validate_safeness(s.child) and is_linked(s.child)]
    assert 0 < len(filtered) < len(every)
    assert [(s.rule_applied, str(s.literal), str(s.child)) for s in kept] == [
        (s.rule_applied, str(s.literal), str(s.child)) for s in filtered
    ]


def test_empty_bias_yields_nothing(kb, loner_rules):
    from ontorules.model import LanguageBias

    assert refine(seed_rule(loner_rules["h1"].head.pred), LanguageBias(), kb.tbox) == ()


def test_in_language(kb, loner_bias, likes_bias, loner_rules, likes_rules):
    loner_target = loner_rules["h1"].head.pred
    for h in loner_rules.values():
        assert in_language(h, loner_bias, loner_target)
    # wrong target
    assert not in_language(loner_rules["h3"], likes_bias, likes_rules["h1"].head.pred)
    # seed fails weak safeness
    assert not in_language(seed_rule(loner_target), loner_bias, loner_target)
    # polarity matters: happy may only occur under negation in the LONER bias
    from ontorules import parse_rule

    wrong = parse_rule("LONER(X) :- famous(X), happy(X).", kb)
    assert not in_language(wrong, loner_bias, loner_target)


def test_canonical_form_collapses_renamings(kb):
    from ontorules import parse_rule

    r1 = parse_rule("LIKES(X,Y) :- meets(X,Z,Y), RICH(Z).", kb)
    r2 = parse_rule("LIKES(A,B) :- RICH(C), meets(A,C,B).", kb)
    assert canonical_form(r1) == canonical_form(r2)
    r3 = parse_rule("LIKES(A,B) :- RICH(A), meets(A,C,B).", kb)
    assert canonical_form(r1) != canonical_form(r3)
