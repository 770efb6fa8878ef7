import bisect
import copy
import gc
import hashlib
import pickle
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ontorules import model, parse_rule
from ontorules.dlreason import subsumes
from ontorules.model import (
    Atom,
    ConceptInclusion,
    LanguageBias,
    Literal,
    ModelError,
    Predicate,
    Rule,
    Var,
    CONCEPT,
    DATALOG,
    ROLE,
    is_linked,
    validate_safeness,
)
from ontorules.refine import (
    ADD_DATALOG,
    ADD_NEGATED_DATALOG,
    ADD_ONTOLOGY,
    SPECIALIZE_ONTOLOGY,
    _added_literals,
    _canonical_head,
    _canonical_tail,
    _head_ids,
    _keyed_body,
    _literal_key,
    canonical_form,
    in_language,
    refine,
    seed_rule,
)
from test_canonical import PREDICATES, rules, variants


def _scratch(rule):
    """The canonical form of a fresh copy of ``rule``, computed from scratch:
    the copy carries no form that ``refine`` or an earlier call stored."""
    return canonical_form(Rule(rule.head, rule.body))


def _children(steps):
    return {_scratch(s.child) for s in steps}


def _by_label(steps, label):
    return {_scratch(s.child) for s in steps if s.rule_applied == label}


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
    assert all(s.key == _scratch(s.child) for s in steps)
    assert all(str(s.key) == str(_scratch(s.child)) for s in steps)


def _steps(seed, bias, tbox, depth):
    """Every step of a breadth-first walk to ``depth`` from ``seed`` that
    expands one rule per canonical form."""
    frontier, seen, steps = [seed], {canonical_form(seed)}, []
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            for s in refine(parent, bias, tbox):
                steps.append(s)
                if s.key not in seen:
                    seen.add(s.key)
                    nxt.append(s.child)
        frontier = nxt
    return steps


def test_every_depth3_key_is_the_from_scratch_form(kb, loner_bias, likes_bias):
    # keys of added-literal children are built from the parent's sorted
    # literals; each must be the form computed afresh, literal for literal
    steps = [
        s
        for target, bias in ((Predicate("LONER", 1, CONCEPT), loner_bias), (Predicate("LIKES", 2, ROLE), likes_bias))
        for s in _steps(seed_rule(target), bias, kb.tbox, 3)
    ]
    assert len(steps) == 10 + 20682
    labels = {s.rule_applied for s in steps}
    assert labels == {ADD_DATALOG, ADD_ONTOLOGY, SPECIALIZE_ONTOLOGY, ADD_NEGATED_DATALOG}
    for s in steps:
        fresh = _scratch(s.child)
        assert s.key == fresh
        assert str(s.key) == str(fresh)
        assert s.key.head is fresh.head
        assert len(s.key.body) == len(fresh.body)
        assert all(a is b for a, b in zip(s.key.body, fresh.body))


#: SHA-256 of the LONER and then the LIKES depth-3 walk, one line per step
#: in walk order: label, literal, parent, child and key, tab-separated.  It was
#: recorded before keys reused tails across parents.
DEPTH3_WALK_SHA256 = "d8adc0dd6c903e9daa253cc2c954db5302fdf3fb8abf0e913a9ae4dbeb4f91e5"


def test_the_depth3_walk_is_pinned(kb, loner_bias, likes_bias):
    """The criterion-4 walks give the same steps, keys and order as when they
    were recorded: edges per depth, and a hash over every step."""
    digest, edges = hashlib.sha256(), []
    for target, bias in ((Predicate("LONER", 1, CONCEPT), loner_bias), (Predicate("LIKES", 2, ROLE), likes_bias)):
        frontier = [seed_rule(target)]
        seen = {canonical_form(frontier[0])}
        for _ in range(3):
            nxt, n = [], 0
            for parent in frontier:
                for s in refine(parent, bias, kb.tbox):
                    n += 1
                    line = "\t".join((s.rule_applied, str(s.literal), str(s.parent), str(s.child), str(s.key)))
                    digest.update(line.encode() + b"\n")
                    if s.key not in seen:
                        seen.add(s.key)
                        nxt.append(s.child)
            edges.append(n)
            frontier = nxt
    assert edges == [1, 3, 6, 6, 318, 20358]
    assert digest.hexdigest() == DEPTH3_WALK_SHA256


def _of_kind(kind):
    return frozenset(p for p in PREDICATES if p.kind == kind)


#: Every predicate of the drawn rules, each datalog one under both polarities,
#: and D below C, so that a C literal can be specialized.
PROPERTY_BIAS = LanguageBias(_of_kind(CONCEPT), _of_kind(ROLE), _of_kind(DATALOG), _of_kind(DATALOG))
PROPERTY_TBOX = (ConceptInclusion(("D",), "C"),)


def _tail_parents():
    """Parents whose children take each tail-keying path: ``q(X,Z)`` ties
    with the parent's ``q(X,Y)`` at place 0, and at place 1 after ``C(X)``;
    and a child that adds a later literal to two tied ``q`` literals."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    pred = {p.name: p for p in PREDICATES}
    head = Atom(Predicate("T", 1, CONCEPT), (x,))
    q_xy, q_xz = Literal(Atom(pred["q"], (x, y))), Literal(Atom(pred["q"], (x, z)))
    return [Rule(head, (q_xy,)), Rule(head, (Literal(Atom(pred["C"], (x,))), q_xy)), Rule(head, (q_xy, q_xz))]


def _keying_path(step):
    """How ``refine`` keys an added-literal child.  Let ``p`` be the new
    literal's place among the parent's sorted literals, after those with its
    sort key, and ``s`` the first place of a tie, among the parent's literals
    or with the new one.  When ``s`` comes before ``p``, the literals from
    ``s`` on are keyed afresh: after a tie with the new literal ("tie", or
    "tie at 0" when ``s`` is 0) or inside the parent ("parent tie").
    Otherwise the new literal is inserted into the parent's key, and the
    parent's literals after it are kept as they are ("prefix") or keyed
    afresh ("renamed")."""
    ids = _head_ids(step.parent.head)
    keys = sorted(_literal_key(l, ids) for l in step.parent.body)
    k = _literal_key(step.literal, ids)
    p = bisect.bisect_right(keys, k)
    tie = next((i for i, (a, b) in enumerate(zip(keys, keys[1:])) if a == b), len(keys))
    s = min(tie, bisect.bisect_left(keys, k))
    if s < p:
        if s < tie:
            return "tie at 0" if s == 0 else "tie"
        return "parent tie"
    kept = step.key.body[:p] + step.key.body[p + 1 :]
    return "prefix" if kept == canonical_form(step.parent).body else "renamed"


def test_added_literal_keys_are_the_from_scratch_form(monkeypatch):
    """Every step's key is its child's form computed afresh, literal for
    literal, for parents with constants, negated literals, repeated head
    variables and literals of equal sort key; each way of keying an added
    literal occurs; and ``refine`` computes no form from scratch but its
    parent's and its specialized children's.  Keys built with the parent's
    literals after the new one not renumbered, with the new literal's tie
    checked against the parent literal after it instead of before it, or
    with a tie within the parent ignored, each fail here."""
    paths = Counter()
    module = sys.modules["ontorules.refine"]
    formed = []

    def recorded(rule):
        formed.append(rule)
        return canonical_form(rule)

    monkeypatch.setattr(module, "canonical_form", recorded)

    @settings(max_examples=150, deadline=None)
    @given(rules(max_body=4))
    @example(_tail_parents()[0])
    @example(_tail_parents()[1])
    @example(_tail_parents()[2])
    def check(parent):
        formed.clear()
        steps = refine(parent, PROPERTY_BIAS, PROPERTY_TBOX)
        # a specialized child has no more literals than its parent; an
        # added-literal child has one more
        assert formed[0] is parent
        assert all(len(r.body) <= len(parent.body) for r in formed[1:])
        for step in steps:
            fresh = _scratch(step.child)
            assert step.key == fresh
            assert str(step.key) == str(fresh)
            assert step.key.head is fresh.head
            assert len(step.key.body) == len(fresh.body)
            assert all(a is b for a, b in zip(step.key.body, fresh.body))
            if step.rule_applied != SPECIALIZE_ONTOLOGY:
                paths[_keying_path(step)] += 1

    check()
    assert paths.keys() == {"prefix", "renamed", "tie", "tie at 0", "parent tie"}, paths


def test_cached_candidate_literals_change_nothing():
    """``refine`` gives the same steps, in the same order, with its cache of
    candidate literals cleared and warm; a warm run reuses the cold run's
    literal objects; and an added-literal child, built without the dedupe
    pass, adds an atom its parent lacks under either polarity, has distinct
    body literals and equals the publicly built rule."""

    def steps(parent):
        return [(s.rule_applied, s.literal, s.parent, s.child, s.key)
                for s in refine(parent, PROPERTY_BIAS, PROPERTY_TBOX)]

    @settings(max_examples=150, deadline=None)
    @given(rules(max_body=4))
    def check(parent):
        _added_literals.cache_clear()
        cold = steps(parent)
        warm = steps(parent)
        assert warm == cold
        assert repr(warm) == repr(cold)
        for (label, lit, _, child, _), (_, warm_lit, *_) in zip(cold, warm):
            if label == SPECIALIZE_ONTOLOGY:
                continue
            assert warm_lit is lit
            assert lit.atom not in {l.atom for l in parent.body}  # nor its negation
            assert len(set(child.body)) == len(child.body)
            public = Rule(child.head, child.body)
            assert public == child and public.body == child.body

    check()


def test_one_intern_table_serves_both_keying_paths(kb, likes_bias):
    """``refine``'s incremental keys and ``canonical_form`` from scratch take
    their literals from one table, keyed by (:func:`_literal_key`, numbers of
    the literal's variables).  For parents with constants, negated literals
    and ties, each key literal is the entry under the pair read off the key
    itself, and the from-scratch forms of the children add no entry; every
    entry is keyed by its own literal's pair; no other table of the module
    holds literals, and the memo of key tails holds only the table's entries
    and stays within its bound.  No table of the module holds a rule, even
    while the steps of a LIKES depth-2 walk are alive: the keys live in their
    steps and children only."""
    module = sys.modules["ontorules.refine"]
    table = module._CANONICAL_LITERALS

    def pair(lit, head_ids):
        return _literal_key(lit, head_ids), tuple(int(t.name[1:]) for t in lit.atom.args if isinstance(t, Var))

    @settings(max_examples=150, deadline=None)
    @given(rules(max_body=4))
    @example(_tail_parents()[0])
    @example(_tail_parents()[2])
    def check(parent):
        steps = refine(parent, PROPERTY_BIAS, PROPERTY_TBOX)
        size = len(table)
        for step in steps:
            fresh = _scratch(step.child)
            assert all(a is b for a, b in zip(step.key.body, fresh.body))
            ids = _head_ids(step.key.head)
            assert all(table[pair(lit, ids)] is lit for lit in step.key.body)
        assert len(table) == size

    check()
    for (key, numbers), lit in table.items():
        pred = lit.atom.pred
        assert key[:4] == (lit.negated, pred.name, pred.arity, pred.kind)
        assert numbers == pair(lit, {})[1]
        assert all(e == (2, t.name) if not isinstance(t, Var) else e[0] < 2 for e, t in zip(key[4], lit.atom.args))
    tables = [name for name, value in vars(module).items()
              if isinstance(value, dict) and any(isinstance(v, Literal) for v in value.values())]
    assert tables == ["_CANONICAL_LITERALS"]
    entries = {id(lit) for lit in table.values()}
    assert 0 < len(module._TAILS) <= module._TAILS_SIZE
    assert all(id(lit) in entries for tails in module._TAILS.values() for tail in tails.values() for lit in tail)

    def holds_rule(value, depth=3):
        if isinstance(value, Rule):
            return True
        if depth and isinstance(value, dict):
            value = [*value, *value.values()]
        elif not (depth and isinstance(value, (list, set, frozenset, tuple))):
            return False
        return any(holds_rule(v, depth - 1) for v in value)

    steps = _steps(seed_rule(Predicate("LIKES", 2, ROLE)), likes_bias, kb.tbox, 2)
    assert len(steps) == 6 + 318
    holders = [name for name, value in vars(module).items()
               if not name.startswith("__") and isinstance(value, (dict, list, set)) and holds_rule(value)]
    assert holders == []


def _parents_after_one_and_two_variables():
    """``T(X) :- C(X), r(X,Y,Z).`` and ``T(X) :- R(X,Y), r(X,Y,Z).``: their
    sorted literals end in the same ``r``, numbered alike, after a literal that
    numbers one variable and after one that numbers two; a ``q(X,W)`` goes in
    before it in both."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    pred = {p.name: p for p in PREDICATES}
    head = Atom(Predicate("T", 1, CONCEPT), (x,))
    r_xyz = Literal(Atom(pred["r"], (x, y, z)))
    return [Rule(head, (Literal(Atom(pred["C"], (x,))), r_xyz)), Rule(head, (Literal(Atom(pred["R"], (x, y))), r_xyz))]


def _parent_of_an_unnumbered_tail():
    """``T(X) :- r(Y,X,W).``: an ``r(X,_,_)`` with two fresh variables goes
    in before its one literal, whose ``Y`` and ``W`` it leaves unnumbered."""
    x, y, w = Var("X"), Var("Y"), Var("W")
    r = next(p for p in PREDICATES if p.name == "r")
    return Rule(Atom(Predicate("T", 1, CONCEPT), (x,)), (Literal(Atom(r, (y, x, w))),))


@st.composite
def _parents_sharing_tails(draw):
    """A drawn rule, the rule without each of its literals in turn, and a
    renamed, shuffled variant of each: parents whose sorted literals share
    tails, numbered alike or not, after prefixes with more or fewer
    variables."""
    rule = draw(rules(max_body=3))
    family = [rule] + [Rule(rule.head, rule.body[:i] + rule.body[i + 1 :]) for i in range(len(rule.body))]
    return family + [draw(variants(r)) for r in family]


def _form(rule):
    """``rule``'s canonical form as a new ``Rule``, its body computed from
    scratch without the table of shared keys."""
    ids = _head_ids(rule.head)
    n = len(ids)
    return Rule(_canonical_head(rule.head, ids), _canonical_tail(n, (), _keyed_body(rule.body, ids)))


def _reference_steps(parent, bias, tbox, max_new):
    """``(label, literal, key body)`` of each step that :func:`refine` should
    return: each candidate in ``refine``'s order, keyed by :func:`_form` and
    kept unless its key equals, as a ``Rule``, one met before; a child that
    fails safeness or linkedness, which only an inadmissible parent can have,
    is dropped, after its key is met if it adds a literal."""
    head, body = parent.head, parent.body

    def admissible(rule):
        return not validate_safeness(rule) and is_linked(rule)

    check, atoms = not admissible(parent), {l.atom for l in body}
    met, out = {_form(parent)}, []

    def add(label, preds, variables, max_new, negated=False):
        for pred in preds:
            for lit, _, _ in _added_literals(pred, variables, head, max_new, negated):
                if lit.atom in atoms:
                    continue
                child = Rule(head, body + (lit,))
                key = _form(child)
                if key in met:
                    continue
                met.add(key)
                if not check or admissible(child):
                    out.append((label, lit, key.body))

    add(ADD_DATALOG, sorted(bias.datalog_pos), parent.variables(), max_new)
    ontology = sorted(bias.concepts | bias.roles)
    blocked = {l.atom.pred for l in body if l.atom.pred.is_dl}
    add(ADD_ONTOLOGY, [p for p in ontology if not any(subsumes(p, b, tbox) for b in blocked if b.kind == p.kind)],
        parent.variables(), max_new)
    for i, l in enumerate(body):
        for pred in ontology:
            if l.atom.pred.is_dl and pred is not l.atom.pred and pred.kind == l.atom.pred.kind \
                    and subsumes(l.atom.pred, pred, tbox):
                lit = Literal(Atom(pred, l.atom.args))
                child = Rule(head, body[:i] + (lit,) + body[i + 1 :])
                key = _form(child)
                if (not check or admissible(child)) and key not in met:
                    met.add(key)
                    out.append((SPECIALIZE_ONTOLOGY, lit, key.body))
    if bias.datalog_neg:
        positive = tuple(sorted({v for l in body if not l.negated for v in l.atom.variables()}))
        add(ADD_NEGATED_DATALOG, sorted(bias.datalog_neg), positive, 0, True)
    return out


def _parent_of_variant_specializations():
    """``T(X) :- q(X,Y), q(X,Z), C(Y), C(Z).``: specializing ``C(Y)`` or
    ``C(Z)`` to ``D`` gives variants."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    pred = {p.name: p for p in PREDICATES}
    body = (Atom(pred["q"], (x, y)), Atom(pred["q"], (x, z)), Atom(pred["C"], (y,)), Atom(pred["C"], (z,)))
    return Rule(Atom(Predicate("T", 1, CONCEPT), (x,)), tuple(map(Literal, body)))


def test_key_tails_are_reused_across_parents_in_any_order():
    """The memo of key tails that ``refine`` shares between calls gives the
    steps of a reference that keys every candidate from scratch and dedupes
    the keys by ``Rule`` equality, whichever parents filled it: for parents
    that share tails, their variants and the first of them under another head
    (whose keys have the same bodies), refined in two orders, from a cold
    memo and from a warm one, with one fresh variable per added literal and
    with two.  Keys of one form, of one parent or of several, are equal, and
    equal to ``canonical_form`` of a body-shuffled copy of the child, and the
    warm memo gives the cold one's."""
    module = sys.modules["ontorules.refine"]
    across = Counter()

    @settings(max_examples=100, deadline=None)
    @given(_parents_sharing_tails(), st.sampled_from((1, 2)), st.integers(0, 2**16))
    @example(_parents_after_one_and_two_variables(), 1, 0)
    @example([_parent_of_an_unnumbered_tail()], 2, 0)
    @example([_parent_of_variant_specializations()], 1, 0)
    def check(parents, max_new, seed):
        first = parents[0].head
        other = Atom(Predicate(first.pred.name + "2", first.pred.arity, first.pred.kind), first.args)
        parents = parents + [Rule(other, parents[0].body)]
        rng = random.Random(seed)
        forward, backward = range(len(parents)), range(len(parents) - 1, -1, -1)
        # key bodies compare literal for literal, as literals are interned
        expected = [_reference_steps(p, PROPERTY_BIAS, PROPERTY_TBOX, max_new) for p in parents]
        cold: dict = {}
        for clear, order in ((True, forward), (False, backward), (True, backward), (False, forward)):
            if clear:
                module._TAILS.clear()
                cold.clear()
            keys, owners = {}, {}
            for i in order:
                steps = refine(parents[i], PROPERTY_BIAS, PROPERTY_TBOX, max_new)
                assert [(s.rule_applied, s.literal, s.key.body) for s in steps] == expected[i]
                head = _form(parents[i]).head
                for s in steps:
                    assert s.key.head is head
                    form = (s.key.head, s.key.body)
                    assert keys.setdefault(form, s.key) == s.key
                    assert cold.setdefault(form, s.key) == s.key
                    owners.setdefault(form, set()).add(i)
                    shuffled = Rule(s.child.head, tuple(rng.sample(s.child.body, len(s.child.body))))
                    assert canonical_form(shuffled) == s.key
            across["shared"] += sum(len(o) > 1 for o in owners.values())

    check()
    assert across["shared"] > 0


def test_the_memo_of_key_tails_is_cleared_when_full(monkeypatch):
    """With room for a few tails, the memo is cleared before a call would
    take it past its bound, and the keys stay the from-scratch ones."""
    module = sys.modules["ontorules.refine"]
    parents = _tail_parents() + _parents_after_one_and_two_variables()
    module._TAILS.clear()
    for parent in parents:
        refine(parent, PROPERTY_BIAS, PROPERTY_TBOX)
    assert len(module._TAILS) > 5
    monkeypatch.setattr(module, "_TAILS_SIZE", 5)
    module._TAILS.clear()
    for parent in parents:
        for step in refine(parent, PROPERTY_BIAS, PROPERTY_TBOX):
            assert step.key.body == _scratch(step.child).body
        assert 0 < len(module._TAILS) <= 5


def test_the_likes_walk_from_eight_threads(kb, likes_bias):
    """Eight threads that walk LIKES to depth 3 at once each get the serial
    steps, and equal keys per form."""

    def walk():
        steps = _steps(seed_rule(Predicate("LIKES", 2, ROLE)), likes_bias, kb.tbox, 3)
        return [(s.rule_applied, s.literal, s.child, s.key) for s in steps]

    serial = walk()
    assert len(serial) == 20682
    interval = sys.getswitchinterval()
    barrier, results = threading.Barrier(8), [None] * 8

    def run(i):
        barrier.wait()
        results[i] = walk()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    sys.setswitchinterval(1e-5)  # switch threads often, so that they race
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    objects = {}
    for result in results:
        assert result == serial
        assert all(objects.setdefault((key.head, key.body), key) == key for *_, key in result)


def test_children_carry_their_key(kb, likes_bias, likes_rules, monkeypatch):
    steps = refine(likes_rules["h4"], likes_bias, kb.tbox)
    assert {s.rule_applied for s in steps} >= {ADD_DATALOG, ADD_ONTOLOGY, SPECIALIZE_ONTOLOGY}

    def fail(*args):
        raise AssertionError("a canonical form was computed again")

    monkeypatch.setattr(sys.modules["ontorules.refine"], "_literal_key", fail)
    for s in steps:
        assert canonical_form(s.child) is s.key
        assert canonical_form(s.key) is s.key


def test_the_stored_form_is_not_part_of_the_rule(likes_rules):
    assert Rule._fields == ("head", "body")
    rule = likes_rules["h3"]
    plain = Rule(rule.head, rule.body)
    keyed = Rule(rule.head, rule.body)
    key = canonical_form(keyed)
    assert keyed._canonical is key and plain._canonical is None
    assert repr(keyed) == repr(plain)
    assert keyed == plain and hash(keyed) == hash(plain)
    for copied in (pickle.loads(pickle.dumps(keyed)), copy.copy(keyed), copy.deepcopy(keyed)):
        assert copied == keyed and repr(copied) == repr(keyed)
        assert copied._canonical is None
        assert canonical_form(copied) == key
        assert str(canonical_form(copied)) == str(key)


def test_specialization_onto_a_literal_already_in_the_body(kb, likes_bias, likes_rules):
    # LOVES(X,Z) specialized to WANTS-TO-MARRY(X,Z), which the body holds:
    # the child drops the duplicate and is h5
    parent = parse_rule("LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z), WANTS-TO-MARRY(X,Z).", kb)
    spec = [s for s in refine(parent, likes_bias, kb.tbox) if s.rule_applied == SPECIALIZE_ONTOLOGY]
    merged = [s for s in spec if len(s.child.body) == 2]
    assert len(merged) == 1
    step = merged[0]
    assert str(step.literal) == "WANTS-TO-MARRY(X,Z)"
    assert step.child == likes_rules["h5"]
    assert step.key == _scratch(step.child) == _scratch(likes_rules["h5"])
    assert str(step.key) == str(_scratch(step.child))


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
    space, seen = [seed], {canonical_form(seed)}
    for s in _steps(seed, bias, tbox, depth):
        if s.key not in seen:
            seen.add(s.key)
            space.append(s.child)
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


def test_a_second_identical_walk_interns_no_new_value(likes_bias, kb):
    """The term tables are never cleared, so they must stop growing once a
    walk has built its values: repeating a depth-2 LIKES walk adds nothing."""

    def walk():
        frontier = [seed_rule(Predicate("LIKES", 2, ROLE))]
        seen = {canonical_form(frontier[0])}
        for _ in range(2):
            nxt = []
            for parent in frontier:
                for step in refine(parent, likes_bias, kb.tbox):
                    if step.key not in seen:
                        seen.add(step.key)
                        nxt.append(step.child)
            frontier = nxt
        return seen

    tables = (model._NAMES, model._PREDICATES, model._ATOMS, model._LITERALS)
    first = walk()
    sizes = [len(t) for t in tables]
    assert walk() == first and len(first) > 100
    assert [len(t) for t in tables] == sizes


def test_a_dropped_walk_leaves_no_garbage_for_the_collector(kb, likes_bias):
    """No canonical key refers to itself: with the cyclic collector off, a
    LIKES depth-2 walk whose steps and memo of key tails are then dropped
    leaves nothing that only the collector could free."""
    module = sys.modules["ontorules.refine"]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        steps = _steps(seed_rule(Predicate("LIKES", 2, ROLE)), likes_bias, kb.tbox, 2)
        assert len(steps) == 6 + 318
        del steps
        module._TAILS.clear()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
