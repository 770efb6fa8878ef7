import copy
import os
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from ontorules.parser import parse_rule

from ontorules import model
from ontorules.model import (
    Atom,
    ConceptInclusion,
    Const,
    Existential,
    Literal,
    ModelError,
    Predicate,
    RoleInclusion,
    Rule,
    Var,
    CONCEPT,
    DATALOG,
    ROLE,
    is_linked,
    make_term,
    skolemize,
    validate_safeness,
)

P = Predicate("p", 1, DATALOG)
Q = Predicate("q", 2, DATALOG)
C = Predicate("C", 1, CONCEPT)
R = Predicate("R", 2, ROLE)
X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = Const("a"), Const("b")


def test_term_classification():
    assert make_term("X") == Var("X")
    assert make_term("Z1") == Var("Z1")
    assert make_term("Mary") == Const("Mary")
    assert make_term("WANTS-TO-MARRY") == Const("WANTS-TO-MARRY")
    assert make_term("x") == Const("x")


def test_predicate_kind_arity_validation():
    with pytest.raises(ModelError):
        Predicate("C", 2, CONCEPT)
    with pytest.raises(ModelError):
        Predicate("R", 1, ROLE)
    with pytest.raises(ModelError):
        Predicate("p", 0, DATALOG)


def test_atom_arity_check():
    with pytest.raises(ModelError):
        Atom(Q, (X,))


def test_naf_only_on_datalog():
    Literal(Atom(P, (X,)), negated=True)
    with pytest.raises(ModelError):
        Literal(Atom(C, (X,)), negated=True)


def test_rule_body_set_semantics():
    lit = Literal(Atom(P, (X,)))
    r1 = Rule(Atom(C, (X,)), (lit, lit))
    r2 = Rule(Atom(C, (X,)), (lit,))
    assert r1 == r2 and hash(r1) == hash(r2)
    # order-insensitive equality
    l2 = Literal(Atom(Q, (X, Y)))
    assert Rule(Atom(C, (X,)), (lit, l2)) == Rule(Atom(C, (X,)), (l2, lit))


def test_safeness_conditions():
    # head var not in any positive body atom
    r = Rule(Atom(C, (X,)), (Literal(Atom(P, (Y,))),))
    kinds = {v.condition for v in validate_safeness(r)}
    assert kinds == {"datalog-safeness", "weak-dl-safeness"}
    # head var only in a DL body atom: weakly unsafe but datalog-safe
    r = Rule(Atom(P, (X,)), (Literal(Atom(R, (X, X))),))
    kinds = {v.condition for v in validate_safeness(r)}
    assert kinds == {"weak-dl-safeness"}
    # NAF-only variable violates datalog-safeness
    r = Rule(Atom(P, (X,)), (Literal(Atom(P, (X,))), Literal(Atom(Q, (X, Y)), True)))
    assert {v.variable for v in validate_safeness(r)} == {Y}


def test_linkedness():
    assert is_linked(Rule(Atom(C, (X,)), (Literal(Atom(P, (X,))),)))
    assert not is_linked(Rule(Atom(C, (X,)), (Literal(Atom(P, (X,))), Literal(Atom(P, (Y,))))))
    # chained through an intermediate variable
    body = (Literal(Atom(Q, (X, Z))), Literal(Atom(Q, (Z, Y))))
    assert is_linked(Rule(Atom(R, (X, Y)), body))


def test_skolemize_deterministic_and_fresh():
    r = Rule(Atom(C, (X,)), (Literal(Atom(Q, (X, Y))),))
    g1, s1 = skolemize(r, {a})
    g2, s2 = skolemize(r, {a})
    assert g1 == g2 and s1 == s2
    assert g1.is_ground()
    assert s1[X] == Const("sk0") and s1[Y] == Const("sk1")
    g3, s3 = skolemize(r, {Const("sk0")})
    assert Const("sk0") not in s3.values()


# --- the slotted term layer ---------------------------------------------------

MEETS = Predicate("meets", 3, DATALOG)


def _term_layer_sample():
    return [
        X, a, P, C, R, Var("Z1"), Const("sk0"), Const("WANTS-TO-MARRY"), MEETS,
        Atom(Q, (X, a)), Atom(R, (a, b)), Atom(C, (a,)), Atom(MEETS, (X, Z, Y)),
        Literal(Atom(P, (Y,))), Literal(Atom(P, (Y,)), negated=True),
        Literal(Atom(R, (X, Y))), Literal(Atom(Q, (a, b)), negated=True),
    ]


def _field_tuple(x):
    """The fields of a term-layer value: its ordering follows this tuple, and
    equal tuples give one object."""
    if isinstance(x, (Var, Const)):
        return (x.name,)
    if isinstance(x, Predicate):
        return (x.name, x.arity, x.kind)
    if isinstance(x, Atom):
        return (x.pred, x.args)
    return (x.atom, x.negated)


def test_equal_field_tuples_give_one_object():
    for x in _term_layer_sample():
        assert type(x)(*_field_tuple(x)) is x, repr(x)
        assert type(x)(**dict(zip(x._fields, _field_tuple(x)))) is x, repr(x)


def test_rule_hash_is_the_head_and_body_set_hash(kb):
    # the cached value must stay this one: sets and dicts of rules iterate,
    # and output follows, in the order it gives
    rule = parse_rule("LIKES(X,Y) :- meets(X,Z,Y), RICH(Z), not happy(X).", kb)
    expected = hash((rule.head, frozenset(rule.body)))
    assert rule._hash is None
    assert hash(rule) == expected
    assert rule._hash == expected
    assert hash(rule) == expected
    shuffled = Rule(rule.head, rule.body[::-1] + rule.body[:1])
    assert hash(shuffled) == expected and shuffled == rule
    assert hash(Rule(Atom(C, (X,)))) == hash((Atom(C, (X,)), frozenset()))


def test_axiom_records_cache_the_field_tuple_hash(kb):
    # the hash must be the field-tuple hash, so sets and dicts of axioms keep
    # their order, also in a pickled or copied value
    axioms = list(kb.tbox) + [
        Existential("R"), Existential("R", True), ConceptInclusion(("A", "B"), Existential("R")),
        ConceptInclusion(("A",), "B"), RoleInclusion("R", "S"),
    ]
    assert {type(x) for x in axioms} == {ConceptInclusion, RoleInclusion, Existential}
    for x in axioms:
        assert hash(x) == hash(tuple(getattr(x, n) for n in x._fields)), repr(x)
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x)


def test_term_layer_has_no_instance_dict():
    rule = Rule(Atom(C, (X,)), (Literal(Atom(P, (X,))),))
    for x in _term_layer_sample() + [rule]:
        assert not hasattr(x, "__dict__"), type(x).__name__


def test_equal_values_from_different_routes_hash_equal(kb):
    """Equal term-layer values are one object, whichever route built them:
    the parser, the constructors, ``substitute``, ``skolemize`` or a copy."""
    parsed = parse_rule("LIKES(X,Y) :- meets(X,Z,Y), RICH(Z), not happy(X).", kb)
    built = Rule(
        Atom(Predicate("LIKES", 2, ROLE), (Var("X"), Var("Y"))),
        (
            Literal(Atom(Predicate("meets", 3, DATALOG), (Var("X"), Var("Z"), Var("Y")))),
            Literal(Atom(Predicate("RICH", 1, CONCEPT), (Var("Z"),))),
            Literal(Atom(Predicate("happy", 1, DATALOG), (Var("X"),)), negated=True),
        ),
    )
    assert parsed == built and hash(parsed) == hash(built)
    assert hash(parsed.head) == hash(built.head)
    for p_lit, b_lit in zip(parsed.body, built.body):
        assert p_lit == b_lit and hash(p_lit) == hash(b_lit)
        assert p_lit is b_lit and copy.copy(p_lit) is p_lit and copy.deepcopy(p_lit) is p_lit

    grounded, sigma = skolemize(parsed, set())
    theta = {Var("X"): Const("sk0"), Var("Y"): Const("sk1"), Var("Z"): Const("sk2")}
    assert sigma == theta
    by_hand = built.substitute(theta)
    assert grounded == by_hand and hash(grounded) == hash(by_hand)
    for g_lit, h_lit in zip(grounded.body, by_hand.body):
        assert g_lit == h_lit and hash(g_lit) == hash(h_lit)
        assert g_lit.atom is h_lit.atom is Atom(h_lit.atom.pred, h_lit.atom.args)
    assert sigma[Var("Z")] is Const("sk2") is theta[Var("Z")]


def test_racing_threads_intern_one_object_per_value():
    """Eight threads that build the same fresh atoms and literals at once all
    get the same objects: each table keeps the first object stored."""
    tag = os.urandom(4).hex()  # names no earlier test built

    def build(out):
        barrier.wait()
        values = []
        for i in range(300):
            pred = Predicate(f"race{tag}{i}", 2, DATALOG)
            atom = Atom(pred, (Const(f"c{tag}{i}"), Var(f"V{tag}{i}")))
            values += [pred, atom, Literal(atom), Literal(atom, True)]
        out.append(values)

    barrier = threading.Barrier(8, timeout=60)
    results: list[list] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(results,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    first, *rest = results
    assert len(rest) == 7
    for other in rest:
        assert all(x is y for x, y in zip(first, other, strict=True))
    for x in first:
        assert type(x)(*_field_tuple(x)) is x
    assert sum(key[1].startswith(f"c{tag}") for key in model._NAMES) == 300


def test_sorting_follows_the_compared_fields():
    atoms = [
        Atom(Q, (Y, X)), Atom(P, (X,)), Atom(C, (Y,)), Atom(Q, (X, Y)), Atom(C, (X,)),
        Atom(R, (X, Y)), Atom(Predicate("p", 1, CONCEPT), (X,)),
    ]

    def atom_key(atom):
        pred = atom.pred
        return (pred.name, pred.arity, pred.kind), tuple(t.name for t in atom.args)

    assert sorted(atoms) == sorted(atoms, key=atom_key)
    literals = [Literal(x) for x in atoms] + [Literal(x, True) for x in atoms if x.pred.kind == DATALOG]
    assert sorted(literals) == sorted(literals, key=lambda l: (atom_key(l.atom), l.negated))
    consts = [Const("b"), Const("a"), Const("sk10"), Const("sk2")]
    assert [c.name for c in sorted(consts)] == ["a", "b", "sk10", "sk2"]


NAMES = st.text(alphabet="abXYZ019_-", min_size=1, max_size=4)


@given(NAMES, NAMES)
def test_terms_compare_and_hash_by_name(m, n):
    for cls in (Var, Const):
        x, y = cls(m), cls(n)
        assert (x == y) == (m == n) and (x != y) == (m != n)
        assert (x < y) == (m < n) and (x <= y) == (m <= n)
        assert (x > y) == (m > n) and (x >= y) == (m >= n)
        assert (x is cls(m)) and (x is y) == (m == n)
    assert Var(m) != Const(m) and Var(m) is not Const(m)


@given(st.lists(st.sampled_from([X, Y, Z]), min_size=2, max_size=2),
       st.lists(st.sampled_from([X, Y, Z]), min_size=2, max_size=2), st.booleans())
def test_atoms_and_literals_compare_by_field_tuples(args1, args2, negated):
    s, t = Atom(Q, tuple(args1)), Atom(Q, tuple(args2))
    assert (s == t) == (tuple(args1) == tuple(args2))
    assert (s < t) == ((Q, tuple(args1)) < (Q, tuple(args2)))
    assert s is Atom(Q, tuple(args1)) and (s is t) == (tuple(args1) == tuple(args2))
    ls, lt = Literal(s, negated), Literal(t)
    assert (ls == lt) == (s == t and not negated)
    assert (ls <= lt) == ((s, negated) <= (t, False))
    assert ls is Literal(s, negated) and (ls is lt) == (s is t and not negated)


_BODY_LITERALS = st.lists(
    st.builds(
        Literal,
        st.builds(Atom, st.just(Predicate("q", 2, DATALOG)), st.tuples(*[st.sampled_from((X, Y, Z, a))] * 2)),
        st.booleans(),
    ),
    min_size=1, max_size=6, unique=True,
)


@settings(max_examples=200, deadline=None)
@given(_BODY_LITERALS, st.data())
def test_rule_equality_ignores_body_order_only(body, data):
    head = Atom(Predicate("T", 1, CONCEPT), (X,))
    rule = Rule(head, tuple(body))
    shuffled = Rule(head, tuple(data.draw(st.permutations(body))))
    assert rule == rule and rule == Rule(head, tuple(body))
    assert rule == shuffled and shuffled == rule
    assert hash(rule) == hash(shuffled)
    i = data.draw(st.integers(0, len(body) - 1))
    lit = body[i]
    flipped = Literal(lit.atom, not lit.negated)
    other = data.draw(st.sampled_from((X, Y, Z, a)).filter(lambda t: t != lit.atom.args[0]))
    changed = Literal(Atom(lit.atom.pred, (other,) + lit.atom.args[1:]), lit.negated)
    for new in (flipped, changed):
        if new in body:
            continue
        differs = Rule(head, tuple(body[:i]) + (new,) + tuple(body[i + 1 :]))
        assert len(differs.body) == len(rule.body)
        assert differs != rule and rule != differs
        assert differs != shuffled and shuffled != differs
