import pytest
from hypothesis import given, strategies as st

from ontorules.dlreason import DLGuess, ExistsFact, close, subsumes
from ontorules.model import (
    Atom,
    ConceptInclusion,
    Const,
    Existential,
    ModelError,
    Predicate,
    RoleInclusion,
    CONCEPT,
    ROLE,
)

RICH = Predicate("RICH", 1, CONCEPT)
UNMARRIED = Predicate("UNMARRIED", 1, CONCEPT)
WTM = Predicate("WANTS-TO-MARRY", 2, ROLE)
LOVES = Predicate("LOVES", 2, ROLE)
mary = Const("Mary")


def test_subsumes_reflexive_and_hierarchy(kb):
    assert subsumes(LOVES, WTM, kb.tbox)
    assert not subsumes(WTM, LOVES, kb.tbox)
    assert subsumes(RICH, RICH, kb.tbox)
    with pytest.raises(ModelError):
        subsumes(RICH, WTM, kb.tbox)


def test_subsumes_transitive_chain():
    A, B, C = (Predicate(n, 1, CONCEPT) for n in ("A", "B", "C"))
    tbox = (ConceptInclusion(("A",), "B"), ConceptInclusion(("B",), "C"))
    assert subsumes(C, A, tbox)
    assert not subsumes(A, C, tbox)


def test_saturation_role_propagation(kb):
    guess = DLGuess(frozenset({Atom(WTM, (mary, Const("Joe")))}))
    true, _ = close(guess.true_atoms, kb.tbox)
    assert Atom(LOVES, (mary, Const("Joe"))) in true
    assert not true & guess.false_atoms


def test_saturation_existential_fact(kb):
    guess = DLGuess(frozenset({Atom(RICH, (mary,))}))
    true, exists = close(guess.true_atoms | {Atom(UNMARRIED, (mary,))}, kb.tbox)
    # A1 forces an anonymous suitor for Mary, lifted through the role hierarchy
    assert ExistsFact("WANTS-TO-MARRY", mary, 1) in exists
    assert ExistsFact("LOVES", mary, 1) in exists
    # no named role atom is invented
    assert not any(a.pred.kind == ROLE for a in true)


def test_saturation_clash_detection(kb):
    guess = DLGuess(
        frozenset({Atom(WTM, (mary, Const("Joe")))}),
        frozenset({Atom(LOVES, (mary, Const("Joe")))}),
    )
    true, _ = close(guess.true_atoms, kb.tbox)
    clashes = true & guess.false_atoms
    assert clashes
    assert Atom(LOVES, (mary, Const("Joe"))) in clashes


def test_guess_disjointness_enforced():
    a = Atom(RICH, (mary,))
    with pytest.raises(ModelError):
        DLGuess(frozenset({a}), frozenset({a}))


def test_conjunctive_lhs_fires_only_when_complete():
    A, B, D = (Predicate(n, 1, CONCEPT) for n in ("A", "B", "D"))
    tbox = (ConceptInclusion(("A", "B"), "D"),)
    only_a, _ = close({Atom(A, (mary,))}, tbox)
    assert Atom(D, (mary,)) not in only_a
    both, _ = close({Atom(A, (mary,)), Atom(B, (mary,))}, tbox)
    assert Atom(D, (mary,)) in both


@given(st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=0, max_size=6))
def test_closure_is_a_preorder(chain):
    tbox = tuple(ConceptInclusion((chain[i],), chain[i + 1]) for i in range(len(chain) - 1))
    preds = {n: Predicate(n, 1, CONCEPT) for n in "ABCD"}
    # reflexivity
    for p in preds.values():
        assert subsumes(p, p, tbox)
    # transitivity
    names = list(preds.values())
    for x in names:
        for y in names:
            for z in names:
                if subsumes(x, y, tbox) and subsumes(y, z, tbox):
                    assert subsumes(x, z, tbox)


def test_saturation_idempotent(kb):
    guess = DLGuess(frozenset({Atom(RICH, (mary,)), Atom(WTM, (mary, Const("Joe")))}))
    abox = {Atom(UNMARRIED, (mary,))}
    once, once_exists = close(guess.true_atoms | abox, kb.tbox)
    twice, twice_exists = close(once | abox, kb.tbox)
    assert once == twice
    assert once_exists <= twice_exists
