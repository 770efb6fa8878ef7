import random

import pytest
from hypothesis import given, strategies as st

from genhybrid import CONCEPTS, ROLES, random_hybrid_kb
from ontorules.dlreason import DLGuess, close, role_closure, subsumes
from ontorules.parser import ParseError, parse_ground_atom
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
    true, nulls = close(guess.true_atoms | {Atom(UNMARRIED, (mary,))}, kb.tbox)
    # A1 forces an anonymous suitor for Mary: one null that fills the role
    # and, through the role hierarchy, its super-role, and is in no concept
    (suitor,) = {a.args[0] for a in nulls}
    assert nulls == {Atom(WTM, (suitor, mary)), Atom(LOVES, (suitor, mary))}
    assert suitor not in {t for a in true for t in a.args}
    with pytest.raises(ParseError):  # no input can name it
        parse_ground_atom(f"UNMARRIED({suitor.name})", kb)
    # no named role atom is invented
    assert not any(a.pred.kind == ROLE for a in true)


def test_a_null_is_named_by_its_anchor_role_and_direction():
    A, B = (Predicate(n, 1, CONCEPT) for n in "AB")
    joe = Const("Joe")
    tbox = (ConceptInclusion(("A",), Existential("R")), ConceptInclusion(("B",), Existential("R")),
            ConceptInclusion(("A",), Existential("R", True)), ConceptInclusion(("A",), Existential("S")),
            RoleInclusion("R", "S"))
    _, nulls = close({Atom(A, (mary,)), Atom(B, (mary,)), Atom(A, (joe,))}, tbox)
    filled = {}  # each null's (role, anchor, anchor position) triples
    for a in nulls:
        pos = 0 if a.args[0] in (mary, joe) else 1
        filled.setdefault(a.args[1 - pos], set()).add((a.pred.name, a.args[pos].name, pos))
    # both axioms that ask for an R-filler of Mary share one null, which also
    # fills S; S's own demand and the inverse have their own, as has Joe
    assert sorted(map(sorted, filled.values())) == sorted(
        sorted(triples) for anchor in ("Mary", "Joe") for triples in (
            {("R", anchor, 0), ("S", anchor, 0)}, {("R", anchor, 1), ("S", anchor, 1)}, {("S", anchor, 0)}))
    # the same inputs give the same names
    assert close({Atom(A, (joe,)), Atom(B, (mary,)), Atom(A, (mary,))}, tbox)[1] == nulls


def test_a_null_fills_every_role_above_its_own():
    """A null fills its role and each role above it, through a chain of
    inclusions too: the chase derives nothing from a null's atoms, so it
    makes them all at once."""
    A = Predicate("A", 1, CONCEPT)
    tbox = (ConceptInclusion(("A",), Existential("R")), RoleInclusion("R", "S"), RoleInclusion("S", "T"))
    _, nulls = close({Atom(A, (mary,))}, tbox)
    assert sorted(a.pred.name for a in nulls) == ["R", "S", "T"]
    assert len({a.args for a in nulls}) == 1


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
    once, once_nulls = close(guess.true_atoms | abox, kb.tbox)
    twice, twice_nulls = close(once | abox, kb.tbox)
    assert once == twice
    assert once_nulls == twice_nulls and once_nulls


def test_closures_are_strict_and_subsumes_is_reflexive(kb):
    # the closures list no predicate above itself; the name check of
    # subsumes makes it reflexive
    assert role_closure(kb.tbox) == {"WANTS-TO-MARRY": {"LOVES"}}
    assert subsumes(WTM, WTM, kb.tbox) and subsumes(LOVES, LOVES, kb.tbox)


def _below(tbox, name: str) -> set[str]:
    """The names that ``name`` reaches over the atomic inclusions of
    ``tbox``, itself included: a graph search from scratch."""
    edges = [(ax.sub, ax.sup) if isinstance(ax, RoleInclusion) else (ax.lhs[0], ax.rhs)
             for ax in tbox if isinstance(ax, RoleInclusion) or (len(ax.lhs) == 1 and isinstance(ax.rhs, str))]
    seen, todo = {name}, [name]
    while todo:
        sub = todo.pop()
        for a, b in edges:
            if a == sub and b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def _chase(atoms, tbox) -> tuple[set, list]:
    """The one-step chase from scratch: the named atoms closed under the
    atomic inclusions until nothing changes, and per existential demand
    (anchor, role, direction) its null's (role, anchor, anchor position)
    triples, one per role that the demanded one reaches."""
    true = set(atoms)
    while True:
        held = {}  # each individual's concept names
        for a in true:
            if a.pred.kind == CONCEPT:
                held.setdefault(a.args[0], set()).add(a.pred.name)
        new = set(true)
        for ax in tbox:
            if isinstance(ax, RoleInclusion):
                new |= {Atom(Predicate(ax.sup, 2, ROLE), a.args) for a in true if a.pred.name == ax.sub}
            elif isinstance(ax.rhs, str):
                new |= {Atom(Predicate(ax.rhs, 1, CONCEPT), (c,)) for c, names in held.items() if names >= set(ax.lhs)}
        if new == true:
            break
        true = new
    demands = {(c, ax.rhs.role, ax.rhs.inverse) for ax in tbox if isinstance(getattr(ax, "rhs", None), Existential)
               for c, names in held.items() if names >= set(ax.lhs)}
    return true, sorted(sorted((r, c.name, int(inverse)) for r in _below(tbox, role)) for c, role, inverse in demands)


def _null_shape(nulls, true) -> list:
    """Per null of ``nulls``, the sorted (role, anchor, anchor position)
    triples of its atoms, where the anchor is the argument that an atom of
    ``true`` names."""
    named, filled = {t for a in true for t in a.args}, {}
    for a in nulls:
        pos = 0 if a.args[0] in named else 1
        filled.setdefault(a.args[1 - pos], []).append((a.pred.name, a.args[pos].name, pos))
    return sorted(sorted(triples) for triples in filled.values())


def test_subsumes_agrees_with_a_closure_from_scratch_on_random_tboxes():
    # 200 TBoxes, more than the memo of closures holds, so it is cleared
    # along the way; each TBox is asked twice, the second time as an equal
    # tuple that is another object
    checked = derived = filled = 0
    for seed in range(200):
        kb = random_hybrid_kb(random.Random(seed))
        tbox = kb.tbox
        for preds in (CONCEPTS, ROLES):
            for specific in preds:
                above = _below(tbox, specific.name)
                for general in preds:
                    assert subsumes(general, specific, tbox) == (general.name in above)
                    assert subsumes(general, specific, tuple(list(tbox))) == (general.name in above)
                    checked += general.name != specific.name and general.name in above
        want, want_nulls = _chase(kb.abox, tbox)
        for box in (tbox, tuple(list(tbox))):
            true, nulls = close(kb.abox, box)
            assert (true, _null_shape(nulls, true)) == (want, want_nulls), seed
        derived += len(want) > len(set(kb.abox))
        filled += bool(want_nulls)
    assert checked  # some TBox puts one predicate strictly below another
    assert derived and filled  # some TBox derives a named atom, and some a null
