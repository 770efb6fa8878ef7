"""Subsumption and consistency checking for the supported ontology fragment.

The fragment is deliberately small: inclusions of the shape
``(C1 and ... and Cn) subclass D`` where ``D`` is an atomic concept or an
existential restriction with Top filler, plus atomic role inclusions.
:func:`close` is a one-step chase: no left-hand side holds at a null, which
belongs to no concept, so its result is the universal model, in which a
conjunctive query holds iff it holds in every model (Calvanese et al., JAR
39(3), 2007).  A guess is consistent when its closure derives none of the
atoms it declares false; the chase adds no named role atom.
"""

from __future__ import annotations

import itertools

from .model import (
    Atom,
    Axiom,
    ConceptInclusion,
    Const,
    ModelError,
    Predicate,
    Record,
    RoleInclusion,
    CONCEPT,
    ROLE,
)


class DLGuess(Record):
    """One open-world completion over ground ontology atoms with named
    arguments.  ``true_atoms`` and ``false_atoms`` are disjoint frozensets."""

    __slots__ = ("true_atoms", "false_atoms")
    _defaults = dict.fromkeys(__slots__, frozenset())

    def _validate(self):
        clash = self.true_atoms & self.false_atoms
        if clash:
            raise ModelError(f"guess assigns both polarities to {sorted(map(str, clash))}")
        for a in itertools.chain(self.true_atoms, self.false_atoms):
            if not a.pred.is_dl or not a.is_ground():
                raise ModelError(f"guess atom must be a ground ontology atom: {a}")


def role_closure(tbox: tuple[Axiom, ...]) -> dict[str, set[str]]:
    """Transitive closure of the atomic role inclusions: a role's super-roles,
    itself only through a cycle (:func:`subsumes` checks identity first)."""
    edges: dict[str, set[str]] = {}
    for ax in tbox:
        if isinstance(ax, RoleInclusion):
            edges.setdefault(ax.sub, set()).add(ax.sup)
    return _closure(edges)


def concept_closure(tbox: tuple[Axiom, ...]) -> dict[str, set[str]]:
    """Transitive closure of the atomic concept inclusions, without
    reflexivity, as for :func:`role_closure`.

    Conjunctive or existential axioms contribute nothing here: only
    single-atom left-hand sides with an atomic right-hand side count.
    """
    edges: dict[str, set[str]] = {}
    for ax in tbox:
        if isinstance(ax, ConceptInclusion) and len(ax.lhs) == 1 and isinstance(ax.rhs, str):
            edges.setdefault(ax.lhs[0], set()).add(ax.rhs)
    return _closure(edges)


def _closure(edges: dict[str, set[str]]) -> dict[str, set[str]]:
    out = {k: set(v) for k, v in edges.items()}
    changed = True
    while changed:
        changed = False
        for k, vs in out.items():
            extra = set()
            for v in vs:
                extra |= out.get(v, set())
            if not extra <= vs:
                vs |= extra
                changed = True
    return out


#: What :func:`subsumes`, :func:`close` and :func:`ontorules.hybrid.more_general`
#: read, never change, per TBox tuple, keyed by its ``id``: hashing a TBox costs
#: more than closing a small one.  Each entry holds its TBox, so no other live object
#: has that id; cleared at ``_CLOSURES_SIZE`` entries.  Threads that race to fill an
#: entry store equal values.
_CLOSURES: dict[int, tuple] = {}
_CLOSURES_SIZE = 64


def _closures(tbox: tuple[Axiom, ...]) -> tuple:
    """``tbox``, each concept's and role's strict super-predicates and its concept inclusions by left-hand side."""
    entry = _CLOSURES.get(id(tbox))
    if entry is None:
        if len(_CLOSURES) >= _CLOSURES_SIZE:
            _CLOSURES.clear()
        sups = {Predicate(sub, arity, kind): frozenset(Predicate(n, arity, kind) for n in names)
                for kind, arity, closure in ((CONCEPT, 1, concept_closure(tbox)), (ROLE, 2, role_closure(tbox)))
                for sub, names in closure.items()}
        by_concept: dict[str, list[ConceptInclusion]] = {}
        for ax in tbox:
            if isinstance(ax, ConceptInclusion):
                for c in set(ax.lhs):
                    by_concept.setdefault(c, []).append(ax)
        entry = _CLOSURES[id(tbox)] = (tbox, sups, by_concept)
    return entry


def subsumes(general: Predicate, specific: Predicate, tbox: tuple[Axiom, ...]) -> bool:
    """True iff ``specific`` is below ``general`` in the inclusion hierarchy.

    Reflexive by definition; both predicates must be of the same kind.
    """
    if general.kind != specific.kind or general.kind not in (CONCEPT, ROLE):
        raise ModelError(f"cannot compare {general.name} ({general.kind}) with {specific.name} ({specific.kind})")
    return general is specific or general in _closures(tbox)[1].get(specific, ())


def close(atoms, tbox: tuple[Axiom, ...]) -> tuple[set[Atom], set[Atom]]:
    """Close a set of ground ontology atoms under the axioms: the one-step
    chase.  Propagates role inclusions and conjunctive-LHS inclusions with
    atomic right-hand sides.  Each (anchor, role, direction) that an
    existential right-hand side fires gets one null, a :class:`Const` named
    after those three in a spelling that the parser rejects, which fills the
    role and every super-role.  Returns the named atoms and the null atoms."""
    true: set[Atom] = set(atoms)
    nulls: set[Atom] = set()
    _, sups, by_concept = _closures(tbox)
    concepts: dict[Const, set[str]] = {}  # concept names held by each individual
    todo = list(true)
    while todo:
        atom = todo.pop()
        if atom.pred.kind == ROLE:
            derived = [Atom(sup, atom.args) for sup in sups.get(atom.pred, ())]
        else:
            ind = atom.args[0]
            names = concepts.setdefault(ind, set())
            names.add(atom.pred.name)
            derived = []
            for ax in by_concept.get(atom.pred.name, ()):
                if not names.issuperset(ax.lhs):
                    continue
                if isinstance(ax.rhs, str):
                    derived.append(Atom(Predicate(ax.rhs, 1, CONCEPT), (ind,)))
                    continue
                role, inverse = Predicate(ax.rhs.role, 2, ROLE), ax.rhs.inverse
                null = Const(f"_:{ind.name}.inv({role.name})" if inverse else f"_:{ind.name}.{role.name}")
                nulls.update(Atom(r, (null, ind) if inverse else (ind, null)) for r in {role} | sups.get(role, set()))
        for d in derived:
            if d not in true:
                true.add(d)
                todo.append(d)
    return true, nulls
