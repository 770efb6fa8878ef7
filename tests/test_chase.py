"""Open ontology atoms against a brute-force reading of their models.

A rule variable that only ontology atoms use is existentially quantified over
the ontology's models, so a rule body's open atoms form a conjunctive query.
:func:`entailed` decides such a query from that definition alone, on tiny
signatures (two concepts, two roles, at most three constants):

* the named part of every interpretation is fixed at the closed truth, which
  :func:`named_closure` computes; the query is monotone, so a countermodel may
  keep the named part there;
* the domain adds one fresh element per existential demand, a constant that
  the TBox gives some role filler; one fresh element per demand already holds
  a model, so a query that fails in some model fails in one of these;
* every interpretation of the role and concept atoms that touch a fresh
  element is enumerated, those that satisfy the TBox are kept, and the query
  is entailed iff it holds in all of them.

The enumeration is one truth table: an interpretation is a bit pattern over
the atoms that touch a fresh element, and a formula is the integer whose bit
``m`` says whether it holds in interpretation ``m``.

:func:`hybrid._open_satisfied` must agree with it on the closure that
:func:`dlreason.close` gives.
"""

import itertools
import random
from collections import Counter

from ontorules import hybrid
from ontorules.datalog import _index
from ontorules.dlreason import close
from ontorules.model import Atom, ConceptInclusion, Const, Existential, Predicate, RoleInclusion, Var, CONCEPT, ROLE

CONCEPTS = tuple(Predicate(n, 1, CONCEPT) for n in "AB")
ROLES = tuple(Predicate(n, 2, ROLE) for n in "RS")
NAMES = tuple(Const(n) for n in "abc")
VARIABLES = (Var("Y"), Var("Z"))
#: Largest number of atoms that touch a fresh element: a truth table of 2^20 bits.
MAX_BITS = 20


def named_closure(atoms, tbox) -> set:
    """The named atoms closed under the concept and role inclusions with an
    atomic right-hand side, applied until nothing changes."""
    true = set(atoms)
    while True:
        new = set(true)
        for ax in tbox:
            if isinstance(ax, RoleInclusion):
                new |= {Atom(Predicate(ax.sup, 2, ROLE), a.args) for a in true if a.pred.name == ax.sub}
            elif isinstance(ax.rhs, str):
                for c in NAMES:
                    if all(Atom(Predicate(n, 1, CONCEPT), (c,)) in true for n in ax.lhs):
                        new.add(Atom(Predicate(ax.rhs, 1, CONCEPT), (c,)))
        if new == true:
            return true
        true = new


def demands(true, tbox) -> set:
    """The (constant, role, inverse) whose filler an existential right-hand
    side asks for."""
    return {(c, ax.rhs.role, ax.rhs.inverse) for ax in tbox
            if isinstance(ax, ConceptInclusion) and isinstance(ax.rhs, Existential)
            for c in NAMES if all(Atom(Predicate(n, 1, CONCEPT), (c,)) in true for n in ax.lhs)}


def _column(bit: int, size: int) -> int:
    """The truth-table column of one atom over ``size`` interpretations:
    bit ``m`` is set iff interpretation ``m`` makes the atom true."""
    col = ((1 << (1 << bit)) - 1) << (1 << bit)
    period = 1 << (bit + 1)
    while period < size:
        col |= col << period
        period <<= 1
    return col


def fresh_elements(k: int) -> list:
    return [Const(f"fresh{i}") for i in range(k)]


def touching(names, fresh) -> list:
    """The role and concept atoms with at least one fresh argument."""
    domain = list(names) + list(fresh)
    atoms = [Atom(c, (f,)) for c in CONCEPTS for f in fresh]
    atoms += [Atom(r, (x, y)) for r in ROLES for x in domain for y in domain if x in fresh or y in fresh]
    return atoms


def entailed(query, true, tbox, names, k: int) -> bool:
    """The query holds in every model of the TBox whose domain is ``names``
    plus ``k`` fresh elements and whose named part is ``true``."""
    fresh = fresh_elements(k)
    domain = list(names) + fresh
    free = touching(names, fresh)
    size = 1 << len(free)
    full = (1 << size) - 1
    columns = {a: _column(i, size) for i, a in enumerate(free)}

    def truth(atom):
        return columns[atom] if atom in columns else full if atom in true else 0

    def concept(name, x):
        return truth(Atom(Predicate(name, 1, CONCEPT), (x,)))

    def role(name, x, y):
        return truth(Atom(Predicate(name, 2, ROLE), (x, y)))

    models = full
    for ax in tbox:
        for x in domain:
            if isinstance(ax, RoleInclusion):
                for y in domain:
                    models &= (full ^ role(ax.sub, x, y)) | role(ax.sup, x, y)
                continue
            lhs = full
            for name in ax.lhs:
                lhs &= concept(name, x)
            if isinstance(ax.rhs, str):
                rhs = concept(ax.rhs, x)
            else:
                rhs = 0
                for y in domain:
                    rhs |= role(ax.rhs.role, y, x) if ax.rhs.inverse else role(ax.rhs.role, x, y)
            models &= (full ^ lhs) | rhs
    assert models, "the TBox has a model over this domain"
    variables = sorted({v for a in query for v in a.variables()})
    holds = 0
    for combo in itertools.product(domain, repeat=len(variables)):
        theta = dict(zip(variables, combo))
        conj = full
        for a in query:
            conj &= truth(a.substitute(theta))
        holds |= conj
    return not models & (full ^ holds)


def random_case(rng: random.Random):
    """A TBox, its named closure, its constants and their number of demands
    k, drawn until at most 2 demands and at most ``MAX_BITS`` atoms that touch
    a fresh element."""
    while True:
        names = NAMES[: rng.randint(1, 3)]
        tbox = []
        for _ in range(rng.randint(1, 3)):
            lhs = tuple(sorted({rng.choice("AB") for _ in range(rng.randint(1, 2))}))
            rhs = Existential(rng.choice("RS"), rng.random() < 0.5) if rng.random() < 0.7 else rng.choice("AB")
            tbox.append(ConceptInclusion(lhs, rhs))
        if rng.random() < 0.6:
            sub, sup = rng.sample("RS", 2)
            tbox.append(RoleInclusion(sub, sup))
            if rng.random() < 0.15:
                tbox.append(RoleInclusion(sup, sub))
        abox = {Atom(rng.choice(CONCEPTS), (rng.choice(names),)) for _ in range(rng.randint(1, 4))}
        abox |= {Atom(rng.choice(ROLES), (rng.choice(names), rng.choice(names))) for _ in range(rng.randint(0, 2))}
        true = named_closure(abox, tbox)
        k = len(demands(true, tbox))
        if k <= 2 and len(touching(names, fresh_elements(k))) <= MAX_BITS:
            return tuple(tbox), abox, true, names, k


def random_query(rng: random.Random, names) -> tuple:
    """One to three distinct open atoms, each with a variable."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        v = rng.choice(VARIABLES)
        if rng.random() < 0.25:
            atoms.append(Atom(rng.choice(CONCEPTS), (v,)))
        else:
            other = rng.choice(list(names) + list(VARIABLES))
            atoms.append(Atom(rng.choice(ROLES), (v, other) if rng.random() < 0.5 else (other, v)))
    return tuple(dict.fromkeys(atoms))


def test_open_satisfied_agrees_with_the_brute_force_oracle():
    seen = Counter()
    for seed in range(600):
        rng = random.Random(seed)
        tbox, abox, true, names, k = random_case(rng)
        gtrue, nulls = close(abox, tbox)
        assert gtrue == true, seed
        assert len({t for a in nulls for t in a.args} - set(names)) == k, seed  # one null per demand
        members = frozenset(names).union(*(a.args for a in nulls))
        index = _index(gtrue, nulls)
        for _ in range(4):
            query = random_query(rng, names)
            want = entailed(query, true, tbox, names, k)
            assert hybrid._open_satisfied(query, index, members) == want, (seed, tbox, sorted(map(str, query)))
            named = hybrid._open_satisfied(query, _index(gtrue), frozenset(names))
            seen[want, "named" if named or not want else "needs a filler", k] += 1
    # both verdicts, with up to two demands, and entailed queries that no named constant meets
    assert all(seen[v, "named", k] >= 20 for v in (True, False) for k in (0, 1, 2)), seen
    assert seen[True, "needs a filler", 1] >= 20 and seen[True, "needs a filler", 2] >= 20, seen
