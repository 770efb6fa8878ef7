"""Random small hybrid KBs and an independent brute-force model checker.

The checker rebuilds the canonical model family from its definition without
importing the hybrid or ontology reasoners: for every truth assignment to the
negated atoms it computes the least model of the reduct, in which rule
instances fire, the axioms close the named ontology atoms and each
existential right-hand side that holds at a constant adds a null, which fills
its role and every role above it (the one-step chase), and keeps the
assignments that the model reproduces.  Grounding is naive (no pruning) and
everything is recomputed from scratch in each round.

Ontology atoms in generated rule bodies are ground once the head and datalog
variables are, or have one open variable that occurs nowhere else in the
rule.  With ``shared=True`` a rule also gets two or three ontology atoms that
share an open variable.  The checker meets a body's open atoms by one
assignment of all their variables to constants or nulls, found by the
product, that makes every atom a named or a null atom of the model.

:func:`brute_force_covered` decides coverage of a rule for a target that
occurs nowhere in the KB from the same models: in every model some grounding
of the head and datalog variables over the constants satisfies the body.
"""

import itertools
import random

from ontorules import parse_kb
from ontorules.model import (
    Atom,
    ConceptInclusion,
    Const,
    Existential,
    HybridKB,
    Literal,
    Predicate,
    RoleInclusion,
    Rule,
    Var,
    CONCEPT,
    DATALOG,
    ROLE,
)

CONCEPTS = tuple(Predicate(n, 1, CONCEPT) for n in ("A", "B", "C"))
ROLES = tuple(Predicate(n, 2, ROLE) for n in ("R", "S"))
D = Predicate("d", 1, DATALOG)  # extensional: binds the head variable
E = Predicate("e", 2, DATALOG)  # extensional: binds a second variable
IDB = tuple(Predicate(n, 1, DATALOG) for n in ("p", "q", "r"))
X, Y = Var("X"), Var("Y")


def random_hybrid_kb(rng: random.Random, shared: bool = False) -> HybridKB:
    """A KB over at most three constants with a random TBox, ABox, facts and
    rules, negation included.  ``shared`` adds ontology atoms that share an
    open variable to every random rule, and two to five more assertions;
    without it no extra value is drawn from ``rng``."""
    consts = [Const(f"c{i}") for i in range(rng.randint(1, 3))]
    names = [p.name for p in CONCEPTS]
    tbox = []
    for _ in range(rng.randint(0, 3)):
        lhs = tuple(rng.sample(names, rng.randint(1, 2)))
        if rng.random() < 0.4:
            rhs = Existential(rng.choice(ROLES).name, rng.random() < 0.5)
        else:
            rhs = rng.choice(names)
        tbox.append(ConceptInclusion(lhs, rhs))
    if rng.random() < 0.5:
        sub, sup = rng.sample([r.name for r in ROLES], 2)
        tbox.append(RoleInclusion(sub, sup))

    facts = {Atom(D, (c,)) for c in consts if rng.random() < 0.7} or {Atom(D, (consts[0],))}
    for _ in range(rng.randint(0, 2)):
        facts.add(Atom(E, (rng.choice(consts), rng.choice(consts))))
    abox = set()
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.6:
            abox.add(Atom(rng.choice(CONCEPTS), (rng.choice(consts),)))
        else:
            abox.add(Atom(rng.choice(ROLES), (rng.choice(consts), rng.choice(consts))))
    if shared:
        abox.update(random_assertion(rng, consts) for _ in range(rng.randint(2, 5)))

    rules = [_random_rule(rng, consts, shared) for _ in range(rng.randint(1, 4))]
    p, q = rng.sample(IDB, 2)
    a, b = rng.choice(CONCEPTS), rng.choice(CONCEPTS)
    loop = rng.random()
    if loop < 0.15:  # odd loop
        rules.append(_naf_rule(p, p))
    elif loop < 0.35:  # even loop
        rules += [_naf_rule(p, q), _naf_rule(q, p)]
    elif loop < 0.55:  # a loop through the TBox, odd or even: a(X) :- d(X), not p(X) ... b(X), a subclass b
        tail = Rule(Atom(p, (X,)), (Literal(Atom(D, (X,))), Literal(Atom(b, (X,)))))
        if rng.random() < 0.5:
            rules += [_naf_rule(a, p), tail]
        else:
            rules += [_naf_rule(a, q), _naf_rule(q, p), tail]
        tbox.append(ConceptInclusion((a.name,), b.name))
    return HybridKB(
        tbox=tuple(tbox),
        abox=tuple(sorted(abox, key=str)),
        rules=tuple(rules),
        facts=tuple(sorted(facts, key=str)),
        alphabet=CONCEPTS + ROLES + (D, E) + IDB,
    )


def _naf_rule(head: Predicate, negated: Predicate) -> Rule:
    """head(X) :- d(X), not negated(X)."""
    return Rule(Atom(head, (X,)), (Literal(Atom(D, (X,))), Literal(Atom(negated, (X,)), True)))


def random_assertion(rng: random.Random, consts) -> Atom:
    """A concept or role assertion over ``consts``, roles more often."""
    if rng.random() < 0.3:
        return Atom(rng.choice(CONCEPTS), (rng.choice(consts),))
    return Atom(rng.choice(ROLES), (rng.choice(consts), rng.choice(consts)))


def random_body(rng: random.Random, consts, shared: bool = False) -> tuple[list[Literal], set[Var]]:
    """A random rule body that starts with ``d(X)``, and the variables that
    its datalog literals bind; with ``shared``, two or three ontology atoms
    share an open variable."""
    body = [Literal(Atom(D, (X,)))]
    bound = {X}
    if rng.random() < 0.3:
        body.append(Literal(Atom(E, (X, Y))))
        bound.add(Y)
    fresh = (Var(f"V{i}") for i in itertools.count())
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        t = rng.choice(sorted(bound, key=str) + list(consts))
        if kind < 0.35:
            body.append(Literal(Atom(rng.choice(IDB), (t,)), rng.random() < 0.6))
        elif kind < 0.55:
            body.append(Literal(Atom(rng.choice(CONCEPTS), (t if rng.random() < 0.7 else next(fresh),))))
        else:
            other = t if rng.random() < 0.3 else next(fresh)
            args = (t, other) if rng.random() < 0.5 else (other, t)
            body.append(Literal(Atom(rng.choice(ROLES), args)))
    if shared:
        v = next(fresh)
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.3:
                body.append(Literal(Atom(rng.choice(CONCEPTS), (v,))))
                continue
            other = rng.choice(sorted(bound, key=str) + list(consts) + [v, next(fresh)])
            args = (v, other) if rng.random() < 0.5 else (other, v)
            body.append(Literal(Atom(rng.choice(ROLES), args)))
    return body, bound


def _random_rule(rng: random.Random, consts, shared: bool = False) -> Rule:
    body, bound = random_body(rng, consts, shared)
    r = rng.random()
    if r < 0.6:
        head = Atom(rng.choice(IDB), (X,))
    elif r < 0.85 or Y not in bound:
        head = Atom(rng.choice(CONCEPTS), (X,))
    else:
        head = Atom(rng.choice(ROLES), (X, Y))
    return Rule(head, tuple(body))


# --- brute-force checker ----------------------------------------------------

def _constants(kb: HybridKB, rules=()) -> list[Const]:
    out = set()
    rule_atoms = [a for r in (*kb.rules, *rules) for a in (r.head, *(l.atom for l in r.body))]
    for a in itertools.chain(kb.abox, kb.facts, rule_atoms):
        out.update(t for t in a.args if isinstance(t, Const))
    return sorted(out)


def _ground(rules, consts):
    """Every instance of every rule over the constants, binding the variables
    of the head and the datalog literals; the other variables stay open."""
    out = []
    for rule in rules:
        bind = {v for v in rule.head.args if isinstance(v, Var)}
        for l in rule.body:
            if l.atom.pred.kind == DATALOG:
                bind.update(v for v in l.atom.args if isinstance(v, Var))
        bind = sorted(bind, key=str)
        for combo in itertools.product(consts, repeat=len(bind)):
            out.append(rule.substitute(dict(zip(bind, combo))))
    return out


def _sub_roles(kb: HybridKB, role: str) -> set[str]:
    """Roles whose atoms imply ``role`` atoms: itself and its sub-roles."""
    out = {role}
    while True:
        more = {ax.sub for ax in kb.tbox if isinstance(ax, RoleInclusion) and ax.sup in out} - out
        if not more:
            return out
        out |= more


def _tbox_step(kb: HybridKB, onto: set, consts):
    """One application of every axiom, and the null role atoms: each
    existential that holds at a constant has a null of its own, named after
    the constant, the role and the direction, which fills the role and every
    role above it."""
    new = set(onto)
    nulls = set()
    for ax in kb.tbox:
        if isinstance(ax, RoleInclusion):
            for a in onto:
                if a.pred.name == ax.sub:
                    new.add(Atom(Predicate(ax.sup, 2, ROLE), a.args))
            continue
        for c in consts:
            if not all(Atom(Predicate(n, 1, CONCEPT), (c,)) in onto for n in ax.lhs):
                continue
            if isinstance(ax.rhs, Existential):
                null = Const(f"null({c.name},{ax.rhs.role},{ax.rhs.inverse})")
                args = (null, c) if ax.rhs.inverse else (c, null)
                nulls.update(Atom(sup, args) for sup in ROLES if ax.rhs.role in _sub_roles(kb, sup.name))
            else:
                new.add(Atom(Predicate(ax.rhs, 1, CONCEPT), (c,)))
    return new, nulls


def _ontology_holds(atoms, onto: set, nulls: set, consts) -> bool:
    """The ontology atoms of a rule instance hold: one assignment of their
    open variables to the constants and the nulls makes every atom a named
    atom of ``onto`` or a null atom of ``nulls``."""
    vs = sorted({t for a in atoms for t in a.args if isinstance(t, Var)}, key=str)
    elements = list(consts) + sorted({t for a in nulls for t in a.args} - set(consts), key=str)
    true = onto | nulls
    return any(
        all(a.substitute(dict(zip(vs, combo))) in true for a in atoms)
        for combo in itertools.product(elements, repeat=len(vs))
    )


def null_shape(null_atoms, consts) -> tuple:
    """The null role atoms up to the names of the nulls: per null, the sorted
    (role, anchor, anchor position) of its atoms, all sorted."""
    by_null = {}
    for a in null_atoms:
        pos = 0 if a.args[0] in consts else 1
        by_null.setdefault(a.args[1 - pos], []).append((a.pred.name, a.args[pos].name, pos))
    return tuple(sorted(tuple(sorted(atoms)) for atoms in by_null.values()))


def _body_holds(inst: Rule, data: set, onto: set, nulls: set, consts, assumed_true=None) -> bool:
    """The body of a rule instance, ground but for its open ontology
    variables, holds; its negated atoms are read in ``assumed_true`` when
    given (the reduct) and in ``data`` otherwise."""
    negated_in = data if assumed_true is None else assumed_true
    return all(
        l.atom not in negated_in if l.negated else l.atom in data
        for l in inst.body
        if l.atom.pred.kind == DATALOG
    ) and _ontology_holds([l.atom for l in inst.body if l.atom.pred.kind != DATALOG], onto, nulls, consts)


def _least_model(kb: HybridKB, instances, consts, assumed_true: set):
    data = set(kb.facts)
    onto = set(kb.abox)
    while True:
        onto_next, nulls = _tbox_step(kb, onto, consts)
        data_next = set(data)
        for inst in instances:
            if _body_holds(inst, data, onto, nulls, consts, assumed_true):
                (onto_next if inst.head.pred.kind != DATALOG else data_next).add(inst.head)
        if onto_next == onto and data_next == data:
            return frozenset(data), frozenset(onto), frozenset(nulls)
        data, onto = data_next, onto_next


def _models(kb: HybridKB) -> set:
    """The canonical models of ``kb`` as ``(datalog atoms, ontology atoms,
    null role atoms)`` triples."""
    consts = _constants(kb)
    instances = _ground(kb.rules, consts)
    negated = sorted({l.atom for r in instances for l in r.body if l.negated}, key=str)
    found = set()
    for bits in itertools.product((False, True), repeat=len(negated)):
        assumed = {a for a, b in zip(negated, bits) if b}
        model = _least_model(kb, instances, consts, assumed)
        if all((a in model[0]) == (a in assumed) for a in negated):
            found.add(model)
    return found


def brute_force_models(kb: HybridKB) -> set:
    """The canonical models of ``kb`` as ``(datalog atoms, ontology atoms,
    null role atoms)`` triples, the last up to the names of the nulls
    (:func:`null_shape`)."""
    consts = _constants(kb)
    return {(data, onto, null_shape(nulls, consts)) for data, onto, nulls in _models(kb)}


def brute_force_covered(kb: HybridKB, rule: Rule, examples) -> frozenset:
    """The examples that ``rule``, for a target that occurs nowhere in
    ``kb``, covers: in every model of :func:`brute_force_models` some
    grounding of the head and datalog variables over the constants of the KB,
    the rule and the example has the example as its head and a body that
    holds, with nulls for its other variables."""
    models = _models(kb)
    out = set()
    for example in examples:
        consts = sorted(set(_constants(kb, (rule,))).union(example.args))
        instances = [inst for inst in _ground((rule,), consts) if inst.head == example]
        if all(any(_body_holds(inst, data, onto, nulls, consts) for inst in instances)
               for data, onto, nulls in models):
            out.add(example)
    return frozenset(out)


TEMPLATE_HEADER = """\
concept RICH/1. concept UNMARRIED/1.
role WANTS-TO-MARRY/2. role LOVES/2.
pred famous/1. pred scientist/1. pred happy/1. pred meets/3.
#tbox
RICH and UNMARRIED subclass some inv(WANTS-TO-MARRY) Top.
WANTS-TO-MARRY subrole LOVES.
#rules
RICH(X) :- famous(X), not scientist(X).
happy(X) :- famous(X), WANTS-TO-MARRY(Y,X).
#facts
"""
PLACES = ("Italy", "Germany", "France")


def template_kb(n: int, seed: int) -> HybridKB:
    """The criterion-8 KB template over ``n`` people with ``n`` meets facts.

    Its only negated atoms are ``scientist(p)`` for the famous people ``p``."""
    return parse_kb(template_text(n, seed))


def template_text(n: int, seed: int) -> str:
    """The text of :func:`template_kb` in the ``.okb`` format."""
    rng = random.Random(seed)
    people = [f"Person{i}" for i in range(n)]
    lines = []
    for p in people:
        if rng.random() < 0.7:
            lines.append(f"famous({p}).")
        if rng.random() < 0.3:
            lines.append(f"scientist({p}).")
        if rng.random() < 0.5:
            lines.append(f"UNMARRIED({p}).")
    for _ in range(n):
        a, b = rng.sample(people, 2)
        lines.append(f"meets({a},{b},{rng.choice(PLACES)}).")
    return TEMPLATE_HEADER + "\n".join(lines) + "\n"
