"""Grounding, stable models and query answering for normal datalog programs.

One grounder, :func:`ground`, instantiates rules for this module and for the
hybrid model builder: a backtracking join, :func:`_join`, binds the variables
of a rule's positive datalog literals of extensional predicates from an index
of the facts, and only the variables that it leaves unbound range over the
domain (:func:`_groundings`).  :func:`answer_query` joins a query's positive
literals against each stable model the same way.

One least-model loop, :func:`_joint_fixpoint`, closes a set of rule
instances (:func:`_instances`) under a fixed truth assignment to their
negated atoms; the hybrid model builder runs it with its assertions and
axioms, this module with none, where it is the least model of the reduct.
Stable models are found by iterating that loop from the closed-world guess,
which settles on every stratified program, and otherwise by branching on the
atoms that occur under negation-as-failure and verifying each branch with it
(:func:`branch_search`, which the hybrid builder runs too).
``is_stable_model`` checks a candidate with the same loop, so it is no
independent oracle; ``tests/genprog.brute_force_stable_models`` is.
"""

from __future__ import annotations

import itertools

from .dlreason import close
from .model import (
    Atom,
    Axiom,
    BudgetError,
    Const,
    Literal,
    ModelError,
    Predicate,
    Record,
    Rule,
    Var,
    DATALOG,
    DEFAULT_GROUNDING_BUDGET,
)

#: Cap on the number of distinct negated atoms branched over.
DEFAULT_BRANCH_BUDGET = 20


class InconsistentProgramError(RuntimeError):
    """The program has no stable model, so cautious query answers would be
    vacuous; surfaced explicitly instead."""


class GroundProgram(Record):
    """Ground rules (a tuple) with datalog heads over a frozenset of facts."""

    __slots__ = ("rules", "facts")

    def _validate(self):
        for r in self.rules:
            if not r.is_ground():
                raise ModelError(f"rule is not ground: {r}")
            if r.head.pred.kind != DATALOG:
                raise ModelError(f"non-datalog head in ground program: {r}")
        for f in self.facts:
            if not f.is_ground() or f.pred.kind != DATALOG:
                raise ModelError(f"bad fact: {f}")

    def herbrand_base(self) -> frozenset[Atom]:
        out = set(self.facts)
        for r in self.rules:
            out.add(r.head)
            out.update(l.atom for l in r.body)
        return frozenset(out)

    def constants(self) -> set[Const]:
        out: set[Const] = set()
        for a in self.herbrand_base():
            out.update(t for t in a.args if isinstance(t, Const))
        return out


class Interpretation(Record):
    __slots__ = ("true_atoms",)  # frozenset[Atom]


def grounded_variables(rule: Rule) -> tuple[Var, ...]:
    """The variables of the head and of the datalog literals, in order of
    first occurrence, head first: those that the hybrid grounder binds."""
    atoms = [rule.head, *(l.atom for l in rule.body if l.atom.pred.kind == DATALOG)]
    return tuple(dict.fromkeys(v for a in atoms for v in a.variables()))


def ground(rules, facts, domain: tuple[Const, ...], wanted):
    """Instances of ``rules`` that bind the variables ``wanted(rule)`` to
    constants of the sorted tuple ``domain``, per rule in product order.

    The positive datalog literals of extensional predicates, which head no
    rule of ``rules``, are joined with the ``facts``, so an instance that one
    of them fails is never visited; this preserves the stable models.  Only
    the wanted variables that the join leaves unbound range over the domain.
    Past ``DEFAULT_GROUNDING_BUDGET`` substitutions in all,
    :class:`BudgetError` is raised."""
    ext = {l.atom.pred for r in rules for l in r.body} - {r.head.pred for r in rules}
    index = _index(facts)
    members = frozenset(domain)
    count = 0
    for rule in rules:
        variables = wanted(rule)
        joined = [l.atom for l in rule.body if not l.negated and l.atom.pred.kind == DATALOG and l.atom.pred in ext]
        bound = {v for a in joined for v in a.variables()}
        found = []
        for theta in _groundings(_join(joined, index, {}, members), [v for v in variables if v not in bound], domain):
            count += 1
            if count > DEFAULT_GROUNDING_BUDGET:
                raise BudgetError(f"grounding exceeded the budget of {DEFAULT_GROUNDING_BUDGET} instances")
            found.append(theta)
        found.sort(key=lambda theta: [theta[v] for v in variables])
        for theta in found:
            yield rule.substitute(theta)


def ground_program(rules: tuple[Rule, ...], facts: frozenset[Atom], domain: set[Const]) -> GroundProgram:
    """Instantiate every rule over ``domain`` (:func:`ground`)."""
    return GroundProgram(tuple(ground(rules, facts, tuple(sorted(domain)), Rule.variables)), facts)


def _index(*atom_sets) -> dict[Predicate, list[Atom]]:
    """The atoms of the given collections, listed under their predicates."""
    index: dict[Predicate, list[Atom]] = {}
    for a in itertools.chain(*atom_sets):
        index.setdefault(a.pred, []).append(a)
    return index


def _join(atoms, index, theta, domain):
    """Every extension of the substitution ``theta`` to the variables of
    ``atoms`` that maps each atom onto one that ``index`` lists under its
    predicate, binding variables only to constants in the set ``domain``.

    The atoms are matched in order against their candidates under the
    binding built so far, so only bindings that the indexed atoms allow are
    visited, not the product over the domain.  Each extension is yielded
    once, as a new dict (``theta`` itself when ``atoms`` is empty).
    """
    if not atoms:
        yield theta
        return
    atom, rest = atoms[0], atoms[1:]
    for fact in index.get(atom.pred, ()):
        ext = theta
        for t, c in zip(atom.args, fact.args):
            if isinstance(t, Var):
                value = ext.get(t)
                if value is None:
                    if c not in domain:
                        break
                    if ext is theta:
                        ext = dict(theta)
                    ext[t] = c
                elif value is not c:
                    break
            elif t is not c:
                break
        else:
            yield from _join(rest, index, ext, domain)


def _groundings(bindings, variables, domain):
    """Every extension of each substitution in ``bindings`` that binds
    ``variables`` to constants of the sorted ``domain``, in product order,
    each as a new dict."""
    for theta in bindings:
        for combo in itertools.product(domain, repeat=len(variables)):
            full = dict(theta)
            full.update(zip(variables, combo))
            yield full


class _Instance:
    """A rule instance ground except for ontology-only variables: its head
    and tuples of body atoms by kind."""

    __slots__ = ("head", "pos_datalog", "naf", "dl_ground", "dl_open")

    def __init__(self, head, pos_datalog, naf, dl_ground, dl_open):
        self.head = head
        self.pos_datalog = pos_datalog
        self.naf = naf
        self.dl_ground = dl_ground
        self.dl_open = dl_open


def _instances(rules) -> list[_Instance]:
    """The rule instances ``rules``, their bodies split by kind: positive and
    negated datalog atoms, ground ontology atoms and open ones."""
    out: list[_Instance] = []
    for inst in rules:
        pos_d, naf, dl_g, dl_o = [], [], [], []
        for lit in inst.body:
            if lit.atom.pred.kind == DATALOG:
                (naf if lit.negated else pos_d).append(lit.atom)
            else:
                (dl_g if lit.atom.is_ground() else dl_o).append(lit.atom)
        out.append(_Instance(inst.head, tuple(pos_d), tuple(naf), tuple(dl_g), tuple(dl_o)))
    return out


def _open_satisfied(open_atoms: tuple[Atom, ...], index: dict, members) -> bool:
    """Satisfaction of ontology atoms whose variables only ontology atoms use:
    one :func:`_join` against ``index``, the named and null atoms, that binds
    them to ``members``, the named constants and the nulls."""
    return not open_atoms or next(_join(open_atoms, index, {}, members), None) is not None


def _joint_fixpoint(
    instances: list[_Instance],
    naf_truth: dict[Atom, bool],
    facts: frozenset[Atom],
    abox: tuple[Atom, ...],
    tbox: tuple[Axiom, ...],
    domain: tuple[Const, ...],
) -> tuple[frozenset[Atom], frozenset[Atom], frozenset[Atom]]:
    """Least joint closure of datalog derivation and the ontology's chase
    (:func:`dlreason.close`) under a fixed truth assignment for the negated
    atoms (reduct semantics): the datalog, named ontology and null atoms.
    The ontology truth is closed and indexed in the first round and again
    only after a round adds an ontology head.  With no assertions and no
    axioms the result is the least model of a datalog program's reduct."""
    dtrue: set[Atom] = set(facts)
    gtrue: set[Atom] = set(abox)
    active = [i for i in instances if not any(naf_truth.get(a, False) for a in i.naf)]
    grew = True  # the ontology truth has grown since it was last closed
    while True:
        if grew:
            gtrue, nulls = close(gtrue, tbox)
            index = _index(gtrue, nulls)
            members = frozenset(domain).union(*(a.args for a in nulls))  # the domain and the nulls
        fired = grew = False
        for inst in active:
            target = gtrue if inst.head.pred.is_dl else dtrue
            if (
                inst.head not in target
                and dtrue.issuperset(inst.pos_datalog)
                and gtrue.issuperset(inst.dl_ground)
                and _open_satisfied(inst.dl_open, index, members)
            ):
                target.add(inst.head)
                if target is gtrue:
                    index.setdefault(inst.head.pred, []).append(inst.head)
                    grew = True
                fired = True
        if not fired:
            return frozenset(dtrue), frozenset(gtrue), frozenset(nulls)


def is_stable_model(p: GroundProgram, i: Interpretation) -> bool:
    """True iff ``i`` equals the least model of the reduct of ``p`` by ``i``."""
    instances = _instances(p.rules)
    truth = {a: a in i.true_atoms for inst in instances for a in inst.naf}
    return _joint_fixpoint(instances, truth, p.facts, (), (), ())[0] == set(i.true_atoms)


def branch_search(naf_atoms: list[Atom], least_model) -> list:
    """The distinct stable results of ``least_model`` over the truth
    assignments to ``naf_atoms``, in enumeration order.

    ``least_model(truth)`` returns a hashable tuple whose first item is the
    set of atoms derived when exactly the atoms that ``truth`` maps to True are
    assumed true under negation; a result is stable when that set agrees with
    ``truth`` on every negated atom.  The search first iterates from the
    closed-world guess.  Assuming more atoms true blocks more rules, so the
    iterates alternate between bounds that every stable result lies within,
    and an iteration that settles has met both bounds: its result is the only
    stable one.  A stratified program settles within |naf_atoms|+1 rounds.
    Otherwise every assignment is tried, subject to the branch budget.
    """
    truth: dict[Atom, bool] = {a: False for a in naf_atoms}
    for _ in range(len(naf_atoms) + 1):
        result = least_model(truth)
        new = {a: a in result[0] for a in naf_atoms}
        if new == truth:
            return [result]
        truth = new
    if len(naf_atoms) > DEFAULT_BRANCH_BUDGET:
        raise BudgetError(
            f"{len(naf_atoms)} negated atoms exceed the branch budget of {DEFAULT_BRANCH_BUDGET}"
        )
    results: dict = {}
    for bits in itertools.product((False, True), repeat=len(naf_atoms)):
        truth = dict(zip(naf_atoms, bits))
        result = least_model(truth)
        if all((a in result[0]) == truth[a] for a in naf_atoms):
            results.setdefault(result)
    return list(results)


def stable_models(p: GroundProgram) -> list[Interpretation]:
    """All stable models, deterministically ordered.

    May return the empty list ("no stable model" is a valid outcome).
    """
    instances = _instances(p.rules)
    naf_atoms = sorted({a for i in instances for a in i.naf})
    found = branch_search(naf_atoms, lambda truth: _joint_fixpoint(instances, truth, p.facts, (), (), ())[:1])
    models = [Interpretation(m) for (m,) in found]
    models.sort(key=lambda m: sorted(map(str, m.true_atoms)))
    return models


def answer_query(p: GroundProgram, query: tuple[Literal, ...]) -> list[dict]:
    """Substitutions grounding the query that hold in every stable model, in
    product order over the program's sorted constants.

    The positive literals are joined with each model's true atoms, and only
    the variables that they leave unbound range over the constants.  Raises
    :class:`InconsistentProgramError` when the program has no stable model
    rather than reporting every substitution vacuously.
    """
    models = stable_models(p)
    if not models:
        raise InconsistentProgramError("program has no stable model")
    variables = tuple(dict.fromkeys(v for lit in query for v in lit.atom.variables()))
    positive = [l.atom for l in query if not l.negated]
    negated = [l.atom for l in query if l.negated]
    bound = {v for a in positive for v in a.variables()}
    rest = [v for v in variables if v not in bound]
    domain = tuple(sorted(p.constants()))
    members = frozenset(domain)

    def holding(true):
        return {
            tuple(theta[v] for v in variables)
            for theta in _groundings(_join(positive, _index(true), {}, members), rest, domain)
            if not any(a.substitute(theta) in true for a in negated)
        }

    answers = [holding(m.true_atoms) for m in models]
    return [dict(zip(variables, combo)) for combo in sorted(set.intersection(*answers))]
