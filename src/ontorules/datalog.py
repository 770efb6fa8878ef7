"""Grounding, stable models and query answering for normal datalog programs.

Stable models are found by iterating the reduct fixpoint from the closed-world
guess, which settles on every stratified program, and otherwise by branching
on the atoms that occur under negation-as-failure and verifying each branch
with the reduct fixpoint.  The hybrid model builder runs the same search
(:func:`branch_search`) over its joint fixpoint.
``is_stable_model`` checks a candidate with the search's own reduct fixpoint,
so it is no independent oracle; ``tests/genprog.brute_force_stable_models`` is.
"""

from __future__ import annotations

import itertools

from .model import (
    Atom,
    BudgetError,
    Const,
    Literal,
    ModelError,
    Record,
    Rule,
    DATALOG,
    DEFAULT_GROUNDING_BUDGET,
    ground_substitutions,
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


def extensional_predicates(rules) -> set:
    """Predicates that never occur in a rule head."""
    heads = {r.head.pred for r in rules}
    preds = set()
    for r in rules:
        preds.add(r.head.pred)
        preds.update(l.atom.pred for l in r.body)
    return preds - heads


def ground_program(
    rules: tuple[Rule, ...],
    facts: frozenset[Atom],
    domain: set[Const],
    budget: int = DEFAULT_GROUNDING_BUDGET,
) -> GroundProgram:
    """Instantiate every rule over ``domain``.

    Instances whose positive body mentions an extensional atom that is not a
    fact are pruned; this preserves the stable models.
    """
    ext = extensional_predicates(rules)
    out: list[Rule] = []
    remaining = budget
    for rule in rules:
        instances = ground_substitutions(rule, domain, budget=remaining) if domain else [rule]
        remaining -= len(instances)
        for inst in instances:
            if any(
                l.atom.pred in ext and l.atom not in facts
                for l in inst.positive_body()
                if l.atom.pred.kind == DATALOG
            ):
                continue
            out.append(inst)
    return GroundProgram(tuple(out), facts)


def _reduct_least_model(p: GroundProgram, naf_truth: dict[Atom, bool]) -> set[Atom]:
    """Least model of the reduct determined by a truth assignment to the
    negated atoms."""
    true = set(p.facts)
    rules = []
    for r in p.rules:
        if any(naf_truth.get(l.atom, False) for l in r.body if l.negated):
            continue
        rules.append((r.head, tuple(l.atom for l in r.body if not l.negated)))
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in true and all(a in true for a in body):
                true.add(head)
                changed = True
    return true


def is_stable_model(p: GroundProgram, i: Interpretation) -> bool:
    """True iff ``i`` equals the least model of the reduct of ``p`` by ``i``."""
    naf_atoms = {l.atom for r in p.rules for l in r.body if l.negated}
    truth = {a: a in i.true_atoms for a in naf_atoms}
    return _reduct_least_model(p, truth) == set(i.true_atoms)


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
    naf_atoms = sorted({l.atom for r in p.rules for l in r.body if l.negated})
    found = branch_search(naf_atoms, lambda truth: (frozenset(_reduct_least_model(p, truth)),))
    models = [Interpretation(m) for (m,) in found]
    models.sort(key=lambda m: sorted(map(str, m.true_atoms)))
    return models


def _holds(literal: Literal, model: Interpretation) -> bool:
    inside = literal.atom in model.true_atoms
    return not inside if literal.negated else inside


def answer_query(
    p: GroundProgram,
    query: tuple[Literal, ...],
    brave: bool = False,
) -> list[dict]:
    """Substitutions grounding the query that hold in every stable model
    (or in some model, with ``brave=True``).

    Raises :class:`InconsistentProgramError` when the program has no stable
    model rather than reporting every substitution vacuously.
    """
    models = stable_models(p)
    if not models:
        raise InconsistentProgramError("program has no stable model")
    variables: dict = {}
    for lit in query:
        for v in lit.atom.variables():
            variables.setdefault(v)
    variables = tuple(variables)
    domain = sorted(p.constants())
    out = []
    combos = itertools.product(domain, repeat=len(variables)) if variables else [()]
    for combo in combos:
        theta = dict(zip(variables, combo))
        ground = [lit.substitute(theta) for lit in query]
        check = any if brave else all
        if check(all(_holds(l, m) for l in ground) for m in models):
            out.append(theta)
    return out
