"""Hypothesis language membership and the downward refinement operator.

A bias names the predicate alphabets a body may draw from; refinement
specializes a rule by exactly one of four moves: add a positive datalog
literal, add an ontology literal, specialize an ontology literal along the
inclusion hierarchy, or add a negated datalog literal over existing variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dlreason import subsumes
from .model import (
    Atom,
    Axiom,
    Const,
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

ADD_DATALOG = "add-datalog-literal"
ADD_ONTOLOGY = "add-ontology-literal"
SPECIALIZE_ONTOLOGY = "specialize-ontology-literal"
ADD_NEGATED_DATALOG = "add-negated-datalog-literal"

#: Fresh variables introduced by added literals, at most this many per literal.
DEFAULT_MAX_NEW_VARS = 1

_FRESH_POOL = tuple("ZWVUTSRQPONMLKJIHGFEDCBAYX") + tuple(f"Z{i}" for i in range(1, 64))


@dataclass(frozen=True)
class RefinementStep:
    rule_applied: str
    literal: Literal
    parent: Rule
    child: Rule


def seed_rule(target: Predicate) -> Rule:
    """The empty-bodied top element of the search; never emitted as learned."""
    if not target.is_dl:
        raise ModelError(f"learning target {target.name} must be a concept or role")
    names = ("X", "Y")[: target.arity]
    return Rule(Atom(target, tuple(Var(n) for n in names)))


def _fresh_vars(used: set[Var], n: int) -> list[Var]:
    out = []
    for name in _FRESH_POOL:
        v = Var(name)
        if v not in used and v not in out:
            out.append(v)
            if len(out) == n:
                return out
    raise ModelError("fresh-variable pool exhausted")


def _argument_tuples(arity: int, existing: tuple[Var, ...], max_new: int):
    """Candidate argument tuples for an added literal: pairwise-distinct
    variables, at least one already in the rule, at most ``max_new`` fresh."""
    fresh = _fresh_vars(set(existing), min(max_new, arity))
    pool = tuple(existing) + tuple(fresh)
    for combo in itertools.permutations(pool, arity):
        if not any(v in existing for v in combo):
            continue
        new = [v for v in combo if v not in existing]
        if len(new) > max_new:
            continue
        # use fresh names in canonical order so permuted picks do not alias
        if new != fresh[: len(new)]:
            continue
        yield combo


def _admissible(child: Rule) -> bool:
    return not validate_safeness(child) and is_linked(child)


def _literal_key(lit: Literal, head_vars: dict[Var, int]) -> tuple:
    """A sort key for a body literal that ignores variable names: polarity,
    predicate, and per argument the number of a head variable among the
    head's variables, the index of first occurrence within the literal of any
    other variable, or the name of a constant."""
    local: dict[Var, int] = {}
    pattern = tuple(
        (2, t.name) if isinstance(t, Const)
        else (0, head_vars[t]) if t in head_vars
        else (1, local.setdefault(t, len(local)))
        for t in lit.atom.args
    )
    pred = lit.atom.pred
    return (lit.negated, pred.name, pred.arity, pred.kind, pattern)


def canonical_form(rule: Rule) -> Rule:
    """Rename variables to a canonical sequence, modulo body reordering, so
    that alphabetic variants collapse to an identical rule.

    The body is sorted by :func:`_literal_key`; only literals with equal keys
    are reordered, and the ordering whose variables, numbered by first
    occurrence, read smallest wins.  It is built one literal at a time: only
    the partial orderings with the smallest numbering so far are extended, and
    two that leave the same literals to place, with the same numbers on their
    variables, are extended once.
    """
    ids: dict[Var, int] = {}  # head variables first: their numbers are fixed
    for t in rule.head.args:
        if isinstance(t, Var):
            ids.setdefault(t, len(ids))
    head_numbers = {i: i for i in range(len(ids))}
    keyed = sorted(((_literal_key(l, ids), l) for l in rule.body), key=lambda kl: kl[0])
    keys = [k for k, _ in keyed]
    occ = [tuple(ids.setdefault(t, len(ids)) for t in l.atom.args if isinstance(t, Var)) for _, l in keyed]
    # (number of each variable id, body positions placed, positions left)
    states = [(head_numbers, (), tuple(range(len(keyed))))]
    for _ in keyed:
        best, extended = None, {}
        for names, placed, left in states:
            for i, j in enumerate(left):
                if keys[j] != keys[left[0]]:
                    break
                new = dict(names)
                chunk = tuple(new.setdefault(v, len(new)) for v in occ[j])
                if best is None or chunk < best:
                    best, extended = chunk, {}
                if chunk == best:
                    rest = left[:i] + left[i + 1 :]
                    future = (rest, tuple(new.get(v) for k in rest for v in occ[k]))
                    extended.setdefault(future, (new, placed + (j,), rest))
        states = list(extended.values())
    names, placed, _ = states[0]
    rename = {v: Var(f"V{names[i]}") for v, i in ids.items()}
    return Rule(rule.head.substitute(rename), tuple(keyed[j][1].substitute(rename) for j in placed))


def refine(
    h: Rule,
    bias: LanguageBias,
    tbox: tuple[Axiom, ...] = (),
    max_new_vars: int = DEFAULT_MAX_NEW_VARS,
) -> tuple[RefinementStep, ...]:
    """All proper one-step specializations of ``h`` under the bias.

    Children are deduplicated modulo variable renaming; each passes the
    safeness and linkedness filters.
    """
    existing = h.variables()
    body_atoms = {l.atom for l in h.body}
    pos_vars: set[Var] = set()
    for l in h.body:
        if not l.negated:
            pos_vars.update(l.atom.variables())
    out: list[RefinementStep] = []
    seen: set[Rule] = {canonical_form(h)}

    def emit(label: str, lit: Literal, child: Rule) -> None:
        if not _admissible(child):
            return
        key = canonical_form(child)
        if key in seen:
            return
        seen.add(key)
        out.append(RefinementStep(label, lit, h, child))

    for pred in sorted(bias.datalog_pos):
        for args in _argument_tuples(pred.arity, existing, max_new_vars):
            atom = Atom(pred, args)
            if atom in body_atoms:
                continue
            lit = Literal(atom)
            emit(ADD_DATALOG, lit, Rule(h.head, h.body + (lit,)))

    blocked_dl = {l.atom.pred for l in h.body if l.atom.pred.is_dl}
    for pred in sorted(bias.concepts | bias.roles):
        if any(subsumes(pred, b, tbox) for b in blocked_dl if b.kind == pred.kind):
            continue  # an existing ontology literal is already below this predicate
        for args in _argument_tuples(pred.arity, existing, max_new_vars):
            atom = Atom(pred, args)
            if atom in body_atoms:
                continue
            lit = Literal(atom)
            emit(ADD_ONTOLOGY, lit, Rule(h.head, h.body + (lit,)))

    alphabet = bias.concepts | bias.roles
    for i, l in enumerate(h.body):
        if not l.atom.pred.is_dl:
            continue
        for pred in sorted(alphabet):
            if pred == l.atom.pred or pred.kind != l.atom.pred.kind:
                continue
            if not subsumes(l.atom.pred, pred, tbox):
                continue
            lit = Literal(Atom(pred, l.atom.args))
            body = h.body[:i] + (lit,) + h.body[i + 1 :]
            emit(SPECIALIZE_ONTOLOGY, lit, Rule(h.head, body))

    for pred in sorted(bias.datalog_neg):
        if pred.arity > len(pos_vars):
            continue
        for args in itertools.permutations(sorted(pos_vars), pred.arity):
            atom = Atom(pred, args)
            if atom in body_atoms:
                continue
            lit = Literal(atom, negated=True)
            emit(ADD_NEGATED_DATALOG, lit, Rule(h.head, h.body + (lit,)))

    return tuple(out)


def in_language(h: Rule, bias: LanguageBias, target: Predicate | None = None) -> bool:
    """Membership in the hypothesis language: alphabet and polarity of every
    body literal, plus safeness and linkedness (and the head predicate, when a
    target is given)."""
    if target is not None and h.head.pred != target:
        return False
    for l in h.body:
        pred = l.atom.pred
        if pred.kind == DATALOG:
            allowed = bias.datalog_neg if l.negated else bias.datalog_pos
        elif pred.kind == CONCEPT:
            allowed = bias.concepts
        else:
            allowed = bias.roles
        if pred not in allowed:
            return False
    return not validate_safeness(h) and is_linked(h)
