"""Hypothesis language membership and the downward refinement operator.

A bias names the predicate alphabets a body may draw from; refinement
specializes a rule by exactly one of four moves: add a positive datalog
literal, add an ontology literal, specialize an ontology literal along the
inclusion hierarchy, or add a negated datalog literal over existing variables.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from operator import itemgetter

from .dlreason import subsumes
from .model import (
    Atom,
    Axiom,
    Const,
    LanguageBias,
    Literal,
    ModelError,
    Predicate,
    Record,
    Rule,
    Var,
    _set,
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


class RefinementStep(Record):
    """One move: its label, the literal it adds or specializes, the parent,
    the child and the child's key ``canonical_form(child)``."""

    __slots__ = ("rule_applied", "literal", "parent", "child", "key")

    def __init__(self, rule_applied: str, literal: Literal, parent: Rule, child: Rule, key: Rule):
        _set(self, "rule_applied", rule_applied)
        _set(self, "literal", literal)
        _set(self, "parent", parent)
        _set(self, "child", child)
        _set(self, "key", key)


def seed_rule(target: Predicate) -> Rule:
    """The empty-bodied top element of the search; never emitted as learned."""
    if not target.is_dl:
        raise ModelError(f"learning target {target.name} must be a concept or role")
    names = ("X", "Y")[: target.arity]
    return Rule(Atom(target, tuple(Var(n) for n in names)))


def _fresh_vars(used: set[Var], n: int) -> list[Var]:
    out = [v for v in map(Var, _FRESH_POOL) if v not in used][:n]
    if len(out) < n:
        raise ModelError("fresh-variable pool exhausted")
    return out


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


@functools.lru_cache(maxsize=1024)
def _added_literals(
    pred: Predicate, existing: tuple[Var, ...], head: Atom, max_new: int, negated: bool = False
) -> tuple[tuple[Literal, tuple], ...]:
    """Each literal over ``pred`` that refinement may add to a rule with head
    ``head`` and variables ``existing``, with its :func:`_literal_key` under
    the head's numbering.  The arguments are pairwise-distinct variables, at
    least one in ``existing`` and at most ``max_new`` fresh; a negated
    literal's come from ``existing`` alone, so its callers pass 0.

    Cached, so that parents with the same variables and head share the
    literals their children add and the literals' sort keys.
    """
    fresh = _fresh_vars(set(existing), min(max_new, pred.arity))
    head_ids = _head_ids(head)
    out = []
    for combo in itertools.permutations(existing + tuple(fresh), pred.arity):
        new = [v for v in combo if v not in existing]
        # one existing variable at least; fresh names in canonical order, so
        # that permuted picks do not alias
        if len(new) < len(combo) and new == fresh[: len(new)]:
            lit = Literal(Atom(pred, combo), negated)
            out.append((lit, _literal_key(lit, head_ids)))
    return tuple(out)


#: Canonical variable ``V<i>`` by number ``i``, built once and shared by every
#: canonical rule; :func:`_canonical_var` adds numbers as rules need them.
_CANONICAL_VARS: dict[int, Var] = {}

#: Canonical body literal by (predicate, renamed args, polarity).  Canonical
#: literals use only the shared ``V<i>`` variables, so few distinct ones occur
#: and every canonical rule shares them; :func:`_canonical_literal` adds them
#: as rules need them.
_CANONICAL_LITERALS: dict[tuple, Literal] = {}

#: Canonical head by (predicate, renamed args), shared in the same way, so that
#: a canonical rule owns only itself and its body tuple.
_CANONICAL_HEADS: dict[tuple, Atom] = {}


def _canonical_var(i: int) -> Var:
    # setdefault keeps one object per number even if two threads race here
    return _CANONICAL_VARS.get(i) or _CANONICAL_VARS.setdefault(i, Var(f"V{i}"))


def _canonical_literal(lit: Literal, rename: dict[Var, Var]) -> Literal:
    pred = lit.atom.pred
    args = tuple(rename[t] if isinstance(t, Var) else t for t in lit.atom.args)
    key = (pred, args, lit.negated)
    found = _CANONICAL_LITERALS.get(key)
    if found is None:
        found = _CANONICAL_LITERALS.setdefault(key, Literal(Atom(pred, args), lit.negated))
    return found


def _canonical_head(head: Atom, rename: dict[Var, Var]) -> Atom:
    args = tuple(rename[t] if isinstance(t, Var) else t for t in head.args)
    key = (head.pred, args)
    found = _CANONICAL_HEADS.get(key)
    if found is None:
        found = _CANONICAL_HEADS.setdefault(key, Atom(head.pred, args))
    return found


def _order_ties(
    keys: list[tuple], occ: list[tuple[int, ...]], n_head: int
) -> tuple[dict[int, int], tuple[int, ...]]:
    """The number of each variable id and the body order, as positions in the
    sorted body, for a body in which some literals have equal keys.

    Only literals with equal keys are reordered, and the ordering whose
    variables, numbered by first occurrence, read smallest wins.  It is built
    one literal at a time: only the partial orderings with the smallest
    numbering so far are extended, and two that leave the same literals to
    place, with the same numbers on their variables, are extended once.
    """
    # (number of each variable id, body positions placed, positions left)
    states = [({i: i for i in range(n_head)}, (), tuple(range(len(keys))))]
    for _ in keys:
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
    return names, placed


def _head_ids(head: Atom) -> dict[Var, int]:
    """Head variables numbered by first occurrence; their numbers are fixed."""
    ids: dict[Var, int] = {}
    for t in head.args:
        if isinstance(t, Var):
            ids.setdefault(t, len(ids))
    return ids


_first = itemgetter(0)


def _keyed_body(body: tuple[Literal, ...], head_ids: dict[Var, int]) -> list[tuple]:
    """``(literal key, literal)`` for each body literal, sorted stably by key."""
    return sorted(((_literal_key(l, head_ids), l) for l in body), key=_first)


def _remember(rule: Rule, key: Rule) -> Rule:
    """Store ``key`` as the canonical form of ``rule`` and of itself."""
    object.__setattr__(key, "_canonical", key)
    object.__setattr__(rule, "_canonical", key)
    return key


def _canonical_rule(head: Atom, head_ids: dict[Var, int], keyed: list[tuple]) -> Rule:
    """The canonical form of the rule with ``head`` and the body in ``keyed``,
    as :func:`_keyed_body` returns it for ``head_ids``."""
    ids = dict(head_ids)
    keys = [k for k, _ in keyed]
    occ = [tuple(ids.setdefault(t, len(ids)) for t in l.atom.args if isinstance(t, Var)) for _, l in keyed]
    if any(a == b for a, b in zip(keys, keys[1:])):
        names, placed = _order_ties(keys, occ, len(head_ids))
    else:  # first occurrence in sorted order is already the smallest numbering
        names, placed = range(len(ids)), range(len(keyed))
    rename = {v: _canonical_var(names[i]) for v, i in ids.items()}
    # renaming the distinct literals of a rule injectively keeps them distinct
    body = tuple(_canonical_literal(keyed[j][1], rename) for j in placed)
    return Rule._distinct(_canonical_head(head, rename), body)


def canonical_form(rule: Rule) -> Rule:
    """Rename variables to a canonical sequence, modulo body reordering, so
    that alphabetic variants collapse to an identical rule.

    The body is sorted by :func:`_literal_key` and variables are numbered by
    first occurrence, head first; literals with equal keys are ordered by
    :func:`_order_ties`.  The head and body literals are shared between
    canonical rules.

    This function computes the form from scratch; :func:`refine` builds most
    of its children's forms from their parent's instead.  The form is
    computed once per rule object and kept in its ``_canonical`` slot, where
    :func:`refine` has already put it for every child it returns; the form is
    its own form, so it is kept on the form too.  A copy of a rule, or an
    equal rule built anew, computes it again.
    """
    key = rule._canonical
    if key is None:
        ids = _head_ids(rule.head)
        key = _remember(rule, _canonical_rule(rule.head, ids, _keyed_body(rule.body, ids)))
    return key


def refine(
    h: Rule,
    bias: LanguageBias,
    tbox: tuple[Axiom, ...] = (),
    max_new_vars: int = DEFAULT_MAX_NEW_VARS,
) -> tuple[RefinementStep, ...]:
    """All proper one-step specializations of ``h`` under the bias.

    Children are deduplicated modulo variable renaming; each passes the
    safeness and linkedness filters.  When ``h`` passes them, every child
    does, and is not checked again: an added literal has a variable of ``h``,
    its fresh variables occur positively, a negated literal uses only
    positive-body variables, and a specialization keeps the predicate kind
    and the arguments.

    Each step's ``key`` is its child's canonical form, and is also stored on
    the child, so :func:`canonical_form` of a child costs a slot read.  A
    child that adds a literal whose sort key ties with none of ``h``'s, to a
    parent whose sort keys have no tie, is keyed from ``h``'s key: the new
    literal goes in at its place in key order, the literals before it are kept
    as they are, and those after it too, unless the new literal numbers a
    variable first; then they are renumbered, once per call for each place and
    such variables.  Every other child is keyed from scratch.

    The literals a child adds come from :func:`_added_literals`, with their
    sort keys, so parents with the same head and variables share those
    objects and keys; only the child's body tuple and rule are new.  Those
    children, and the keys built from ``h``'s, skip the public constructor's
    duplicate check (:meth:`Rule._distinct`): an added literal's atom is not
    in ``h``'s body.  A specialized child goes through it, as the specialized
    literal may already be in the body.
    """
    existing = h.variables()
    body_atoms = {l.atom for l in h.body}
    pos_vars = tuple(sorted({v for l in h.body if not l.negated for v in l.atom.variables()}))
    out: list[RefinementStep] = []
    parent_key = canonical_form(h)
    seen: set[Rule] = {parent_key}
    check_children = not _admissible(h)
    head_ids = _head_ids(h.head)
    keyed_parent = _keyed_body(h.body, head_ids)
    keys = [k for k, _ in keyed_parent]
    tied = any(a == b for a, b in zip(keys, keys[1:]))
    # with no tie, parent_key.body is h's body in key order, numbered by first
    # occurrence: ids[v] is v's number and counts[p] how many are numbered
    # after the first p sorted literals
    ids = dict(head_ids)
    counts = [len(ids)]
    for _, l in keyed_parent:
        for t in l.atom.args:
            if isinstance(t, Var):
                ids.setdefault(t, len(ids))
        counts.append(len(ids))
    suffixes: dict[tuple, tuple[Literal, ...]] = {}

    def added_key(lit: Literal, k: tuple, child: Rule) -> Rule:
        """The key of ``child``, whose body is h's plus ``lit``, which h lacks
        and whose sort key is ``k``: ``parent_key``'s body with ``lit``
        inserted at its place in key order, the literals after it renumbered
        if ``lit`` numbers a variable first."""
        if tied:
            return canonical_form(child)
        p = bisect.bisect_right(keys, k)
        if p and keys[p - 1] == k:
            return canonical_form(child)
        n = counts[p]
        rename: dict[Var, Var] = {}
        new: list[Var] = []  # variables of lit first numbered at position p
        for t in lit.atom.args:
            if isinstance(t, Var) and t not in rename:
                i = ids.get(t, n)
                if i >= n:
                    i = n + len(new)
                    new.append(t)
                rename[t] = _canonical_var(i)
        if not new:
            suffix = parent_key.body[p:]
        else:
            memo = (p, tuple(new))
            suffix = suffixes.get(memo)
            if suffix is None:
                shifted = {v: _canonical_var(i) for v, i in ids.items() if i < n}
                shifted.update((v, rename[v]) for v in new)
                for _, l in keyed_parent[p:]:
                    for t in l.atom.args:
                        if isinstance(t, Var) and t not in shifted:
                            shifted[t] = _canonical_var(len(shifted))
                suffix = suffixes[memo] = tuple(_canonical_literal(l, shifted) for _, l in keyed_parent[p:])
        body = parent_key.body[:p] + (_canonical_literal(lit, rename),) + suffix
        return _remember(child, Rule._distinct(parent_key.head, body))

    def emit(label: str, lit: Literal, child: Rule, k: tuple | None) -> None:
        """Keep ``child`` unless it is inadmissible or a variant of a kept
        one; ``k`` is the sort key of the literal it adds, or None for a
        specialized child."""
        if check_children and not _admissible(child):
            return
        key = canonical_form(child) if k is None else added_key(lit, k, child)
        if key in seen:
            return
        seen.add(key)
        out.append(RefinementStep(label, lit, h, child, key))

    def add(label: str, candidates: tuple[tuple[Literal, tuple], ...]) -> None:
        # a literal whose atom h lacks is none of h's literals, so the child's
        # body is distinct and needs no dedupe pass
        for lit, k in candidates:
            if lit.atom not in body_atoms:
                emit(label, lit, Rule._distinct(h.head, h.body + (lit,)), k)

    for pred in sorted(bias.datalog_pos):
        add(ADD_DATALOG, _added_literals(pred, existing, h.head, max_new_vars))

    blocked_dl = {l.atom.pred for l in h.body if l.atom.pred.is_dl}
    for pred in sorted(bias.concepts | bias.roles):
        if any(subsumes(pred, b, tbox) for b in blocked_dl if b.kind == pred.kind):
            continue  # an existing ontology literal is already below this predicate
        add(ADD_ONTOLOGY, _added_literals(pred, existing, h.head, max_new_vars))

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
            # the public constructor: the new literal may already be in the body
            body = h.body[:i] + (lit,) + h.body[i + 1 :]
            emit(SPECIALIZE_ONTOLOGY, lit, Rule(h.head, body), None)

    for pred in sorted(bias.datalog_neg):
        add(ADD_NEGATED_DATALOG, _added_literals(pred, pos_vars, h.head, 0, True))

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
