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
    _new,
    _set_canonical,
    CONCEPT,
    DATALOG,
    FORM,
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


_set_label, _set_literal, _set_parent, _set_child, _set_key = (
    RefinementStep.__dict__[n].__set__ for n in RefinementStep.__slots__
)


def _step(label: str, lit: Literal, parent: Rule, child: Rule, key: Rule) -> RefinementStep:
    """``RefinementStep(label, lit, parent, child, key)``, its slots set
    through their descriptors, without the public constructor's argument
    binding."""
    step = _new(RefinementStep)
    _set_label(step, label)
    _set_literal(step, lit)
    _set_parent(step, parent)
    _set_child(step, child)
    _set_key(step, key)
    return step


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
) -> tuple[tuple[Literal, tuple, tuple[int, ...]], ...]:
    """Each literal over ``pred`` that refinement may add to a rule with head
    ``head`` and variables ``existing``, with its :func:`_literal_key` under
    the head's numbering and its arguments' positions in ``existing``
    followed by the fresh variables.  The arguments are pairwise-distinct
    variables, at least one in ``existing`` and at most ``max_new`` fresh; a
    negated literal's come from ``existing`` alone, so its callers pass 0.

    Cached, so that parents with the same variables and head share the
    literals their children add and the literals' sort keys.
    """
    pool = existing + tuple(_fresh_vars(set(existing), min(max_new, pred.arity)))
    n = len(existing)
    head_ids = _head_ids(head)
    out = []
    for at in itertools.permutations(range(len(pool)), pred.arity):
        new = [j - n for j in at if j >= n]
        # one existing variable at least; fresh names in canonical order, so
        # that permuted picks do not alias
        if len(new) < len(at) and new == list(range(len(new))):
            lit = Literal(Atom(pred, tuple(pool[j] for j in at)), negated)
            out.append((lit, _literal_key(lit, head_ids), at))
    return tuple(out)


#: Canonical body literal by (:func:`_literal_key`, numbers of its variables),
#: a key of strings, integers and booleans that hashes in C.  Canonical
#: literals use only the shared ``V<i>`` variables, so few distinct ones occur
#: and every canonical rule shares them; :func:`_canonical_literal` adds them
#: as rules need them.
_CANONICAL_LITERALS: dict[tuple, Literal] = {}

#: Key tails that :func:`refine` keyed afresh, by a signature of the parent's
#: literals from a place on and then of the child's new literal (see there),
#: shared by all of its calls: at most ``_TAILS_SIZE`` places, each with a tail
#: per literal that goes in there, and cleared before it would hold more.
_TAILS: dict[tuple, dict[tuple, tuple[Literal, ...]]] = {}
_TAILS_SIZE = 4096


def _canonical_literal(key: tuple, numbers: tuple[int, ...], lit: Literal) -> Literal:
    """``lit``, whose :func:`_literal_key` is ``key``, with its variables
    renamed to the canonical ones numbered ``numbers`` in argument order."""
    found = _CANONICAL_LITERALS.get((key, numbers))
    if found is None:
        number = iter(numbers)
        args = tuple(Var(f"V{next(number)}") if isinstance(t, Var) else t for t in lit.atom.args)
        found = _CANONICAL_LITERALS.setdefault((key, numbers), Literal(Atom(lit.atom.pred, args), lit.negated))
    return found


def _canonical_head(head: Atom, ids: dict[Var, int]) -> Atom:
    return Atom(head.pred, tuple(Var(f"V{ids[t]}") if isinstance(t, Var) else t for t in head.args))


def _order_ties(
    keys: list[tuple], occ: list[tuple[int, ...]], fixed: dict[int, int]
) -> tuple[dict[int, int], tuple[int, ...]]:
    """The number of each variable id and the body order, as positions in the
    sorted body, for a body in which some literals have equal keys; the ids
    that ``fixed`` numbers 0, 1, ... keep their numbers.

    Only literals with equal keys are reordered, and the ordering whose
    variables, numbered by first occurrence, read smallest wins.  It is built
    one literal at a time: only the partial orderings with the smallest
    numbering so far are extended, and two that leave the same literals to
    place, with the same numbers on their variables, are extended once.
    Through untied literals, one ordering is extended, by first occurrence.
    """
    # (number of each variable id, body positions placed, positions left)
    states = [(fixed, (), tuple(range(len(keys))))]
    for _ in keys:
        best, extended = None, {}
        for names, placed, left in states:
            for i, j in enumerate(left):
                if keys[j] != keys[left[0]]:
                    break
                new = dict(names)
                chunk = tuple([new.setdefault(v, len(new)) for v in occ[j]])
                if best is None or chunk < best:
                    best, extended = chunk, {}
                if chunk == best:
                    rest = left[:i] + left[i + 1 :]
                    future = (rest, tuple([new.get(v) for k in rest for v in occ[k]]))
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


def _keyed_body(body: tuple[Literal, ...], ids: dict[Var, int]) -> list[tuple]:
    """``(literal key, variable ids, literal)`` for each body literal, sorted stably
    by key; ``ids``, the head's, is extended by first occurrence in that order."""
    keyed = sorted(((_literal_key(l, ids), l) for l in body), key=_first)
    return [(k, tuple(ids.setdefault(t, len(ids)) for t in l.atom.args if isinstance(t, Var)), l) for k, l in keyed]


def _canonical_tail(n: int, new: tuple[int, ...], keyed: list[tuple]) -> tuple[Literal, ...]:
    """The canonical literals of the sorted literals ``keyed`` (see
    :func:`_keyed_body`) after a prefix whose variables have the ids below
    ``n`` (the head's, for a whole body), which keep their numbers; the ids in
    ``new`` are numbered next, the others by first occurrence.  If the prefix
    has no tie, the canonical body is its literals' followed by these (see
    :func:`_order_ties`).  It renumbers integers, and hashes no variable."""
    keys = [k for k, _, _ in keyed]
    occ = [o for _, o, _ in keyed]
    names = dict(zip(itertools.chain(range(n), new), itertools.count()))
    if any(a == b for a, b in zip(keys, keys[1:])):
        names, placed = _order_ties(keys, occ, names)
    else:
        placed = range(len(keyed))
        for i in itertools.chain.from_iterable(occ):
            names.setdefault(i, len(names))
    # renaming the distinct literals of a rule injectively keeps them distinct
    return tuple([_canonical_literal(keys[j], tuple([names[i] for i in occ[j]]), keyed[j][2]) for j in placed])


def canonical_form(rule: Rule) -> Rule:
    """Rename variables to a canonical sequence, modulo body reordering, so
    that alphabetic variants collapse to an identical rule.

    The body is sorted by :func:`_literal_key` and variables are numbered by
    first occurrence, head first; literals with equal keys are ordered by
    :func:`_order_ties`.  The head and body literals are shared between
    canonical rules.

    This function computes the form from scratch; :func:`refine` builds its
    added-literal children's forms from their parent's instead.  The form is
    computed once per rule object and kept in its ``_canonical`` slot, where
    :func:`refine` has already put it for every child it returns; a form's
    slot holds :data:`~ontorules.model.FORM`, so the form is its own.  A copy
    of a rule, or an equal rule built anew, computes it again.
    """
    key = rule._canonical
    if key is FORM:
        return rule
    if key is None:
        ids = _head_ids(rule.head)
        head = _canonical_head(rule.head, ids)
        n_head = len(ids)  # before _keyed_body numbers the body's variables
        key = Rule._distinct(head, _canonical_tail(n_head, (), _keyed_body(rule.body, ids)), FORM)
        _set_canonical(rule, key)
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
    child that adds a literal is keyed from ``h``'s key, whose literals
    before the child's first tie (among ``h``'s literals or with the new one)
    it keeps.  If that tie comes before the new literal's place in key order,
    the rest is keyed afresh (:func:`_canonical_tail`).  Otherwise the new
    literal goes in at its place, numbered through its argument positions
    (integers), and the literals after it are kept too, unless it numbers a
    variable first; then they are renumbered afresh.  Such a tail depends on
    integers alone: the sort keys and variable ids of ``h``'s sorted literals
    from its place on, the number of ids before it, and the new literal's key
    and ids, or the ids it numbers first.  Under that signature a process-wide
    memo (``_TAILS``) keeps it for every parent, tied or not, until the memo
    is full.  A specialized child is keyed from scratch.

    The literals a child adds come from :func:`_added_literals`, with their
    sort keys and positions, so parents with the same head and variables
    share them.  Children are deduplicated on their keys' bodies (interned
    literals, hashed in C); only a new body gets a key and a child.  Keys,
    steps and added-literal children skip the public constructors
    (:meth:`Rule._distinct`); a specialized child does not, as its literal
    may already be in the body.
    """
    head, body = h.head, h.body
    distinct = Rule._distinct
    existing = h.variables()
    body_atoms = {l.atom for l in body}
    out: list[RefinementStep] = []
    parent_key = canonical_form(h)
    seen: set[tuple[Literal, ...]] = {parent_key.body}  # bodies of keys, all with parent_key.head
    check_children = not _admissible(h)
    head_ids = _head_ids(head)
    ids = dict(head_ids)
    keyed_parent = _keyed_body(body, ids)
    keys = [k for k, _, _ in keyed_parent]
    tie = next((i for i, (a, b) in enumerate(zip(keys, keys[1:])) if a == b), len(keys))
    # before the first tie, parent_key.body is h's body in key order, numbered
    # by first occurrence: ids[v] is v's number there, and counts[p] how many
    # are numbered after the first p sorted literals
    counts = [len(head_ids)]
    for _, occ, _ in keyed_parent:
        counts.append(max(counts[-1], max(occ, default=-1) + 1))
    # memos[s]: the tails keyed afresh from place s, for every parent whose
    # sorted literals from s on have these keys and ids, after counts[s] ids
    if len(_TAILS) > _TAILS_SIZE - len(counts):
        _TAILS.clear()
    memos = [_TAILS.setdefault((tuple((k, o) for k, o, _ in keyed_parent[s:]), n), {}) for s, n in enumerate(counts)]

    def add(label: str, preds, variables: tuple[Var, ...], max_new: int, negated: bool = False) -> None:
        """Keep each admissible child, not a variant of a kept one, that adds
        a literal of :func:`_added_literals` over one of ``preds``."""
        # by position in variables + fresh: the number in ids, or -1, -2, ... if fresh
        nums = [ids[v] for v in variables] + list(range(-1, -1 - max_new, -1))
        number = nums.__getitem__
        for pred in preds:
            for lit, k, at in _added_literals(pred, variables, head, max_new, negated):
                if lit.atom in body_atoms:
                    continue  # in h's body, under either polarity
                p = bisect.bisect_right(keys, k)
                # the child's first tie: h's, or lit's with the literal before it
                # (any other literal with lit's key is tied before that)
                s = p - 1 if p and keys[p - 1] == k else p
                if tie < s:
                    s = tie
                if s < p:
                    numbers = tuple(map(number, at))
                    tail = memos[s].get((k, numbers)) or memos[s].setdefault((k, numbers), _canonical_tail(
                        counts[s], (), keyed_parent[s:p] + [(k, numbers, lit)] + keyed_parent[p:]))
                    key_body = parent_key.body[:s] + tail
                else:
                    n = counts[p]
                    numbers, new = [], ()  # new: ids of lit's variables first numbered at p
                    for i in map(number, at):  # pairwise-distinct variables
                        if not 0 <= i < n:
                            new += (i,)
                            i = n + len(new) - 1
                        numbers.append(i)
                    numbers = tuple(numbers)
                    canon = _CANONICAL_LITERALS.get((k, numbers)) or _canonical_literal(k, numbers, lit)
                    suffix = parent_key.body[p:]
                    if new and suffix:
                        suffix = memos[p].get(new) or memos[p].setdefault(
                            new, _canonical_tail(n, new, keyed_parent[p:]))
                    key_body = parent_key.body[:p] + (canon,) + suffix
                size = len(seen)
                seen.add(key_body)
                if len(seen) == size:
                    continue  # a variant of a child kept, or refused, before
                key = distinct(parent_key.head, key_body, FORM)
                # a literal whose atom h lacks is none of h's literals, so the
                # child's body is distinct and needs no dedupe pass
                child = distinct(head, body + (lit,), key)
                if check_children and not _admissible(child):
                    continue
                out.append(_step(label, lit, h, child, key))

    add(ADD_DATALOG, sorted(bias.datalog_pos), existing, max_new_vars)
    ontology = sorted(bias.concepts | bias.roles)
    blocked_dl = {l.atom.pred for l in body if l.atom.pred.is_dl}
    # none that an existing ontology literal already lies below
    unblocked = [p for p in ontology if not any(subsumes(p, b, tbox) for b in blocked_dl if b.kind == p.kind)]
    add(ADD_ONTOLOGY, unblocked, existing, max_new_vars)

    for i, l in enumerate(body):
        if not l.atom.pred.is_dl:
            continue
        for pred in ontology:
            if pred is l.atom.pred or pred.kind != l.atom.pred.kind:
                continue
            if not subsumes(l.atom.pred, pred, tbox):
                continue
            lit = Literal(Atom(pred, l.atom.args))
            # the public constructor: the new literal may already be in the body
            child = Rule(head, body[:i] + (lit,) + body[i + 1 :])
            if check_children and not _admissible(child):
                continue
            key = canonical_form(child)
            if key.body not in seen:
                seen.add(key.body)
                out.append(_step(SPECIALIZE_ONTOLOGY, lit, h, child, key))

    if bias.datalog_neg:
        pos_vars = tuple(sorted({v for l in body if not l.negated for v in l.atom.variables()}))
        add(ADD_NEGATED_DATALOG, sorted(bias.datalog_neg), pos_vars, 0, True)
    return tuple(out)


def in_language(h: Rule, bias: LanguageBias, target: Predicate) -> bool:
    """Membership in the hypothesis language: the head predicate ``target``,
    alphabet and polarity of every body literal, plus safeness and
    linkedness."""
    if h.head.pred is not target:
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
