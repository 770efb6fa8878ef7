"""The generality test against the product loop it replaced, and its per-KB
memo.

``reference_more_general`` is the test as it stood before the join, read
over the chase: it skolemizes ``h2`` on every call and tries every
substitution of ``h1``'s free variables, head and datalog variables over the
domain, variables that only ontology atoms use over the domain and the nulls
of the cautious null role atoms.  It computes its cautious sets with the
canonical models directly, and its possible atoms with the complete models,
through ``hybrid._complete_models`` and a memo of its own that lasts one
call.  It reads both budgets at call time, so that a patched one applies.
"""

import copy
import functools
import itertools
import pickle
import random
from collections import Counter

import pytest

from genhybrid import CONCEPTS, D, E, IDB, ROLES, random_hybrid_kb
from ontorules import hybrid, model, parse_bias
from ontorules.datalog import _index
from ontorules.dlreason import concept_closure, subsumes
from ontorules.hybrid import _join, _Theory, more_general
from ontorules.model import (
    CONCEPT,
    DATALOG,
    Atom,
    BudgetError,
    ConceptInclusion,
    Const,
    Existential,
    HybridKB,
    Literal,
    ModelError,
    Predicate,
    RoleInclusion,
    Rule,
    Var,
    skolemize,
)
from ontorules.parser import parse_kb, parse_rule
from ontorules.refine import SPECIALIZE_ONTOLOGY, canonical_form, refine, seed_rule

from conftest import data_text


# --- the reference: the product loop, as it was --------------------------------

def _literal_holds(lit, cautious_d, cautious_dl, possibly_d):
    if lit.negated:
        return lit.atom not in possibly_d()
    if lit.atom.pred.is_dl:
        return lit.atom in cautious_dl
    return lit.atom in cautious_d


def _bind_head(head, example):
    if head.pred != example.pred:
        return None
    theta = {}
    for t, c in zip(head.args, example.args):
        if isinstance(t, Var):
            if theta.setdefault(t, c) != c:
                return None
        elif t != c:
            return None
    return theta


def reference_more_general(h1: Rule, h2: Rule, kb: HybridKB) -> bool:
    if h1.head.pred != h2.head.pred:
        raise ModelError("generality is only defined for rules with the same head predicate")
    if h1.head == h2.head and set(h1.body) <= set(h2.body):
        return True

    kb_constants: set[Const] = set()
    for r in kb.rules:
        kb_constants |= r.constants()
    h2s, sigma = skolemize(h2, kb_constants | h1.constants() | h2.constants())

    facts = frozenset(l.atom for l in h2s.body if not l.negated and l.atom.pred.kind == DATALOG)
    abox = tuple(
        sorted(
            (l.atom for l in h2s.body if not l.negated and l.atom.pred.is_dl),
            key=str,
        )
    )
    forbidden = frozenset(l.atom for l in h2s.body if l.negated)

    h1_vars = set(h1.variables())
    natural = {v: sigma[v] for v in h1_vars} if h1_vars <= set(sigma) else None
    if natural is not None and h1.head.substitute(natural) != h2s.head:
        natural = None

    tbox, idb = kb.tbox, kb.rules
    domain = tuple(sorted(kb_constants | h2s.constants() | h1.constants()))
    theory = _Theory(tbox, abox, idb, facts, domain, forbidden=forbidden)
    canonical = theory.models
    if not canonical:
        return True
    cautious_d = frozenset.intersection(*[frozenset(m.datalog_model.true_atoms) for m in canonical])
    # the null role atoms of every model join the named ones: a null's name
    # depends only on its anchor, role and direction
    cautious_dl = frozenset.intersection(*[m.guess.true_atoms | m.existentials for m in canonical])
    nulls = sorted({t for a in cautious_dl for t in a.args} - set(domain))
    grounded = {v for a in (h1.head, *(l.atom for l in h1.body if l.atom.pred.kind == DATALOG)) for v in a.variables()}

    @functools.cache
    def possibly_d():
        # reads the guess budget per call, so that a patched one applies
        models = hybrid._complete_models(theory)
        return frozenset(a for m in models for a in m.datalog_model.true_atoms)

    def body_holds(theta):
        return all(
            _literal_holds(l.substitute(theta), cautious_d, cautious_dl, possibly_d)
            for l in h1.body
        )

    if natural is not None and body_holds(natural):
        return True

    bound = _bind_head(h1.head, h2s.head)
    if bound is None:
        return False
    free = [v for v in h1.variables() if v not in bound]
    if len(domain) ** len(free) > hybrid.DEFAULT_THETA_BUDGET:
        raise BudgetError("substitution search exceeds the candidate budget")
    for combo in itertools.product(*[domain if v in grounded else domain + tuple(nulls) for v in free]):
        theta = dict(bound)
        theta.update(zip(free, combo))
        if body_holds(theta):
            return True
    return False


def _verdict(fn, h1, h2, kb):
    try:
        return fn(h1, h2, kb)
    except BudgetError as exc:
        return f"budget: {exc}"


# --- random rule pairs -------------------------------------------------------------

T1 = Predicate("t", 1, DATALOG)
T2 = Predicate("t2", 2, DATALOG)
VARS = tuple(Var(n) for n in ("X", "Y", "Z", "W", "V"))
SPLIT = Var("U")  # the variable that splits an occurrence off another
OTHER_VARS = tuple(Var(n) for n in ("A", "B", "C", "F", "G", "H"))


def _term(rng, pool, consts):
    if consts and rng.random() < 0.12:
        return rng.choice(consts)
    return rng.choice(pool)


def _random_literal(rng, pool, consts):
    """A literal over the KB's predicates; it may repeat a variable, hold a
    constant, or be negated (datalog predicates only)."""
    r = rng.random()
    if r < 0.2:
        return Literal(Atom(D, (_term(rng, pool, consts),)), rng.random() < 0.15)
    if r < 0.4:
        first = _term(rng, pool, consts)
        second = first if rng.random() < 0.2 else _term(rng, pool, consts)
        return Literal(Atom(E, (first, second)), rng.random() < 0.15)
    if r < 0.6:
        return Literal(Atom(rng.choice(IDB), (_term(rng, pool, consts),)), rng.random() < 0.4)
    if r < 0.8:
        return Literal(Atom(rng.choice(CONCEPTS), (_term(rng, pool, consts),)))
    first = _term(rng, pool, consts)
    second = first if rng.random() < 0.2 else _term(rng, pool, consts)
    return Literal(Atom(rng.choice(ROLES), (first, second)))


def _random_rule(rng, consts, pool=VARS) -> Rule:
    if rng.random() < 0.75:
        head = Atom(T1, (pool[0],))
    else:
        head = Atom(T2, (pool[0], pool[1]))
    body = [Literal(Atom(D, (pool[0],)))] if rng.random() < 0.7 else []
    body += [_random_literal(rng, pool[:4], consts) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:  # a variable that occurs only in a negated literal
        body.append(Literal(Atom(rng.choice(IDB), (pool[4],)), True))
    return Rule(head, tuple(body))


def _rename(rule: Rule, rng) -> Rule:
    """The rule with its variables renamed apart, so that the skolemization's
    own substitution cannot decide a pair."""
    targets = list(OTHER_VARS)
    rng.shuffle(targets)
    return rule.substitute(dict(zip(VARS + (SPLIT,), targets)))


def _generalize(rule: Rule, rng) -> Rule:
    """``rule`` with some body literals dropped and, half of the time, one
    argument of one literal replaced by a fresh variable: an occurrence of a
    variable split off, or a constant generalized."""
    body = [l for l in rule.body if rng.random() < 0.7] or list(rule.body[:1])
    i = rng.randrange(len(body))
    lit = body[i]
    args = list(lit.atom.args)
    j = rng.randrange(len(args))
    args[j] = SPLIT if rng.random() < 0.5 else args[j]
    body[i] = Literal(Atom(lit.atom.pred, tuple(args)), lit.negated)
    return Rule(rule.head, tuple(body))


def _rule_pairs(rng, kb):
    consts = sorted(kb.constants())
    for _ in range(6):
        h1 = _random_rule(rng, consts)
        kind = rng.random()
        if kind < 0.25:
            h2 = _random_rule(rng, consts)
            if h2.head.pred != h1.head.pred:
                h2 = Rule(h1.head, h2.body)
        elif kind < 0.6:
            extra = tuple(_random_literal(rng, VARS[:4], consts) for _ in range(rng.randint(0, 2)))
            h2 = _rename(Rule(h1.head, h1.body + extra), rng)
        else:
            h2, h1 = h1, _generalize(h1, rng)
            if rng.random() < 0.6:
                h1 = _rename(h1, rng)
        yield h1, h2


def _features(h1: Rule) -> set[str]:
    out = set()
    positive = [l.atom for l in h1.body if not l.negated]
    occurrences = Counter(v for a in positive for v in a.variables())
    if any(n > 1 for n in occurrences.values()):
        out.add("shared variable")
    if any(len(set(a.variables())) < sum(isinstance(t, Var) for t in a.args) for a in positive):
        out.add("repeated variable")
    if h1.constants():
        out.add("body constant")
    if any(a.pred.is_dl for a in positive):
        out.add("ontology literal")
    if any(not a.pred.is_dl for a in positive):
        out.add("datalog literal")
    if any(l.negated for l in h1.body):
        out.add("negated literal")
    negated_only = {v for l in h1.body if l.negated for v in l.atom.variables()} - set(occurrences)
    if negated_only - set(h1.head.variables()):
        out.add("variable only under negation")
    return out


def test_the_join_agrees_with_the_product_loop(monkeypatch):
    """On random KBs and rule pairs, ``more_general`` gives the verdict of the
    product loop, or raises the same budget error, in both directions.

    Both sides build their complete models through ``hybrid._complete_models``
    with a guess budget of 8, not 24: the enumeration is 2^guesses, and
    the budget error is then raised often enough to check that it is raised
    in the same cases."""
    monkeypatch.setattr(hybrid, "DEFAULT_GUESS_BUDGET", 8)
    decided = Counter()  # features of h1 over the pairs that the join decided "more general"
    verdicts = Counter()
    for seed in range(240):
        rng = random.Random(seed)
        kb = random_hybrid_kb(rng)
        for h1, h2 in _rule_pairs(rng, kb):
            for a, b in ((h1, h2), (h2, h1)):
                want = _verdict(reference_more_general, a, b, kb)
                assert _verdict(more_general, a, b, kb) == want, (seed, str(a), str(b))
                verdicts[want if isinstance(want, bool) else "budget"] += 1
                fast = a.head == b.head and set(a.body) <= set(b.body)
                if want is True and not fast and not set(a.variables()) <= set(b.variables()):
                    decided.update(_features(a))
    # the pairs reach every case the join has to get right
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000 and verdicts["budget"] >= 100, verdicts
    for feature in ("shared variable", "repeated variable", "body constant", "ontology literal",
                    "datalog literal", "negated literal", "variable only under negation"):
        assert decided[feature] >= 100, decided


# --- the inclusion path ----------------------------------------------------------

def _moves(kb):
    """(move, predicate for h2, predicate of h1) for every replacement of an
    ontology predicate of h1 in a pair: a predicate below it, directly or
    transitively, a predicate above it, or one conjunct of a conjunction
    below it."""
    direct = {(ax.sub, ax.sup) for ax in kb.tbox if isinstance(ax, RoleInclusion)}
    direct |= {(ax.lhs[0], ax.rhs) for ax in kb.tbox
               if isinstance(ax, ConceptInclusion) and len(ax.lhs) == 1 and isinstance(ax.rhs, str)}
    out = []
    for general in CONCEPTS + ROLES:
        for specific in CONCEPTS + ROLES:
            if specific != general and specific.kind == general.kind and subsumes(general, specific, kb.tbox):
                step = "direct" if (specific.name, general.name) in direct else "transitive"
                out += [(step, specific, general), ("super", general, specific)]
    for ax in kb.tbox:
        if isinstance(ax, ConceptInclusion) and len(ax.lhs) == 2 and isinstance(ax.rhs, str):
            out += [("conjunct", Predicate(c, 1, CONCEPT), Predicate(ax.rhs, 1, CONCEPT)) for c in ax.lhs]
    return out


def _inclusion_pairs(rng, kb):
    """Random pairs in which h2 is h1 with one positive ontology literal B(t)
    replaced by B'(t) for a move of :func:`_moves`, each kind of move as
    likely as the others; some h2 extend their body, and some are renamed
    apart."""
    consts = sorted(kb.constants())
    moves = _moves(kb)
    for _ in range(6):
        kind = rng.choice(sorted({m[0] for m in moves}))
        move, new, old = rng.choice([m for m in moves if m[0] == kind])
        h1 = _random_rule(rng, consts)
        args = tuple(_term(rng, VARS[:4], consts) for _ in range(old.arity))
        i = rng.randint(0, len(h1.body))
        before, after = h1.body[:i], h1.body[i:]
        extra = tuple(_random_literal(rng, VARS[:4], consts) for _ in range(rng.randint(0, 2)))
        h2 = Rule(h1.head, before + (Literal(Atom(new, args)),) + after + extra)
        h1 = Rule(h1.head, before + (Literal(Atom(old, args)),) + after)
        renamed = rng.random() < 0.3
        yield move, extra != (), renamed, h1, _rename(h2, rng) if renamed else h2


def _by_inclusion(h1, h2, kb):
    """The pair meets the inclusion case of the syntactic fast path: equal
    heads, no negated literal in h1, and each literal of h1 in h2 or below a
    positive literal of h2 on the same arguments."""
    def met(l):
        return l in h2.body or l.atom.pred.is_dl and any(
            not m.negated and m.atom.args == l.atom.args and m.atom.pred.kind == l.atom.pred.kind
            and subsumes(l.atom.pred, m.atom.pred, kb.tbox) for m in h2.body)

    return h1.head == h2.head and not any(l.negated for l in h1.body) and all(map(met, h1.body))


def test_the_inclusion_path_agrees_with_the_product_loop(monkeypatch):
    """On random KBs with role and concept hierarchies, pairs that replace an
    ontology literal by one below it, above it, or by one conjunct of a
    conjunction below it get the product loop's verdict or budget error in
    both directions; a pair that the inclusion case decides is more general
    and leaves the KB's memo empty."""
    monkeypatch.setattr(hybrid, "DEFAULT_GUESS_BUDGET", 8)
    seen = Counter()
    for seed in range(10_000, 10_400):
        rng = random.Random(seed)
        kb = random_hybrid_kb(rng)
        if not any(isinstance(ax, RoleInclusion) for ax in kb.tbox) or not concept_closure(kb.tbox):
            continue
        seen["kbs"] += 1
        for move, extended, renamed, h1, h2 in _inclusion_pairs(rng, kb):
            for a, b in ((h1, h2), (h2, h1)):
                want = _verdict(reference_more_general, a, b, kb)
                assert _verdict(more_general, a, b, kb) == want, (seed, move, str(a), str(b))
                if a is h1:
                    seen[(move, want if isinstance(want, bool) else "budget")] += 1
                    seen["extended"] += extended
                    seen["renamed"] += renamed
                    seen["negated"] += any(l.negated for l in h1.body)
                if _by_inclusion(a, b, kb):
                    seen["by inclusion"] += 1
                    seen["by inclusion only"] += not set(a.body) <= set(b.body)
                    twin, runs = copy.copy(kb), hybrid.counters["canonical_runs"]
                    assert more_general(a, b, twin) is True, (seed, str(a), str(b))
                    assert not _entries(twin) and hybrid.counters["canonical_runs"] == runs
    assert seen["kbs"] >= 50, seen
    for key in ("by inclusion only", "extended", "renamed", "negated", ("direct", True), ("transitive", True),
                ("super", True), ("super", False), ("conjunct", True), ("conjunct", False)):
        assert seen[key] >= 5, (key, seen)


# --- the chase ---------------------------------------------------------------------

def _filler_pairs(rng, kb):
    """Pairs in which ``h2`` gives its head variable one or two concepts and
    ``h1`` asks for role fillers of it through variables that only ontology
    atoms use, and the same ``h1`` with a negated literal on such a variable,
    which makes it a datalog variable."""
    x, w, v = VARS[0], Var("W"), Var("V")
    head = Atom(T1, (x,))
    for _ in range(4):
        concepts = rng.sample(CONCEPTS, rng.randint(1, 2))
        h2 = Rule(head, (Literal(Atom(D, (x,))), *(Literal(Atom(c, (x,))) for c in concepts)))
        body = [Literal(Atom(D, (x,)))]
        for _ in range(rng.randint(1, 3)):
            y = rng.choice((w, v))
            args = (x, y) if rng.random() < 0.5 else (y, x)
            body.append(Literal(Atom(rng.choice(ROLES), args if rng.random() < 0.85 else (y, rng.choice((w, v))))))
        if rng.random() < 0.3:
            body.append(Literal(Atom(rng.choice(IDB), (x,)), True))
        h1 = Rule(head, tuple(body))
        y = rng.choice([t for l in body[1:] for t in l.atom.args if t != x] or [w])
        yield h1, Rule(head, (*body, Literal(Atom(rng.choice(IDB), (y,)), True))), h2


def test_the_generality_test_meets_open_atoms_with_the_chase(monkeypatch):
    """On random KBs with an existential axiom, ``h2``'s concepts fire
    existentials on its skolem constant, and no named role atom is true in
    the augmented theory, so only a null meets ``h1``'s role atoms: the join
    gives the verdict of the product loop over the domain and the nulls, in
    both directions, and a variable of a negated literal binds no null."""
    monkeypatch.setattr(hybrid, "DEFAULT_GUESS_BUDGET", 8)
    seen = Counter()
    for seed in range(20_000, 20_300):
        rng = random.Random(seed)
        kb = random_hybrid_kb(rng)
        if not any(isinstance(ax, ConceptInclusion) and isinstance(ax.rhs, Existential) for ax in kb.tbox):
            continue
        for h1, barred, h2 in _filler_pairs(rng, kb):
            for a, b in ((h1, h2), (h2, h1), (barred, h2)):
                want = _verdict(reference_more_general, a, b, kb)
                assert _verdict(more_general, a, b, kb) == want, (seed, str(a), str(b))
                seen[a is h1, a is barred, want] += 1
            seen["met by a null, barred"] += _verdict(more_general, h1, h2, kb) is True and \
                _verdict(more_general, barred, h2, kb) is False
    assert seen[True, False, True] >= 100 and seen[True, False, False] >= 100, seen
    assert seen["met by a null, barred"] >= 25, seen


# --- the order of the budget checks -----------------------------------------------

CHAIN_KB = "pred d/1. pred e/2. pred r/1. pred q/1.\n#rules\nr(Y) :- e(X,Y).\n"
CHAIN_H2 = "T(X) :- d(X), e(X,Y)."


def test_over_the_budget_the_natural_substitution_still_decides(monkeypatch):
    """``h2`` skolemizes to d(sk0), e(sk0,sk1) and the KB derives r(sk1):
    h1's one free variable ranges over two constants, past a budget of 1.
    The skolemization's own substitution answers True all the same, with a
    negated literal or without one; when it fails, the budget error is
    raised, also when a predicate that leads h1's body has no atom."""
    monkeypatch.setattr(hybrid, "DEFAULT_THETA_BUDGET", 1)
    kb = parse_kb(CHAIN_KB)
    h2 = parse_rule(CHAIN_H2, kb)
    for text in ("T(X) :- d(X), e(X,Y), r(Y).", "T(X) :- d(X), e(X,Y), not q(Y)."):
        h1 = parse_rule(text, kb)
        assert more_general(h1, h2, kb) is True and reference_more_general(h1, h2, kb) is True, text
    for text in ("T(X) :- d(X), e(Y,X).", "T(X) :- d(X), e(X,Y), q(Y).", "T(X) :- q(Y), d(X), not r(X)."):
        h1 = parse_rule(text, kb)
        for fn in (more_general, reference_more_general):
            with pytest.raises(BudgetError):
                fn(h1, h2, kb)


def test_an_absent_leading_predicate_is_false_without_a_join(monkeypatch):
    """Below the budget, a body whose positive atoms before its first negated
    literal (all of them when none is) include one with no atom in the
    cautious truth holds under no grounding: the test answers False before
    any join and without complete models.  An absent predicate after a
    negated literal still builds them, as a walk in body order would."""
    kb = parse_kb(CHAIN_KB)
    h2 = parse_rule(CHAIN_H2, kb)
    assert more_general(parse_rule("T(X) :- d(X), e(X,Y), r(Y).", kb), h2, kb)  # prepares h2's theory
    joins = Counter()
    real = hybrid._join

    def counting(*args):
        joins["calls"] += 1
        return real(*args)

    monkeypatch.setattr(hybrid, "_join", counting)
    for text in ("T(X) :- d(X), e(X,Y), q(Y).", "T(X) :- d(X), q(Y), not r(Y)."):
        h1 = parse_rule(text, kb)
        runs = hybrid.counters["complete_runs"]
        assert more_general(h1, h2, kb) is False, text
        assert joins["calls"] == 0 and hybrid.counters["complete_runs"] == runs, text
        assert reference_more_general(h1, h2, kb) is False, text
    h1 = parse_rule("T(X) :- d(X), not r(X), q(Y).", kb)
    before = hybrid.counters["complete_runs"]
    assert more_general(h1, h2, kb) is False
    assert hybrid.counters["complete_runs"] == before + 1


def _reference_join(atoms, facts, theta, domain):
    """Every extension of ``theta`` over the domain that maps each atom into
    the facts, by the product."""
    free = sorted({v for a in atoms for v in a.variables() if v not in theta}, key=str)
    out = []
    for combo in itertools.product(sorted(domain), repeat=len(free)):
        full = dict(theta)
        full.update(zip(free, combo))
        if all(a.substitute(full) in facts for a in atoms):
            out.append(full)
    return out


def test_the_join_yields_each_binding_of_the_product_once():
    """``_join`` on its own, with indexed atoms that also hold constants
    outside the domain."""
    p, q = Predicate("p", 1, DATALOG), Predicate("q", 2, DATALOG)
    names = [Const(n) for n in "abcde"]
    x, y, z = Var("X"), Var("Y"), Var("Z")
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
        facts = {Atom(p, (rng.choice(names),)) for _ in range(rng.randint(0, 4))}
        facts |= {Atom(q, (rng.choice(names), rng.choice(names))) for _ in range(rng.randint(0, 8))}
        domain = frozenset(rng.sample(names, rng.randint(1, 4)))
        terms = [x, y, z, rng.choice(names)]
        atoms = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                atoms.append(Atom(p, (rng.choice(terms),)))
            else:
                atoms.append(Atom(q, (rng.choice(terms), rng.choice(terms))))
        theta = {x: rng.choice(names)} if rng.random() < 0.3 else {}
        got = list(_join(atoms, _index(facts), theta, domain))
        want = _reference_join(atoms, facts, theta, domain)
        key = lambda t: sorted((str(v), str(c)) for v, c in t.items())  # noqa: E731
        assert sorted(map(key, got)) == sorted(map(key, want)), seed
        checked += bool(want)
    assert checked >= 50


# --- the per-KB memo ---------------------------------------------------------------

def _fresh_kb():
    return parse_kb(data_text("family.okb"), "family.okb")


def _likes_space(kb):
    """The criterion-7 LIKES space: the seed's and h1's children, the named
    rules, all in canonical form."""
    bias = parse_bias(data_text("likes.obias"), kb)
    seed = seed_rule(Predicate("LIKES", 2, model.ROLE))
    h1 = parse_rule("LIKES(X,Y) :- meets(X,Z,Y).", kb)
    space = {canonical_form(seed)}
    for rule in (seed, h1):
        space.update(canonical_form(s.child) for s in refine(rule, bias, kb.tbox))
    for text in ("LIKES(X,Y) :- meets(X,Z,Y), happy(X).", "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z).",
                 "LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z).",
                 "LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z).", "LIKES(X,Y) :- meets(X,Z,Y)."):
        space.add(canonical_form(parse_rule(text, kb)))
    return sorted(space, key=str)


def test_the_pairwise_pass_skolemizes_each_rule_at_most_once(monkeypatch):
    kb = _fresh_kb()
    space = _likes_space(kb)
    assert len(space) == 60
    calls = Counter()
    real = model.skolemize

    def counting(rule, reserved):
        calls[rule] += 1
        return real(rule, reserved)

    monkeypatch.setattr(model, "skolemize", counting)
    related = sum(more_general(a, b, kb) for a in space for b in space)
    assert calls and max(calls.values()) == 1
    assert sum(calls.values()) <= len(space)
    monkeypatch.setattr(model, "skolemize", real)
    assert related == sum(reference_more_general(a, b, kb) for a in space for b in space)


def _entries(kb) -> dict:
    """The KB's memo of prepared rules, empty before the first use."""
    return kb._generality[1] if kb._generality else {}


def _h1_entries(kb):
    """The memo's keys of prepared ``h1`` rules: (rule, body tuple), where a
    theory has (``h2``, frozenset of ``h1``'s constants)."""
    return [k for k in _entries(kb) if isinstance(k[1], tuple)]


def _theories(kb):
    """The memo's theories, read out of its theory entries."""
    return [v[-1] for k, v in _entries(kb).items() if isinstance(k[1], frozenset)]


def test_the_pairwise_pass_prepares_each_h1_at_most_once(monkeypatch):
    kb = _fresh_kb()
    space = _likes_space(kb)
    calls = Counter()
    real = hybrid._premises

    def counting(kb, kb_constants, key):
        calls[key] += 1
        return real(kb, kb_constants, key)

    monkeypatch.setattr(hybrid, "_premises", counting)
    related = [more_general(a, b, kb) for a in space for b in space]
    assert calls and max(calls.values()) == 1
    assert sorted(_h1_entries(kb), key=str) == sorted(calls, key=str)
    monkeypatch.setattr(hybrid, "_premises", real)
    fresh = _fresh_kb()
    assert related == [more_general(a, b, fresh) for a in space for b in space]


def test_an_edge_that_adds_a_literal_prepares_nothing():
    """The syntactic fast path decides every edge of the walk: an edge to a
    child that adds a literal by the body subset, an edge to a specialized
    child by the TBox inclusion that refinement checked.  No edge, added or
    specialized, prepares anything, so the memo stays empty."""
    kb = _fresh_kb()
    bias = parse_bias(data_text("likes.obias"), kb)
    frontier, edges = [parse_rule("LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z).", kb)], []
    for _ in range(2):
        level = [(parent, s) for parent in frontier for s in refine(parent, bias, kb.tbox)]
        edges += level
        frontier = [s.child for _, s in level]
    added = [(p, s) for p, s in edges if s.rule_applied != SPECIALIZE_ONTOLOGY]
    specialized = [(p, s) for p, s in edges if s.rule_applied == SPECIALIZE_ONTOLOGY]
    assert len(added) > 300 and specialized
    runs = hybrid.counters["canonical_runs"]
    assert all(more_general(p, s.child, kb) for p, s in added)
    assert all(more_general(p, s.child, kb) for p, s in specialized)
    assert not _entries(kb)
    assert hybrid.counters["canonical_runs"] == runs


def test_the_memo_is_not_part_of_the_kb():
    kb, fresh = _fresh_kb(), _fresh_kb()
    h1 = parse_rule("LIKES(Y,X) :- meets(Y,Z,X).", kb)
    h2 = parse_rule("LIKES(X,Y) :- meets(X,Z,Y), happy(X).", kb)
    assert more_general(h1, h2, kb)
    assert kb._generality is not None and fresh._generality is None
    assert HybridKB._fields == ("tbox", "abox", "rules", "facts", "alphabet")
    assert kb == fresh and hash(kb) == hash(fresh) and repr(kb) == repr(fresh)
    twins = [pickle.loads(pickle.dumps(kb, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.copy(kb), copy.deepcopy(kb)]
    for twin in twins:
        assert twin == kb and hash(twin) == hash(kb) and repr(twin) == repr(kb)
        assert twin._generality is None


def test_a_skolem_constant_in_h1_is_not_confused_with_the_memo():
    """The parser rejects ``sk`` names, but the API can build them: a warm
    memo must not hand ``h1`` a skolemization that already used its name."""
    kb = _fresh_kb()
    h2 = parse_rule("LIKES(X,Y) :- meets(X,Z,Y).", kb)
    warm_up = parse_rule("LIKES(Y,X) :- meets(Y,Z,X).", kb)
    assert more_general(warm_up, h2, kb)
    meets, likes = kb.predicate("meets"), h2.head.pred
    x, y, z = Var("X"), Var("Y"), Var("Z")
    h1 = Rule(Atom(likes, (x, y)), (Literal(Atom(meets, (Const("sk0"), z, y))),))
    warm = more_general(h1, h2, kb)
    assert warm == more_general(h1, h2, _fresh_kb()) == reference_more_general(h1, h2, kb)
    assert warm is False


def test_the_memo_is_cleared_at_its_bound(monkeypatch):
    monkeypatch.setattr(hybrid, "_MEMO_SIZE", 4)
    kb = _fresh_kb()
    # a negated literal in h1 makes its theories build their possible atoms
    space = _likes_space(kb)[:10] + [parse_rule("LIKES(X,Y) :- meets(X,Z,Y), not happy(X).", kb)]
    verdicts, kinds = [], Counter()
    for a in space:
        for b in space:
            verdicts.append(more_general(a, b, kb))
            assert len(_entries(kb)) <= 4
            kinds["h1"] += bool(_h1_entries(kb))
            kinds["theory"] += bool(_theories(kb))
            kinds["possible"] += any(t._possible is not None for t in _theories(kb))
    # every kind was stored, and the clearing lost no verdict
    assert kinds["h1"] and kinds["theory"] and kinds["possible"]
    monkeypatch.setattr(hybrid, "_MEMO_SIZE", 4096)
    fresh = _fresh_kb()
    assert verdicts == [more_general(a, b, fresh) for a in space for b in space]


def test_an_equal_kb_builds_its_own_theories():
    """No state outlives a KB or is shared between KBs: an equal KB that the
    generality test has not seen builds its theory afresh."""
    h1 = parse_rule("LIKES(Y,X) :- meets(Y,Z,X).", _fresh_kb())
    h2 = parse_rule("LIKES(X,Y) :- meets(X,Z,Y), happy(X).", _fresh_kb())
    first, second = _fresh_kb(), _fresh_kb()
    assert first == second
    runs = hybrid.counters["canonical_runs"]
    assert more_general(h1, h2, first)
    assert hybrid.counters["canonical_runs"] == runs + 1
    assert more_general(h1, h2, first)  # the KB's own memo answers
    assert hybrid.counters["canonical_runs"] == runs + 1
    assert more_general(h1, h2, second)
    assert hybrid.counters["canonical_runs"] == runs + 2
    assert len(_theories(first)) == len(_theories(second)) == 1


def test_a_theory_is_ground_once(monkeypatch):
    """A theory grounds its rules once: its canonical models and, when a
    negated literal of ``h1`` needs them, its complete models are built from
    the same instances."""
    kb = _fresh_kb()
    h1 = parse_rule("LIKES(X,Y) :- meets(X,Z,Y), not happy(X).", kb)
    h2 = parse_rule("LIKES(X,Y) :- meets(X,Z,Y), RICH(Z).", kb)
    grounds = []
    real = hybrid._partial_ground

    def counting(*args):
        grounds.append(args)
        return real(*args)

    monkeypatch.setattr(hybrid, "_partial_ground", counting)
    before = dict(hybrid.counters)
    more_general(h1, h2, kb)
    built = hybrid.counters["canonical_runs"] - before["canonical_runs"]
    assert built == 1 and hybrid.counters["complete_runs"] - before["complete_runs"] == 1
    assert [t._possible is not None for t in _theories(kb)] == [True]
    assert len(grounds) == built


def test_a_conjunctive_consequence_outside_the_base_keeps_its_guess():
    """The complete models keep a consistent guess whose closure makes an atom
    true that lies outside the guessable base: here ``D(sk0)``, from
    ``A(sk0)`` and ``B(sk0)``.  That guess fires the rule for ``r(sk0)``, so
    ``r(sk0)`` is possible and ``not r(X)`` cannot be made true for the
    skolem individual."""
    kb = parse_kb("concept A/1. concept B/1. concept D/1.\npred d/1. pred r/1.\n#tbox\nA and B subclass D.\n"
                  "#rules\nr(X) :- d(X), A(X), B(X).\n#facts\nd(a).\n")
    h1 = parse_rule("T(X) :- d(X), not r(X).", kb)
    h2 = parse_rule("T(X) :- d(X).", kb)
    assert not more_general(h1, h2, kb)
    (theory,) = _theories(kb)
    assert {str(a) for a in theory.possible()} == {"d(sk0)", "r(sk0)"}
