"""Model enumeration, entailment, coverage and the generality order for
hybrid KBs.

Two model families are used:

* the *canonical* family contains, per stable assignment of the negated
  datalog atoms, the model whose ontology guess holds exactly the forced
  atoms (assertions plus heads of fired rules, closed under the axioms).
  Existential right-hand sides are tracked as witness facts so that rule
  bodies whose ontology variables never reach the head can be satisfied by an
  anonymous individual.  Entailment and coverage are cautious truth over this
  family.

* the *complete* family enumerates every consistent open-world guess over the
  relevant ground ontology atoms.  It backs the negation-as-failure side of
  the generality test, where "not u" must mean that u cannot be made true in
  any admissible completion.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import datalog
from .datalog import DEFAULT_BRANCH_BUDGET, GroundProgram, Interpretation, extensional_predicates, stable_models
from .dlreason import DLGuess, ExistsFact, role_closure, concept_closure
from .model import (
    Atom,
    Axiom,
    BudgetError,
    ConceptInclusion,
    Const,
    Existential,
    HybridKB,
    Literal,
    ModelError,
    Predicate,
    Rule,
    Var,
    CONCEPT,
    DATALOG,
    ROLE,
)

#: Cap on guessable ontology atoms in the complete enumeration.
DEFAULT_GUESS_BUDGET = 24
#: Cap on candidate substitutions tried by the generality test.
DEFAULT_THETA_BUDGET = 100_000
#: Cap on rule instances produced by one grounding.
_GROUNDING_BUDGET = 10**6


class InconsistentKBError(RuntimeError):
    """The KB (plus additions) has no model at all."""


class Entailment(enum.Enum):
    ENTAILED = "entailed"
    NOT_ENTAILED = "not-entailed"
    INCONSISTENT = "inconsistent-kb"


class GeneralityVerdict(enum.Enum):
    STRICTLY_MORE_GENERAL = "strictly-more-general"
    STRICTLY_LESS_GENERAL = "strictly-less-general"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class NMModel:
    guess: DLGuess
    datalog_model: Interpretation
    existentials: frozenset[ExistsFact] = frozenset()


# simple run counters for reporting; reset per CLI invocation
counters = {"canonical_runs": 0, "complete_runs": 0, "covers_calls": 0}


def reset_counters() -> None:
    for k in counters:
        counters[k] = 0


# --- grounding --------------------------------------------------------------

@dataclass(frozen=True)
class _Instance:
    """A rule instance ground except for ontology-only variables."""

    head: Atom
    pos_datalog: tuple[Atom, ...]
    naf: tuple[Atom, ...]
    dl_ground: tuple[Atom, ...]
    dl_open: tuple[Atom, ...]


def _partial_ground(
    rules: tuple[Rule, ...],
    facts: frozenset[Atom],
    domain: tuple[Const, ...],
    budget: int,
    ext: set[Predicate],
) -> list[_Instance]:
    """Ground every variable that reaches the head or a datalog atom; leave
    ontology-only variables open for existential matching.  Instances with a
    datalog atom of an extensional predicate (``ext``, which must be computed
    from the whole program, not from ``rules`` alone) absent from the facts
    are pruned."""
    out: list[_Instance] = []
    count = 0
    for rule in rules:
        to_ground: dict[Var, None] = {}
        for v in rule.head.variables():
            to_ground.setdefault(v)
        for lit in rule.body:
            if lit.atom.pred.kind == DATALOG:
                for v in lit.atom.variables():
                    to_ground.setdefault(v)
        to_ground = tuple(to_ground)
        combos = itertools.product(sorted(domain), repeat=len(to_ground)) if to_ground else [()]
        for combo in combos:
            count += 1
            if count > budget:
                raise BudgetError(f"grounding exceeded the budget of {budget} instances")
            inst = rule.substitute(dict(zip(to_ground, combo)))
            pos_d, naf, dl_g, dl_o = [], [], [], []
            prune = False
            for lit in inst.body:
                if lit.atom.pred.kind == DATALOG:
                    if lit.negated:
                        naf.append(lit.atom)
                    else:
                        if lit.atom.pred in ext and lit.atom not in facts:
                            prune = True
                            break
                        pos_d.append(lit.atom)
                elif lit.atom.is_ground():
                    dl_g.append(lit.atom)
                else:
                    dl_o.append(lit.atom)
            if not prune:
                out.append(_Instance(inst.head, tuple(pos_d), tuple(naf), tuple(dl_g), tuple(dl_o)))
    return out


def _dl_base(
    instances: list[_Instance],
    abox: tuple[Atom, ...],
    tbox: tuple[Axiom, ...],
    domain: tuple[Const, ...],
) -> frozenset[Atom]:
    """Ground ontology atoms syntactically reachable from the rules and the
    assertions, closed under the inclusion hierarchy."""
    atoms: set[Atom] = set(abox)
    for inst in instances:
        if inst.head.pred.is_dl:
            atoms.add(inst.head)
        atoms.update(inst.dl_ground)
        for a in inst.dl_open:
            vs = a.variables()
            for combo in itertools.product(sorted(domain), repeat=len(vs)):
                atoms.add(a.substitute(dict(zip(vs, combo))))
    c_sup = concept_closure(tbox)
    r_sup = role_closure(tbox)
    for a in list(atoms):
        sups = (c_sup if a.pred.kind == CONCEPT else r_sup).get(a.pred.name, set())
        for s in sups:
            kind = a.pred.kind
            atoms.add(Atom(Predicate(s, a.pred.arity, kind), a.args))
    return frozenset(atoms)


# --- model construction -----------------------------------------------------

def _open_satisfied(
    open_atoms: tuple[Atom, ...],
    gtrue: set[Atom],
    exists: set[ExistsFact],
    domain: tuple[Const, ...],
) -> bool:
    """Satisfaction of the body's ontology atoms with unbound variables.

    Variables are existentially quantified: a named witness is searched first;
    a single role atom with a single open variable may also be satisfied by an
    anonymous witness recorded as an :class:`ExistsFact`."""
    if not open_atoms:
        return True
    # split into connected components over shared variables
    comps: list[list[Atom]] = []
    for a in open_atoms:
        vs = set(a.variables())
        merged = [a]
        rest = []
        for comp in comps:
            if vs & {v for x in comp for v in x.variables()}:
                merged.extend(comp)
            else:
                rest.append(comp)
        comps = rest + [merged]
    for comp in comps:
        comp_vars: dict[Var, None] = {}
        for a in comp:
            for v in a.variables():
                comp_vars.setdefault(v)
        comp_vars = tuple(comp_vars)
        named = any(
            all(a.substitute(dict(zip(comp_vars, combo))) in gtrue for a in comp)
            for combo in itertools.product(sorted(domain), repeat=len(comp_vars))
        )
        if named:
            continue
        if len(comp) == 1 and len(comp_vars) == 1:
            atom = comp[0]
            if atom.pred.kind == ROLE:
                var_pos = 0 if isinstance(atom.args[0], Var) else 1
                anchor = atom.args[1 - var_pos]
                if any(
                    f.role == atom.pred.name and f.anchor == anchor and f.anchor_pos == 1 - var_pos
                    for f in exists
                ):
                    continue
        return False
    return True


def _body_holds(inst: _Instance, dtrue, gtrue, exists, domain: tuple[Const, ...]) -> bool:
    """The instance's body holds in the given datalog and ontology truth."""
    return (
        all(a in dtrue for a in inst.pos_datalog)
        and not any(a in dtrue for a in inst.naf)
        and all(a in gtrue for a in inst.dl_ground)
        and _open_satisfied(inst.dl_open, gtrue, exists, domain)
    )


def _joint_fixpoint(
    instances: list[_Instance],
    naf_truth: dict[Atom, bool],
    facts: frozenset[Atom],
    abox: tuple[Atom, ...],
    tbox: tuple[Axiom, ...],
    domain: tuple[Const, ...],
) -> tuple[set[Atom], set[Atom], set[ExistsFact]]:
    """Least joint closure of datalog derivation, ontology saturation and
    existential propagation under a fixed truth assignment for the negated
    atoms (reduct semantics)."""
    dtrue: set[Atom] = set(facts)
    gtrue: set[Atom] = set(abox)
    exists: set[ExistsFact] = set()
    r_sup = role_closure(tbox)
    active = [i for i in instances if not any(naf_truth.get(a, False) for a in i.naf)]

    changed = True
    while changed:
        changed = False
        # inclusion-hierarchy propagation
        for atom in list(gtrue):
            if atom.pred.kind != ROLE:
                continue
            for sup in r_sup.get(atom.pred.name, set()):
                derived = Atom(Predicate(sup, 2, ROLE), atom.args)
                if derived not in gtrue:
                    gtrue.add(derived)
                    changed = True
        for ax in tbox:
            if not isinstance(ax, ConceptInclusion):
                continue
            inds = {a.args[0] for a in gtrue if a.pred.kind == CONCEPT}
            for ind in sorted(inds):
                if not all(any(a.pred.name == c and a.args == (ind,) for a in gtrue) for c in ax.lhs):
                    continue
                if isinstance(ax.rhs, str):
                    derived = Atom(Predicate(ax.rhs, 1, CONCEPT), (ind,))
                    if derived not in gtrue:
                        gtrue.add(derived)
                        changed = True
                else:
                    fact = ExistsFact(ax.rhs.role, ind, 1 if ax.rhs.inverse else 0)
                    if fact not in exists:
                        exists.add(fact)
                        changed = True
        for fact in list(exists):
            for sup in r_sup.get(fact.role, set()):
                lifted = ExistsFact(sup, fact.anchor, fact.anchor_pos)
                if lifted not in exists:
                    exists.add(lifted)
                    changed = True
        # rule firing
        for inst in active:
            target = gtrue if inst.head.pred.is_dl else dtrue
            if inst.head in target:
                continue
            if not all(a in dtrue for a in inst.pos_datalog):
                continue
            if not all(a in gtrue for a in inst.dl_ground):
                continue
            if not _open_satisfied(inst.dl_open, gtrue, exists, domain):
                continue
            target.add(inst.head)
            changed = True
    return dtrue, gtrue, exists


def _canonical_models(
    tbox: tuple[Axiom, ...],
    abox: tuple[Atom, ...],
    rules: tuple[Rule, ...],
    facts: frozenset[Atom],
    domain: tuple[Const, ...],
    forbidden: frozenset[Atom] = frozenset(),
    branch_budget: int = DEFAULT_BRANCH_BUDGET,
) -> list[NMModel]:
    counters["canonical_runs"] += 1
    instances = _partial_ground(rules, facts, domain, _GROUNDING_BUDGET, extensional_predicates(rules))
    base = _dl_base(instances, abox, tbox, domain)
    naf_atoms = sorted({a for i in instances for a in i.naf})
    if len(naf_atoms) > branch_budget:
        raise BudgetError(
            f"{len(naf_atoms)} negated atoms exceed the branch budget of {branch_budget}"
        )
    models: list[NMModel] = []
    seen = set()
    for bits in itertools.product((False, True), repeat=len(naf_atoms)):
        truth = dict(zip(naf_atoms, bits))
        dtrue, gtrue, exists = _joint_fixpoint(instances, truth, facts, abox, tbox, domain)
        if not all((a in dtrue) == truth[a] for a in naf_atoms):
            continue  # assignment is not stable
        if forbidden & dtrue:
            continue
        key = (frozenset(dtrue), frozenset(gtrue))
        if key in seen:
            continue
        seen.add(key)
        models.append(
            NMModel(
                guess=DLGuess(frozenset(gtrue), frozenset(base - gtrue)),
                datalog_model=Interpretation(frozenset(dtrue)),
                existentials=frozenset(exists),
            )
        )
    return models


def _complete_models(
    tbox: tuple[Axiom, ...],
    abox: tuple[Atom, ...],
    rules: tuple[Rule, ...],
    facts: frozenset[Atom],
    domain: tuple[Const, ...],
    forbidden: frozenset[Atom] = frozenset(),
    guess_budget: int = DEFAULT_GUESS_BUDGET,
) -> list[NMModel]:
    counters["complete_runs"] += 1
    instances = _partial_ground(rules, facts, domain, _GROUNDING_BUDGET, extensional_predicates(rules))
    base = _dl_base(instances, abox, tbox, domain)
    forced = frozenset(abox)
    guessable = sorted(base - forced)
    if len(guessable) > guess_budget:
        raise BudgetError(
            f"{len(guessable)} guessable ontology atoms exceed the budget of {guess_budget}"
        )
    models: list[NMModel] = []
    for bits in itertools.product((False, True), repeat=len(guessable)):
        true = set(forced) | {a for a, b in zip(guessable, bits) if b}
        closed, exists = _saturate_set(true, tbox)
        if closed - true:
            continue  # closure forces an atom the guess declares false
        gtrue = closed
        # reduce the datalog part under this guess
        reduced: list[Rule] = []
        dl_ok = True
        for inst in instances:
            if inst.head.pred.is_dl:
                continue
            if not all(a in gtrue for a in inst.dl_ground):
                continue
            if not _open_satisfied(inst.dl_open, gtrue, exists, domain):
                continue
            body = tuple(
                [Literal(a) for a in inst.pos_datalog] + [Literal(a, True) for a in inst.naf]
            )
            reduced.append(Rule(inst.head, body))
        program = GroundProgram(tuple(reduced), facts)
        for m in stable_models(program):
            if forbidden & m.true_atoms:
                continue
            # every ontology-headed rule that fires must have its head guessed true
            if not any(
                inst.head.pred.is_dl
                and inst.head not in gtrue
                and _body_holds(inst, m.true_atoms, gtrue, exists, domain)
                for inst in instances
            ):
                models.append(
                    NMModel(
                        guess=DLGuess(frozenset(gtrue), frozenset(base - gtrue)),
                        datalog_model=m,
                        existentials=frozenset(exists),
                    )
                )
    return models


def _saturate_set(true: set[Atom], tbox: tuple[Axiom, ...]) -> tuple[set[Atom], set[ExistsFact]]:
    """Closure of a set of ontology atoms under the axioms, with the
    existential facts it forces."""
    out = set(true)
    exists: set[ExistsFact] = set()
    r_sup = role_closure(tbox)
    changed = True
    while changed:
        changed = False
        for atom in list(out):
            if atom.pred.kind == ROLE:
                for sup in r_sup.get(atom.pred.name, set()):
                    derived = Atom(Predicate(sup, 2, ROLE), atom.args)
                    if derived not in out:
                        out.add(derived)
                        changed = True
        for ax in tbox:
            if not isinstance(ax, ConceptInclusion):
                continue
            inds = {a.args[0] for a in out if a.pred.kind == CONCEPT}
            for ind in sorted(inds):
                if not all(any(a.pred.name == c and a.args == (ind,) for a in out) for c in ax.lhs):
                    continue
                if isinstance(ax.rhs, str):
                    derived = Atom(Predicate(ax.rhs, 1, CONCEPT), (ind,))
                    if derived not in out:
                        out.add(derived)
                        changed = True
                else:
                    fact = ExistsFact(ax.rhs.role, ind, 1 if ax.rhs.inverse else 0)
                    if fact not in exists:
                        exists.add(fact)
                        changed = True
        for fact in list(exists):
            for sup in r_sup.get(fact.role, set()):
                lifted = ExistsFact(sup, fact.anchor, fact.anchor_pos)
                if lifted not in exists:
                    exists.add(lifted)
                    changed = True
    return out, exists


# --- public operations ------------------------------------------------------

def _combine(kb: HybridKB, extra_rules, extra_facts):
    rules = kb.rules + tuple(extra_rules)
    abox = list(kb.abox)
    facts = set(kb.facts)
    for a in extra_facts:
        if a.pred.is_dl:
            abox.append(a)
        else:
            facts.add(a)
    domain: set[Const] = set(kb.constants())
    for a in extra_facts:
        domain.update(t for t in a.args if isinstance(t, Const))
    for r in extra_rules:
        domain.update(r.constants())
    return rules, tuple(abox), frozenset(facts), tuple(sorted(domain))


def nm_models(
    kb: HybridKB,
    extra_rules: tuple[Rule, ...] = (),
    extra_facts: tuple[Atom, ...] = (),
    complete: bool = False,
) -> list[NMModel]:
    """Models of the KB extended with extra rules and ground facts.

    The default (canonical) family is what entailment and coverage quantify
    over; ``complete=True`` enumerates every consistent open-world guess over
    the relevant atom base instead, subject to the guess budget.
    """
    rules, abox, facts, domain = _combine(kb, extra_rules, extra_facts)
    fn = _complete_models if complete else _canonical_models
    return fn(kb.tbox, abox, rules, facts, domain)


def entails(
    kb: HybridKB,
    extra_rules: tuple[Rule, ...],
    extra_facts: tuple[Atom, ...],
    query: Atom,
) -> Entailment:
    """Cautious ground entailment over the canonical model family."""
    if not query.is_ground():
        raise ModelError(f"query {query} is not ground")
    rules, abox, facts, domain = _combine(kb, extra_rules, extra_facts)
    for t in query.args:
        if t not in domain:
            domain = tuple(sorted(set(domain) | {t}))
    models = _canonical_models(kb.tbox, abox, rules, facts, domain)
    if not models:
        return Entailment.INCONSISTENT
    if query.pred.is_dl:
        holds = all(query in m.guess.true_atoms for m in models)
    else:
        holds = all(query in m.datalog_model.true_atoms for m in models)
    return Entailment.ENTAILED if holds else Entailment.NOT_ENTAILED


def covers(kb: HybridKB, hypothesis_rule: Rule, example: Atom) -> bool:
    """Coverage test: the KB extended with the rule entails the example.

    This enumerates the models of KB + rule, so it holds for any rule,
    including one whose head predicate already occurs in the KB.  The learner
    uses :class:`KBModels` instead."""
    if example.pred != hypothesis_rule.head.pred:
        raise ModelError(
            f"example {example} does not match the rule head predicate {hypothesis_rule.head.pred.name}"
        )
    counters["covers_calls"] += 1
    verdict = entails(kb, (hypothesis_rule,), (), example)
    if verdict is Entailment.INCONSISTENT:
        raise InconsistentKBError("background theory plus rule has no model")
    return verdict is Entailment.ENTAILED


def _predicate_names(kb: HybridKB) -> set[str]:
    """Names of the predicates that occur in the KB's axioms, assertions,
    rules and facts."""
    names = {a.pred.name for a in itertools.chain(kb.abox, kb.facts)}
    for r in kb.rules:
        names.add(r.head.pred.name)
        names.update(l.atom.pred.name for l in r.body)
    for ax in kb.tbox:
        if isinstance(ax, ConceptInclusion):
            names.update(ax.lhs)
            names.add(ax.rhs.role if isinstance(ax.rhs, Existential) else ax.rhs)
        else:
            names.update((ax.sub, ax.sup))
    return names


def _bind_head(head: Atom, example: Atom) -> dict[Var, Const] | None:
    """The substitution that maps the head onto the ground example, if any."""
    if head.pred != example.pred:
        return None
    theta: dict[Var, Const] = {}
    for t, c in zip(head.args, example.args):
        if isinstance(t, Var):
            if theta.setdefault(t, c) != c:
                return None
        elif t != c:
            return None
    return theta


class KBModels:
    """The canonical models of a KB, for coverage queries about a target
    predicate that occurs nowhere in the KB.

    Nothing in the KB then depends on a rule for the target, so the rule sits
    on top of the KB in the sense of the splitting-set theorem (Lifschitz &
    Turner, ICLP 1994): the models of KB + rule are the KB's models plus the
    rule's head instances.  A rule therefore covers an example iff, in every
    KB model, its body holds under some grounding whose head is the example,
    which is what :func:`covers` decides by enumerating the models of KB +
    rule.  The models are enumerated once, on the first query, so a learner
    with no positive example to cover enumerates none.
    """

    def __init__(self, kb: HybridKB, target: Predicate):
        if target.name in _predicate_names(kb):
            raise ModelError(f"target predicate {target.name!r} already occurs in the knowledge base")
        self.kb = kb
        self.target = target
        self._facts = frozenset(kb.facts)
        self._constants = frozenset(kb.constants())

    @cached_property
    def _truths(self) -> list[tuple]:
        """Datalog, ontology and existential truth of each canonical model."""
        kb = self.kb
        domain = tuple(sorted(self._constants))
        models = _canonical_models(kb.tbox, kb.abox, kb.rules, self._facts, domain)
        if not models:
            raise InconsistentKBError("background theory has no model")
        return [(m.datalog_model.true_atoms, m.guess.true_atoms, m.existentials) for m in models]

    def covered(self, rule: Rule, examples) -> frozenset[Atom]:
        """The examples that the rule covers."""
        name = self.target.name
        if rule.head.pred != self.target or any(l.atom.pred.name == name for l in rule.body):
            raise ModelError(f"rule {rule} does not define the target {name} non-recursively")
        truths = self._truths
        ext = extensional_predicates(self.kb.rules + (rule,))
        constants = self._constants | rule.constants()
        out = set()
        for example in examples:
            theta = _bind_head(rule.head, example)
            if theta is None:
                continue
            domain = tuple(sorted(constants | set(example.args)))
            bound = (rule.substitute(theta),)
            instances = _partial_ground(bound, self._facts, domain, _GROUNDING_BUDGET, ext)
            if all(any(_body_holds(i, *truth, domain) for i in instances) for truth in truths):
                out.add(example)
        return frozenset(out)


# --- generality order -------------------------------------------------------

def _literal_holds(
    lit: Literal,
    cautious_d: frozenset[Atom],
    cautious_dl: frozenset[Atom],
    possibly_d,
) -> bool:
    if lit.negated:
        return lit.atom not in possibly_d()
    if lit.atom.pred.is_dl:
        return lit.atom in cautious_dl
    return lit.atom in cautious_d


def more_general(h1: Rule, h2: Rule, kb: HybridKB) -> bool:
    """The semantic generality test relative to the KB's intensional part.

    ``h2`` is skolemized; its positive body atoms become facts and its negated
    atoms become model constraints; ``h1`` is more general iff some grounding
    of it has the same head and a body that holds in the augmented theory.
    Positive literals are checked cautiously over the canonical models;
    a negated literal holds iff its atom is underivable in every admissible
    complete model.
    """
    if h1.head.pred != h2.head.pred:
        raise ModelError("generality is only defined for rules with the same head predicate")
    from .model import skolemize  # local import to keep module load order simple

    # relative to the intensional part only: constants from the rules, not the data
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
    added = facts | set(abox)

    # syntactic fast path: under the substitution induced by the
    # skolemization, a positive literal found verbatim among the added facts
    # holds in every model, and a negated literal listed as a constraint is
    # underivable in every admissible completion -- no models needed
    h1_vars = set(h1.variables())
    natural = {v: sigma[v] for v in h1_vars} if h1_vars <= set(sigma) else None
    if natural is not None and h1.head.substitute(natural) != h2s.head:
        natural = None
    if natural is not None and all(
        l.atom.substitute(natural) in (forbidden if l.negated else added) for l in h1.body
    ):
        return True

    tbox, idb = kb.tbox, kb.rules
    domain = tuple(sorted(kb_constants | h2s.constants() | h1.constants()))
    sets = _cautious_sets(tbox, abox, idb, facts, domain, forbidden)
    if sets is None:
        return True  # augmented theory admits no model: entailment is vacuous
    cautious_d, cautious_dl = sets

    def possibly_d() -> frozenset[Atom]:
        return _possible_atoms(tbox, abox, idb, facts, domain, forbidden)

    def body_holds(theta: dict[Var, Const]) -> bool:
        return all(
            _literal_holds(l.substitute(theta), cautious_d, cautious_dl, possibly_d)
            for l in h1.body
        )

    # the skolemization's own substitution first, now against the models
    if natural is not None and body_holds(natural):
        return True

    # head unification fixes the head variables
    bound = _bind_head(h1.head, h2s.head)
    if bound is None:
        return False
    free = [v for v in h1.variables() if v not in bound]
    if len(domain) ** len(free) > DEFAULT_THETA_BUDGET:
        raise BudgetError("substitution search exceeds the candidate budget")
    for combo in itertools.product(domain, repeat=len(free)):
        theta = dict(bound)
        theta.update(zip(free, combo))
        if body_holds(theta):
            return True
    return False


@lru_cache(maxsize=4096)
def _cautious_sets(tbox, abox, idb, facts, domain, forbidden):
    """Cautious datalog/ontology truth over the canonical models of the
    skolemized augmented theory; None when the theory has no model."""
    canonical = _canonical_models(tbox, abox, idb, facts, domain, forbidden=forbidden)
    if not canonical:
        return None
    cautious_d = frozenset.intersection(*[frozenset(m.datalog_model.true_atoms) for m in canonical])
    cautious_dl = frozenset.intersection(*[m.guess.true_atoms for m in canonical])
    return cautious_d, cautious_dl


@lru_cache(maxsize=4096)
def _possible_atoms(tbox, abox, idb, facts, domain, forbidden) -> frozenset[Atom]:
    """Atoms derivable in at least one admissible complete model."""
    models = _complete_models(tbox, abox, idb, facts, domain, forbidden=forbidden)
    atoms: set[Atom] = set()
    for m in models:
        atoms |= m.datalog_model.true_atoms
    return frozenset(atoms)


def compare(h1: Rule, h2: Rule, kb: HybridKB) -> GeneralityVerdict:
    """Four-way verdict combining the two directions of the generality test."""
    forward = more_general(h1, h2, kb)
    backward = more_general(h2, h1, kb)
    if forward and backward:
        return GeneralityVerdict.EQUIVALENT
    if forward:
        return GeneralityVerdict.STRICTLY_MORE_GENERAL
    if backward:
        return GeneralityVerdict.STRICTLY_LESS_GENERAL
    return GeneralityVerdict.INCOMPARABLE
