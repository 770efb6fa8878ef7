"""Model enumeration, entailment, coverage and the generality order for
hybrid KBs.

Both model families are built over one private :class:`_Theory`: a KB, or a
KB's rules and TBox, plus some additions (a hypothesis rule, the constants of
a query, a skolemized rule body), ground once.

* the *canonical* family contains, per stable assignment of the negated
  datalog atoms, the model whose ontology guess holds exactly the forced
  atoms (assertions plus heads of fired rules, closed under the axioms).
  Its anonymous part is the one-step chase of :func:`dlreason.close`: one
  null per existential that fires, in the role atoms that it fills.  A rule
  variable that only ontology atoms use may bind a null; a head or datalog
  variable may not.  Entailment and coverage are cautious truth over this
  family.  Each model is the fixpoint of :func:`datalog._joint_fixpoint`,
  the loop that the datalog layer's stable models run too; the assignments
  are searched by :func:`datalog.branch_search`, so a KB that is stratified
  once its axioms are read as rules settles in its fast path on its single
  model instead of trying all 2^n assignments.

* the *complete* family enumerates every consistent open-world guess over the
  relevant ground ontology atoms, at most ``DEFAULT_GUESS_BUDGET`` of them
  (read at call time).  It backs the negation-as-failure side of the
  generality test, where "not u" must mean that u cannot be made true in any
  admissible completion.  A theory builds it on demand from its instances,
  with :func:`datalog.stable_models` of the datalog part each guess leaves.

One backtracking join, :func:`datalog._join`, matches every body against
atoms by predicate: a rule's datalog literals of extensional predicates
against the facts when a theory is ground (:func:`datalog.ground`), open
ontology atoms against the named truth plus the null role atoms
(:func:`datalog._open_satisfied`) in the model builders, a rule against each
KB model (:meth:`KBModels.covered`) and ``h1`` in :func:`more_general`, unless
its syntactic fast path, which also reads the TBox's inclusions, decides the
pair without models.  Only a head or datalog variable that no joined atom binds
ranges over the domain (:func:`datalog._groundings`).
"""

from __future__ import annotations

import enum
import itertools
from functools import cached_property

from .datalog import (
    GroundProgram,
    Interpretation,
    _Instance,
    _groundings,
    _index,
    _instances,
    _join,
    _joint_fixpoint,
    _open_satisfied,
    branch_search,
    ground,
    grounded_variables,
    stable_models,
)
from .dlreason import DLGuess, _closures, close, role_closure, concept_closure
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
    Record,
    Rule,
    Var,
    CONCEPT,
    DATALOG,
    DEFAULT_GROUNDING_BUDGET,
)

#: Cap on guessable ontology atoms in the complete enumeration.
DEFAULT_GUESS_BUDGET = 24
#: Cap on candidate substitutions tried by the generality test.
DEFAULT_THETA_BUDGET = 100_000


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


class NMModel(Record):
    """A model of a hybrid KB: its ontology guess over named atoms, its
    datalog model and ``existentials``, the frozenset of its null role atoms
    (:func:`dlreason.close`)."""

    __slots__ = ("guess", "datalog_model", "existentials")
    _defaults = {"existentials": frozenset()}


# simple run counters for reporting; reset per CLI invocation
counters = {"canonical_runs": 0, "complete_runs": 0, "covers_calls": 0}


def reset_counters() -> None:
    for k in counters:
        counters[k] = 0


# --- grounding --------------------------------------------------------------

def _partial_ground(rules: tuple[Rule, ...], facts: frozenset[Atom], domain: tuple[Const, ...]) -> list[_Instance]:
    """Ground every variable that reaches the head or a datalog atom over the
    sorted ``domain`` (:func:`datalog.ground`), leaving ontology-only
    variables open for existential matching (:func:`datalog._instances`)."""
    return _instances(ground(rules, facts, domain, grounded_variables))


def _dl_base(
    instances: list[_Instance],
    abox: tuple[Atom, ...],
    tbox: tuple[Axiom, ...],
    domain: tuple[Const, ...],
) -> frozenset[Atom]:
    """Ground ontology atoms syntactically reachable from the rules and the
    assertions, closed under the inclusion hierarchy.  ``domain`` is a
    sorted tuple, as for :func:`_partial_ground`."""
    atoms: set[Atom] = set(abox)
    for inst in instances:
        if inst.head.pred.is_dl:
            atoms.add(inst.head)
        atoms.update(inst.dl_ground)
        for a in inst.dl_open:
            atoms.update(a.substitute(full) for full in _groundings(({},), a.variables(), domain))
    c_sup = concept_closure(tbox)
    r_sup = role_closure(tbox)
    for a in list(atoms):
        sups = (c_sup if a.pred.kind == CONCEPT else r_sup).get(a.pred.name, set())
        for s in sups:
            kind = a.pred.kind
            atoms.add(Atom(Predicate(s, a.pred.arity, kind), a.args))
    return frozenset(atoms)


# --- model construction -----------------------------------------------------

class _Theory:
    """A hybrid theory ground once: the TBox, the assertions ``abox``, the
    ``rules`` over the datalog ``facts`` and the sorted ``domain``, whose
    canonical models may not make an atom of ``forbidden`` true.

    The constructor grounds the rules (``instances``) and builds ``models``,
    one canonical model per stable assignment of the negated atoms (see
    :func:`datalog.branch_search`); a stratified KB, its axioms read as rules,
    settles in the fast path on its single model.  :meth:`possible` builds
    the complete models from the same instances on its first call.
    """

    __slots__ = ("tbox", "abox", "facts", "domain", "forbidden", "instances", "models", "_possible")

    def __init__(self, tbox, abox, rules, facts, domain, forbidden=frozenset()):
        counters["canonical_runs"] += 1
        self.tbox, self.abox, self.facts, self.domain, self.forbidden = tbox, abox, facts, domain, forbidden
        self.instances = instances = _partial_ground(rules, facts, domain)
        self._possible = None
        naf_atoms = sorted({a for i in instances for a in i.naf})
        found = branch_search(naf_atoms, lambda truth: _joint_fixpoint(instances, truth, facts, abox, tbox, domain))
        self.models = [NMModel(DLGuess(gtrue), Interpretation(dtrue), nulls)
                       for dtrue, gtrue, nulls in found if not forbidden & dtrue]

    def possible(self) -> frozenset[Atom]:
        """Datalog atoms true in at least one admissible complete model."""
        if self._possible is None:
            atoms: set[Atom] = set()
            for m in _complete_models(self):
                atoms |= m.datalog_model.true_atoms
            self._possible = frozenset(atoms)
        return self._possible


def _complete_models(theory: _Theory) -> list[NMModel]:
    """The complete models of the theory: every consistent guess over its
    relevant ground ontology atoms, at most ``DEFAULT_GUESS_BUDGET`` of them,
    with the stable models of the datalog part it reduces to."""
    counters["complete_runs"] += 1
    tbox, domain, instances = theory.tbox, theory.domain, theory.instances
    base = _dl_base(instances, theory.abox, tbox, domain)
    forced = frozenset(theory.abox)
    guessable = sorted(base - forced)
    if len(guessable) > DEFAULT_GUESS_BUDGET:
        raise BudgetError(f"{len(guessable)} guessable ontology atoms exceed the budget of {DEFAULT_GUESS_BUDGET}")
    models: list[NMModel] = []
    for bits in itertools.product((False, True), repeat=len(guessable)):
        true = set(forced) | {a for a, b in zip(guessable, bits) if b}
        gtrue, nulls = close(true, tbox)
        if (gtrue - true) & base:
            continue  # closure forces an atom the guess declares false
        index, members = _index(gtrue, nulls), frozenset(domain).union(*(a.args for a in nulls))
        # the instances whose ontology body holds reduce the datalog part under this guess
        holding = [i for i in instances if all(a in gtrue for a in i.dl_ground)
                   and _open_satisfied(i.dl_open, index, members)]
        reduced = tuple(Rule(i.head, (*map(Literal, i.pos_datalog), *(Literal(a, True) for a in i.naf)))
                        for i in holding if not i.head.pred.is_dl)
        program = GroundProgram(reduced, theory.facts)
        for m in stable_models(program):
            if theory.forbidden & m.true_atoms:
                continue
            # every ontology-headed rule that fires must have its head guessed true
            if not any(
                inst.head.pred.is_dl
                and inst.head not in gtrue
                and all(a in m.true_atoms for a in inst.pos_datalog)
                and not any(a in m.true_atoms for a in inst.naf)
                for inst in holding
            ):
                guess = DLGuess(frozenset(gtrue), frozenset(base - gtrue))
                models.append(NMModel(guess, m, frozenset(nulls)))
    return models


# --- public operations ------------------------------------------------------

def _kb_theory(kb: HybridKB, extra_rules=(), constants=()) -> _Theory:
    """The KB extended with extra rules, over the KB's constants, theirs and
    ``constants``."""
    domain = set(kb.constants()).union(constants, *(r.constants() for r in extra_rules))
    return _Theory(kb.tbox, tuple(kb.abox), kb.rules + tuple(extra_rules), frozenset(kb.facts), tuple(sorted(domain)))


def nm_models(kb: HybridKB) -> list[NMModel]:
    """Canonical models of the KB: the family that entailment and coverage
    quantify over.  A canonical model's ontology part is its true atoms
    alone: ``guess.false_atoms`` is empty, as every other atom is false in
    it."""
    return _kb_theory(kb).models


def entails(kb: HybridKB, extra_rules: tuple[Rule, ...], query: Atom) -> Entailment:
    """Cautious ground entailment over the canonical model family of the KB
    extended with ``extra_rules``."""
    if not query.is_ground():
        raise ModelError(f"query {query} is not ground")
    models = _kb_theory(kb, extra_rules, query.args).models
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
    if example.pred is not hypothesis_rule.head.pred:
        raise ModelError(
            f"example {example} does not match the rule head predicate {hypothesis_rule.head.pred.name}"
        )
    counters["covers_calls"] += 1
    verdict = entails(kb, (hypothesis_rule,), example)
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


def _split(atoms: tuple[Atom, ...], grounded: tuple[Var, ...], checked=()) -> tuple:
    """Positive body atoms split into those over the head and datalog
    variables ``grounded`` (:func:`datalog.grounded_variables`), the open
    atoms, and the variables of ``grounded`` that the first leave unbound but
    the open atoms or the ``checked`` ones use."""
    names, joined, opened, bound, used = frozenset(grounded), [], [], set(), set()
    for a in atoms:
        vs = a.variables()
        if names.issuperset(vs):
            joined.append(a)
            bound.update(vs)
        else:
            opened.append(a)
            used.update(vs)
    for a in checked:
        used.update(a.variables())
    return tuple(joined), tuple(opened), tuple(v for v in grounded if v in used and v not in bound)


def _bind_head(head: Atom, example: Atom) -> dict[Var, Const] | None:
    """The substitution that maps the head onto the ground example, if any."""
    if head.pred is not example.pred:
        return None
    theta: dict[Var, Const] = {}
    for t, c in zip(head.args, example.args):
        if isinstance(t, Var):
            if theta.setdefault(t, c) is not c:
                return None
        elif t is not c:
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
        self._constants = frozenset(kb.constants())

    @cached_property
    def _truths(self) -> list[tuple]:
        """Per canonical model: its datalog truth, its datalog, ontology and
        null atoms indexed by predicate, and the KB's constants plus its nulls."""
        models = _kb_theory(self.kb).models
        if not models:
            raise InconsistentKBError("background theory has no model")
        return [(m.datalog_model.true_atoms, _index(m.datalog_model.true_atoms, m.guess.true_atoms, m.existentials),
                 self._constants.union(*(a.args for a in m.existentials))) for m in models]

    def covered(self, rule: Rule, examples) -> frozenset[Atom]:
        """The examples that the rule covers: in every model, from the head's
        binding, some grounding holds.  The rule's positive literals over head
        and datalog variables join with the model's named atoms, the rest of
        those variables range over the domain (at most
        ``DEFAULT_GROUNDING_BUDGET`` groundings), the open atoms meet named
        atoms or nulls (:func:`_holding`), and the negated atoms are false."""
        name = self.target.name
        if rule.head.pred is not self.target or any(l.atom.pred.name == name for l in rule.body):
            raise ModelError(f"rule {rule} does not define the target {name} non-recursively")
        truths = self._truths
        negated = tuple(l.atom for l in rule.body if l.negated)
        split = _split(tuple(l.atom for l in rule.body if not l.negated), grounded_variables(rule), negated)
        rest = tuple(v for v in split[2] if v not in rule.head.args)
        constants = self._constants | rule.constants()
        out = set()
        ordered = ()
        for example in examples:
            theta = _bind_head(rule.head, example)
            if theta is None:
                continue
            if rest:  # an example constant absent from the KB is in no model atom, so only these range over it
                domain = constants.union(example.args)
                if len(domain) ** len(rest) > DEFAULT_GROUNDING_BUDGET:
                    raise BudgetError(f"grounding exceeded the budget of {DEFAULT_GROUNDING_BUDGET} instances")
                ordered = tuple(sorted(domain))
            if all(
                any(not any(a.substitute(full) in dtrue for a in negated)
                    for full in _holding(split, index, theta, constants, ordered, members))
                for dtrue, index, members in truths
            ):
                out.add(example)
        return frozenset(out)


# --- generality order -------------------------------------------------------

def _literal_holds(lit: Literal, cautious: frozenset[Atom], possibly_d) -> bool:
    return lit.atom not in possibly_d() if lit.negated else lit.atom in cautious


def more_general(h1: Rule, h2: Rule, kb: HybridKB) -> bool:
    """The semantic generality test relative to the KB's intensional part.

    ``h2`` is skolemized; its positive body atoms become facts and its negated
    atoms become model constraints; ``h1`` is more general iff some grounding
    of it has the same head and a body that holds in the augmented theory.
    Positive literals are checked cautiously over the canonical models, where
    a variable that only ontology atoms use may bind a null that they share;
    a negated literal holds iff its atom is underivable in every admissible
    complete model.

    The syntactic fast path decides a pair with equal heads without models
    when each literal of ``h1`` is in ``h2``, or, if ``h1`` has no negated
    literal, is an ontology atom that a literal of ``h2`` on the same
    arguments entails through the TBox's closures (a specialized refinement
    edge): the skolemized ``h2`` then makes the identity substitution's body
    true in every canonical model.  Everything else the test prepares lives
    in the KB's bounded memo (:func:`_prepared`): what it reads off ``h1``
    (:func:`_premises`), once per KB, and the augmented theory
    (:func:`_augmented`), once per ``h2`` and set of ``h1``'s constants: one
    :class:`_Theory`, ground once, with its cautious truth indexed by
    predicate and, once a negated literal needs them, its possible atoms,
    built from the same instances.  From the binding of ``h1``'s head onto
    ``h2``'s, joins (:func:`_holding`) ground ``h1``'s positive atoms over
    head and datalog variables in the named atoms, range its other head and
    datalog variables over the domain and meet its open atoms with named or
    null atoms; the negated literals are checked last.  So the joins find
    exactly the groundings that the product would keep, the skolemization's
    own substitution among them.  The product over the domain of every
    variable the head leaves free still bounds the search:
    past ``DEFAULT_THETA_BUDGET`` candidates the test raises
    :class:`BudgetError` unless that substitution holds.  The complete models
    are built exactly when a walk over the product, checking each body in
    order, would build them, so the same tests exceed the guess budget,
    ``DEFAULT_GUESS_BUDGET``.
    """
    head1 = h1.head
    if head1.pred is not h2.head.pred:
        raise ModelError("generality is only defined for rules with the same head predicate")
    # syntactic fast path; a child that adds a literal extends its parent's
    # body tuple, so try a prefix first
    if head1 is h2.head:
        if h2.body[: len(h1.body)] == h1.body:
            return True
        missing = set(h1.body).difference(h2.body)
        if not missing or (not any(l.negated for l in h1.body) and all(
            any(not m.negated and m.atom.args == l.atom.args
                and l.atom.pred in _closures(kb.tbox)[1].get(m.atom.pred, ()) for m in h2.body) for l in missing
        )):
            return True
    premises = _prepared(kb, (h1, h1.body), _premises)
    h1_constants, h1_vars, h1_var_set, body, prefix, negated, leading = premises
    head, sigma, constants, truth, theory = _prepared(kb, (h2, h1_constants), _augmented)
    if truth is None:
        return True  # augmented theory admits no model: entailment is vacuous
    cautious, index, members = truth
    domain = theory.domain

    # head unification fixes the head variables
    bound = _bind_head(head1, head)
    if bound is None:
        return False
    free = [v for v in h1_vars if v not in bound]
    over = len(domain) ** len(free) > DEFAULT_THETA_BUDGET
    # the skolemization's own substitution, which the join below finds
    # unless the budget stops it or a negated literal drops it
    if (over or negated) and sigma.keys() >= h1_var_set and head1.substitute(sigma) is head and all(
        _literal_holds(l.substitute(sigma), cautious, theory.possible) for l in h1.body
    ):
        return True
    if over:
        raise BudgetError("substitution search exceeds the candidate budget")
    if free and not domain:
        return False  # no grounding at all: the product over an empty domain is empty
    if any(p not in index for p in leading):
        return False  # an atom checked before any negated literal matches nothing
    possible = frozenset()
    if negated:
        # checked in body order, a grounding reaches the first negated literal
        # once the positive literals before it hold: build the complete models
        # exactly when one does
        if next(_holding(prefix, index, bound, constants, domain, members), None) is None:
            return False
        possible = theory.possible()
    for full in _holding(body, index, bound, constants, domain, members):
        if not any(a.substitute(full) in possible for a in negated):
            return True
    return False


def _holding(split: tuple, index: dict, bound: dict, constants, domain: tuple, members):
    """The groundings of a :func:`_split` from the binding ``bound``: its first
    atoms joined in ``index`` over the set ``constants``, its unbound head and
    datalog variables over the sorted ``domain``, and its open atoms joined
    over ``members``, the constants and the nulls (:func:`_open_satisfied`)."""
    joined, opened, unbound = split
    groundings = _groundings(_join(joined, index, bound, constants), [v for v in unbound if v not in bound], domain)
    if not opened:
        return groundings
    return (full for full in groundings if next(_join(opened, index, full, members), None) is not None)


#: Entries a KB's generality memo holds before it is cleared.
_MEMO_SIZE = 4096


def _memo(kb: HybridKB) -> tuple:
    """The KB's generality memo in ``kb._generality``, made on first use:
    the KB's rule constants and the dict of prepared entries."""
    memo = kb._generality
    if memo is None:
        # relative to the intensional part only: constants from the rules, not the data
        rule_constants: set[Const] = set()
        for r in kb.rules:
            rule_constants |= r.constants()
        memo = (frozenset(rule_constants), {})
        object.__setattr__(kb, "_generality", memo)
    return memo


def _prepared(kb: HybridKB, key: tuple, build):
    """What the generality test prepares once per KB: the entry under ``key``
    in the dict of the KB's memo (:func:`_memo`), built on a miss as
    ``build(kb, rule constants, key)``, where ``build`` is :func:`_premises`
    or :func:`_augmented`, whose entry holds the one :class:`_Theory` the
    test grounds per key.  The dict is cleared at ``_MEMO_SIZE`` entries.
    Threads that race to fill it store equal values."""
    kb_constants, prepared = _memo(kb)
    entry = prepared.get(key)
    if entry is None:
        entry = build(kb, kb_constants, key)
        if len(prepared) >= _MEMO_SIZE:
            prepared.clear()
        prepared[key] = entry
    return entry


def _premises(kb: HybridKB, kb_constants: frozenset[Const], key: tuple) -> tuple:
    """What the generality test reads off ``h1`` whatever ``h2`` is: its
    constants, its variables as a tuple and as a set, the :func:`_split` of
    its positive body atoms and of those before its first negated literal
    (all when none is), its negated atoms, and the predicates of those
    leading atoms.  ``key`` is (``h1``, its body tuple): the body order
    decides when the complete models are built."""
    h1 = key[0]
    variables, grounded = h1.variables(), grounded_variables(h1)
    negated = tuple(l.atom for l in h1.body if l.negated)
    first = next((i for i, l in enumerate(h1.body) if l.negated), len(h1.body))
    prefix = tuple(l.atom for l in h1.body[:first])
    body = _split(tuple(l.atom for l in h1.body if not l.negated), grounded, negated)
    lead = _split(prefix, grounded) if negated else body  # with no negated literal, the prefix is the body
    leading = frozenset(a.pred for a in prefix)
    return frozenset(h1.constants()), variables, frozenset(variables), body, lead, negated, leading


def _augmented(kb: HybridKB, kb_constants: frozenset[Const], key: tuple) -> tuple:
    """The theory that the generality test augments with ``h2``, under
    ``key`` (``h2``, the constants of ``h1``): (skolemized head, ``sigma``,
    ``constants``, ``truth``, :class:`_Theory`).

    ``h2`` is skolemized apart from the KB's rule constants and ``h1``'s; its
    positive datalog atoms become facts, its positive ontology atoms, sorted
    by ``str``, assertions, and its negated atoms constraints of one theory
    over the KB's rules and TBox.  ``constants`` are those of the KB's rules,
    ``h1`` and the skolemized ``h2``.  ``truth`` is the cautious truth, the
    datalog and named ontology atoms true in every canonical model, those and
    the null atoms of every canonical model (a null's name is fixed by its
    anchor, role and direction) indexed by predicate, and ``constants`` plus
    those nulls, or None when the theory has no model.  Equal rules
    whose bodies are listed in another order skolemize to renamings of each
    other, which no verdict tells apart.
    """
    from .model import skolemize  # looked up per call, so it can be traced

    h2, h1_constants = key
    h2s, sigma = skolemize(h2, kb_constants | h1_constants | h2.constants())
    facts = frozenset(l.atom for l in h2s.body if not l.negated and l.atom.pred.kind == DATALOG)
    abox = tuple(sorted((l.atom for l in h2s.body if not l.negated and l.atom.pred.is_dl), key=str))
    forbidden = frozenset(l.atom for l in h2s.body if l.negated)
    constants = kb_constants | h1_constants | h2s.constants()
    theory = _Theory(kb.tbox, abox, kb.rules, facts, tuple(sorted(constants)), forbidden)
    truth = None
    if theory.models:
        cautious = frozenset.intersection(*[m.datalog_model.true_atoms | m.guess.true_atoms for m in theory.models])
        nulls = frozenset.intersection(*[m.existentials for m in theory.models])
        truth = cautious, _index(cautious, nulls), constants.union(*(a.args for a in nulls))
    return h2s.head, sigma, constants, truth, theory


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
