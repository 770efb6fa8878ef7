"""Core symbolic data model: terms, atoms, rules, ontology axioms and the hybrid KB.

Everything here is immutable after construction and safe to share across
concurrent workers; the module-level operations are pure functions.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

CONCEPT = "concept"
ROLE = "role"
DATALOG = "datalog"

#: Identifiers matching this pattern are variables; everything else is a
#: constant or predicate name.  Single capital letter, optional digits.
VARIABLE_RE = re.compile(r"^[A-Z][0-9]*$")

#: Constants produced by skolemization.  The prefix is barred from user input
#: so freshness is checkable syntactically.
SKOLEM_RE = re.compile(r"^sk[0-9]+$")

#: Hard cap on enumerated ground rule instances.
DEFAULT_GROUNDING_BUDGET = 10**6


class ModelError(ValueError):
    """Raised when a structural invariant of the data model is violated."""


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured budget."""


@dataclass(frozen=True, order=True)
class Var:
    name: str


@dataclass(frozen=True, order=True)
class Const:
    name: str


Term = Var | Const


def make_term(name: str) -> Term:
    """Classify an identifier as variable or constant by its spelling."""
    return Var(name) if VARIABLE_RE.match(name) else Const(name)


@dataclass(frozen=True, order=True)
class Predicate:
    name: str
    arity: int
    kind: str  # CONCEPT | ROLE | DATALOG

    def __post_init__(self):
        if self.kind == CONCEPT and self.arity != 1:
            raise ModelError(f"concept predicate {self.name} must have arity 1")
        if self.kind == ROLE and self.arity != 2:
            raise ModelError(f"role predicate {self.name} must have arity 2")
        if self.kind == DATALOG and self.arity < 1:
            raise ModelError(f"datalog predicate {self.name} must have arity >= 1")

    @property
    def is_dl(self) -> bool:
        return self.kind in (CONCEPT, ROLE)


@dataclass(frozen=True, order=True)
class Atom:
    pred: Predicate
    args: tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise ModelError(
                f"{self.pred.name}/{self.pred.arity} applied to {len(self.args)} arguments"
            )

    def variables(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {}
        for t in self.args:
            if isinstance(t, Var):
                seen.setdefault(t)
        return tuple(seen)

    def is_ground(self) -> bool:
        return all(isinstance(t, Const) for t in self.args)

    def substitute(self, theta: dict[Var, Term]) -> "Atom":
        return Atom(self.pred, tuple(theta.get(t, t) if isinstance(t, Var) else t for t in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.pred.name
        return f"{self.pred.name}({','.join(t.name for t in self.args)})"


@dataclass(frozen=True, order=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __post_init__(self):
        if self.negated and self.atom.pred.kind != DATALOG:
            raise ModelError(f"negation-as-failure on non-datalog predicate {self.atom.pred.name}")

    def substitute(self, theta: dict[Var, Term]) -> "Literal":
        return Literal(self.atom.substitute(theta), self.negated)

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


@dataclass(frozen=True)
class Rule:
    """A clause ``head :- body``.  The body is stored as an ordered tuple but
    compared as a set; duplicate literals are dropped at construction."""

    head: Atom
    body: tuple[Literal, ...] = ()

    def __post_init__(self):
        seen: dict[Literal, None] = {}
        for lit in self.body:
            seen.setdefault(lit)
        object.__setattr__(self, "body", tuple(seen))

    def __eq__(self, other):
        if not isinstance(other, Rule):
            return NotImplemented
        return self.head == other.head and set(self.body) == set(other.body)

    def __hash__(self):
        return hash((self.head, frozenset(self.body)))

    def variables(self) -> tuple[Var, ...]:
        seen: dict[Var, None] = {}
        for v in self.head.variables():
            seen.setdefault(v)
        for lit in self.body:
            for v in lit.atom.variables():
                seen.setdefault(v)
        return tuple(seen)

    def constants(self) -> set[Const]:
        out = {t for t in self.head.args if isinstance(t, Const)}
        for lit in self.body:
            out.update(t for t in lit.atom.args if isinstance(t, Const))
        return out

    def is_ground(self) -> bool:
        return not self.variables()

    def positive_body(self) -> tuple[Literal, ...]:
        return tuple(l for l in self.body if not l.negated)

    def substitute(self, theta: dict[Var, Term]) -> "Rule":
        return Rule(self.head.substitute(theta), tuple(l.substitute(theta) for l in self.body))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(l) for l in self.body)}."


# --- ontology axioms --------------------------------------------------------

@dataclass(frozen=True)
class Existential:
    """The restriction "some role Top", optionally over the inverse role."""

    role: str
    inverse: bool = False

    def __str__(self) -> str:
        r = f"inv({self.role})" if self.inverse else self.role
        return f"some {r} Top"


@dataclass(frozen=True)
class ConceptInclusion:
    """(C1 and ... and Cn) subclass D, with D atomic or an existential."""

    lhs: tuple[str, ...]
    rhs: str | Existential

    def __str__(self) -> str:
        return f"{' and '.join(self.lhs)} subclass {self.rhs}."


@dataclass(frozen=True)
class RoleInclusion:
    sub: str
    sup: str

    def __str__(self) -> str:
        return f"{self.sub} subrole {self.sup}."


Axiom = ConceptInclusion | RoleInclusion


# --- knowledge base and learning inputs -------------------------------------

@dataclass(frozen=True)
class HybridKB:
    """Ontology axioms and assertions tightly coupled with a normal datalog
    program.

    The intensional part is ``tbox + rules``; the extensional part is
    ``abox + facts``.
    """

    tbox: tuple[Axiom, ...] = ()
    abox: tuple[Atom, ...] = ()
    rules: tuple[Rule, ...] = ()
    facts: tuple[Atom, ...] = ()
    alphabet: tuple[Predicate, ...] = ()

    def __post_init__(self):
        for a in self.abox:
            if not a.pred.is_dl or not a.is_ground():
                raise ModelError(f"bad ontology assertion: {a}")
        for f in self.facts:
            if f.pred.kind != DATALOG or not f.is_ground():
                raise ModelError(f"bad datalog fact: {f}")
        for r in self.rules:
            report = validate_safeness(r)
            if report:
                raise ModelError(f"unsafe rule {r}: {'; '.join(map(str, report))}")

    def predicate(self, name: str) -> Predicate | None:
        for p in self.alphabet:
            if p.name == name:
                return p
        return None

    def predicates_of_kind(self, kind: str) -> tuple[Predicate, ...]:
        return tuple(p for p in self.alphabet if p.kind == kind)

    def constants(self) -> set[Const]:
        out: set[Const] = set()
        for a in itertools.chain(self.abox, self.facts):
            out.update(t for t in a.args if isinstance(t, Const))
        for r in self.rules:
            out.update(r.constants())
        return out


@dataclass(frozen=True)
class ExampleSet:
    target: Predicate
    positives: tuple[Atom, ...]
    negatives: tuple[Atom, ...]

    def __post_init__(self):
        for a in itertools.chain(self.positives, self.negatives):
            if a.pred != self.target:
                raise ModelError(f"example {a} is not about target {self.target.name}")
            if not a.is_ground():
                raise ModelError(f"example {a} is not ground")


@dataclass(frozen=True)
class LanguageBias:
    """The predicate alphabets a hypothesis body may draw from.

    ``datalog_pos`` and ``datalog_neg`` may overlap; a predicate listed in both
    can occur positively and under negation-as-failure.
    """

    concepts: frozenset[Predicate] = frozenset()
    roles: frozenset[Predicate] = frozenset()
    datalog_pos: frozenset[Predicate] = frozenset()
    datalog_neg: frozenset[Predicate] = frozenset()


# --- structural operations --------------------------------------------------

@dataclass(frozen=True)
class SafenessViolation:
    variable: Var
    condition: str  # "datalog-safeness" | "weak-dl-safeness"

    def __str__(self) -> str:
        return f"{self.variable.name} violates {self.condition}"


def validate_safeness(rule: Rule) -> tuple[SafenessViolation, ...]:
    """Check the two syntactic safety conditions on a clause.

    Datalog-safeness: every variable occurs in at least one positive body
    atom.  Weak DL-safeness: every head variable occurs in at least one
    positive *datalog* body atom.  Returns one violation per offending
    variable; an empty tuple means the rule is safe.
    """
    pos_vars: set[Var] = set()
    pos_datalog_vars: set[Var] = set()
    for lit in rule.positive_body():
        pos_vars.update(lit.atom.variables())
        if lit.atom.pred.kind == DATALOG:
            pos_datalog_vars.update(lit.atom.variables())

    out: list[SafenessViolation] = []
    for v in rule.variables():
        if v not in pos_vars:
            out.append(SafenessViolation(v, "datalog-safeness"))
    for v in rule.head.variables():
        if v not in pos_datalog_vars:
            out.append(SafenessViolation(v, "weak-dl-safeness"))
    return tuple(out)


def is_linked(rule: Rule) -> bool:
    """Every body literal is chained to the head through shared variables."""
    if not rule.body:
        return True
    linked: set[Var] = set(rule.head.variables())
    pending = list(rule.body)
    progress = True
    while progress and pending:
        progress = False
        for lit in list(pending):
            vs = set(lit.atom.variables())
            if not vs or vs & linked:
                linked |= vs
                pending.remove(lit)
                progress = True
    return not pending


def skolemize(rule: Rule, reserved: set[Const]) -> tuple[Rule, dict[Var, Const]]:
    """Replace every variable by a deterministic fresh constant.

    Fresh constants are ``sk0, sk1, ...``, skipping any that appear in
    ``reserved``, in order of first occurrence of the variables, so the result
    is reproducible for a given (rule, reserved) pair.
    """
    taken = {c.name for c in reserved}
    sigma: dict[Var, Const] = {}
    counter = 0
    for v in rule.variables():
        while f"sk{counter}" in taken:
            counter += 1
        sigma[v] = Const(f"sk{counter}")
        counter += 1
    return rule.substitute(dict(sigma)), sigma


def ground_substitutions(
    rule: Rule,
    constants: set[Const],
    budget: int = DEFAULT_GROUNDING_BUDGET,
) -> list[Rule]:
    """All groundings of ``rule`` over ``constants``, lexicographically ordered
    by the constants assigned to the variables in order of first occurrence.

    Raises :class:`BudgetError` when |constants| ** |vars| exceeds ``budget``.
    """
    if not constants:
        raise ModelError("ground_substitutions needs a non-empty constant set")
    variables = rule.variables()
    if not variables:
        return [rule]
    ordered = sorted(constants)
    total = len(ordered) ** len(variables)
    if total > budget:
        raise BudgetError(f"{total} ground instances exceed the budget of {budget}")
    out = []
    for combo in itertools.product(ordered, repeat=len(variables)):
        out.append(rule.substitute(dict(zip(variables, combo))))
    return out
