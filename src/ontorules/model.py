"""Core symbolic data model: terms, atoms, rules, ontology axioms and the hybrid KB.

Every value here is immutable after construction and safe to share across
concurrent workers; the module-level operations are pure functions.  The
exceptions are private memo slots: :class:`Rule` has two write-once ones,
``_hash``, its hash, filled on first use, and ``_canonical``, its canonical
form or :data:`FORM`, filled by :mod:`ontorules.refine`; :class:`HybridKB` has
``_generality``, which :func:`ontorules.hybrid.more_general` fills with all
of its state for that KB: the KB's rule constants and a bounded memo of the
rules it read as ``h1`` and of the theories it augmented with an ``h2``.
They are not fields: equality, hash, ``repr``, pickling and copying ignore
them, and a pickled or copied value starts with them empty.  Each holds pure
functions of the fields, so two threads that race to fill one store equal
values, and a reader sees either nothing (and computes the value itself) or
that value.

Every value class derives from :class:`Record`, a slotted base (no
per-instance ``__dict__``) whose fields are the public names in
``__slots__``.  It is written out by hand rather than generated, so that
importing the package compiles no code at run time.

Refinement and the generality test build, compare and hash the term layer
-- ``Var``, ``Const``, ``Predicate``, ``Atom`` and ``Literal`` -- by the
million, so these five are hash-consed: each class's ``__new__`` looks its
field tuple up in a module table (``_NAMES``, ``_PREDICATES``, ``_ATOMS``,
``_LITERALS``) and builds an object only on a miss, so one object stands for
each value, by position, keyword, parser, ``substitute``, pickle or copy
alike.  Equality is then identity and the hash is ``object``'s, both in C.
The tables live for the process and are never cleared: a cleared entry
would let a second object with the same fields arise, unequal to the first.
They are plain dicts, not weak ones, whose lookups would run in Python;
they grow with the distinct values a process builds, and a second identical
refinement walk adds no entry.  As the hash follows the object's address,
sets and dicts of these values iterate in an order that differs between
processes, so nothing that is printed may follow it unsorted.  The five are
ordered by their field tuples, through comparisons that :func:`_ordered`
builds as closures over the field names.

``Rule`` is not interned: it caches the hash of its head and body set, and
its public constructor drops duplicate body literals; its private
``Rule._distinct`` stores a duplicate-free body as given, through the slots'
member descriptors rather than ``object.__setattr__``.  No table shares
rules, canonical forms included: ``Rule`` equality is structural, so equal
rules built apart are equal, not one object.  The ontology axiom records --
``ConceptInclusion``, ``RoleInclusion`` and ``Existential`` -- keep
:class:`Record`'s hash of the field tuple, computed per call: no cache
hashes a whole TBox.

No value or memo slot here makes a reference cycle (a form's slot holds
:data:`FORM`), so the cyclic collector, run about 130 times per refinement walk
at CPython's default young threshold of 700, frees nothing: import sets it to
100,000, keeping the older two, unless it is 0 (collection off) or higher.
"""

from __future__ import annotations

import gc
import itertools
import operator
import re

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

if 0 < gc.get_threshold()[0] < 100_000:  # see the module docstring
    gc.set_threshold(100_000, *gc.get_threshold()[1:])


class ModelError(ValueError):
    """Raised when a structural invariant of the data model is violated."""


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured budget."""


#: Sets a slot past the immutability guard; constructors only.
_set = object.__setattr__
_new = object.__new__


class Record:
    """An immutable value whose fields are the public names in ``__slots__``.

    Equality, hash and ``repr`` follow the field tuple; values of different
    classes are never equal.  Fields are given by position or keyword, with
    the defaults in ``_defaults``; ``_validate`` checks them after they are
    set.  Pickling and copying rebuild the value through its constructor, so
    an interned value comes back as the receiving process's object for its
    fields, and a cached hash is computed afresh.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        slots = [n for c in reversed(cls.__mro__) for n in c.__dict__.get("__slots__", ())]
        cls._fields = tuple(n for n in slots if not n.startswith("_"))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self._validate()

    def _bind(self, args, kwargs) -> list:
        names = self._fields
        given = dict(zip(names, args))
        if len(args) > len(names) or not kwargs.keys() <= set(names) - given.keys():
            raise TypeError(f"{type(self).__name__}() got unexpected or repeated arguments")
        values = {**self._defaults, **given, **kwargs}
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{type(self).__name__}() missing arguments: {', '.join(missing)}")
        return [values[n] for n in names]

    def _validate(self) -> None:
        """Raise when the fields break an invariant of the class."""

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _ordered(cls):
    """Give ``cls`` ``<``, ``<=``, ``>`` and ``>=`` by its field tuple, between
    values of the same class, as closures: no code is compiled."""
    fields = operator.attrgetter(*cls._fields)

    def method(op):
        def compare(self, other):
            if other.__class__ is self.__class__:
                return op(fields(self), fields(other))
            return NotImplemented

        compare.__name__ = name = f"__{op.__name__}__"
        compare.__qualname__ = f"{cls.__qualname__}.{name}"
        return name, compare

    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        setattr(cls, *method(op))
    return cls


#: The interned values by field tuple, one table per class family; a name's
#: key also holds its class, so ``Var("a")`` and ``Const("a")`` stay apart.
_NAMES: dict[tuple, _Name] = {}
_PREDICATES: dict[tuple, Predicate] = {}
_ATOMS: dict[tuple, Atom] = {}
_LITERALS: dict[tuple, Literal] = {}


class _Interned(Record):
    """A value built once per field tuple by its class's ``__new__``, so that
    equality is identity and hashing is ``object``'s, both in C."""

    __slots__ = ()
    __init__ = object.__init__
    __hash__ = object.__hash__
    __eq__ = object.__eq__


@_ordered
class _Name(_Interned):
    """A variable or constant, identified by its name."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        found = _NAMES.get((cls, name))
        if found is None:
            found = _new(cls)
            _set(found, "name", name)
            # setdefault: two threads that race here keep the same object
            found = _NAMES.setdefault((cls, name), found)
        return found


class Var(_Name):
    __slots__ = ()


class Const(_Name):
    __slots__ = ()


Term = Var | Const


def make_term(name: str) -> Term:
    """Classify an identifier as variable or constant by its spelling."""
    return Var(name) if VARIABLE_RE.match(name) else Const(name)


@_ordered
class Predicate(_Interned):
    __slots__ = ("name", "arity", "kind")  # kind: CONCEPT | ROLE | DATALOG

    def __new__(cls, name: str, arity: int, kind: str):
        found = _PREDICATES.get((name, arity, kind))
        if found is None:
            if kind == CONCEPT and arity != 1:
                raise ModelError(f"concept predicate {name} must have arity 1")
            if kind == ROLE and arity != 2:
                raise ModelError(f"role predicate {name} must have arity 2")
            if kind == DATALOG and arity < 1:
                raise ModelError(f"datalog predicate {name} must have arity >= 1")
            found = _new(cls)
            _set(found, "name", name)
            _set(found, "arity", arity)
            _set(found, "kind", kind)
            found = _PREDICATES.setdefault((name, arity, kind), found)
        return found

    @property
    def is_dl(self) -> bool:
        return self.kind in (CONCEPT, ROLE)


@_ordered
class Atom(_Interned):
    __slots__ = ("pred", "args")

    def __new__(cls, pred: Predicate, args: tuple[Term, ...]):
        found = _ATOMS.get((pred, args))
        if found is None:
            if len(args) != pred.arity:
                raise ModelError(f"{pred.name}/{pred.arity} applied to {len(args)} arguments")
            found = _new(cls)
            _set(found, "pred", pred)
            _set(found, "args", args)
            found = _ATOMS.setdefault((pred, args), found)
        return found

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


@_ordered
class Literal(_Interned):
    __slots__ = ("atom", "negated")

    def __new__(cls, atom: Atom, negated: bool = False):
        found = _LITERALS.get((atom, negated))
        if found is None:
            if negated and atom.pred.kind != DATALOG:
                raise ModelError(f"negation-as-failure on non-datalog predicate {atom.pred.name}")
            found = _new(cls)
            _set(found, "atom", atom)
            _set(found, "negated", negated)
            found = _LITERALS.setdefault((atom, negated), found)
        return found

    def substitute(self, theta: dict[Var, Term]) -> "Literal":
        return Literal(self.atom.substitute(theta), self.negated)

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


class Rule(Record):
    """A clause ``head :- body``.  The body is stored as an ordered tuple but
    compared as a set.  The public constructor drops duplicate literals,
    keeping the first of each; :meth:`_distinct` is a private constructor
    that skips that pass, for a caller whose body holds no literal twice.

    Two private slots start empty and are each written at most once: ``_hash``
    by the first :meth:`__hash__`, and ``_canonical`` by
    :func:`ontorules.refine.canonical_form`, which stores the rule's canonical
    form there, or :data:`FORM` on the form (:func:`ontorules.refine.refine`
    passes either to :meth:`_distinct` for the children and forms it builds).
    """

    __slots__ = ("head", "body", "_canonical", "_hash")

    def __init__(self, head: Atom, body: tuple[Literal, ...] = ()):
        _set(self, "head", head)
        _set(self, "body", tuple(dict.fromkeys(body)))
        _set(self, "_canonical", None)
        _set(self, "_hash", None)

    @staticmethod
    def _distinct(head: Atom, body: tuple[Literal, ...], canonical: object) -> Rule:
        """The rule ``head :- body`` for a ``body`` tuple whose literals are
        pairwise distinct, stored as given, with ``canonical``, the rule's
        canonical form, :data:`FORM` or None, in its ``_canonical`` slot.  The
        caller guarantees both; a duplicate would break equality and hashing,
        which treat the body as a set of its literals."""
        rule = _new(Rule)
        _set_head(rule, head)
        _set_body(rule, body)
        _set_canonical(rule, canonical)
        _set_hash(rule, None)
        return rule

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Rule):
            return NotImplemented
        # canonical forms share their literals, so equal ones match in order
        return self.head is other.head and (self.body == other.body or set(self.body) == set(other.body))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.head, frozenset(self.body)))
            _set(self, "_hash", h)
        return h

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


_set_head, _set_body, _set_canonical, _set_hash = (Rule.__dict__[n].__set__ for n in Rule.__slots__)
#: What a canonical form holds in its ``_canonical`` slot: the form itself, without a reference cycle.
FORM = object()


# --- ontology axioms --------------------------------------------------------

class Existential(Record):
    """The restriction "some role Top", optionally over the inverse role."""

    __slots__ = ("role", "inverse")  # str, bool
    _defaults = {"inverse": False}

    def __str__(self) -> str:
        r = f"inv({self.role})" if self.inverse else self.role
        return f"some {r} Top"


class ConceptInclusion(Record):
    """(C1 and ... and Cn) subclass D, with D atomic or an existential."""

    __slots__ = ("lhs", "rhs")  # tuple[str, ...], str | Existential

    def __str__(self) -> str:
        return f"{' and '.join(self.lhs)} subclass {self.rhs}."


class RoleInclusion(Record):
    __slots__ = ("sub", "sup")  # role names

    def __str__(self) -> str:
        return f"{self.sub} subrole {self.sup}."


Axiom = ConceptInclusion | RoleInclusion


# --- knowledge base and learning inputs -------------------------------------

class HybridKB(Record):
    """Ontology axioms and assertions tightly coupled with a normal datalog
    program.

    The intensional part is ``tbox + rules`` (tuples of axioms and rules); the
    extensional part is ``abox + facts`` (tuples of ground atoms).  The
    ``alphabet`` is the tuple of declared predicates.

    The private slot ``_generality`` starts empty; the generality test keeps
    all of its state for the KB there: the KB's rule constants and a bounded
    memo of the rules it prepared as ``h1`` and of its theory entries, one per
    ``h2`` and set of ``h1``'s constants, each holding the skolemized ``h2``,
    its cautious truth and the one ground theory that also builds its
    possible atoms once needed (see :func:`ontorules.hybrid.more_general`).
    """

    __slots__ = ("tbox", "abox", "rules", "facts", "alphabet", "_generality")
    _defaults = dict.fromkeys(("tbox", "abox", "rules", "facts", "alphabet"), ())

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _set(self, "_generality", None)

    def _validate(self):
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

    def with_predicate(self, pred: Predicate) -> HybridKB:
        """This KB with ``pred`` added to the alphabet, so that atoms over it
        parse; the KB itself when a predicate of that name is declared."""
        if self.predicate(pred.name) is not None:
            return self
        return HybridKB(self.tbox, self.abox, self.rules, self.facts, self.alphabet + (pred,))

    def constants(self) -> set[Const]:
        out: set[Const] = set()
        for a in itertools.chain(self.abox, self.facts):
            out.update(t for t in a.args if isinstance(t, Const))
        for r in self.rules:
            out.update(r.constants())
        return out


class ExampleSet(Record):
    """Ground positive and negative atoms of the target predicate."""

    __slots__ = ("target", "positives", "negatives")

    def _validate(self):
        for a in itertools.chain(self.positives, self.negatives):
            if a.pred != self.target:
                raise ModelError(f"example {a} is not about target {self.target.name}")
            if not a.is_ground():
                raise ModelError(f"example {a} is not ground")


class LanguageBias(Record):
    """The predicate alphabets a hypothesis body may draw from, each a
    frozenset of predicates.

    ``datalog_pos`` and ``datalog_neg`` may overlap; a predicate listed in both
    can occur positively and under negation-as-failure.
    """

    __slots__ = ("concepts", "roles", "datalog_pos", "datalog_neg")
    _defaults = dict.fromkeys(__slots__, frozenset())


# --- structural operations --------------------------------------------------

class SafenessViolation(Record):
    __slots__ = ("variable", "condition")  # condition: "datalog-safeness" | "weak-dl-safeness"

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

