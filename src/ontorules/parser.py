"""Parsing and serialization of the textual KB, example and bias formats.

Three file kinds: ``.okb`` (knowledge base), ``.oex`` (labelled examples),
``.obias`` (language bias).  Comments start with ``%``.  A ``.okb`` file holds
predicate declarations plus the sections ``#tbox``, ``#rules`` and ``#facts``
in any order; declarations must precede use.

Identifiers are ``[A-Za-z][A-Za-z0-9_-]*``.  An identifier that is a single
capital letter optionally followed by digits (``X``, ``Y``, ``Z1``) is a
variable; every other identifier is a constant or predicate name.
"""

from __future__ import annotations

import re

from .model import (
    Atom,
    Axiom,
    ConceptInclusion,
    Const,
    Existential,
    ExampleSet,
    HybridKB,
    LanguageBias,
    Literal,
    ModelError,
    Predicate,
    Record,
    RoleInclusion,
    Rule,
    SKOLEM_RE,
    Term,
    CONCEPT,
    DATALOG,
    ROLE,
    make_term,
    validate_safeness,
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*")
_INT_RE = re.compile(r"[0-9]+")


class SourceLocation(Record):
    __slots__ = ("file", "line", "column")  # str, int, int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, location: SourceLocation):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class _Token:
    __slots__ = ("kind", "text", "loc")

    def __init__(self, kind: str, text: str, loc: SourceLocation):
        self.kind = kind  # ident | int | punct | section | end
        self.text = text
        self.loc = loc


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        col = 0
        while col < len(line):
            ch = line[col]
            if ch in " \t":
                col += 1
                continue
            if ch == "%":
                break
            # every position past here starts a token or raises
            loc = SourceLocation(filename, lineno, col + 1)
            if ch == "#":
                m = _IDENT_RE.match(line, col + 1)
                if not m:
                    raise ParseError("malformed section header", loc)
                tokens.append(_Token("section", "#" + m.group(), loc))
                col = m.end()
                continue
            if line.startswith(":-", col):
                tokens.append(_Token("punct", ":-", loc))
                col += 2
                continue
            if ch in "(),./":
                tokens.append(_Token("punct", ch, loc))
                col += 1
                continue
            m = _IDENT_RE.match(line, col)
            if m:
                tokens.append(_Token("ident", m.group(), loc))
                col = m.end()
                continue
            m = _INT_RE.match(line, col)
            if m:
                tokens.append(_Token("int", m.group(), loc))
                col = m.end()
                continue
            raise ParseError(f"unexpected character {ch!r}", loc)
    end = SourceLocation(filename, text.count("\n") + 1, 1)
    tokens.append(_Token("end", "", end))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.loc)
        return tok


class _KBBuilder:
    __slots__ = ("predicates", "tbox", "abox", "rules", "facts")

    def __init__(self, predicates: dict[str, Predicate]):
        self.predicates = predicates
        self.tbox: list[Axiom] = []
        self.abox: list[Atom] = []
        self.rules: list[Rule] = []
        self.facts: list[Atom] = []

    def lookup(self, name: str, loc: SourceLocation) -> Predicate:
        pred = self.predicates.get(name)
        if pred is None:
            raise ParseError(f"undeclared predicate {name!r}", loc)
        return pred


def _parse_term(stream: _TokenStream) -> tuple[Term, SourceLocation]:
    tok = stream.next()
    if tok.kind != "ident":
        raise ParseError(f"expected a term, found {tok.text!r}", tok.loc)
    term = make_term(tok.text)
    if isinstance(term, Const) and SKOLEM_RE.match(term.name):
        raise ParseError(f"constant name {tok.text!r} uses the reserved skolem prefix", tok.loc)
    return term, tok.loc


def _parse_atom(stream: _TokenStream, builder: _KBBuilder) -> Atom:
    name = stream.next()
    if name.kind != "ident":
        raise ParseError(f"expected a predicate name, found {name.text!r}", name.loc)
    pred = builder.lookup(name.text, name.loc)
    stream.expect("(")
    args: list[Term] = []
    while True:
        term, _ = _parse_term(stream)
        args.append(term)
        tok = stream.next()
        if tok.text == ")":
            break
        if tok.text != ",":
            raise ParseError(f"expected ',' or ')', found {tok.text!r}", tok.loc)
    if len(args) != pred.arity:
        raise ParseError(
            f"{pred.name}/{pred.arity} applied to {len(args)} arguments", name.loc
        )
    return Atom(pred, tuple(args))


def _parse_literal(stream: _TokenStream, builder: _KBBuilder) -> Literal:
    negated = False
    loc = stream.peek().loc
    if stream.peek().text == "not":
        stream.next()
        negated = True
    atom = _parse_atom(stream, builder)
    if negated and atom.pred.kind != DATALOG:
        raise ParseError(f"negation-as-failure on ontology predicate {atom.pred.name!r}", loc)
    return Literal(atom, negated)


def _parse_clause(stream: _TokenStream, builder: _KBBuilder) -> tuple[Atom, tuple[Literal, ...]]:
    """A head atom, then ``.`` or ``:-`` and a body ended by ``.``."""
    head = _parse_atom(stream, builder)
    tok = stream.next()
    if tok.text == ".":
        return head, ()
    if tok.text != ":-":
        raise ParseError(f"expected ':-' or '.', found {tok.text!r}", tok.loc)
    body: list[Literal] = []
    while True:
        body.append(_parse_literal(stream, builder))
        tok = stream.next()
        if tok.text == ".":
            return head, tuple(body)
        if tok.text != ",":
            raise ParseError(f"expected ',' or '.', found {tok.text!r}", tok.loc)


def _parse_declaration(stream: _TokenStream, builder: _KBBuilder) -> None:
    kw = stream.next()
    name = stream.next()
    if name.kind != "ident":
        raise ParseError(f"expected a predicate name, found {name.text!r}", name.loc)
    stream.expect("/")
    arity_tok = stream.next()
    if arity_tok.kind != "int":
        raise ParseError(f"expected an arity, found {arity_tok.text!r}", arity_tok.loc)
    stream.expect(".")
    kind = {"concept": CONCEPT, "role": ROLE, "pred": DATALOG}[kw.text]
    if name.text in builder.predicates:
        raise ParseError(f"predicate {name.text!r} declared twice", name.loc)
    try:
        builder.predicates[name.text] = Predicate(name.text, int(arity_tok.text), kind)
    except ModelError as exc:
        raise ParseError(str(exc), name.loc) from exc


def _parse_concept_name(stream: _TokenStream, builder: _KBBuilder) -> str:
    tok = stream.next()
    pred = builder.lookup(tok.text, tok.loc)
    if pred.kind != CONCEPT:
        raise ParseError(f"{tok.text!r} is not a concept", tok.loc)
    return pred.name


def _parse_role_name(stream: _TokenStream, builder: _KBBuilder) -> str:
    tok = stream.next()
    pred = builder.lookup(tok.text, tok.loc)
    if pred.kind != ROLE:
        raise ParseError(f"{tok.text!r} is not a role", tok.loc)
    return pred.name


def _parse_axiom(stream: _TokenStream, builder: _KBBuilder) -> Axiom:
    first = stream.peek()
    pred = builder.predicates.get(first.text)
    if pred is not None and pred.kind == ROLE:
        sub = _parse_role_name(stream, builder)
        stream.expect("subrole")
        sup = _parse_role_name(stream, builder)
        stream.expect(".")
        return RoleInclusion(sub, sup)
    lhs = [_parse_concept_name(stream, builder)]
    while stream.peek().text == "and":
        stream.next()
        lhs.append(_parse_concept_name(stream, builder))
    stream.expect("subclass")
    if stream.peek().text == "some":
        stream.next()
        inverse = False
        if stream.peek().text == "inv":
            stream.next()
            stream.expect("(")
            role = _parse_role_name(stream, builder)
            stream.expect(")")
            inverse = True
        else:
            role = _parse_role_name(stream, builder)
        stream.expect("Top")
        stream.expect(".")
        return ConceptInclusion(tuple(lhs), Existential(role, inverse))
    rhs = _parse_concept_name(stream, builder)
    stream.expect(".")
    return ConceptInclusion(tuple(lhs), rhs)


def _build_rule(head: Atom, body: tuple[Literal, ...], loc: SourceLocation) -> Rule:
    rule = Rule(head, body)
    violations = validate_safeness(rule)
    if violations:
        raise ParseError("unsafe rule: " + "; ".join(str(v) for v in violations), loc)
    return rule


def parse_kb(text: str, filename: str = "<kb>") -> HybridKB:
    """Parse a ``.okb`` knowledge base."""
    stream = _TokenStream(_tokenize(text, filename))
    builder = _KBBuilder({})
    section: str | None = None
    while True:
        tok = stream.peek()
        if tok.kind == "end":
            break
        if tok.kind == "section":
            if tok.text not in ("#tbox", "#rules", "#facts"):
                raise ParseError(f"unknown section {tok.text!r}", tok.loc)
            section = tok.text
            stream.next()
            continue
        if tok.text in ("concept", "role", "pred"):
            _parse_declaration(stream, builder)
            continue
        if section == "#tbox":
            builder.tbox.append(_parse_axiom(stream, builder))
        elif section == "#rules":
            builder.rules.append(_build_rule(*_parse_clause(stream, builder), tok.loc))
        elif section == "#facts":
            atom = _parse_atom(stream, builder)
            stream.expect(".")
            if not atom.is_ground():
                raise ParseError(f"fact {atom} is not ground", tok.loc)
            (builder.abox if atom.pred.is_dl else builder.facts).append(atom)
        else:
            raise ParseError("statement outside any section", tok.loc)
    return HybridKB(
        tbox=tuple(builder.tbox),
        abox=tuple(builder.abox),
        rules=tuple(builder.rules),
        facts=tuple(builder.facts),
        alphabet=tuple(sorted(builder.predicates.values())),
    )


def parse_rule(text: str, kb: HybridKB, filename: str = "<rule>") -> Rule:
    """Parse a standalone rule against a KB's alphabet.

    The head predicate may be new (the learning target); its kind is inferred
    from the arity.  Body predicates must be declared in the KB.
    """
    stream = _TokenStream(_tokenize(text, filename))
    builder = _KBBuilder(predicates={p.name: p for p in kb.alphabet})
    name = stream.peek()
    if name.kind == "ident" and name.text not in builder.predicates:
        builder.predicates[name.text] = _target_predicate(name.text, text, name.loc)
    head, body = _parse_clause(stream, builder)
    if stream.peek().kind != "end":
        raise ParseError(f"trailing input {stream.peek().text!r}", stream.peek().loc)
    return Rule(head, body)


def parse_ground_atom(text: str, kb: HybridKB, filename: str = "<atom>") -> Atom:
    """Parse one ground atom over the KB's alphabet."""
    stream = _TokenStream(_tokenize(text, filename))
    builder = _KBBuilder(predicates={p.name: p for p in kb.alphabet})
    atom = _parse_atom(stream, builder)
    if stream.peek().text == ".":
        stream.next()
    if stream.peek().kind != "end":
        raise ParseError(f"trailing input {stream.peek().text!r}", stream.peek().loc)
    if not atom.is_ground():
        raise ParseError(f"atom {atom} is not ground", SourceLocation(filename, 1, 1))
    return atom


def _target_predicate(name: str, context: str, loc: SourceLocation) -> Predicate:
    m = re.search(re.escape(name) + r"\(([^)]*)\)", context)
    arity = len(m.group(1).split(",")) if m and m.group(1).strip() else 0
    if arity == 1:
        return Predicate(name, 1, CONCEPT)
    if arity == 2:
        return Predicate(name, 2, ROLE)
    raise ParseError(f"target predicate {name!r} must be unary or binary", loc)


def parse_examples(text: str, kb: HybridKB, filename: str = "<examples>") -> ExampleSet:
    """Parse a ``.oex`` file of ``+ p(a)`` / ``- p(a)`` lines against a KB.

    The target predicate is inferred from the atoms; it must not occur in the
    KB alphabet, and every argument must be a constant known to the KB.
    """
    target: Predicate | None = None
    positives: list[Atom] = []
    negatives: list[Atom] = []
    known = {c.name for c in kb.constants()}
    builder = _KBBuilder(predicates={p.name: p for p in kb.alphabet})
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        loc = SourceLocation(filename, lineno, 1)
        sign, _, rest = line.partition(" ")
        if sign not in ("+", "-") or not rest.strip():
            raise ParseError("expected '+ atom' or '- atom'", loc)
        stream = _TokenStream(_tokenize(rest.strip(), filename))
        name = stream.peek()
        if name.text in builder.predicates:
            raise ParseError(
                f"target predicate {name.text!r} already occurs in the knowledge base", loc
            )
        if target is None:
            target = _target_predicate(name.text, rest, loc)
        elif name.text != target.name:
            raise ParseError(
                f"mixed target predicates {target.name!r} and {name.text!r}", loc
            )
        local = _KBBuilder(predicates=dict(builder.predicates))
        local.predicates[target.name] = target
        atom = _parse_atom(stream, local)
        if stream.peek().text == ".":
            stream.next()
        if not atom.is_ground():
            raise ParseError(f"example {atom} is not ground", loc)
        for t in atom.args:
            if t.name not in known:
                raise ParseError(f"constant {t.name!r} does not occur in the knowledge base", loc)
        (positives if sign == "+" else negatives).append(atom)
    if target is None:
        raise ParseError("no examples found", SourceLocation(filename, 1, 1))
    return ExampleSet(target, tuple(positives), tuple(negatives))


_BIAS_KEYS = {"concepts": CONCEPT, "roles": ROLE, "datalog+": DATALOG, "datalog-": DATALOG}


def parse_bias(text: str, kb: HybridKB, filename: str = "<bias>") -> LanguageBias:
    """Parse a ``.obias`` file.

    Assignments ``concepts = ... ; roles = ... ; datalog+ = ... ; datalog- = ...``
    separated by semicolons or newlines; absent lists default to empty.  Every
    predicate must belong to the matching KB alphabet.
    """
    sets: dict[str, set[Predicate]] = {k: set() for k in ("concepts", "roles", "datalog+", "datalog-")}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            loc = SourceLocation(filename, lineno, 1)
            key, eq, items = chunk.partition("=")
            key = key.strip()
            if not eq or key not in _BIAS_KEYS:
                raise ParseError(f"expected one of {sorted(_BIAS_KEYS)} before '='", loc)
            for item in items.split(","):
                item = item.strip()
                if not item:
                    continue
                name, slash, arity = item.partition("/")
                pred = kb.predicate(name.strip())
                if pred is None:
                    raise ParseError(f"undeclared predicate {name.strip()!r}", loc)
                if pred.kind != _BIAS_KEYS[key]:
                    raise ParseError(f"{pred.name!r} is not in the {key!r} alphabet", loc)
                if slash and not _INT_RE.fullmatch(arity.strip()):
                    raise ParseError(f"malformed arity {arity.strip()!r} for {pred.name!r}", loc)
                if slash and int(arity) != pred.arity:
                    raise ParseError(f"arity mismatch for {pred.name!r}", loc)
                sets[key].add(pred)
    return LanguageBias(
        concepts=frozenset(sets["concepts"]),
        roles=frozenset(sets["roles"]),
        datalog_pos=frozenset(sets["datalog+"]),
        datalog_neg=frozenset(sets["datalog-"]),
    )


def serialize_rule(rule: Rule) -> str:
    """Round-trippable text form: parsing it back yields an equal rule up to
    variable renaming."""
    return str(rule)
