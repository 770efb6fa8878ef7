"""Parsing and serialization of the textual KB, example and bias formats.

Three file kinds: ``.okb`` (knowledge base), ``.oex`` (labelled examples),
``.obias`` (language bias).  Comments start with ``%``.  A ``.okb`` file holds
predicate declarations plus the sections ``#tbox``, ``#rules`` and ``#facts``
in any order; declarations must precede use.  Each example of a ``.oex`` file
is a sign ``+`` or ``-``, then an atom that starts on the sign's line, then an
optional ``.``; nothing else may follow on that line.

Identifiers are ``[A-Za-z][A-Za-z0-9_]*(-[A-Za-z0-9_]+)*``: a hyphen only
joins two runs of letters, digits or underscores (``WANTS-TO-MARRY``).  An
identifier that is a single capital letter optionally followed by digits
(``X``, ``Y``, ``Z1``) is a variable; every other identifier is a constant or
predicate name.
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
    Var,
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
            if ch in "(),./+-":
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

    def accept(self, text: str) -> bool:
        """Consume the next token if it is ``text``."""
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.loc)
        return tok

    def end(self, same_line: bool = False) -> None:
        """Refuse a further token, or with ``same_line`` only one on the line
        of the token before it."""
        tok = self.tokens[self.pos]
        if tok.kind != "end" and (not same_line or tok.loc.line == self.tokens[self.pos - 1].loc.line):
            raise ParseError(f"trailing input {tok.text!r}", tok.loc)


def _declared(predicates: dict[str, Predicate], tok: _Token) -> Predicate:
    pred = predicates.get(tok.text)
    if pred is None:
        raise ParseError(f"undeclared predicate {tok.text!r}", tok.loc)
    return pred


def _parse_term(stream: _TokenStream) -> Term:
    tok = stream.next()
    if tok.kind != "ident":
        raise ParseError(f"expected a term, found {tok.text!r}", tok.loc)
    term = make_term(tok.text)
    if isinstance(term, Const) and SKOLEM_RE.match(term.name):
        raise ParseError(f"constant name {tok.text!r} uses the reserved skolem prefix", tok.loc)
    return term


def _parse_atom(stream: _TokenStream, predicates: dict[str, Predicate], target: bool = False) -> Atom:
    """An atom over ``predicates``.  With ``target``, an undeclared predicate
    is the learning target: a concept if it has one argument, a role if two.
    It is added to ``predicates``."""
    name = stream.next()
    if name.kind != "ident":
        raise ParseError(f"expected a predicate name, found {name.text!r}", name.loc)
    pred = predicates.get(name.text) if target else _declared(predicates, name)
    stream.expect("(")
    args = [_parse_term(stream)]
    while not stream.accept(")"):
        tok = stream.next()
        if tok.text != ",":
            raise ParseError(f"expected ',' or ')', found {tok.text!r}", tok.loc)
        args.append(_parse_term(stream))
    if pred is None:
        if len(args) not in (1, 2):
            raise ParseError(f"target predicate {name.text!r} must be unary or binary", name.loc)
        pred = predicates[name.text] = Predicate(name.text, len(args), CONCEPT if len(args) == 1 else ROLE)
    elif len(args) != pred.arity:
        raise ParseError(f"{pred.name}/{pred.arity} applied to {len(args)} arguments", name.loc)
    return Atom(pred, tuple(args))


def _parse_located_atom(stream: _TokenStream, predicates: dict[str, Predicate], target: bool = False) -> tuple:
    """An atom (:func:`_parse_atom`) and the location of each argument: every
    other token after its name and ``(``."""
    start = stream.pos
    atom = _parse_atom(stream, predicates, target)
    return atom, [tok.loc for tok in stream.tokens[start + 2 : stream.pos : 2]]


def _refuse_variables(atom: Atom, locations: list[SourceLocation], what: str) -> None:
    """Refuse ``atom`` at its first variable argument."""
    for t, loc in zip(atom.args, locations):
        if isinstance(t, Var):
            raise ParseError(f"{what} {atom} is not ground", loc)


def _parse_literal(stream: _TokenStream, predicates: dict[str, Predicate]) -> Literal:
    loc = stream.peek().loc
    negated = stream.accept("not")
    atom = _parse_atom(stream, predicates)
    if negated and atom.pred.kind != DATALOG:
        raise ParseError(f"negation-as-failure on ontology predicate {atom.pred.name!r}", loc)
    return Literal(atom, negated)


def _parse_clause(
    stream: _TokenStream, predicates: dict[str, Predicate], target: bool = False
) -> tuple[Atom, tuple[Literal, ...]]:
    """A head atom, then ``.`` or ``:-`` and a body ended by ``.``."""
    head = _parse_atom(stream, predicates, target)
    tok = stream.next()
    if tok.text == ".":
        return head, ()
    if tok.text != ":-":
        raise ParseError(f"expected ':-' or '.', found {tok.text!r}", tok.loc)
    body: list[Literal] = []
    while True:
        body.append(_parse_literal(stream, predicates))
        tok = stream.next()
        if tok.text == ".":
            return head, tuple(body)
        if tok.text != ",":
            raise ParseError(f"expected ',' or '.', found {tok.text!r}", tok.loc)


def _parse_declaration(stream: _TokenStream, predicates: dict[str, Predicate]) -> None:
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
    if name.text in predicates:
        raise ParseError(f"predicate {name.text!r} declared twice", name.loc)
    try:
        predicates[name.text] = Predicate(name.text, int(arity_tok.text), kind)
    except ModelError as exc:
        raise ParseError(str(exc), name.loc) from exc


def _parse_name(stream: _TokenStream, predicates: dict[str, Predicate], kind: str) -> str:
    """A declared concept or role name, as ``kind`` asks."""
    tok = stream.next()
    if _declared(predicates, tok).kind != kind:
        raise ParseError(f"{tok.text!r} is not a {kind}", tok.loc)
    return tok.text


def _parse_axiom(stream: _TokenStream, predicates: dict[str, Predicate]) -> Axiom:
    pred = predicates.get(stream.peek().text)
    if pred is not None and pred.kind == ROLE:
        sub = _parse_name(stream, predicates, ROLE)
        stream.expect("subrole")
        sup = _parse_name(stream, predicates, ROLE)
        stream.expect(".")
        return RoleInclusion(sub, sup)
    lhs = [_parse_name(stream, predicates, CONCEPT)]
    while stream.accept("and"):
        lhs.append(_parse_name(stream, predicates, CONCEPT))
    stream.expect("subclass")
    if stream.accept("some"):
        inverse = stream.accept("inv")
        if inverse:
            stream.expect("(")
        role = _parse_name(stream, predicates, ROLE)
        if inverse:
            stream.expect(")")
        stream.expect("Top")
        stream.expect(".")
        return ConceptInclusion(tuple(lhs), Existential(role, inverse))
    rhs = _parse_name(stream, predicates, CONCEPT)
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
    predicates: dict[str, Predicate] = {}
    tbox: list[Axiom] = []
    abox: list[Atom] = []
    rules: list[Rule] = []
    facts: list[Atom] = []
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
            _parse_declaration(stream, predicates)
            continue
        if section == "#tbox":
            tbox.append(_parse_axiom(stream, predicates))
        elif section == "#rules":
            rules.append(_build_rule(*_parse_clause(stream, predicates), tok.loc))
        elif section == "#facts":
            atom, locations = _parse_located_atom(stream, predicates)
            stream.expect(".")
            _refuse_variables(atom, locations, "fact")
            (abox if atom.pred.is_dl else facts).append(atom)
        else:
            raise ParseError("statement outside any section", tok.loc)
    return HybridKB(
        tbox=tuple(tbox),
        abox=tuple(abox),
        rules=tuple(rules),
        facts=tuple(facts),
        alphabet=tuple(sorted(predicates.values())),
    )


def parse_rule(text: str, kb: HybridKB, filename: str = "<rule>") -> Rule:
    """Parse a standalone rule against a KB's alphabet.

    The head predicate may be new (the learning target); its kind is inferred
    from the arity.  Body predicates must be declared in the KB.
    """
    stream = _TokenStream(_tokenize(text, filename))
    head, body = _parse_clause(stream, {p.name: p for p in kb.alphabet}, target=True)
    stream.end()
    return Rule(head, body)


def parse_ground_atom(text: str, kb: HybridKB, filename: str = "<atom>") -> Atom:
    """Parse one ground atom over the KB's alphabet."""
    stream = _TokenStream(_tokenize(text, filename))
    atom, locations = _parse_located_atom(stream, {p.name: p for p in kb.alphabet})
    stream.accept(".")
    stream.end()
    _refuse_variables(atom, locations, "atom")
    return atom


def parse_examples(text: str, kb: HybridKB, filename: str = "<examples>") -> ExampleSet:
    """Parse a ``.oex`` file of ``+ p(a)`` / ``- p(a)`` examples against a KB.

    The target predicate is inferred from the atoms; it must not occur in the
    KB alphabet, and every argument must be a constant known to the KB.
    """
    stream = _TokenStream(_tokenize(text, filename))
    predicates = {p.name: p for p in kb.alphabet}
    known = {c.name for c in kb.constants()}
    target: Predicate | None = None
    signed: dict[str, list[Atom]] = {"+": [], "-": []}
    while (sign := stream.next()).kind != "end":
        name = stream.peek()
        if sign.text not in signed or name.kind != "ident" or name.loc.line != sign.loc.line:
            raise ParseError("expected '+ atom' or '- atom'", sign.loc)
        if target is None or name.text != target.name:
            if name.text in predicates:
                raise ParseError(f"target predicate {name.text!r} already occurs in the knowledge base", name.loc)
            if target is not None:
                raise ParseError(f"mixed target predicates {target.name!r} and {name.text!r}", name.loc)
        atom, locations = _parse_located_atom(stream, predicates, target=True)
        target = atom.pred
        stream.accept(".")
        stream.end(same_line=True)
        _refuse_variables(atom, locations, "example")
        for t, loc in zip(atom.args, locations):
            if t.name not in known:
                raise ParseError(f"constant {t.name!r} does not occur in the knowledge base", loc)
        signed[sign.text].append(atom)
    if target is None:
        raise ParseError("no examples found", SourceLocation(filename, 1, 1))
    return ExampleSet(target, tuple(signed["+"]), tuple(signed["-"]))


_BIAS_KINDS = {"concepts": CONCEPT, "roles": ROLE, "datalog+": DATALOG, "datalog-": DATALOG}


def _pieces(text: str, sep: str, column: int):
    """Each non-blank piece of ``text`` between ``sep`` characters, stripped,
    with the column where it starts, ``text`` starting at ``column``."""
    for m in re.finditer(rf"[^{sep}\s](?:[^{sep}]*[^{sep}\s])?", text):
        yield m[0], column + m.start()


def parse_bias(text: str, kb: HybridKB, filename: str = "<bias>") -> LanguageBias:
    """Parse a ``.obias`` file.

    Assignments ``concepts = ... ; roles = ... ; datalog+ = ... ; datalog- = ...``
    separated by semicolons or newlines; absent lists default to empty.  Every
    predicate must belong to the matching KB alphabet.  An error points at the
    assignment, or at the list item, that it is about.
    """
    sets: dict[str, set[Predicate]] = {k: set() for k in ("concepts", "roles", "datalog+", "datalog-")}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for chunk, column in _pieces(raw.split("%", 1)[0], ";", 1):
            loc = SourceLocation(filename, lineno, column)
            key, eq, items = chunk.partition("=")
            key = key.strip()
            if not eq or key not in _BIAS_KINDS:
                raise ParseError(f"expected one of {sorted(_BIAS_KINDS)} before '='", loc)
            for item, at in _pieces(items, ",", column + len(chunk) - len(items)):
                loc = SourceLocation(filename, lineno, at)
                name, slash, arity = item.partition("/")
                pred = kb.predicate(name.strip())
                if pred is None:
                    raise ParseError(f"undeclared predicate {name.strip()!r}", loc)
                if pred.kind != _BIAS_KINDS[key]:
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
