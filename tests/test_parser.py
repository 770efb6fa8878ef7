import pytest
from hypothesis import given, strategies as st

from ontorules import parse_bias, parse_examples, parse_ground_atom, parse_kb, parse_rule, serialize_rule
from ontorules.model import Atom, Const, Literal, Predicate, Rule, Var, CONCEPT, DATALOG, ROLE
from ontorules.model import ExampleSet
from ontorules.parser import ParseError, _tokenize
from ontorules.refine import canonical_form


def test_tokens_carry_their_line_and_column():
    text = "% header comment\n#tbox\n  concept C/1. % trailing\n\tp(X, b) :- not q.\n"
    tokens = [(t.kind, t.text, t.loc.file, t.loc.line, t.loc.column) for t in _tokenize(text, "t.okb")]
    assert tokens == [
        ("section", "#tbox", "t.okb", 2, 1),
        ("ident", "concept", "t.okb", 3, 3),
        ("ident", "C", "t.okb", 3, 11),
        ("punct", "/", "t.okb", 3, 12),
        ("int", "1", "t.okb", 3, 13),
        ("punct", ".", "t.okb", 3, 14),
        ("ident", "p", "t.okb", 4, 2),
        ("punct", "(", "t.okb", 4, 3),
        ("ident", "X", "t.okb", 4, 4),
        ("punct", ",", "t.okb", 4, 5),
        ("ident", "b", "t.okb", 4, 7),
        ("punct", ")", "t.okb", 4, 8),
        ("punct", ":-", "t.okb", 4, 10),
        ("ident", "not", "t.okb", 4, 13),
        ("ident", "q", "t.okb", 4, 17),
        ("punct", ".", "t.okb", 4, 18),
        ("end", "", "t.okb", 5, 1),
    ]


@pytest.mark.parametrize("text, message, line, column", [
    ("pred p/1.\n  # tbox\n", "malformed section header", 2, 3),
    ("pred p/1.\n#facts\np(a) & p(b).\n", "unexpected character '&'", 3, 6),
    # reported at the end token, on the line after the last newline
    ("pred p/1.\npred q/1.\n#rules\np(X) :- q(X)\n", "expected ',' or '.', found ''", 5, 1),
])
def test_parse_errors_carry_their_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_kb(text, "e.okb")
    assert exc.value.message == message
    loc = exc.value.location
    assert (loc.file, loc.line, loc.column) == ("e.okb", line, column)
    assert str(exc.value) == f"e.okb:{line}:{column}: {message}"


def test_kb_shape(kb):
    assert len(kb.tbox) == 2
    assert len(kb.rules) == 2
    assert len(kb.abox) == 2  # UNMARRIED assertions
    assert len(kb.facts) == 7
    names = {p.name for p in kb.alphabet}
    assert {"RICH", "UNMARRIED", "WANTS-TO-MARRY", "LOVES", "famous", "scientist", "happy", "meets"} == names


def test_fact_routing_by_kind(kb):
    assert all(a.pred.is_dl for a in kb.abox)
    assert all(f.pred.kind == DATALOG for f in kb.facts)


def test_hyphenated_identifier(kb):
    assert kb.predicate("WANTS-TO-MARRY").kind == ROLE


def test_undeclared_predicate_has_location():
    with pytest.raises(ParseError) as exc:
        parse_kb("#facts\nfoo(a).\n", "bad.okb")
    assert "bad.okb:2" in str(exc.value)


def test_unsafe_rule_rejected():
    text = "pred p/1.\npred q/1.\n#rules\np(X) :- not q(X).\n"
    with pytest.raises(ParseError) as exc:
        parse_kb(text)
    assert "unsafe" in str(exc.value)


def test_skolem_prefix_reserved():
    with pytest.raises(ParseError):
        parse_kb("pred p/1.\n#facts\np(sk3).\n")


def test_parse_rule_target_head(kb):
    r = parse_rule("LONER(X) :- famous(X).", kb)
    assert r.head.pred == Predicate("LONER", 1, CONCEPT)
    r = parse_rule("LIKES(X,Y) :- meets(X,Z,Y).", kb)
    assert r.head.pred.kind == ROLE


def test_parse_rule_rejects_undeclared_body(kb):
    with pytest.raises(ParseError):
        parse_rule("LONER(X) :- unknown(X).", kb)


def test_examples_parsing(loner_examples):
    assert loner_examples.target.name == "LONER"
    assert len(loner_examples.positives) == 2
    assert len(loner_examples.negatives) == 1


def test_examples_target_must_be_new(kb):
    with pytest.raises(ParseError) as exc:
        parse_examples("+ RICH(Mary)\n", kb)
    assert "already occurs" in str(exc.value)


def test_examples_unknown_constant(kb):
    with pytest.raises(ParseError):
        parse_examples("+ LONER(Nobody)\n", kb)


def test_examples_mixed_targets(kb):
    with pytest.raises(ParseError):
        parse_examples("+ LONER(Mary)\n+ OTHER(Joe)\n", kb)


def test_bias_parsing(kb, loner_bias, likes_bias):
    assert {p.name for p in loner_bias.datalog_pos} == {"famous"}
    assert {p.name for p in loner_bias.datalog_neg} == {"happy"}
    assert {p.name for p in loner_bias.concepts} == {"RICH", "UNMARRIED"}
    assert {p.name for p in likes_bias.roles} == {"LOVES", "WANTS-TO-MARRY"}
    empty = parse_bias("", kb)
    assert not (empty.concepts | empty.roles | empty.datalog_pos | empty.datalog_neg)


def test_bias_kind_mismatch(kb):
    with pytest.raises(ParseError):
        parse_bias("concepts = famous/1", kb)


@pytest.mark.parametrize("text, message, column", [
    # at the offending item, not at the line's first column
    ("concepts = famous", "'famous' is not in the 'concepts' alphabet", 12),
    ("roles = LOVES, nope", "undeclared predicate 'nope'", 16),
    ("concepts = UNMARRIED/x", "malformed arity 'x' for 'UNMARRIED'", 12),
    ("datalog+ =   happy/2", "arity mismatch for 'happy'", 14),
])
def test_bias_errors_point_at_their_item(kb, text, message, column):
    with pytest.raises(ParseError) as exc:
        parse_bias(text, kb, "b.obias")
    assert str(exc.value) == f"b.obias:1:{column}: {message}"


def test_ground_atom(kb):
    atom = parse_ground_atom("meets(Mary,Paul,Italy)", kb)
    assert atom.is_ground() and atom.pred.name == "meets"
    with pytest.raises(ParseError):
        parse_ground_atom("meets(Mary,X,Italy)", kb)


def test_serialize_examples(kb, loner_rules, likes_rules):
    assert serialize_rule(loner_rules["h1"]) == "LONER(X) :- famous(X)."
    assert serialize_rule(likes_rules["h5"]) == "LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z)."
    assert serialize_rule(Rule(Atom(Predicate("LONER", 1, CONCEPT), (Var("X"),)))) == "LONER(X)."


# round-trip property: parse(serialize(r)) equals r up to variable renaming

_preds = st.sampled_from(
    [
        Predicate("famous", 1, DATALOG),
        Predicate("happy", 1, DATALOG),
        Predicate("meets", 3, DATALOG),
        Predicate("RICH", 1, CONCEPT),
        Predicate("LOVES", 2, ROLE),
    ]
)
_terms = st.sampled_from([Var("X"), Var("Y"), Var("Z"), Const("Mary"), Const("Joe")])


@st.composite
def _rules(draw):
    head = Atom(Predicate("LONER", 1, CONCEPT), (Var("X"),))
    n = draw(st.integers(1, 3))
    body = []
    for _ in range(n):
        p = draw(_preds)
        args = tuple(draw(_terms) for _ in range(p.arity))
        neg = p.kind == DATALOG and draw(st.booleans())
        body.append(Literal(Atom(p, args), neg))
    return Rule(head, tuple(body))


@given(_rules())
def test_round_trip_up_to_renaming(kb, rule):
    back = parse_rule(serialize_rule(rule), kb)
    assert canonical_form(back) == canonical_form(rule)


@pytest.mark.parametrize("text, message, line, column", [
    # the error's own line, not the file's first
    ("+ LONER(Mary)\n\n- LONER(Joe,)", "expected a term, found ')'", 3, 13),
    ("+ LONER(Mary)\n- LONER(Mary) extra", "trailing input 'extra'", 2, 15),
    ("+ LONER(Mary) + LONER(Joe)\n", "trailing input '+'", 1, 15),
    ("+\nLONER(Mary)\n", "expected '+ atom' or '- atom'", 1, 1),
    ("+ LONER(Mary)\n  LONER(Joe)\n", "expected '+ atom' or '- atom'", 2, 3),
    ("+ LONER(Mary)\n- OTHER(Joe)\n", "mixed target predicates 'LONER' and 'OTHER'", 2, 3),
    ("+ LONER(Mary)\n- LONER(Mary,Joe)\n", "LONER/1 applied to 2 arguments", 2, 3),
    ("+ LONER(Mary,Joe,Paul)\n", "target predicate 'LONER' must be unary or binary", 1, 3),
])
def test_example_errors_carry_their_line_and_column(kb, text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_examples(text, kb, "e.oex")
    assert str(exc.value) == f"e.oex:{line}:{column}: {message}"


@pytest.mark.parametrize("parse, text, error", [
    # at the offending argument, not at the atom or the example's sign
    (parse_ground_atom, "  meets(Mary,X,Italy)", "<atom>:1:14: atom meets(Mary,X,Italy) is not ground"),
    (lambda t, kb: parse_examples(t, kb, "e.oex"), "+ LIKES(Mary,  Nobody)",
     "e.oex:1:16: constant 'Nobody' does not occur in the knowledge base"),
    (lambda t, kb: parse_examples(t, kb, "e.oex"), "+ LONER(Mary)\n- LONER(X)", "e.oex:2:9: example LONER(X) is not ground"),
    (lambda t, kb: parse_kb(t), "pred p/1.\n#facts\np(a).\n  p(X).", "<kb>:4:5: fact p(X) is not ground"),
], ids=["atom-variable", "example-constant", "example-variable", "fact-variable"])
def test_ground_errors_point_at_the_argument(kb, parse, text, error):
    with pytest.raises(ParseError) as exc:
        parse(text, kb)
    assert str(exc.value) == error


@pytest.mark.parametrize("parse, text, plain", [
    (parse_rule, "LONER (X) :- famous(X).", "LONER(X) :- famous(X)."),
    (parse_rule, "LIKES\t(X, Y) :- meets(X,Z,Y).", "LIKES(X,Y) :- meets(X,Z,Y)."),
    (parse_examples, "+ LONER (Mary)", "+ LONER(Mary)"),
    (parse_examples, "+LONER(Mary)\n-\tLONER(Paul).", "+ LONER(Mary)\n- LONER(Paul)"),
])
def test_blanks_only_separate_tokens(kb, parse, text, plain):
    assert parse(text, kb) == parse(plain, kb)


# round-trip property for examples: a written-out example file parses back to
# its target and its examples in order, whatever blanks and comments it holds

_TARGETS = st.sampled_from([Predicate("LONER", 1, CONCEPT), Predicate("LIKES", 2, ROLE)])
_KB_CONSTANTS = st.sampled_from(["Mary", "Joe", "Paul", "Italy", "Germany"])
_blanks = st.text(alphabet=" \t", max_size=2)
_comments = st.one_of(st.just(""), st.text(alphabet="ab +-().,%\t", max_size=6).map("%".__add__))
_filler_lines = st.lists(st.tuples(_blanks, _comments).map("".join), max_size=2)


@st.composite
def _example_files(draw):
    target = draw(_TARGETS)
    examples = draw(st.lists(
        st.tuples(st.booleans(), st.lists(_KB_CONSTANTS, min_size=target.arity, max_size=target.arity)),
        min_size=1, max_size=5,
    ))
    lines = []
    for positive, args in examples:
        lines += draw(_filler_lines)
        spaced = ",".join(draw(_blanks) + a + draw(_blanks) for a in args)
        lines.append(
            draw(_blanks) + ("+" if positive else "-") + draw(_blanks) + target.name + draw(_blanks)
            + "(" + spaced + ")" + draw(_blanks) + draw(st.sampled_from(["", "."])) + draw(_blanks)
            + draw(_comments)
        )
    lines += draw(_filler_lines)
    atoms = [(positive, Atom(target, tuple(map(Const, args)))) for positive, args in examples]
    positives = tuple(a for positive, a in atoms if positive)
    negatives = tuple(a for positive, a in atoms if not positive)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), ExampleSet(target, positives, negatives)


@given(_example_files())
def test_examples_round_trip(kb, case):
    text, expected = case
    assert parse_examples(text, kb) == expected
