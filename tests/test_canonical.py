"""Property tests for ``refine.canonical_form``.

Alphabetic variants (renamed variables, shuffled body) must collapse to one
form, at any body length, and the form must agree with a brute-force oracle
that tries every body order.
"""

import itertools

from hypothesis import given, settings, strategies as st

from ontorules.model import CONCEPT, DATALOG, ROLE, Atom, Const, Literal, Predicate, Rule, Var
from ontorules.refine import canonical_form

HEADS = (
    Atom(Predicate("T", 1, CONCEPT), (Var("X"),)),
    Atom(Predicate("S", 2, ROLE), (Var("X"), Var("Y"))),
    Atom(Predicate("S", 2, ROLE), (Var("X"), Var("X"))),
    Atom(Predicate("S", 2, ROLE), (Var("X"), Const("a"))),
)
PREDICATES = (
    Predicate("p", 1, DATALOG),
    Predicate("q", 2, DATALOG),
    Predicate("r", 3, DATALOG),
    Predicate("C", 1, CONCEPT),
    Predicate("D", 1, CONCEPT),
    Predicate("R", 2, ROLE),
)
TERMS = tuple(Var(n) for n in "XYZWU") + (Const("a"), Const("b"))
FRESH_NAMES = tuple(f"N{i}" for i in range(len(TERMS)))


@st.composite
def literals(draw):
    pred = draw(st.sampled_from(PREDICATES))
    args = tuple(draw(st.lists(st.sampled_from(TERMS), min_size=pred.arity, max_size=pred.arity)))
    negated = pred.kind == DATALOG and draw(st.booleans())
    return Literal(Atom(pred, args), negated)


def rules(max_body):
    return st.builds(
        Rule, st.sampled_from(HEADS), st.lists(literals(), max_size=max_body).map(tuple)
    )


@st.composite
def variants(draw, rule):
    """The rule with its variables renamed injectively and its body shuffled."""
    names = draw(st.permutations(FRESH_NAMES))
    theta = {v: Var(n) for v, n in zip(rule.variables(), names)}
    body = draw(st.permutations(rule.body))
    return Rule(rule.head.substitute(theta), tuple(l.substitute(theta) for l in body))


def brute_force_canonical_form(rule: Rule) -> Rule:
    """Rename variables by first occurrence under every body order and keep
    the order whose rendering is smallest: n! orders, for small bodies only."""
    best = None
    for perm in itertools.permutations(rule.body):
        names: dict[Var, Var] = {}

        def ren(atom: Atom) -> Atom:
            return Atom(atom.pred, tuple(
                names.setdefault(t, Var(f"V{len(names)}")) if isinstance(t, Var) else t
                for t in atom.args
            ))

        head = ren(rule.head)
        body = tuple(Literal(ren(l.atom), l.negated) for l in perm)
        key = " ".join(str(x) for x in (head,) + body)
        if best is None or key < best[0]:
            best = (key, head, body)
    return Rule(best[1], best[2])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_variants_collapse_up_to_ten_literals(data):
    rule = data.draw(rules(max_body=10))
    variant = data.draw(variants(rule))
    assert canonical_form(variant) == canonical_form(rule)
    assert str(canonical_form(variant)) == str(canonical_form(rule))


@settings(max_examples=200, deadline=None)
@given(rules(max_body=10))
def test_canonical_form_is_idempotent(rule):
    once = canonical_form(rule)
    assert str(canonical_form(once)) == str(once)


def _perturbed(rule: Rule, data) -> Rule:
    """A variant of the rule, half the time with one body argument replaced,
    so that both equal and unequal pairs occur."""
    if rule.body and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rule.body) - 1))
        lit = rule.body[i]
        j = data.draw(st.integers(0, lit.atom.pred.arity - 1))
        args = list(lit.atom.args)
        args[j] = data.draw(st.sampled_from(TERMS))
        changed = Literal(Atom(lit.atom.pred, tuple(args)), lit.negated)
        rule = Rule(rule.head, rule.body[:i] + (changed,) + rule.body[i + 1 :])
    return data.draw(variants(rule))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_agrees_with_brute_force_oracle(data):
    r1 = data.draw(rules(max_body=6))
    r2 = _perturbed(r1, data)
    new = canonical_form(r1) == canonical_form(r2)
    old = brute_force_canonical_form(r1) == brute_force_canonical_form(r2)
    assert new == old
    # the canonical form is itself a variant of the rule
    assert brute_force_canonical_form(canonical_form(r1)) == brute_force_canonical_form(r1)
