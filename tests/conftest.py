from importlib import resources

import pytest

from ontorules import parse_bias, parse_examples, parse_ground_atom, parse_kb, parse_rule


def data_text(name: str) -> str:
    return (resources.files("ontorules") / "data" / name).read_text()


@pytest.fixture(scope="session")
def kb():
    return parse_kb(data_text("family.okb"), "family.okb")


@pytest.fixture(scope="session")
def loner_bias(kb):
    return parse_bias(data_text("loner.obias"), kb)


@pytest.fixture(scope="session")
def likes_bias(kb):
    return parse_bias(data_text("likes.obias"), kb)


@pytest.fixture(scope="session")
def loner_examples(kb):
    return parse_examples(data_text("loner.oex"), kb)


@pytest.fixture(scope="session")
def likes_examples(kb):
    return parse_examples(data_text("likes.oex"), kb)


def target_atom(kb, rule, text):
    """Parse a target example atom against the KB plus the rule's head
    predicate."""
    return parse_ground_atom(text, kb.with_predicate(rule.head.pred))


@pytest.fixture(scope="session")
def loner_rules(kb):
    return {
        "h1": parse_rule("LONER(X) :- famous(X).", kb),
        "h2": parse_rule("LONER(X) :- famous(X), UNMARRIED(X).", kb),
        "h3": parse_rule("LONER(X) :- famous(X), not happy(X).", kb),
    }


@pytest.fixture(scope="session")
def likes_rules(kb):
    return {
        "h1": parse_rule("LIKES(X,Y) :- meets(X,Z,Y).", kb),
        "h2": parse_rule("LIKES(X,Y) :- meets(X,Z,Y), happy(X).", kb),
        "h3": parse_rule("LIKES(X,Y) :- meets(X,Z,Y), RICH(Z).", kb),
        "h4": parse_rule("LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z).", kb),
        "h5": parse_rule("LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z).", kb),
    }
