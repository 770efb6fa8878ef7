"""The value classes as values: repr, equality, ordering, immutability,
copying, construction and validation.

These pin what the classes did when ``dataclasses`` generated their methods,
so that hand-written classes keep the same behaviour.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ontorules.datalog import GroundProgram, Interpretation
from ontorules.dlreason import DLGuess
from ontorules.hybrid import NMModel
from ontorules.learner import CoverageStats, LearnedHypothesis, LearnerParams
from ontorules.model import (
    Atom,
    ConceptInclusion,
    Const,
    ExampleSet,
    Existential,
    HybridKB,
    LanguageBias,
    Literal,
    ModelError,
    Predicate,
    RoleInclusion,
    Rule,
    SafenessViolation,
    Var,
    CONCEPT,
    DATALOG,
    ROLE,
)
from ontorules.parser import SourceLocation
from ontorules.refine import ADD_DATALOG, RefinementStep, refine

P = Predicate("p", 1, DATALOG)
C = Predicate("C", 1, CONCEPT)
R = Predicate("R", 2, ROLE)
X, a = Var("X"), Const("a")
PX, PA, CA = Atom(P, (X,)), Atom(P, (a,)), Atom(C, (a,))
NOT_PX = Literal(PX, negated=True)
RULE = Rule(Atom(C, (X,)), (Literal(PX),))
EMPTY = frozenset()
STATS = CoverageStats(2, 1, 0.5)

P_REPR = "Predicate(name='p', arity=1, kind='datalog')"
C_REPR = "Predicate(name='C', arity=1, kind='concept')"
PX_REPR = f"Atom(pred={P_REPR}, args=(Var(name='X'),))"
PA_REPR = f"Atom(pred={P_REPR}, args=(Const(name='a'),))"
CA_REPR = f"Atom(pred={C_REPR}, args=(Const(name='a'),))"
RULE_REPR = (f"Rule(head=Atom(pred={C_REPR}, args=(Var(name='X'),)), "
             f"body=(Literal(atom={PX_REPR}, negated=False),))")
NOT_PX_REPR = f"Literal(atom={PX_REPR}, negated=True)"

#: (value, its repr, its fields in declaration order), one per public class.
SAMPLES = [
    (X, "Var(name='X')", ("name",)),
    (a, "Const(name='a')", ("name",)),
    (P, P_REPR, ("name", "arity", "kind")),
    (Atom(R, (X, a)),
     "Atom(pred=Predicate(name='R', arity=2, kind='role'), args=(Var(name='X'), Const(name='a')))",
     ("pred", "args")),
    (NOT_PX, NOT_PX_REPR, ("atom", "negated")),
    (RULE, RULE_REPR, ("head", "body")),
    (Existential("R", True), "Existential(role='R', inverse=True)", ("role", "inverse")),
    (ConceptInclusion(("A", "B"), Existential("R")),
     "ConceptInclusion(lhs=('A', 'B'), rhs=Existential(role='R', inverse=False))", ("lhs", "rhs")),
    (RoleInclusion("R", "S"), "RoleInclusion(sub='R', sup='S')", ("sub", "sup")),
    (HybridKB(abox=(CA,), alphabet=(C,)),
     f"HybridKB(tbox=(), abox=({CA_REPR},), rules=(), facts=(), alphabet=({C_REPR},))",
     ("tbox", "abox", "rules", "facts", "alphabet")),
    (ExampleSet(C, (CA,), ()),
     f"ExampleSet(target={C_REPR}, positives=({CA_REPR},), negatives=())",
     ("target", "positives", "negatives")),
    (LanguageBias(concepts=frozenset({C})),
     f"LanguageBias(concepts=frozenset({{{C_REPR}}}), roles=frozenset(), "
     "datalog_pos=frozenset(), datalog_neg=frozenset())",
     ("concepts", "roles", "datalog_pos", "datalog_neg")),
    (SafenessViolation(X, "datalog-safeness"),
     "SafenessViolation(variable=Var(name='X'), condition='datalog-safeness')", ("variable", "condition")),
    (DLGuess(frozenset({CA})), f"DLGuess(true_atoms=frozenset({{{CA_REPR}}}), false_atoms=frozenset())",
     ("true_atoms", "false_atoms")),
    (GroundProgram((), frozenset({PA})), f"GroundProgram(rules=(), facts=frozenset({{{PA_REPR}}}))",
     ("rules", "facts")),
    (Interpretation(frozenset({PA})), f"Interpretation(true_atoms=frozenset({{{PA_REPR}}}))", ("true_atoms",)),
    (NMModel(DLGuess(), Interpretation(EMPTY)),
     "NMModel(guess=DLGuess(true_atoms=frozenset(), false_atoms=frozenset()), "
     "datalog_model=Interpretation(true_atoms=frozenset()), existentials=frozenset())",
     ("guess", "datalog_model", "existentials")),
    (LearnerParams(max_body_len=3), "LearnerParams(max_body_len=3)", ("max_body_len",)),
    (STATS, "CoverageStats(pos_covered=2, neg_covered=1, confidence=0.5)",
     ("pos_covered", "neg_covered", "confidence")),
    (LearnedHypothesis((RULE,), (STATS,), ()),
     f"LearnedHypothesis(rules=({RULE_REPR},), per_rule_stats=({STATS!r},), uncovered_positives=())",
     ("rules", "per_rule_stats", "uncovered_positives")),
    (SourceLocation("f.okb", 3, 7), "SourceLocation(file='f.okb', line=3, column=7)", ("file", "line", "column")),
    (RefinementStep("add-negated-datalog-literal", NOT_PX, RULE, RULE, RULE),
     f"RefinementStep(rule_applied='add-negated-datalog-literal', literal={NOT_PX_REPR}, "
     f"parent={RULE_REPR}, child={RULE_REPR}, key={RULE_REPR})",
     ("rule_applied", "literal", "parent", "child", "key")),
]
IDS = [type(value).__name__ for value, _, _ in SAMPLES]
ORDERED = INTERNED = (Var, Const, Predicate, Atom, Literal)

#: Values that refinement builds past the public constructors, each with the
#: repr of its publicly built twin: a rule from ``Rule._distinct`` and the one
#: step of ``C(X) :- p(X).`` under a bias of ``q/1``.
Q = Predicate("q", 1, DATALOG)
(STEP,) = refine(RULE, LanguageBias(datalog_pos=frozenset({Q})))
FAST = [
    (Rule._distinct(RULE.head, RULE.body, None), RULE_REPR, ("head", "body")),
    (STEP, repr(RefinementStep(ADD_DATALOG, Literal(Atom(Q, (X,))), RULE,
                               Rule(RULE.head, RULE.body + (Literal(Atom(Q, (X,))),)),
                               Rule(Atom(C, (Var("V0"),)), (Literal(Atom(P, (Var("V0"),))),
                                                            Literal(Atom(Q, (Var("V0"),))))))),
     ("rule_applied", "literal", "parent", "child", "key")),
]
SAMPLES += FAST
IDS += ["Rule-distinct", "RefinementStep-refine"]


@pytest.mark.parametrize("value, text, fields", SAMPLES, ids=IDS)
def test_repr(value, text, fields):
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields", SAMPLES, ids=IDS)
def test_equal_fields_make_equal_values(value, text, fields):
    values = [getattr(value, f) for f in fields]
    by_position = type(value)(*values)
    by_keyword = type(value)(**dict(zip(fields, values)))
    for twin in (by_position, by_keyword):
        assert (twin is value) == (type(value) in INTERNED)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
    assert value != values and value != tuple(values) and value is not None


def test_equality_across_classes():
    assert Var("a") != Const("a") and not Var("a") == Const("a")
    assert Interpretation(EMPTY) != DLGuess(EMPTY, EMPTY)
    assert RoleInclusion("R", "S") != Existential("R", "S")
    samples = [value for value, _, _ in SAMPLES]
    for x in samples:
        for y in samples:
            if type(x) is not type(y):
                assert x != y and not x == y


@pytest.mark.parametrize("value, text, fields", SAMPLES, ids=IDS)
def test_sorting_mixed_classes_raises(value, text, fields):
    other = a if type(value) is not Const else X
    with pytest.raises(TypeError):
        sorted([value, other])
    with pytest.raises(TypeError):
        value < other  # noqa: B015
    if type(value) in ORDERED:
        assert sorted([value, value]) == [value, value]
        assert value <= value and value >= value and not value < value and not value > value
    else:
        with pytest.raises(TypeError):
            value < value  # noqa: B015


@pytest.mark.parametrize("value, text, fields", SAMPLES, ids=IDS)
def test_fields_are_read_only(value, text, fields):
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, getattr(value, f))
        with pytest.raises(AttributeError):
            delattr(value, f)
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields", SAMPLES, ids=IDS)
def test_no_attribute_can_be_added(value, text, fields):
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value, text, fields", SAMPLES, ids=IDS)
def test_pickle_and_copy_round_trips(value, text, fields):
    twins = [pickle.loads(pickle.dumps(value, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.deepcopy(value), copy.copy(value)]
    for twin in twins:
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert (twin is value) == (type(value) in INTERNED)
        assert repr(twin) == text
    nested = copy.deepcopy({value: [value]})
    assert nested == {value: [value]}


def test_unpickling_in_another_process_returns_the_interned_value():
    """A pickled term carries its fields only: unpickling rebuilds it through
    its constructor, which returns this process's object for those fields."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "1"}
    probe = ("import pickle, sys; from ontorules.model import Atom, Predicate, Var; "
             "sys.stdout.buffer.write(pickle.dumps(Atom(Predicate('p', 1, 'datalog'), (Var('X'),))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, check=True)
    atom = pickle.loads(done.stdout)
    assert atom == PX and hash(atom) == hash(PX) and atom in {PX}
    assert atom is PX and atom.args[0] is X and atom.pred is P


def test_construction_by_keyword_and_default():
    assert Literal(PX, negated=True) == Literal(PX, True) == Literal(atom=PX, negated=True)
    assert Literal(PX) == Literal(PX, False) and Literal(PX).negated is False
    assert Rule(PX).body == () and Rule(head=PX, body=(Literal(PA),)).body == (Literal(PA),)
    assert LearnerParams(max_body_len=3) == LearnerParams(3)
    assert LearnerParams() == LearnerParams(5)
    assert Existential("R") == Existential(role="R", inverse=False)
    assert HybridKB() == HybridKB((), (), (), (), ())
    assert HybridKB(alphabet=(C,)).tbox == ()
    assert LanguageBias() == LanguageBias(EMPTY, EMPTY, EMPTY, EMPTY)
    assert LanguageBias(datalog_neg=frozenset({P})).datalog_pos == EMPTY
    assert DLGuess() == DLGuess(EMPTY, EMPTY)
    assert DLGuess(false_atoms=frozenset({CA})).true_atoms == EMPTY
    model = NMModel(guess=DLGuess(), datalog_model=Interpretation(EMPTY))
    assert model.existentials == EMPTY and model == NMModel(DLGuess(), Interpretation(EMPTY), EMPTY)
    assert Predicate(name="p", arity=1, kind=DATALOG) == P
    assert Atom(pred=P, args=(X,)) == PX


@pytest.mark.parametrize("make", [
    lambda: Var(),
    lambda: Var("a", "b"),
    lambda: Var(nam="a"),
    lambda: Literal(PX, False, True),
    lambda: Existential("R", role="S"),
    lambda: CoverageStats(1, 2),
    lambda: LearnerParams(3, max_body_len=3),
    lambda: SourceLocation("f", 1, column=1, row=2),
], ids=["missing", "extra", "unknown-keyword", "extra-literal", "twice", "missing-record",
        "twice-default", "unknown-record-keyword"])
def test_wrong_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_rule_drops_duplicate_body_literals():
    assert Rule(PX, (Literal(PA), Literal(PA), NOT_PX)).body == (Literal(PA), NOT_PX)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Predicate("C", 2, CONCEPT), ModelError, "concept predicate C must have arity 1"),
    (lambda: Predicate("R", 1, ROLE), ModelError, "role predicate R must have arity 2"),
    (lambda: Predicate("p", 0, DATALOG), ModelError, "datalog predicate p must have arity >= 1"),
    (lambda: Atom(R, (X,)), ModelError, "R/2 applied to 1 arguments"),
    (lambda: Literal(Atom(C, (X,)), negated=True), ModelError,
     "negation-as-failure on non-datalog predicate C"),
    (lambda: HybridKB(abox=(PA,)), ModelError, "bad ontology assertion: p(a)"),
    (lambda: HybridKB(abox=(Atom(C, (X,)),)), ModelError, "bad ontology assertion: C(X)"),
    (lambda: HybridKB(facts=(CA,)), ModelError, "bad datalog fact: C(a)"),
    (lambda: HybridKB(facts=(PX,)), ModelError, "bad datalog fact: p(X)"),
    (lambda: HybridKB(rules=(Rule(PX),)), ModelError,
     "unsafe rule p(X).: X violates datalog-safeness; X violates weak-dl-safeness"),
    (lambda: ExampleSet(C, (PA,), ()), ModelError, "example p(a) is not about target C"),
    (lambda: ExampleSet(C, (), (Atom(C, (X,)),)), ModelError, "example C(X) is not ground"),
    (lambda: DLGuess(frozenset({CA}), frozenset({CA})), ModelError,
     "guess assigns both polarities to ['C(a)']"),
    (lambda: DLGuess(frozenset({PA})), ModelError, "guess atom must be a ground ontology atom: p(a)"),
    (lambda: DLGuess(false_atoms=frozenset({Atom(C, (X,))})), ModelError,
     "guess atom must be a ground ontology atom: C(X)"),
    (lambda: GroundProgram((RULE,), EMPTY), ModelError, "rule is not ground: C(X) :- p(X)."),
    (lambda: GroundProgram((Rule(CA, (Literal(PA),)),), EMPTY), ModelError,
     "non-datalog head in ground program: C(a) :- p(a)."),
    (lambda: GroundProgram((), frozenset({CA})), ModelError, "bad fact: C(a)"),
    (lambda: GroundProgram((), frozenset({PX})), ModelError, "bad fact: p(X)"),
    (lambda: LearnerParams(max_body_len=0), ValueError, "max_body_len must be positive"),
])
def test_validation_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("value", [v for v, _, _ in FAST], ids=IDS[-len(FAST):])
def test_values_built_past_the_constructor_set_every_slot(value):
    """A rule from ``Rule._distinct`` and a step from ``refine`` have every
    slot set, private ones too, as a publicly built value has; their pickled
    and copied rules start with empty memo slots."""
    rules = [value] if isinstance(value, Rule) else [value.parent, value.child, value.key]
    for v in [value, *rules]:
        slots = [n for c in type(v).__mro__ for n in getattr(c, "__slots__", ())]
        for name in slots:
            getattr(v, name)
    for rule in rules:
        twins = [pickle.loads(pickle.dumps(rule)), copy.copy(rule), copy.deepcopy(rule)]
        for twin in twins:
            assert twin == rule and twin._canonical is None and twin._hash is None
