"""Learning rule-based definitions of ontology concepts and roles over
hybrid ontology + datalog knowledge bases."""

from .model import (
    Atom,
    Const,
    ConceptInclusion,
    ExampleSet,
    Existential,
    HybridKB,
    LanguageBias,
    Literal,
    Predicate,
    RoleInclusion,
    Rule,
    Var,
)
from .datalog import GroundProgram, Interpretation, answer_query, ground_program, is_stable_model, stable_models
from .dlreason import DLGuess, subsumes
from .hybrid import Entailment, GeneralityVerdict, NMModel, compare, covers, entails, more_general, nm_models
from .learner import CoverageStats, LearnedHypothesis, LearnerParams, choose_best, gain, learn
from .parser import parse_bias, parse_examples, parse_ground_atom, parse_kb, parse_rule, serialize_rule
from .refine import RefinementStep, in_language, refine, seed_rule

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
