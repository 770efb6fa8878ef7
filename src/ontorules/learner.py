"""Sequential-covering rule learner with information-gain guided search.

The outer loop learns one rule at a time and removes the positives it covers;
the inner loop specializes the seed by hill climbing over the refinement
operator until no negative example is covered (or the guards trip).
"""

from __future__ import annotations

import math

from .hybrid import KBModels
from .model import Atom, ExampleSet, HybridKB, LanguageBias, Predicate, Record, Rule
from .refine import refine, seed_rule


class LearnerParams(Record):
    __slots__ = ("max_body_len",)  # int
    _defaults = {"max_body_len": 5}

    def _validate(self):
        if self.max_body_len < 1:
            raise ValueError("max_body_len must be positive")


class CoverageStats(Record):
    __slots__ = ("pos_covered", "neg_covered", "confidence")  # int, int, float


class LearnedHypothesis(Record):
    """The learned rules, their coverage statistics and the positives left
    uncovered, as tuples."""

    __slots__ = ("rules", "per_rule_stats", "uncovered_positives")

    @property
    def success(self) -> bool:
        return not self.uncovered_positives


def confidence(pos: int, neg: int) -> float:
    """The Laplace estimate of a rule's precision; never 0."""
    return (pos + 1) / (pos + neg + 2)


class _Evaluated:
    """A rule with the frozensets of positives and negatives it covers."""

    __slots__ = ("rule", "pos", "neg")

    def __init__(self, rule: Rule, pos, neg):
        self.rule = rule
        self.pos = pos
        self.neg = neg

    def stats(self) -> CoverageStats:
        return CoverageStats(len(self.pos), len(self.neg), confidence(len(self.pos), len(self.neg)))


def _coverage(models: KBModels, rule: Rule, positives, negatives) -> _Evaluated:
    return _Evaluated(rule, models.covered(rule, positives), models.covered(rule, negatives))


def gain(h_new: Rule, h_old: Rule, kb: HybridKB, examples: ExampleSet) -> float:
    """p * (log2 cf(new) - log2 cf(old)), where p counts the positives covered
    by both rules.  Target examples are ground, so each contributes exactly
    one head binding."""
    models = KBModels(kb, examples.target)
    new = _coverage(models, h_new, examples.positives, examples.negatives)
    old = _coverage(models, h_old, examples.positives, examples.negatives)
    return _gain(new, old)


def _gain(new: _Evaluated, old: _Evaluated) -> float:
    p = len(new.pos & old.pos)
    cf_new = confidence(len(new.pos), len(new.neg))
    cf_old = confidence(len(old.pos), len(old.neg))
    return p * (math.log2(cf_new) - math.log2(cf_old))


def _rank_key(cand: _Evaluated, current: _Evaluated):
    # positive-coverage retention first, then gain: a gain-optimal but
    # narrow candidate must not beat one that keeps the covered positives
    return (
        -len(cand.pos),
        -_gain(cand, current),
        len(cand.rule.body),
        str(cand.rule),
    )


def choose_best(candidates, h_current: Rule, kb: HybridKB, examples: ExampleSet) -> Rule:
    """Deterministic argmax over the ranking used by the inner loop."""
    if not candidates:
        raise ValueError("choose_best needs a non-empty candidate set")
    models = KBModels(kb, examples.target)
    current = _coverage(models, h_current, examples.positives, examples.negatives)
    evaluated = [_coverage(models, c, examples.positives, examples.negatives) for c in candidates]
    return min(evaluated, key=lambda e: _rank_key(e, current)).rule


def learn(
    kb: HybridKB,
    target: Predicate,
    examples: ExampleSet,
    bias: LanguageBias,
    params: LearnerParams = LearnerParams(),
) -> LearnedHypothesis:
    """Sequential covering: learn rules until every positive is covered or an
    inner search fails; the remainder is reported, never silently dropped.

    Raises :class:`ModelError` when the target predicate occurs in the KB."""
    models = KBModels(kb, target)
    remaining = list(examples.positives)
    negatives = tuple(examples.negatives)
    rules: list[Rule] = []
    stats: list[CoverageStats] = []

    while remaining:
        found = _learn_one(models, tuple(remaining), negatives, bias, params)
        if found is None:
            break
        rules.append(found.rule)
        stats.append(found.stats())
        remaining = [e for e in remaining if e not in found.pos]

    return LearnedHypothesis(tuple(rules), tuple(stats), tuple(remaining))


def _learn_one(
    models: KBModels,
    positives: tuple[Atom, ...],
    negatives: tuple[Atom, ...],
    bias: LanguageBias,
    params: LearnerParams,
) -> _Evaluated | None:
    seed = seed_rule(models.target)
    current = _coverage(models, seed, positives, negatives)
    while True:
        if current.rule.body and not current.neg and current.pos:
            return current
        if len(current.rule.body) >= params.max_body_len:
            return None
        steps = refine(current.rule, bias, models.kb.tbox)
        if not steps:
            return None
        # every move specializes, so a child covers only what its parent covers
        evaluated = [_coverage(models, s.child, current.pos, current.neg) for s in steps]
        best = min(evaluated, key=lambda e: _rank_key(e, current))
        if not best.pos:
            return None  # nothing retains a positive example: dead end
        current = best
