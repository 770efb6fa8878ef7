"""Per-layer tracing from outside the program.

Wrappers replace the names a caller looks up (for example
`ontorules.learner.covers`, not `ontorules.hybrid.covers`) and record a span
per call: layer, start, end, enclosing span and task.  Spans stay in memory;
the driver writes them to disk when the run ends.  A binding that no longer
exists is reported as absent, so a later refactor drops the metric instead of
breaking the run.
"""

from __future__ import annotations

import importlib
import time

_PARSER = ("parse_kb", "parse_examples", "parse_bias", "parse_rule", "parse_ground_atom")

#: (module, name the caller looks up, layer).  Each wrapped call is a span.
SPAN_BINDINGS = (
    *(("ontorules.parser", name, "parser") for name in _PARSER),
    *(("ontorules.cli", name, "parser") for name in _PARSER),
    ("ontorules.cli", "main", "cli.main"),
    ("ontorules.cli", "learn", "learner.learn"),
    ("ontorules.learner", "learn", "learner.learn"),
    ("ontorules.cli", "covers", "hybrid.covers"),
    ("ontorules.learner", "covers", "hybrid.covers"),
    ("ontorules.hybrid", "covers", "hybrid.covers"),
    ("ontorules.hybrid", "entails", "hybrid.entails"),
    ("ontorules.cli", "compare", "hybrid.compare"),
    ("ontorules.hybrid", "more_general", "hybrid.more_general"),
    ("ontorules.model", "skolemize", "model.skolemize"),
    ("ontorules.hybrid", "stable_models", "datalog.stable_models"),
    ("ontorules.learner", "refine", "refine.refine"),
    ("ontorules.refine", "refine", "refine.refine"),
    ("ontorules.refine", "canonical_form", "refine.canonical_form"),
    ("ontorules.refine", "subsumes", "dlreason.subsumes"),
)
SPAN_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SPAN_BINDINGS))

#: (module, name, counter).  Calls are only counted: these are too frequent
#: for a span each to stay cheap.
COUNT_BINDINGS = (
    ("ontorules.hybrid", "role_closure", "dlreason.closure_calls"),
    ("ontorules.hybrid", "concept_closure", "dlreason.closure_calls"),
    ("ontorules.refine", "validate_safeness", "refine.candidates"),
)

#: Run counters the program itself publishes in `ontorules.hybrid.counters`.
PROGRAM_COUNTERS = ("canonical_runs", "complete_runs")


class Tracer:
    """Span and count recorder for one worker process."""

    def __init__(self):
        self.spans: list = []  # (layer index, start ns, end ns, parent index, task)
        self.stack: list[int] = []
        self.task = -1
        self.counts: dict[str, int] = {}
        self.covered_rules: set = set()
        self.children = 0
        self.present: set[str] = set()  # span layers with at least one binding
        self.absent: list[str] = []
        self._counters = None

    def install(self) -> None:
        """Wrap every binding that exists; note the ones that do not."""
        observers = {"hybrid.covers": self._observe_covers, "refine.refine": self._observe_refine}
        for module, name, layer in SPAN_BINDINGS:
            mod, fn = self._lookup(module, name)
            if fn is not None:
                setattr(mod, name, self._span(SPAN_LAYERS.index(layer), fn, observers.get(layer)))
                self.present.add(layer)
        for module, name, counter in COUNT_BINDINGS:
            mod, fn = self._lookup(module, name)
            if fn is not None:
                self.counts.setdefault(counter, 0)
                setattr(mod, name, self._count(counter, fn))
        counters = getattr(importlib.import_module("ontorules.hybrid"), "counters", None)
        if isinstance(counters, dict) and all(k in counters for k in PROGRAM_COUNTERS):
            self._counters = counters
        else:
            self.absent.append("ontorules.hybrid.counters")

    def _lookup(self, module: str, name: str):
        try:
            mod = importlib.import_module(module)
            return mod, getattr(mod, name)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{name}")
            return None, None

    def _span(self, layer: int, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.task)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_covers(self, args, result) -> None:
        if len(args) >= 2:
            self.covered_rules.add((id(args[0]), args[1]))

    def _observe_refine(self, args, result) -> None:
        self.children += len(result)

    def program_counters(self) -> dict[str, int]:
        if self._counters is None:
            return {}
        return {k: self._counters[k] for k in PROGRAM_COUNTERS}

    def summary(self, counters_before: dict[str, int]) -> dict:
        """Per-layer calls, busy and self time, and counts, for this process."""
        layers = {}
        busy = [0] * len(SPAN_LAYERS)
        own = [0] * len(SPAN_LAYERS)
        calls = [0] * len(SPAN_LAYERS)
        spans = self.spans
        for layer, start, end, parent, _task in spans:
            dur = end - start
            own[layer] += dur
            if parent >= 0:
                own[spans[parent][0]] -= dur
            up = parent
            while up >= 0 and spans[up][0] != layer:
                up = spans[up][3]
            if up < 0:  # outermost span of its layer: a call into the layer
                calls[layer] += 1
                busy[layer] += dur
        for i, name in enumerate(SPAN_LAYERS):
            if name in self.present:
                layers[name] = {"calls": calls[i], "busy_s": busy[i] / 1e9, "self_s": own[i] / 1e9}
        counts = dict(self.counts)
        if "hybrid.covers" in self.present:
            counts["hybrid.covers.distinct_rules"] = len(self.covered_rules)
        if "refine.refine" in self.present:
            counts["refine.children"] = self.children
        after = self.program_counters()
        for k, v in after.items():
            counts[f"hybrid.{k}"] = v - counters_before.get(k, 0)
        return {"layers": layers, "counts": counts, "absent": self.absent}
