"""The names that the benchmark's tracer wraps still resolve.

``perfbench/tracing.py`` wraps functions by the module and name a caller
looks them up under, and reads the run counters in
``ontorules.hybrid.counters``.  A binding that no longer resolves is dropped
silently, so a refactor that removes every binding of a layer drops that
layer's metrics from a traced run.  These tests read the tracer's tables
without running it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _resolves(module: str, name: str) -> bool:
    return callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("layer", tracing.SPAN_LAYERS)
def test_every_traced_layer_has_a_binding_that_resolves(layer):
    bindings = [(m, n) for m, n, l in tracing.SPAN_BINDINGS if l == layer]
    assert any(_resolves(m, n) for m, n in bindings), bindings


@pytest.mark.parametrize("counter", sorted({c for _, _, c in tracing.COUNT_BINDINGS}))
def test_every_counted_call_has_a_binding_that_resolves(counter):
    bindings = [(m, n) for m, n, c in tracing.COUNT_BINDINGS if c == counter]
    assert any(_resolves(m, n) for m, n in bindings), bindings


def test_the_program_publishes_its_run_counters():
    counters = importlib.import_module("ontorules.hybrid").counters
    assert isinstance(counters, dict)
    assert all(isinstance(counters.get(k), int) for k in tracing.PROGRAM_COUNTERS)
