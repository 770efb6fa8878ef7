"""Every script under ``scripts/`` imports against the current package.

The scripts read private names of the package (``hybrid._partial_ground``,
``hybrid._augmented``, ``refine._added_literals``, ``refine._head_ids``,
``refine._literal_key``), which a refactor can rename without any other test
noticing.  Each script is imported by path under a name other than
``__main__``, so its ``main`` does not run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_there_are_scripts():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_a_script_imports_without_running(monkeypatch, path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may extend it
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _scale_ladder(monkeypatch):
    spec = importlib.util.spec_from_file_location("_script_scale_ladder", SCRIPTS[0].parent / "scale_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(ladder)
    return ladder


@pytest.mark.parametrize("task, size", [("loner", 40), ("likes", 10)])
def test_a_learn_ladder_learns_its_labelling_rule(monkeypatch, capsys, task, size):
    """One small size of each ``scale_ladder.py`` learn ladder."""
    ladder = _scale_ladder(monkeypatch)
    monkeypatch.setitem(ladder.LEARN[task], "sizes", (size,))
    ladder.learn_ladder(task)
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split()[0] == str(size)
    assert row.endswith("  " + ladder.LEARN[task]["rule"]), row


def test_the_check_ladder_agrees_with_the_learners_coverage_test(monkeypatch, capsys):
    """One small size of the ``scale_ladder.py`` check ladder."""
    ladder = _scale_ladder(monkeypatch)
    monkeypatch.setattr(ladder, "CHECK_SIZES", (20,))
    ladder.check_ladder()
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split()[0] == "20"
    assert row.endswith("  covers/does-not-cover  yes"), row
