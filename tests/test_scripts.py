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
