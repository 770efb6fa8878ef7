"""Every script under ``scripts/`` imports against the current package.

The scripts read private names of the package (``hybrid._partial_ground``,
``hybrid._augmented``, ``refine._added_literals``, ``refine._head_ids``,
``refine._literal_key``, ``refine._TAILS``, ``Rule._distinct``), which a
refactor can rename or reshape without any other test noticing.  Each script
is imported by path under a name other than ``__main__``, so its ``main``
does not run on import; the tests below run the ``main`` of
``profile_refine.py``, that of ``output_digest.py`` on two commands, and
small sizes of ``scale_ladder.py``, once as a program whose reader has gone.
"""

import importlib.util
import os
import re
import subprocess
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


def _script(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", SCRIPTS[0].parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


def test_the_refine_profile_runs_and_counts_private_constructions(monkeypatch, capsys):
    """``profile_refine.py`` runs to its end, the rules it counts as built
    through ``Rule._distinct`` are some, it prints the sizes of the intern
    tables and of the memo of ``subsumes``, some steps' keys are of one form
    (variants of different parents), ``refine``'s memo of key tails reuses both
    suffixes and tie tails on the LIKES walk, and the cyclic collector,
    reported once per phase, frees nothing in either."""
    _script(monkeypatch, "profile_refine").main()
    out = capsys.readouterr().out
    built = re.search(r"^rules built: (\d+) public \(dedupe\), (\d+) private \(Rule._distinct\)$", out, re.M)
    assert built and int(built[2]) > 0, out[-2000:]
    tables = re.search(r"^intern tables: (\d+) names, (\d+) predicates, (\d+) atoms, (\d+) literals$", out, re.M)
    assert tables and all(int(tables[i]) > 0 for i in (1, 2, 3, 4)), out[-2000:]
    closures = re.search(r"^subsumes memo: closures of (\d+) TBox\(es\)$", out, re.M)
    assert closures and int(closures[1]) > 0, out[-2000:]
    keys = re.search(r"^canonical keys: (\d+) distinct forms among the (\d+) steps' keys$", out, re.M)
    assert keys and 0 < int(keys[1]) < int(keys[2]), out[-2000:]
    tails = re.search(r"^memo of key tails: suffixes (\d+) computed, (\d+) reused; "
                      r"tie tails (\d+) computed, (\d+) reused$", out, re.M)
    assert tails and all(int(tails[i]) > 0 for i in (1, 2, 3, 4)), out[-2000:]
    passes = re.findall(r"^collector: \d+/\d+/\d+ collections, \d+\.\d ms, (\d+) collected$", out, re.M)
    assert passes == ["0", "0"], out[-2000:]


@pytest.mark.parametrize("task, size", [("loner", 40), ("likes", 10)])
def test_a_learn_ladder_learns_its_labelling_rule(monkeypatch, capsys, task, size):
    """One small size of each ``scale_ladder.py`` learn ladder."""
    ladder = _script(monkeypatch, "scale_ladder")
    monkeypatch.setitem(ladder.LEARN[task], "sizes", (size,))
    ladder.learn_ladder(task)
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split()[0] == str(size)
    assert row.endswith("  " + ladder.LEARN[task]["rule"]), row


def test_a_ladder_whose_reader_has_gone_exits_without_a_traceback():
    """``scale_ladder.py models`` run with its standard output a pipe whose
    read end is closed at once: exit 1 and no traceback, as the CLI."""
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS[0].parents[1] / "src")}
    try:
        done = subprocess.run([sys.executable, str(SCRIPTS[0].parent / "scale_ladder.py"), "models"], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr[-2000:]


def test_the_check_ladder_agrees_with_the_learners_coverage_test(monkeypatch, capsys):
    """One small size of the ``scale_ladder.py`` check ladder."""
    ladder = _script(monkeypatch, "scale_ladder")
    monkeypatch.setattr(ladder, "CHECK_SIZES", (20,))
    ladder.check_ladder()
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split()[0] == "20"
    assert row.endswith("  covers/does-not-cover  yes"), row


def test_the_output_digest_hashes_reports_without_timings(monkeypatch, capsys):
    """``output_digest.py`` on two ``bundled`` commands and one worker pass:
    it prints the two digests, and a report's ``timings`` do not enter them."""
    digest = _script(monkeypatch, "output_digest")
    tasks = digest.bundled_tasks()
    monkeypatch.setattr(digest, "bundled_tasks", lambda: [tasks[0], tasks[-1]])
    digest.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["bundled", "refine-generality"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[1]) for line in lines), lines
    outcome = digest.bundled_outcome(tasks[0])
    assert outcome["exit"] == 0 and "timings" not in outcome["report"] and outcome["report"]["rules"]
    assert digest.digest({"a": 1, "b": [2]}) == digest.digest({"b": [2], "a": 1})
