import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from ontorules.cli import main
from ontorules.parser import parse_rule
from ontorules.refine import canonical_form

DATA = resources.files("ontorules") / "data"
KB = str(DATA / "family.okb")

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = ROOT / "docs" / "report-schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_learn_loner(capsys):
    code, out, _ = run(
        capsys, "learn", "--kb", KB,
        "--examples", str(DATA / "loner.oex"), "--bias", str(DATA / "loner.obias"),
    )
    assert code == 0
    assert "LONER(X) :- famous(X), UNMARRIED(X)." in out
    assert "status: ok" in out


def test_learn_likes_json(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, payload = run_json(
        capsys, "learn", "--kb", KB,
        "--examples", str(DATA / "likes.oex"), "--bias", str(DATA / "likes.obias"),
        "--out", str(out_file),
    )
    assert code == 0
    assert payload["status"] == "ok"
    assert [r["rule"] for r in payload["rules"]] == ["LIKES(X,Y) :- meets(X,Z,Y), RICH(Z)."]
    assert payload["uncovered_positives"] == []
    written = json.loads(out_file.read_text())
    jsonschema.validate(written, SCHEMA)
    assert written["rules"] == payload["rules"]


@pytest.mark.parametrize("task", ["loner", "likes"])
def test_learn_enumerates_kb_models_once(capsys, task):
    code, payload = run_json(
        capsys, "learn", "--kb", KB,
        "--examples", str(DATA / f"{task}.oex"), "--bias", str(DATA / f"{task}.obias"),
    )
    assert code == 0
    assert payload["counters"]["canonical_runs"] == 1
    assert payload["counters"]["covers_calls"] == 0


def test_learn_out_to_unwritable_path_prints_no_report(capsys, tmp_path):
    out_file = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, "learn", "--kb", KB,
        "--examples", str(DATA / "loner.oex"), "--bias", str(DATA / "loner.obias"),
        "--format", "json", "--out", str(out_file),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "report.json" in err
    assert not out_file.parent.exists()


def test_cli_import_generates_no_code():
    """Importing the CLI pulls in neither ``dataclasses`` nor ``inspect``:
    each command runs in a fresh process, so their import and code
    generation would be paid on every call."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, ontorules.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_text_and_json_report_same_rules(capsys):
    args = ("learn", "--kb", KB, "--examples", str(DATA / "loner.oex"),
            "--bias", str(DATA / "loner.obias"))
    _, text_out, _ = run(capsys, *args)
    _, payload = run_json(capsys, *args)
    text_rules = [l.split("learned: ")[1].split("  (")[0] for l in text_out.splitlines() if l.startswith("learned:")]
    assert text_rules == [r["rule"] for r in payload["rules"]]


def test_learn_partial_exit_code(capsys):
    code, out, _ = run(
        capsys, "learn", "--kb", KB,
        "--examples", str(DATA / "loner.oex"), "--bias", str(DATA / "loner.obias"),
        "--max-body-len", "1",
    )
    assert code == 2
    assert "status: partial" in out


def test_check(capsys):
    code, out, _ = run(capsys, "check", "--kb", KB,
                       "--rule", "LONER(X) :- famous(X).", "--example", "LONER(Mary)")
    assert (code, out) == (0, "covers")
    code, out, _ = run(capsys, "check", "--kb", KB,
                       "--rule", "LONER(X) :- famous(X), UNMARRIED(X).", "--example", "LONER(Paul)")
    assert (code, out) == (0, "does-not-cover")


def test_check_counts_one_covers_call(capsys):
    code, payload = run_json(capsys, "check", "--kb", KB,
                             "--rule", "LONER(X) :- famous(X).", "--example", "LONER(Mary)")
    assert (code, payload["verdict"]) == (0, "covers")
    assert payload["counters"]["covers_calls"] == 1


@pytest.fixture
def inconsistent_kb(tmp_path):
    path = tmp_path / "odd.okb"
    path.write_text("pred p/1.\npred q/1.\npred r/1.\n#rules\np(X) :- q(X), not p(X).\n#facts\nq(a).\nr(a).\n")
    return str(path)


def test_check_inconsistent_kb(capsys, inconsistent_kb):
    args = ("check", "--kb", inconsistent_kb, "--rule", "T(X) :- q(X).", "--example", "T(a)")
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (0, "inconsistent-kb", "")
    code, payload = run_json(capsys, *args)
    assert (code, payload["verdict"], payload["status"]) == (0, "inconsistent-kb", "ok")


def test_compare_inconsistent_kb(capsys, inconsistent_kb):
    args = ("compare", "--kb", inconsistent_kb, "--rule1", "T(X) :- q(X).", "--rule2", "T(X) :- r(X).")
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (0, "inconsistent-kb", "")
    code, payload = run_json(capsys, *args)
    assert (code, payload["verdict"], payload["status"]) == (0, "inconsistent-kb", "ok")


def test_learn_inconsistent_kb(capsys, inconsistent_kb, tmp_path):
    (tmp_path / "t.oex").write_text("+ T(a)\n")
    (tmp_path / "t.obias").write_text("datalog+ = q/1\n")
    code, out, err = run(capsys, "learn", "--kb", inconsistent_kb,
                         "--examples", str(tmp_path / "t.oex"), "--bias", str(tmp_path / "t.obias"),
                         "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "no model" in err


def test_branch_budget_exit_code(capsys, tmp_path):
    # an even loop over 11 individuals: 22 negated atoms, not stratified
    facts = "".join(f"d(c{i}).\n" for i in range(11))
    path = tmp_path / "even.okb"
    path.write_text(f"pred d/1.\npred p/1.\npred q/1.\n#rules\np(X) :- d(X), not q(X).\n"
                    f"q(X) :- d(X), not p(X).\n#facts\n{facts}")
    code, out, err = run(capsys, "query", "--kb", str(path), "--atom", "p(c0)", "--format", "json")
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded:") and "Traceback" not in err


def test_theta_budget_exit_code(capsys):
    # after head unification rule1 has 6 free variables over the 9 skolem
    # constants of rule2: 9^6 = 531,441 candidate substitutions exceed the
    # budget, which is checked before the search, though a join would answer
    code, out, err = run(capsys, "compare", "--kb", KB,
                         "--rule1", "LONER(X) :- meets(X,Y,Z), meets(Z,W,V), meets(V,U,T).",
                         "--rule2", "LONER(X) :- meets(X,A,B), meets(B,C,D), meets(D,E,F), meets(F,G,H).")
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded:") and "Traceback" not in err


def test_settled_loop_past_the_branch_budget(capsys, tmp_path):
    # the even loop of test_branch_budget_exit_code, with q also forced by f:
    # not stratified, 22 negated atoms, yet one model, where q holds everywhere
    facts = "".join(f"d(c{i}).\nf(c{i}).\n" for i in range(11))
    path = tmp_path / "settled.okb"
    path.write_text(f"pred d/1.\npred f/1.\npred p/1.\npred q/1.\n#rules\np(X) :- d(X), not q(X).\n"
                    f"q(X) :- d(X), not p(X).\nq(X) :- d(X), f(X).\n#facts\n{facts}")
    code, out, _ = run(capsys, "query", "--kb", str(path), "--atom", "q(c0)")
    assert (code, out) == (0, "entailed")
    code, out, _ = run(capsys, "query", "--kb", str(path), "--atom", "p(c0)")
    assert (code, out) == (0, "not-entailed")


def test_check_undeclared_predicate(capsys):
    code, _, err = run(capsys, "check", "--kb", KB,
                       "--rule", "LONER(X) :- nosuch(X).", "--example", "LONER(Mary)")
    assert code == 1
    assert "undeclared" in err


@pytest.mark.parametrize("arity", ["x", ""])
def test_malformed_bias_arity_is_an_input_error(capsys, tmp_path, arity):
    bias = tmp_path / "bad.obias"
    bias.write_text(f"concepts = RICH/1\ndatalog+ = happy/1, meets/{arity}\n")
    code, out, err = run(capsys, "learn", "--kb", KB, "--examples", str(DATA / "likes.oex"),
                         "--bias", str(bias))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {bias}:2:1: malformed arity {arity!r} for 'meets'"]


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "--kb", KB,
                       "--rule1", "LONER(X) :- famous(X).",
                       "--rule2", "LONER(X) :- famous(X), UNMARRIED(X).")
    assert (code, out) == (0, "strictly-more-general")
    code, out, _ = run(capsys, "compare", "--kb", KB,
                       "--rule1", "LONER(X) :- famous(X), UNMARRIED(X).",
                       "--rule2", "LONER(X) :- famous(X), not happy(X).")
    assert (code, out) == (0, "incomparable")
    code, out, _ = run(capsys, "compare", "--kb", KB,
                       "--rule1", "LONER(X) :- famous(X).",
                       "--rule2", "LONER(A) :- famous(A).")
    assert (code, out) == (0, "equivalent")


def test_refine_listing(capsys):
    code, payload = run_json(
        capsys, "refine", "--kb", KB, "--bias", str(DATA / "likes.obias"),
        "--rule", "LIKES(X,Y) :- meets(X,Z,Y).", "--depth", "1",
    )
    assert code == 0
    rules = {c["rule"] for c in payload["children"]}
    assert "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z)." in rules
    assert "LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z)." in rules
    labels = {c["step"] for c in payload["children"]}
    assert labels <= {
        "add-datalog-literal", "add-ontology-literal",
        "specialize-ontology-literal", "add-negated-datalog-literal",
    }


def test_refine_lists_no_alphabetic_variants(capsys, kb):
    code, payload = run_json(
        capsys, "refine", "--kb", KB, "--bias", str(DATA / "likes.obias"),
        "--rule", "LIKES(X,Y).", "--depth", "2",
    )
    assert code == 0
    forms = [canonical_form(parse_rule(c["rule"], kb)) for c in payload["children"]]
    assert len(forms) == len(set(forms)) == 294


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_refine_depth_below_one_is_an_input_error(capsys, depth):
    code, out, err = run(
        capsys, "refine", "--kb", KB, "--bias", str(DATA / "loner.obias"),
        "--rule", "LONER(X) :- famous(X).", "--depth", depth,
    )
    assert (code, out) == (1, "")
    assert err == f"error: --depth must be at least 1, got {depth}"


@pytest.mark.parametrize("argv, message", [
    (("refine", "--kb", KB, "--bias", "b", "--rule", "r", "--depth", "abc"),
     "error: argument --depth: invalid int value: 'abc'"),
    (("refine", "--bias", "b", "--rule", "r"), "error: the following arguments are required: --kb"),
], ids=["depth-not-an-int", "missing-kb"])
def test_bad_option_is_an_input_error(capsys, argv, message):
    # argparse alone would exit 2, the code for a partial result
    assert run(capsys, *argv) == (1, "", message)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--help"])
    assert exc.value.code == 0
    assert "--depth" in capsys.readouterr().out


def test_learn_max_body_len_zero_is_an_input_error(capsys):
    code, out, err = run(
        capsys, "learn", "--kb", KB,
        "--examples", str(DATA / "loner.oex"), "--bias", str(DATA / "loner.obias"),
        "--max-body-len", "0",
    )
    assert (code, out) == (1, "")
    assert err == "error: --max-body-len must be at least 1, got 0"


def test_query(capsys):
    code, out, _ = run(capsys, "query", "--kb", KB, "--atom", "famous(Mary)")
    assert (code, out) == (0, "entailed")
    # deviation from the first-cut design sketch: the anonymous suitor forced
    # by the ontology axiom fires the happiness rule for Mary, so this atom is
    # entailed (the coverage semantics requires it; see docs)
    code, out, _ = run(capsys, "query", "--kb", KB, "--atom", "happy(Mary)")
    assert (code, out) == (0, "entailed")
    code, out, _ = run(capsys, "query", "--kb", KB, "--atom", "happy(Paul)")
    assert (code, out) == (0, "not-entailed")


def test_query_undeclared(capsys):
    code, _, err = run(capsys, "query", "--kb", KB, "--atom", "LONER(Mary)")
    assert code == 1 and "undeclared" in err


def test_malformed_kb_reports_location(capsys, tmp_path):
    bad = tmp_path / "bad.okb"
    bad.write_text("#facts\nfoo(a).\n")
    code, _, err = run(capsys, "query", "--kb", str(bad), "--atom", "foo(a)")
    assert code == 1
    assert "bad.okb:2" in err


@pytest.mark.parametrize("option", ["--kb", "--examples", "--bias"])
def test_non_utf8_input_is_an_input_error(capsys, tmp_path, option):
    files = {"--kb": KB, "--examples": str(DATA / "loner.oex"), "--bias": str(DATA / "loner.obias")}
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + "p(a).\n".encode("utf-16-le"))
    files[option] = str(bad)
    code, out, err = run(capsys, "learn", *(a for o, f in files.items() for a in (o, f)))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {bad} is not UTF-8 text (invalid start byte)"]
