import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from genhybrid import PLACES, template_text
from ontorules import cli
from ontorules.cli import _SHARED, COMMANDS, REQUIRED, UsageError, _direct, main, parse_args
from ontorules.hybrid import KBModels
from ontorules.model import Atom, Const
from ontorules.parser import parse_kb, parse_rule
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
    """A bundled ``check`` through the CLI loads none of ``dataclasses``,
    ``inspect``, ``argparse``, ``gettext`` or ``locale``: each command runs
    in a fresh process, so their import, code generation and parser set-up
    would be paid on every call."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["check", "--kb", KB, "--rule", "LONER(X) :- famous(X).", "--example", "LONER(Mary)"]
    probe = ("import sys, ontorules.cli; assert ontorules.cli.main(sys.argv[1:]) == 0; "
             "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["covers", "[]"]


def test_reports_do_not_depend_on_hashing():
    """Terms, atoms and literals hash by their address and names by the
    string hash, so sets and dicts of them iterate in another order in each
    process; the JSON reports of ``learn`` LIKES and of a ``compare`` that
    builds complete models, without their timings, are the same under two
    hash seeds."""
    commands = (
        ["learn", "--kb", KB, "--examples", str(DATA / "likes.oex"), "--bias", str(DATA / "likes.obias")],
        ["compare", "--kb", KB, "--rule1", "LONER(X) :- famous(X), UNMARRIED(X).",
         "--rule2", "LONER(X) :- famous(X), not happy(X)."],
    )
    reports = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "ontorules.cli", *argv, "--format", "json"],
                                  env=env, capture_output=True, text=True, check=True)
            report = json.loads(done.stdout)
            del report["timings"]
            reports.append(report)
    assert reports[:2] == reports[2:]
    assert reports[0]["rules"][0]["rule"] == "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z)."
    assert reports[1]["verdict"] == "incomparable"


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


def test_check_joins_its_rule_past_the_old_grounding_budget(capsys, tmp_path):
    # over 160 people and 3 places the rule's three variables have 4.3 M
    # groundings, which the grounding budget used to refuse with exit 3; the
    # grounder joins meets/3 with its 160 facts, so check gives the verdict
    # of the learner's coverage test
    text = template_text(160, seed=160)
    path = tmp_path / "template.okb"
    path.write_text(text)
    kb = parse_kb(text)
    rule_text = "LIKES(X,Y) :- meets(X,Z,Y), famous(Z)."
    rule = parse_rule(rule_text, kb)
    candidates = [Atom(rule.head.pred, (Const(f"Person{i}"), Const(p))) for i in range(4) for p in PLACES]
    covered = KBModels(kb, rule.head.pred).covered(rule, candidates)
    assert 0 < len(covered) < len(candidates)
    for example in candidates:
        code, out, err = run(capsys, "check", "--kb", str(path), "--rule", rule_text, "--example", str(example))
        assert (code, out, err) == (0, "covers" if example in covered else "does-not-cover", ""), example


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


def test_learn_past_the_grounding_budget_exit_code(capsys, tmp_path):
    # a chain of 1,001 constants: the winning child binds two variables
    # beyond the head, 1001^2 groundings past the grounding budget, but its
    # positive literals bind both, so coverage joins them from the facts and
    # the budget refuses nothing
    facts = "".join(f"e(n{i},n{i + 1}).\n" for i in range(1000))
    (tmp_path / "chain.okb").write_text(f"pred e/2.\n#facts\n{facts}")
    (tmp_path / "chain.oex").write_text("+ T(n0)\n+ T(n10)\n+ T(n500)\n- T(n999)\n- T(n1000)\n")
    (tmp_path / "chain.obias").write_text("datalog+ = e/2\n")
    code, payload = run_json(capsys, "learn", "--kb", str(tmp_path / "chain.okb"),
                             "--examples", str(tmp_path / "chain.oex"), "--bias", str(tmp_path / "chain.obias"))
    assert code == 0
    assert [r["rule"] for r in payload["rules"]] == ["T(X) :- e(X,Z), e(Z,W)."]


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
    assert err.splitlines() == [f"error: {bias}:2:21: malformed arity {arity!r} for 'meets'"]


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


def test_compare_decides_a_specialized_pair_by_the_tbox(capsys):
    """``WANTS-TO-MARRY subrole LOVES``, so the rule with ``LOVES`` is more
    general without models: the KB's consistency check and the one theory
    that the other direction grounds make the two canonical runs."""
    code, payload = run_json(capsys, "compare", "--kb", KB,
                             "--rule1", "LIKES(X,Y) :- meets(X,Z,Y), LOVES(X,Z).",
                             "--rule2", "LIKES(X,Y) :- meets(X,Z,Y), WANTS-TO-MARRY(X,Z).")
    assert (code, payload["verdict"]) == (0, "strictly-more-general")
    assert payload["counters"]["canonical_runs"] == 2


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


def test_refine_stops_at_the_first_empty_frontier(capsys):
    # the LONER space ends at depth 3; a run that kept looping would time out
    args = ("--kb", KB, "--bias", str(DATA / "loner.obias"), "--rule", "LONER(X) :- famous(X).", "--format", "json")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "ontorules.cli", "refine", *args, "--depth", str(10**30)],
                          env=env, capture_output=True, text=True, timeout=60)
    _, payload = run_json(capsys, "refine", *args[:-2], "--depth", "3")
    assert done.returncode == 0
    assert json.loads(done.stdout)["children"] == payload["children"]


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_refine_depth_below_one_is_an_input_error(capsys, depth):
    code, out, err = run(
        capsys, "refine", "--kb", KB, "--bias", str(DATA / "loner.obias"),
        "--rule", "LONER(X) :- famous(X).", "--depth", depth,
    )
    assert (code, out) == (1, "")
    assert err == f"error: --depth must be at least 1, got {depth}"


CHECK = ("check", "--kb", KB, "--rule", "LONER(X) :- famous(X).", "--example", "LONER(Mary)")


@pytest.mark.parametrize("argv, message", [
    (("refine", "--kb", KB, "--bias", "b", "--rule", "r", "--depth", "abc"),
     "error: argument --depth: invalid int value: 'abc'"),
    (("refine", "--bias", "b", "--rule", "r"), "error: the following arguments are required: --kb"),
    ((), "error: the following arguments are required: command"),
    (("frobnicate",), "error: argument command: invalid choice: 'frobnicate' "
                      "(choose from 'learn', 'check', 'compare', 'refine', 'query')"),
    ((*CHECK, "--format", "xml"), "error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (("check", "--kb"), "error: argument --kb: expected one argument"),
    ((*CHECK, "extra"), "error: unrecognized arguments: extra"),
    ((*CHECK, "--bogus", "1"), "error: unrecognized arguments: --bogus 1"),
    (("compare", "--kb", KB, "--rule", "r"), "error: ambiguous option: --rule could match --rule1, --rule2"),
    (("check", "--rule", "r", "extra"), "error: the following arguments are required: --kb, --example"),
    (("compare", "--kb", KB, "--format", "xml", "--rule", "r"),
     "error: ambiguous option: --rule could match --rule1, --rule2"),
    (("compare", "--kb", KB, "--rule=a b"), "error: ambiguous option: --rule=a b could match --rule1, --rule2"),
    ((*CHECK, "--", "--format", "json"), "error: unrecognized arguments: -- --format json"),
    (("-x", *CHECK), "error: unrecognized arguments: -x"),
    ((*CHECK, "-hx"), "error: argument -h/--help: ignored explicit argument 'x'"),
], ids=["depth-not-an-int", "missing-kb", "no-command", "unknown-command", "bad-choice", "missing-value",
        "extra-token", "unknown-option", "ambiguous-prefix", "missing-before-unrecognized",
        "ambiguity-before-values", "ambiguous-prefix-with-value", "after-double-dash", "unknown-before-command",
        "help-with-value"])
def test_bad_option_is_an_input_error(capsys, argv, message):
    # argparse alone would exit 2, the code for a partial result
    assert run(capsys, *argv) == (1, "", message)


def test_accepted_option_forms(capsys):
    learn = ("learn", f"--kb={KB}", "--examples", str(DATA / "loner.oex"), "--bias", str(DATA / "loner.obias"))
    # a unique prefix, and the last of repeated values: max_body_len=1 leaves positives uncovered
    code, out, _ = run(capsys, *learn, "--max-body", "7", "--max-body-len=1")
    assert (code, out.splitlines()[-1]) == (2, "status: partial")
    refine_loner = ("refine", "--kb", KB, "--bias", str(DATA / "loner.obias"), "--rule", "LONER(X) :- famous(X).")
    assert run(capsys, *refine_loner, "--depth", "-1") == (1, "", "error: --depth must be at least 1, got -1")
    # an = value or a prefix's = value may hold spaces, as a rule does
    for rule in ("--rule=LONER(X) :- famous(X).", "--ru=LONER(X) :- famous(X)."):
        assert run(capsys, "check", f"--kb={KB}", rule, "--example", "LONER(Mary)") == (0, "covers", "")
    code, out, _ = run(capsys, *refine_loner, "--depth", "3", "--fo=json", "--depth=1")
    assert code == 0 and {c["depth"] for c in json.loads(out)["children"]} == {1}
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in ("learn", "check", "compare", "refine", "query"))


def _argparse_from_table():
    """The argparse parser that ``COMMANDS`` describes: the reference the
    CLI's own parser must agree with."""
    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="ontorules")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flag, (help_text, kind, default) in {**_SHARED, **options}.items():
            command.add_argument(flag, help=help_text, required=default is REQUIRED,
                                 default=None if default is REQUIRED else default, type=int if kind is int else str,
                                 choices=kind if isinstance(kind, tuple) else None)
        command.set_defaults(fn=fn)
    return parser


def _outcome(parse, argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            parsed = vars(parse(argv))
    except UsageError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code  # help: its text is laid out differently
    parsed.pop("command", None)
    return "ok", parsed


def test_option_parser_agrees_with_argparse():
    # random edits of valid command lines with options, prefixes, = values,
    # values with spaces, --, -h forms, negative numbers and stray tokens
    rule = "LONER(X) :- famous(X)."
    pool = ["--kb", "k", "--kb=k x", "--format", "json", "xml", "--fo", "--f=text", "--", "-", "-1", "-2.5", "-h",
            "-hh", "-hx", "-h=", "--he", "--help=x", "extra", "--bogus", "--bogus=1", "-b", "--rule", rule,
            f"--rule={rule}", f"--ru={rule}", "--r", "--r=a b", "--rule1", "--rule2", "--example", "LONER(Mary)",
            "--depth", "2", "0", "abc", "--dep=-1", "--bias", "b", "--atom", "a", "--x y", "-x y", "--max-body-len",
            "--max", "--out", "o", "--examples", "e", "=", "--=x", "-=", ""]
    valid = {name: [token for flag, (_, kind, _) in {**_SHARED, **options}.items()
                    for token in (flag, "json" if isinstance(kind, tuple) else "1" if kind is int else rule)]
             for name, (_, _, options) in COMMANDS.items()}
    reference, rng, checked, plain = _argparse_from_table(), random.Random(0), 0, 0
    for _ in range(3000):
        argv = [rng.choice([*COMMANDS, "-h", "x", "-x", "--"])]
        argv += valid.get(argv[0], [])
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                argv.insert(rng.randint(0, len(argv)), rng.choice(pool))
            elif argv:
                del argv[rng.randrange(len(argv))]
        ours, theirs = _outcome(parse_args, argv), _outcome(reference.parse_args, argv)
        direct = _direct(argv)
        if direct is not None:  # a plain line: read as argparse reads it
            assert theirs == ("ok", vars(direct)), argv
            plain += 1
        if ours[0] == "error" and "must be at least 1" in ours[1]:  # the CLI's own check, after argparse's
            assert theirs[0] == "ok" and min(v for v in theirs[1].values() if isinstance(v, int)) < 1, argv
        else:
            assert ours == theirs, argv
            checked += theirs[0] == "ok"
    assert checked > 300  # enough of the edits still parse
    assert plain > 300  # enough of them are plain


@pytest.mark.parametrize("depth", ["\u00b2", "\u0663", "+1", " 1", "1_0"])
def test_an_int_of_other_than_ascii_digits_is_left_to_argparse(depth):
    argv = ["refine", "--kb", KB, "--bias", "b", "--rule", "r", "--depth", depth]
    assert _direct(argv) is None
    assert _outcome(parse_args, argv) == _outcome(_argparse_from_table().parse_args, argv)


def _bundled_tasks():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.bundled_tasks()


def test_bundled_command_lines_are_read_directly():
    """Each of the benchmark's bundled command lines is plain, so a call
    never builds the argparse parser."""
    tasks, reference = _bundled_tasks(), _argparse_from_table()
    assert len(tasks) == 29
    for task in tasks:
        args = _direct(task["argv"])
        assert args is not None, task["name"]
        assert _outcome(reference.parse_args, task["argv"]) == ("ok", vars(args)), task["name"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--help"])
    assert exc.value.code == 0
    assert "--depth" in capsys.readouterr().out


def _program(*args, **kwargs):
    """A child ``python *args`` on this checkout's ``src/``, without
    ``PYTHONUNBUFFERED``, so that its report stays in stdout's buffer until
    the exit flushes it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, *args], env=env, capture_output="stdout" not in kwargs,
                          text=True, check=False, **kwargs)


def test_the_program_reports_what_main_reports(capsys):
    """Through ``python -m ontorules.cli``, each of the 29 bundled command
    lines exits with the code, and writes the standard error and the report
    without ``timings``, that ``main`` gives in process."""
    def outcome(code, out, err):
        report = json.loads(out)
        del report["timings"]
        return code, err, report

    for task in _bundled_tasks():
        done = _program("-m", "ontorules.cli", *task["argv"])
        code = main(task["argv"])
        ours = capsys.readouterr()
        assert outcome(done.returncode, done.stdout, done.stderr) == outcome(code, ours.out, ours.err), task["name"]


@pytest.mark.parametrize("route", ["full disk", "closed pipe", "closed pipe, traced",
                                   "closed pipe, both streams", "closed pipe, both streams, traced"])
def test_a_report_that_cannot_be_written_is_an_input_error(route):
    """A report that cannot be written, to a full disk or to a pipe whose
    reader has gone, prints ``error: ...`` and exits 1; so it does under a
    tracer, where the process exits through ``sys.exit`` and flushes stdout
    again, and when standard error is the same closed pipe, which takes no
    message."""
    entry = ("import sys; from ontorules.cli import entry; sys.settrace(lambda *a: None); "
             "sys.argv[0] = 'ontorules'; entry()")
    args = ["-c", entry] if route.endswith("traced") else ["-m", "ontorules.cli"]
    args += [*CHECK, "--format", "json"]
    if route == "full disk":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            done = _program(*args, stdout=full, stderr=subprocess.PIPE)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _program(*args, stdout=write_end, stderr=write_end if "both" in route else subprocess.PIPE)
        finally:
            os.close(write_end)
    errno = 28 if route == "full disk" else 32  # ENOSPC, EPIPE
    message = None if "both" in route else f"error: [Errno {errno}] {os.strerror(errno)}\n"
    assert (done.returncode, done.stderr) == (1, message)


@pytest.mark.parametrize("hook", ["trace", "profile", "monitoring"])
def test_a_hooked_call_does_its_exit_work(hook):
    """Under a tracer, a profiler or a ``sys.monitoring`` tool (Python 3.12+,
    as ``cProfile`` and coverage use), the program exits through ``sys.exit``,
    so ``atexit`` handlers still run."""
    if hook == "monitoring" and sys.version_info < (3, 12):
        pytest.skip("sys.monitoring is new in Python 3.12")
    install = {"trace": "sys.settrace(lambda *a: None)", "profile": "sys.setprofile(lambda *a: None)",
               "monitoring": "sys.monitoring.use_tool_id(sys.monitoring.COVERAGE_ID, 'test')"}[hook]
    done = _program("-c", f"import atexit, sys; atexit.register(print, 'exit work', file=sys.stderr); {install}; "
                          "from ontorules.cli import entry; sys.argv[0] = 'ontorules'; entry()", *CHECK)
    assert (done.returncode, done.stdout, done.stderr) == (0, "covers\n", "exit work\n")


def test_a_profiled_call_writes_its_profile(tmp_path):
    """Under ``cProfile`` the program exits normally, so the profile is written."""
    profile = tmp_path / "check.prof"
    done = _program("-m", "cProfile", "-o", str(profile), "-m", "ontorules.cli", *CHECK, "--format", "json")
    assert done.returncode == 0 and json.loads(done.stdout)["verdict"] == "covers", done.stderr
    assert profile.stat().st_size > 0


def test_the_program_prints_its_help():
    done = _program("-m", "ontorules.cli", "-h")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: ontorules") and all(name in done.stdout for name in COMMANDS)


def test_the_installed_script_is_the_program_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = scripts["ontorules"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry


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
def test_utf8_input_with_a_byte_order_mark_is_read(capsys, tmp_path, option):
    files = {"--kb": KB, "--examples": str(DATA / "loner.oex"), "--bias": str(DATA / "loner.obias")}
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(files[option]).read_bytes())
    files[option] = str(bom)
    code, out, err = run(capsys, "learn", *(a for o, f in files.items() for a in (o, f)))
    assert (code, err) == (0, "")
    assert "LONER(X) :- famous(X), UNMARRIED(X)." in out


@pytest.mark.parametrize("option", ["--kb", "--examples", "--bias"])
def test_non_utf8_input_is_an_input_error(capsys, tmp_path, option):
    files = {"--kb": KB, "--examples": str(DATA / "loner.oex"), "--bias": str(DATA / "loner.obias")}
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + "p(a).\n".encode("utf-16-le"))
    files[option] = str(bad)
    code, out, err = run(capsys, "learn", *(a for o, f in files.items() for a in (o, f)))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {bad} is not UTF-8 text (invalid start byte)"]


CHASE_KB = """\
concept A/1. role R/2. role S/2. pred d/1. pred e/1. pred p/1.
#tbox
A subclass some R Top.
R subrole S.
#rules
p(X) :- d(X), R(X,Y), S(X,Y).
#facts
A(a). d(a).
"""


def test_one_null_fills_a_role_and_its_super_role(capsys, tmp_path):
    # the R-filler that A(a) asks for is an S-filler too, in every model
    path = tmp_path / "chase.okb"
    path.write_text(CHASE_KB)
    code, out, _ = run(capsys, "query", "--kb", str(path), "--atom", "p(a)")
    assert (code, out) == (0, "entailed")


def test_check_and_compare_read_an_anonymous_filler_alike(capsys, tmp_path):
    # both rules cover t(a); each A has an R-filler, so the first is more
    # general, and a variable of a negated literal binds no null
    path = tmp_path / "chase.okb"
    path.write_text(CHASE_KB)
    filler, concept = "t(X) :- d(X), R(X,Y).", "t(X) :- d(X), A(X)."
    for rule in (filler, concept):
        code, out, _ = run(capsys, "check", "--kb", str(path), "--rule", rule, "--example", "t(a)")
        assert (code, out) == (0, "covers"), rule
    code, out, _ = run(capsys, "compare", "--kb", str(path), "--rule1", filler, "--rule2", concept)
    assert (code, out) == (0, "strictly-more-general")
    barred = "t(X) :- d(X), R(X,Y), not e(Y)."
    code, out, _ = run(capsys, "check", "--kb", str(path), "--rule", barred, "--example", "t(a)")
    assert (code, out) == (0, "does-not-cover")
    code, out, _ = run(capsys, "compare", "--kb", str(path), "--rule1", barred, "--rule2", concept)
    assert (code, out) == (0, "incomparable")
