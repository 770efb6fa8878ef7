"""Command-line interface: ``ontorules COMMAND OPTIONS`` for learn, check,
compare, refine and query, from the table ``COMMANDS``: read directly if plain
(:func:`_direct`), else by argparse, with its messages and its ``-h`` help.

Exit codes: 0 success, 1 input error (a missing or malformed option, an int
option below 1, an input file that is not UTF-8 text, with or without a BOM, a
KB with no model, except for ``check``, ``compare`` and ``query``, which report
``inconsistent-kb``, or a report that cannot be written), 2 partial result, 3
budget exceeded.  :func:`entry` ends the process once flushed, by ``os._exit``,
or by ``sys.exit`` under a tracer, a profiler or ``-i``.  Nothing is random.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from types import SimpleNamespace

from . import hybrid
from .hybrid import InconsistentKBError, compare, covers, entails, nm_models
from .learner import LearnerParams, learn
from .model import BudgetError, ModelError, Rule
from .parser import ParseError, parse_bias, parse_examples, parse_ground_atom, parse_kb, parse_rule
from .refine import canonical_form, refine

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """A missing or malformed option, a value outside the range the command
    accepts, or an input file that is not UTF-8 text."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text ({exc.reason})") from None


class _Report:
    def __init__(self, command: str):
        self.data: dict = {
            "command": command,
            "status": "ok",
            "timings": {},
            "counters": {},
        }
        self._t0 = time.perf_counter()
        self._phase_start = self._t0
        hybrid.reset_counters()

    def phase(self, name: str) -> None:
        now = time.perf_counter()
        self.data["timings"][name] = round(now - self._phase_start, 6)
        self._phase_start = now

    def finish(self) -> None:
        self.data["timings"]["total"] = round(time.perf_counter() - self._t0, 6)
        self.data["counters"] = dict(hybrid.counters)


def _emit(report: _Report, fmt: str, text_lines: list[str], out_path: str | None = None) -> None:
    report.finish()
    payload = json.dumps(report.data, indent=2, sort_keys=True)
    if out_path:  # written first, so that a failed write prints no report
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload if fmt == "json" else "\n".join(text_lines))


def cmd_learn(args) -> int:
    report = _Report("learn")
    kb = parse_kb(_read(args.kb), args.kb)
    examples = parse_examples(_read(args.examples), kb, args.examples)
    bias = parse_bias(_read(args.bias), kb, args.bias)
    report.phase("parse")
    params = LearnerParams(max_body_len=args.max_body_len)
    result = learn(kb, examples.target, examples, bias, params)
    report.phase("learn")
    report.data["rules"] = [
        {
            "rule": str(r),
            "pos_covered": s.pos_covered,
            "neg_covered": s.neg_covered,
            "confidence": round(s.confidence, 6),
        }
        for r, s in zip(result.rules, result.per_rule_stats)
    ]
    report.data["uncovered_positives"] = [str(a) for a in result.uncovered_positives]
    report.data["status"] = "ok" if result.success else "partial"
    lines = [f"learned: {r}  (pos={s.pos_covered}, neg={s.neg_covered}, cf={s.confidence:.3f})"
             for r, s in zip(result.rules, result.per_rule_stats)]
    lines += [f"uncovered: {a}" for a in result.uncovered_positives]
    lines.append(f"status: {report.data['status']}")
    _emit(report, args.format, lines, args.out)
    return EXIT_OK if result.success else EXIT_PARTIAL


def cmd_check(args) -> int:
    report = _Report("check")
    kb = parse_kb(_read(args.kb), args.kb)
    rule = parse_rule(args.rule, kb)
    example = parse_ground_atom(args.example, kb.with_predicate(rule.head.pred))
    report.phase("parse")
    try:
        verdict = "covers" if covers(kb, rule, example) else "does-not-cover"
    except InconsistentKBError:
        verdict = "inconsistent-kb"
    report.phase("check")
    report.data["verdict"] = verdict
    _emit(report, args.format, [verdict])
    return EXIT_OK


def cmd_compare(args) -> int:
    report = _Report("compare")
    kb = parse_kb(_read(args.kb), args.kb)
    rule1 = parse_rule(args.rule1, kb)
    rule2 = parse_rule(args.rule2, kb)
    report.phase("parse")
    verdict = compare(rule1, rule2, kb).value if nm_models(kb) else "inconsistent-kb"
    report.phase("compare")
    report.data["verdict"] = verdict
    _emit(report, args.format, [verdict])
    return EXIT_OK


def cmd_refine(args) -> int:
    report = _Report("refine")
    kb = parse_kb(_read(args.kb), args.kb)
    bias = parse_bias(_read(args.bias), kb, args.bias)
    rule = parse_rule(args.rule, kb)
    report.phase("parse")
    children: list[dict] = []
    frontier: list[Rule] = [rule]
    seen = {canonical_form(rule)}
    for depth in range(1, args.depth + 1):
        if not frontier:
            break
        nxt: list[Rule] = []
        for parent in frontier:
            for step in refine(parent, bias, kb.tbox):
                if step.key in seen:
                    continue
                seen.add(step.key)
                children.append({"rule": str(step.child), "step": step.rule_applied, "depth": depth})
                nxt.append(step.child)
        frontier = nxt
    report.phase("refine")
    report.data["rule"] = str(rule)
    report.data["children"] = children
    lines = [str(rule)] + [f"  {c['step']}: {c['rule']}  (depth {c['depth']})" for c in children]
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_query(args) -> int:
    report = _Report("query")
    kb = parse_kb(_read(args.kb), args.kb)
    atom = parse_ground_atom(args.atom, kb)
    report.phase("parse")
    verdict = entails(kb, (), atom).value
    report.phase("query")
    report.data["verdict"] = verdict
    _emit(report, args.format, [verdict])
    return EXIT_OK


REQUIRED = object()
#: Options every command takes, first.  An option maps to its help, its type
#: (``str``, ``int`` at least 1, or a tuple of choices) and its default, or
#: ``REQUIRED``.
_SHARED = {"--kb": ("knowledge base file (.okb)", str, REQUIRED),
           "--format": ("report format: text or json", ("text", "json"), "text")}
#: For each command: its function, help line and options.
COMMANDS = {
    "learn": (cmd_learn, "learn a rule set from labelled examples", {
        "--examples": ("examples file (.oex)", str, REQUIRED), "--bias": ("bias file (.obias)", str, REQUIRED),
        "--max-body-len": ("most body literals a rule may have", int, 5),
        "--out": ("also write the JSON report here", str, None)}),
    "check": (cmd_check, "does a rule cover an example?",
              {"--rule": ("the rule", str, REQUIRED), "--example": ("a ground atom of its head", str, REQUIRED)}),
    "compare": (cmd_compare, "generality verdict between two rules",
                {"--rule1": ("the first rule", str, REQUIRED), "--rule2": ("the second rule", str, REQUIRED)}),
    "refine": (cmd_refine, "list refinements of a rule", {
        "--bias": ("bias file (.obias)", str, REQUIRED), "--rule": ("the rule to refine", str, REQUIRED),
        "--depth": ("refinement steps, stopping early when one adds no rule", int, 1)}),
    "query": (cmd_query, "cautious entailment of a ground atom", {"--atom": ("the atom", str, REQUIRED)}),
}


def _direct(argv: list[str]) -> SimpleNamespace | None:
    """The options of a plain command line, or None: ``COMMAND`` first, then
    each option by its whole name, as ``--opt value`` or ``--opt=value``, with
    a value that is non-empty, does not start with ``-``, and is ASCII digits
    for an int or a choice for a choice.  argparse reads such lines trivially."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, options = COMMANDS[argv[0]]
    options = {**_SHARED, **options}
    values = {flag: default for flag, (_, _, default) in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "")
        if flag not in options or value[:1] in ("", "-"):
            return None
        kind = options[flag][1]
        if kind is int and not (value.isascii() and value.isdigit()) or isinstance(kind, tuple) and value not in kind:
            return None
        values[flag] = int(value) if kind is int else value
    if REQUIRED in values.values():
        return None
    return SimpleNamespace(fn=fn, **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def _argparse(argv: list[str]) -> SimpleNamespace:
    """argparse's reading of ``argv``, built from :data:`COMMANDS`: its
    messages, raised as :class:`UsageError`, and its help, which exits 0."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="ontorules")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=text, description=text)
        for flag, (help_text, kind, default) in {**_SHARED, **options}.items():
            command.add_argument(flag, required=default is REQUIRED,
                                 help=help_text if default is REQUIRED else f"{help_text} (default: %(default)s)",
                                 default=None if default is REQUIRED else default, type=int if kind is int else str,
                                 choices=kind if isinstance(kind, tuple) else None)
        command.set_defaults(fn=fn)
    return SimpleNamespace(**vars(parser.parse_args(argv)))


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Parses ``COMMAND OPTIONS`` against :data:`COMMANDS`: a plain command
    line directly (:func:`_direct`), any other through argparse, which is
    only imported then.  Returns the options and ``fn``, the command."""
    args = _direct(argv) or _argparse(argv)
    for name, value in vars(args).items():
        if isinstance(value, int) and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except (ParseError, ModelError, InconsistentKBError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    try:
        code = main()
    except SystemExit as exc:  # -h
        code = exc.code
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None if closed at start-up
        try:
            stream.flush()
        except OSError as exc:  # the reader has gone, or the disk is full
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())  # so no exit flush fails again
            code = EXIT_INPUT_ERROR
            with contextlib.suppress(OSError):  # stderr may be the same file: the loop mends it next
                print(f"error: {exc}", file=sys.stderr)
    tools = sys.version_info >= (3, 12) and any(map(sys.monitoring.get_tool, range(6)))  # cProfile, coverage
    (sys.exit if tools or sys.gettrace() or sys.getprofile() or sys.flags.inspect else os._exit)(code)


if __name__ == "__main__":
    entry()
