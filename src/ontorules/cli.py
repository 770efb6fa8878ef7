"""Command-line interface: learn, check, compare, refine, query.

Exit codes: 0 success, 1 input error (including a KB with no model, except
for ``check``, ``compare`` and ``query``, which report the verdict
``inconsistent-kb``, a missing or malformed option, a ``--max-body-len``
or ``--depth`` below 1, and an input file that is not UTF-8 text), 2 partial
result, 3 budget exceeded.
Output is deterministic for fixed inputs; there is no randomness anywhere, so
no seed flag exists.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import hybrid
from .hybrid import InconsistentKBError, compare, covers, entails, nm_models
from .learner import LearnerParams, learn
from .model import BudgetError, ModelError, Rule
from .parser import ParseError, parse_bias, parse_examples, parse_ground_atom, parse_kb, parse_rule
from .refine import canonical_form, refine, seed_rule

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """A missing or malformed option, a value outside the range the command
    accepts, or an input file that is not UTF-8 text."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would exit 2, the code this
    CLI keeps for a partial result."""

    def error(self, message: str):
        raise UsageError(message)


def _require_positive(option: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{option} must be at least 1, got {value}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
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
    _require_positive("--max-body-len", args.max_body_len)
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
    _require_positive("--depth", args.depth)
    report = _Report("refine")
    kb = parse_kb(_read(args.kb), args.kb)
    bias = parse_bias(_read(args.bias), kb, args.bias)
    rule = parse_rule(args.rule, kb)
    report.phase("parse")
    children: list[dict] = []
    frontier: list[Rule] = [rule]
    seen = {canonical_form(rule)}
    for depth in range(1, args.depth + 1):
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
    verdict = entails(kb, (), (), atom).value
    report.phase("query")
    report.data["verdict"] = verdict
    _emit(report, args.format, [verdict])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ontorules",
        description="Learn and analyse rule-based definitions over hybrid ontology + datalog KBs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kb", required=True, help="knowledge base file (.okb)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("learn", help="learn a rule set from labelled examples")
    common(p)
    p.add_argument("--examples", required=True, help="examples file (.oex)")
    p.add_argument("--bias", required=True, help="language bias file (.obias)")
    p.add_argument("--max-body-len", type=int, default=5)
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("check", help="does a rule cover an example?")
    common(p)
    p.add_argument("--rule", required=True)
    p.add_argument("--example", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compare", help="generality verdict between two rules")
    common(p)
    p.add_argument("--rule1", required=True)
    p.add_argument("--rule2", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("refine", help="list refinements of a rule")
    common(p)
    p.add_argument("--bias", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("query", help="cautious entailment of a ground atom")
    common(p)
    p.add_argument("--atom", required=True)
    p.set_defaults(fn=cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ParseError, ModelError, InconsistentKBError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
