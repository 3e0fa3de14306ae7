"""Command-line entry point: ``python -m repro.lint <paths...>``.

Runs the per-file REPRO001–011 AST rules over every file under the
given paths.  ``--list-rules`` prints the registry instead and, with
``--check-docs``, drift-checks a document against it.

Exit status is 0 when clean, 1 when violations (or parse errors) were
found, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import lint_paths
from repro.lint.rules import ALL_RULES, RULES_BY_ID


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Repo-specific static analysis for the TMerge stack: per-file "
            "AST rules (REPRO001-010)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule (id, title, rationale), then exit",
    )
    parser.add_argument(
        "--check-docs",
        metavar="DOC",
        help=(
            "with --list-rules: verify DOC names every shipped rule id and "
            "mentions no unknown REPROxxx id (exit 1 on drift)"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-violation lines; print only the summary",
    )
    return parser


def _list_rules(check_docs: str | None) -> int:
    """Print the rule registry; optionally drift-check a doc."""
    for rule in ALL_RULES:
        print(f"{rule.rule_id}  {rule.title}")
        print(f"    {rule.rationale}")
    if check_docs is None:
        return 0
    doc_path = Path(check_docs)
    if not doc_path.is_file():
        print(f"--check-docs: {check_docs} not found", file=sys.stderr)
        return 2
    doc = doc_path.read_text(encoding="utf-8")
    known = set(RULES_BY_ID)
    mentioned = set(re.findall(r"REPRO\d{3}", doc))
    missing = sorted(known - mentioned)
    unknown = sorted(mentioned - known)
    if missing:
        print(
            f"--check-docs: {check_docs} does not mention shipped rule(s): "
            + ", ".join(missing)
        )
    if unknown:
        print(
            f"--check-docs: {check_docs} mentions unknown rule id(s): "
            + ", ".join(unknown)
        )
    if missing or unknown:
        return 1
    print(f"--check-docs: {check_docs} is in sync ({len(known)} rules)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; return the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules(args.check_docs)

    if args.select:
        wanted = [part.strip() for part in args.select.split(",") if part.strip()]
        unknown = [rule_id for rule_id in wanted if rule_id not in RULES_BY_ID]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        rules = [RULES_BY_ID[rule_id] for rule_id in wanted]
    else:
        rules = list(ALL_RULES)

    report = lint_paths(args.paths or ["src", "tests", "benchmarks"], rules=rules)

    if not args.quiet:
        for path, message in report.parse_errors:
            print(f"{path}: parse error: {message}")
        for violation in report.violations:
            print(violation.render())

    n_problems = len(report.violations) + len(report.parse_errors)
    if n_problems:
        print(
            f"{n_problems} problem(s) in {report.files_checked} file(s) "
            f"({len(rules)} rule(s))"
        )
        return 1
    print(f"clean: {report.files_checked} file(s), {len(rules)} rule(s)")
    return 0
