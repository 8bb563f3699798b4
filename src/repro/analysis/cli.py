"""`repro lint`: run the RPR rule set from the command line.

Wired into ``python -m repro`` (see :mod:`repro.__main__`).  Exit codes:

* 0 -- no active findings (``# repro: noqa`` suppressed ones are fine),
* 1 -- at least one active finding,
* 2 -- a file could not be parsed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.analysis.linting import LintReport, Rule


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the `repro lint` arguments to an argparse subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the JSON report to PATH (for CI artifacts)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="list noqa-suppressed findings in the text report",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print per-rule finding counts",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )


def _selected_rules(select: Optional[str], ignore: Optional[str]) -> List[Rule]:
    from repro.analysis.rules import default_rules

    rules = default_rules()
    if select:
        wanted = {s.strip().upper() for s in select.split(",") if s.strip()}
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise SystemExit(
                f"error: unknown rule id(s): {', '.join(sorted(unknown))}"
            )
        rules = [r for r in rules if r.id in wanted]
    if ignore:
        skipped = {s.strip().upper() for s in ignore.split(",") if s.strip()}
        rules = [r for r in rules if r.id not in skipped]
    return rules


def _rule_table() -> str:
    from repro.analysis.rules import ALL_RULES
    from repro.obs.export import format_table

    rows = [
        [
            cls.id,
            cls.title,
            "all" if cls.scopes is None else ",".join(cls.scopes),
        ]
        for cls in ALL_RULES
    ]
    return format_table(["rule", "checks for", "scope"], rows)


def run_lint(args: argparse.Namespace) -> int:
    """Entry point for the `repro lint` subcommand.

    The rule set loads here, not at import: every ``python -m repro``
    command builds the lint argument parser.
    """
    from repro.analysis.linting import LintEngine

    if args.list_rules:
        print(_rule_table())
        return 0
    engine = LintEngine(rules=_selected_rules(args.select, args.ignore))
    report = engine.lint_paths([Path(p) for p in args.paths])
    if args.output:
        Path(args.output).write_text(
            report.to_json() + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(report.to_json())
    else:
        _print_text_report(report, show_suppressed=args.show_suppressed)
    if args.statistics and args.format == "text":
        for rule_id, count in sorted(report.counts_by_rule().items()):
            print(f"{rule_id:<8} {count}")
    if report.parse_errors:
        return 2
    return 1 if report.active else 0


def _print_text_report(report: LintReport, show_suppressed: bool) -> None:
    for finding in report.active:
        print(finding.render())
    if show_suppressed:
        for finding in report.suppressed:
            print(finding.render())
    failing = len(report.active)
    summary = (
        f"repro lint: {report.files_checked} file(s), "
        f"{failing} failing finding(s), "
        f"{len(report.suppressed)} suppressed"
    )
    print(summary, file=sys.stderr if failing else sys.stdout)
