"""AST lint engine: pluggable rules + per-line noqa suppression.

The engine parses each file once, annotates every node with its parent
(so rules can walk *up* as well as down), runs every applicable rule,
and matches the resulting findings against the file's suppression
comments.  Suppressed findings are kept -- reports show how much is
being waived and why -- but they do not fail a run.

Suppression syntax (one comment per line, applies to that line)::

    risky_thing()  # repro: noqa[RPR001] -- amplitude sink, phase unused
    anything_at_all()  # repro: noqa  (blanket: suppresses every rule)

The justification after ``--`` is free text; the convention (enforced by
review, not the parser) is that every blanket or rule-specific noqa
carries one.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Rule id used for files the engine cannot parse.
PARSE_ERROR_RULE = "PARSE"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Sentinel entry meaning "every rule is suppressed on this line".
BLANKET = "*"


@dataclass(frozen=True)
class Finding:
    """One lint finding.

    Attributes:
        rule: rule id (``RPR001``...).
        path: file the finding is in (as given to the engine).
        line: 1-indexed source line.
        col: 0-indexed column.
        message: human-readable description.
        suppressed: True when a ``# repro: noqa`` comment waives it.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        """``path:line:col: RULE message`` (plus a suppression marker)."""
        tag = "  [suppressed]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"

    def to_dict(self) -> dict:
        """Plain-data view for the JSON report."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }


def parse_noqa(source: str) -> Dict[int, Set[str]]:
    """Per-line suppression table: line number -> suppressed rule ids.

    A bare ``# repro: noqa`` maps to the :data:`BLANKET` sentinel.  Rule
    lists are comma-separated and case-normalised to upper case.
    """
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        if "repro:" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = {BLANKET}
        else:
            table.setdefault(lineno, set()).update(
                r.strip().upper() for r in rules.split(",") if r.strip()
            )
    return table


class FileContext:
    """Everything a rule needs about one parsed file.

    Attributes:
        path: filesystem path (used in findings).
        rel: normalised posix-style path used for scope matching.
        source: raw file text.
        tree: parsed module with parent links annotated
            (``node._repro_parent``).
    """

    def __init__(
        self,
        source: str,
        tree: ast.Module,
        path: str,
        rel: Optional[str] = None,
    ):
        self.path = path
        self.rel = (rel or path).replace("\\", "/")
        self.source = source
        self.tree = tree
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child._repro_parent = node  # type: ignore[attr-defined]

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The node's parent (None for the module root)."""
        return getattr(node, "_repro_parent", None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from the node's parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def in_dirs(self, *segments: str) -> bool:
        """Whether the file lives under any of the given directories."""
        haystack = "/" + self.rel
        return any(f"/{segment}/" in haystack for segment in segments)

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """A finding anchored at a node's location."""
        return Finding(
            rule=rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`title` / :attr:`rationale`,
    optionally restrict themselves to directory ``scopes``, and
    implement :meth:`check` as a generator of findings.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: Directory segments the rule applies to (None: every file).
    scopes: Optional[Sequence[str]] = None

    def __init__(self, scopes: Optional[Sequence[str]] = "default"):
        if scopes != "default":
            self.scopes = scopes

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether the rule should run on this file."""
        if self.scopes is None:
            return True
        return ctx.in_dirs(*self.scopes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError


@dataclass
class LintReport:
    """Outcome of linting a set of files.

    Attributes:
        findings: every finding, suppressed ones included, in
            (path, line, col) order.
        files_checked: number of files parsed and linted.
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def active(self) -> List[Finding]:
        """Findings not waived by a noqa comment."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        """Findings waived by a noqa comment."""
        return [f for f in self.findings if f.suppressed]

    @property
    def parse_errors(self) -> List[Finding]:
        """Files the engine could not parse."""
        return [f for f in self.findings if f.rule == PARSE_ERROR_RULE]

    def counts_by_rule(self) -> Dict[str, int]:
        """Active finding count per rule id."""
        counts: Dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_dict(self) -> dict:
        """Plain-data view for the JSON report / CI artifact."""
        return {
            "format": "repro-lint",
            "version": 3,
            "files_checked": self.files_checked,
            "num_findings": len(self.active),
            "num_suppressed": len(self.suppressed),
            "counts_by_rule": self.counts_by_rule(),
            "findings": [f.to_dict() for f in self.active],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }

    def to_json(self) -> str:
        """The JSON report, pretty-printed."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class LintEngine:
    """Run a rule set over sources, files or directory trees."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules: List[Rule] = list(rules)
        seen: Set[str] = set()
        for rule in self.rules:
            if not rule.id:
                raise ValueError(f"rule {rule!r} has no id")
            if rule.id in seen:
                raise ValueError(f"duplicate rule id {rule.id}")
            seen.add(rule.id)

    def _parse(
        self,
        source: str,
        path: str,
        rel: Optional[str],
    ) -> "Tuple[Optional[FileContext], Optional[Finding]]":
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return None, Finding(
                rule=PARSE_ERROR_RULE,
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"cannot parse: {exc.msg}",
            )
        return FileContext(source, tree, path=path, rel=rel), None

    def _run(self, ctx: FileContext) -> List[Finding]:
        """Run every applicable rule over one file, marking noqa'd
        findings suppressed."""
        noqa = parse_noqa(ctx.source)
        out: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                waived = noqa.get(finding.line, ())
                if BLANKET in waived or finding.rule.upper() in waived:
                    finding = replace(finding, suppressed=True)
                out.append(finding)
        out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return out

    def lint_source(
        self,
        source: str,
        path: str = "<string>",
        rel: Optional[str] = None,
    ) -> List[Finding]:
        """Lint one in-memory source blob.

        Args:
            source: the Python source text.
            path: path used in findings.
            rel: path used for rule scope matching (defaults to
                ``path``); lets tests lint fixture text *as if* it lived
                under ``src/repro/core/``.
        """
        ctx, error = self._parse(source, path, rel)
        if ctx is None:
            return [error] if error is not None else []
        return self._run(ctx)

    def lint_file(self, path: Path) -> List[Finding]:
        """Lint one file on disk."""
        text = Path(path).read_text(encoding="utf-8")
        return self.lint_source(text, path=str(path))

    def lint_paths(self, paths: Sequence[Path]) -> LintReport:
        """Lint files and/or directory trees (``**/*.py``)."""
        report = LintReport()
        for path in _expand(paths):
            report.findings.extend(self.lint_file(path))
            report.files_checked += 1
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return report


def _expand(paths: Sequence[Path]) -> Iterator[Path]:
    """Files from a mix of file and directory paths, sorted."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path
