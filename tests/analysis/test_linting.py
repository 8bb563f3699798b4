"""Engine mechanics: noqa parsing, suppression, reports, path walking."""

from __future__ import annotations

import ast
import json

import pytest

from repro.analysis.linting import (
    BLANKET,
    PARSE_ERROR_RULE,
    FileContext,
    Finding,
    LintEngine,
    Rule,
    parse_noqa,
)


class TestParseNoqa:
    def test_blanket(self):
        table = parse_noqa("x = 1  # repro: noqa\n")
        assert table == {1: {BLANKET}}

    def test_single_rule(self):
        table = parse_noqa("x = 1\ny = 2  # repro: noqa[RPR006]\n")
        assert table == {2: {"RPR006"}}

    def test_rule_list_and_case(self):
        table = parse_noqa("z = 3  # repro: noqa[rpr001, RPR009]\n")
        assert table == {1: {"RPR001", "RPR009"}}

    def test_unrelated_comments_ignored(self):
        assert parse_noqa("x = 1  # noqa\n# repro: metrics\n") == {}


class _AlwaysFire(Rule):
    id = "TEST001"
    title = "fires on every module"
    scopes = None

    def check(self, ctx):
        yield ctx.finding(self.id, ctx.tree.body[0], "boom")


class TestEngine:
    def test_parse_error_reported_not_raised(self):
        findings = LintEngine(rules=[]).lint_source("def broken(:\n")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert "cannot parse" in findings[0].message

    def test_suppression_marks_but_keeps_finding(self):
        engine = LintEngine(rules=[_AlwaysFire()])
        active = engine.lint_source("x = 1\n")
        waived = engine.lint_source("x = 1  # repro: noqa[TEST001]\n")
        assert [f.suppressed for f in active] == [False]
        assert [f.suppressed for f in waived] == [True]

    def test_blanket_noqa_suppresses_any_rule(self):
        engine = LintEngine(rules=[_AlwaysFire()])
        findings = engine.lint_source("x = 1  # repro: noqa\n")
        assert [f.suppressed for f in findings] == [True]

    def test_noqa_for_other_rule_does_not_suppress(self):
        engine = LintEngine(rules=[_AlwaysFire()])
        findings = engine.lint_source("x = 1  # repro: noqa[RPR999]\n")
        assert [f.suppressed for f in findings] == [False]

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LintEngine(rules=[_AlwaysFire(), _AlwaysFire()])

    def test_rule_without_id_rejected(self):
        class Nameless(Rule):
            pass

        with pytest.raises(ValueError, match="no id"):
            LintEngine(rules=[Nameless()])

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        report = LintEngine(rules=[_AlwaysFire()]).lint_paths([tmp_path])
        assert report.files_checked == 2
        assert len(report.active) == 2

    def test_report_json_contract(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "x = 1\ny = 2  # repro: noqa[TEST001]\n"
        )
        report = LintEngine(rules=[_AlwaysFire()]).lint_paths([tmp_path])
        data = json.loads(report.to_json())
        assert data["format"] == "repro-lint"
        assert data["version"] == 3
        assert data["files_checked"] == 1
        assert data["num_findings"] == 1
        assert data["counts_by_rule"] == {"TEST001": 1}
        assert data["findings"][0]["rule"] == "TEST001"


class TestFileContext:
    def test_parent_links_and_ancestors(self):
        source = "def f():\n    return 1\n"
        tree = ast.parse(source)
        ctx = FileContext(source, tree, path="x.py")
        ret = tree.body[0].body[0]
        assert ctx.parent(ret) is tree.body[0]
        assert list(ctx.ancestors(ret)) == [tree.body[0], tree]

    def test_in_dirs_matches_segments(self):
        tree = ast.parse("x = 1\n")
        ctx = FileContext("x = 1\n", tree, path="p", rel="src/repro/core/a.py")
        assert ctx.in_dirs("core")
        assert ctx.in_dirs("rf", "core")
        assert not ctx.in_dirs("obs")


class TestFinding:
    def test_render_and_suppressed_marker(self):
        f = Finding("RPR001", "a.py", 3, 7, "msg")
        assert f.render() == "a.py:3:7: RPR001 msg"
        s = Finding("RPR001", "a.py", 3, 7, "msg", suppressed=True)
        assert s.render().endswith("[suppressed]")
