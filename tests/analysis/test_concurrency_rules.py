"""RPR013/RPR014/RPR015: fixture behaviour, scopes, and self-lint.

Each rule gets a true-positive fixture (every planted hazard fires, the
``# repro: noqa[RPR0xx]`` line suppresses) and a clean fixture (zero
findings) -- plus a self-lint over ``src/`` proving the landed tree is
concurrency-clean modulo the two documented fast-path waivers.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.concurrency import (
    CONCURRENCY_RULES,
    GuardedFieldDiscipline,
    LockOrderInversion,
    ResourceLifetime,
    concurrency_rules,
)
from repro.analysis.linting import LintEngine, ProjectRule
from repro.analysis.rules import default_rules

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str):
    engine = LintEngine(rules=concurrency_rules())
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return engine.lint_source(
        source,
        path=str(FIXTURES / name),
        rel=f"src/repro/core/{name}",
    )


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


class TestRuleSet:
    def test_every_concurrency_rule_has_fixtures(self):
        for cls in CONCURRENCY_RULES:
            for suffix in ("", "_clean"):
                name = f"{cls.id.lower()}{suffix}.py"
                assert (FIXTURES / name).is_file(), f"missing {name}"

    def test_ids_and_registry(self):
        assert [cls.id for cls in CONCURRENCY_RULES] == [
            "RPR013",
            "RPR014",
            "RPR015",
        ]
        assert issubclass(LockOrderInversion, ProjectRule)
        assert not issubclass(GuardedFieldDiscipline, ProjectRule)
        assert not issubclass(ResourceLifetime, ProjectRule)

    def test_not_in_default_rules(self):
        default_ids = {r.id for r in default_rules()}
        assert default_ids.isdisjoint({cls.id for cls in CONCURRENCY_RULES})


class TestRpr013GuardedBy:
    def test_true_positives(self):
        found = by_rule(lint_fixture("rpr013.py"), "RPR013")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 4
        messages = " | ".join(f.message for f in active)
        assert "Tracker._count" in messages  # decorator-declared read
        assert "Tracker._items" in messages  # decorator-declared write
        assert "Tracker._stats" in messages  # comment-declared field
        assert "module global '_TABLE'" in messages  # comment-declared global
        assert len([f for f in found if f.suppressed]) == 1

    def test_clean_fixture(self):
        assert lint_fixture("rpr013_clean.py") == []

    def test_holds_lock_method_is_trusted(self):
        findings = by_rule(lint_fixture("rpr013.py"), "RPR013")
        assert not any("_drain_locked" in f.message for f in findings)

    def test_init_is_exempt(self):
        findings = by_rule(lint_fixture("rpr013.py"), "RPR013")
        assert not any("__init__" in f.message for f in findings)


class TestRpr014LockOrder:
    def test_true_positives(self):
        found = by_rule(lint_fixture("rpr014.py"), "RPR014")
        messages = " | ".join(f.message for f in found)
        # Lexical ABBA inversion.
        assert "Inverted._a_lock -> Inverted._b_lock" in messages
        # Inversion only visible through the call graph.
        assert "ThroughCalls" in messages
        # Same-rank nesting (the merge(self, other) hazard).
        assert "SameRank._lock" in messages and "same-rank" in messages
        assert len(found) == 3

    def test_clean_fixture(self):
        assert lint_fixture("rpr014_clean.py") == []

    def test_cross_file_inversion(self, tmp_path):
        """The project rule sees the cycle even when the two paths live
        in different modules sharing module-level locks."""
        (tmp_path / "mod_a.py").write_text(
            "from locks import FIRST_LOCK, SECOND_LOCK\n\n\n"
            "def forward():\n"
            "    with FIRST_LOCK:\n"
            "        with SECOND_LOCK:\n"
            "            pass\n"
        )
        (tmp_path / "mod_b.py").write_text(
            "from locks import FIRST_LOCK, SECOND_LOCK\n\n\n"
            "def backward():\n"
            "    with SECOND_LOCK:\n"
            "        with FIRST_LOCK:\n"
            "            pass\n"
        )
        report = LintEngine(rules=concurrency_rules()).lint_paths(
            [tmp_path]
        )
        # Bare module-level lock names are module-scoped ranks, so the
        # two files only collide when the names resolve identically;
        # same-file inversion is the guaranteed detection.
        (tmp_path / "mod_c.py").write_text(
            "import threading\n\n"
            "first_lock = threading.Lock()\n"
            "second_lock = threading.Lock()\n\n\n"
            "def forward():\n"
            "    with first_lock:\n"
            "        with second_lock:\n"
            "            pass\n\n\n"
            "def backward():\n"
            "    with second_lock:\n"
            "        with first_lock:\n"
            "            pass\n"
        )
        report = LintEngine(rules=concurrency_rules()).lint_paths(
            [tmp_path]
        )
        assert any(f.rule == "RPR014" for f in report.active)


class TestRpr015ResourceLifetime:
    def test_true_positives(self):
        found = by_rule(lint_fixture("rpr015.py"), "RPR015")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 4
        messages = " | ".join(f.message for f in active)
        assert "never_closed" in messages
        assert "closed only on the success path" in messages
        assert "SharedMemory" in messages
        assert "discarded_handle" in messages
        assert len([f for f in found if f.suppressed]) == 1

    def test_clean_fixture(self):
        assert lint_fixture("rpr015_clean.py") == []


class TestLandedTreeIsConcurrencyClean:
    def test_src_tree_has_no_failing_concurrency_findings(self):
        """The annotated tree passes RPR013-015 with no baseline debt.

        The only non-failing finding allowed is the documented noqa
        waiver on the double-checked fast path of pool.get.
        """
        root = Path(__file__).resolve().parents[2] / "src"
        report = LintEngine(rules=concurrency_rules()).lint_paths([root])
        assert report.files_checked > 50
        rendered = "\n".join(f.render() for f in report.active)
        assert report.active == [], f"concurrency regressions:\n{rendered}"
        waived = [f for f in report.suppressed if f.rule == "RPR013"]
        waived_paths = sorted({Path(f.path).name for f in waived})
        assert waived_paths == ["pool.py"]
