"""RPR013/RPR015: fixture behaviour, registry, and self-lint.

Each rule gets a true-positive fixture (every planted hazard fires, the
``# repro: noqa[RPR0xx]`` line suppresses) and a clean fixture (zero
findings) -- plus a self-lint over ``src/`` proving the landed tree is
concurrency-clean modulo the one documented fast-path waiver.  Lock
order has no static rule: the runtime checker owns it (see
``test_runtime_locks.py``).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.linting import LintEngine
from repro.analysis.rules import (
    ALL_RULES,
    GuardedFieldDiscipline,
    ResourceLifetime,
    default_rules,
)

FIXTURES = Path(__file__).parent / "fixtures"

CONCURRENCY_RULES = (GuardedFieldDiscipline, ResourceLifetime)


def concurrency_rules():
    return [cls() for cls in CONCURRENCY_RULES]


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
        assert [cls.id for cls in CONCURRENCY_RULES] == ["RPR013", "RPR015"]
        assert set(CONCURRENCY_RULES) <= set(ALL_RULES)
        assert "RPR014" not in {cls.id for cls in ALL_RULES}

    def test_in_default_rules(self):
        default_ids = {r.id for r in default_rules()}
        assert {"RPR013", "RPR015"} <= default_ids


class TestRpr013GuardedBy:
    def test_true_positives(self):
        found = by_rule(lint_fixture("rpr013.py"), "RPR013")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 4
        messages = " | ".join(f.message for f in active)
        assert "Tracker._count is guarded by '_lock' but read" in messages
        assert "Tracker._items" in messages  # in-place mutation
        # Stacked decorators: holding the other lock does not count.
        assert "Split._stats is guarded by '_stats_lock'" in messages
        assert "Split._total is guarded by '_lock' but written" in messages
        assert len([f for f in found if f.suppressed]) == 1

    def test_clean_fixture(self):
        assert lint_fixture("rpr013_clean.py") == []

    def test_init_is_exempt(self):
        findings = by_rule(lint_fixture("rpr013.py"), "RPR013")
        assert not any("__init__" in f.message for f in findings)


class TestRpr015ResourceLifetime:
    def test_true_positives(self):
        found = by_rule(lint_fixture("rpr015.py"), "RPR015")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 4
        messages = " | ".join(f.message for f in active)
        assert "never_closed" in messages
        assert "closed only on the success path" in messages
        assert "socket.socket(...) bound to 'sock'" in messages
        assert "discarded_handle" in messages
        assert len([f for f in found if f.suppressed]) == 1

    def test_clean_fixture(self):
        assert lint_fixture("rpr015_clean.py") == []


class TestLandedTreeIsConcurrencyClean:
    def test_src_tree_has_no_failing_concurrency_findings(self):
        """The annotated tree passes RPR013/RPR015 with no waivers.

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
