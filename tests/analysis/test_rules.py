"""One fixture file per RPR rule: each rule catches its hazard and the
``# repro: noqa[RULE]`` comment suppresses it."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.linting import LintEngine
from repro.analysis.rules import ALL_RULES, MissingThreadSafetyTag

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, rules=None, rel=None):
    """Lint a fixture *as if* it lived under ``src/repro/core/``."""
    engine = LintEngine(rules=rules) if rules is not None else LintEngine()
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return engine.lint_source(
        source,
        path=str(FIXTURES / name),
        rel=rel or f"src/repro/core/{name}",
    )


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


class TestRuleFixtures:
    def test_every_rule_has_a_fixture(self):
        for cls in ALL_RULES:
            name = f"{cls.id.lower()}.py"
            assert (FIXTURES / name).is_file(), f"missing fixture {name}"

    def test_rpr001_complex_dtype_loss(self):
        found = by_rule(lint_fixture("rpr001.py"), "RPR001")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 4
        messages = " | ".join(f.message for f in active)
        assert "np.float32()" in messages
        assert "np.abs(csi)" in messages
        assert "alpha.astype" in messages
        assert "dtype=np.complex64" in messages
        suppressed = [f for f in found if f.suppressed]
        assert len(suppressed) == 1

    def test_rpr002_nondeterminism(self):
        found = by_rule(lint_fixture("rpr002.py"), "RPR002")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 3
        messages = " | ".join(f.message for f in active)
        assert "np.random.normal" in messages
        assert "random.random" in messages
        assert "time.time()" in messages
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr003_unlocked_mutation(self):
        found = by_rule(lint_fixture("rpr003.py"), "RPR003")
        active = [f for f in found if not f.suppressed]
        # item assignment + .append(); the `with _LOCK:` site is exempt.
        assert len(active) == 2
        assert any("item assignment" in f.message for f in active)
        assert any(".append()" in f.message for f in active)
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr004_unbalanced_span(self):
        found = by_rule(lint_fixture("rpr004.py"), "RPR004")
        active = [f for f in found if not f.suppressed]
        # bare-statement span + parked-in-variable span; `with` and
        # `return` usages are exempt.
        assert len(active) == 2
        assert any("discarded" in f.message for f in active)
        assert any("parked" in f.message for f in active)
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr005_metric_names(self):
        found = by_rule(lint_fixture("rpr005.py"), "RPR005")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 4
        messages = " | ".join(f.message for f in active)
        assert "'bogus' is not registered" in messages
        assert "not lower_snake_case" in messages
        assert "at least `namespace.metric`" in messages
        assert "'Bogus' is not registered" in messages
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr006_float_equality(self):
        found = by_rule(lint_fixture("rpr006.py"), "RPR006")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 2
        assert {f.line for f in active} == {5, 7}
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr007_mutable_defaults(self):
        found = by_rule(lint_fixture("rpr007.py"), "RPR007")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 2
        assert all("mutable default" in f.message for f in active)
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr008_overbroad_except(self):
        found = by_rule(lint_fixture("rpr008.py"), "RPR008")
        active = [f for f in found if not f.suppressed]
        # bare except, except Exception, BaseException inside a tuple.
        assert len(active) == 3
        messages = " | ".join(f.message for f in active)
        assert "bare `except:`" in messages
        assert "except Exception" in messages
        assert "except BaseException" in messages
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr009_magic_constants(self):
        found = by_rule(lint_fixture("rpr009.py"), "RPR009")
        active = [f for f in found if not f.suppressed]
        assert len(active) == 2
        messages = " | ".join(f.message for f in active)
        assert "SPEED_OF_LIGHT" in messages
        assert "BLE_BAND_START_HZ" in messages
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr009_skips_constants_module(self):
        source = "SPEED_OF_LIGHT = 299792458.0\n"
        engine = LintEngine()
        findings = engine.lint_source(
            source, rel="src/repro/constants.py"
        )
        assert by_rule(findings, "RPR009") == []

    def test_rpr010_thread_safety_tags(self):
        rule = MissingThreadSafetyTag(
            required={
                "fixtures/rpr010.py": (
                    "Cache.entry_for",
                    "Cache.tagged",
                    "Cache.waived",
                )
            }
        )
        found = by_rule(
            lint_fixture(
                "rpr010.py",
                rules=[rule],
                rel="tests/analysis/fixtures/rpr010.py",
            ),
            "RPR010",
        )
        active = [f for f in found if not f.suppressed]
        assert len(active) == 1
        assert "Cache.entry_for" in active[0].message
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr012_untraced_handlers(self):
        found = by_rule(
            lint_fixture("rpr012.py", rel="src/repro/service/app.py"),
            "RPR012",
        )
        active = [f for f in found if not f.suppressed]
        assert len(active) == 2
        messages = " | ".join(f.message for f in active)
        assert "handle_untraced" in messages
        assert "handle_span_without_trace" in messages
        assert len([f for f in found if f.suppressed]) == 1

    def test_rpr012_quiet_outside_handler_files(self):
        source = "def handle_x(raw):\n    return 200, {}, {}\n"
        findings = LintEngine().lint_source(
            source, rel="src/repro/service/ratelimit.py"
        )
        assert by_rule(findings, "RPR012") == []


class TestScoping:
    """Scoped rules stay quiet outside their directories."""

    @pytest.mark.parametrize(
        "rel, expected",
        [("src/repro/core/x.py", 1), ("src/repro/viz/x.py", 0)],
    )
    def test_rpr001_scope(self, rel, expected):
        source = "import numpy as np\n\n\ndef f(csi):\n    return np.abs(csi)\n"
        findings = LintEngine().lint_source(source, rel=rel)
        assert len(by_rule(findings, "RPR001")) == expected

    @pytest.mark.parametrize(
        "rel, expected",
        [("src/repro/sim/x.py", 1), ("src/repro/viz/x.py", 0)],
    )
    def test_rpr002_scope(self, rel, expected):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        findings = LintEngine().lint_source(source, rel=rel)
        assert len(by_rule(findings, "RPR002")) == expected

    def test_unscoped_rule_applies_everywhere(self):
        source = "def f(x):\n    return x == 0.5\n"
        findings = LintEngine().lint_source(source, rel="scripts/tool.py")
        assert len(by_rule(findings, "RPR006")) == 1


class TestLandedTreeIsClean:
    def test_src_tree_has_no_active_findings(self):
        root = Path(__file__).resolve().parents[2] / "src"
        report = LintEngine().lint_paths([root])
        assert report.files_checked > 50
        rendered = "\n".join(f.render() for f in report.active)
        assert report.active == [], f"lint regressions:\n{rendered}"
