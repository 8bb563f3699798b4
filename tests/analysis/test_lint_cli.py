"""`repro lint` CLI: exit codes, JSON report artifact, rule listing."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main

CLEAN = "x = 1\n"
DIRTY = "def f(x):\n    return x == 0.5\n"
BROKEN = "def broken(:\n"
LEAKY = "def leak(path):\n    fh = open(path)\n    return fh.read()\n"
RACY = (
    "import threading\n"
    "from repro.analysis.runtime_locks import guarded_by\n\n\n"
    '@guarded_by("_lock", "_count")\n'
    "class Racy:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._count = 0\n\n"
    "    def bump(self):\n"
    "        self._count += 1\n"
)


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main(["lint", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 failing finding(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        assert main(["lint", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "RPR006" in captured.out
        assert "1 failing finding(s)" in captured.err

    def test_parse_error_exits_two(self, tmp_path):
        (tmp_path / "broken.py").write_text(BROKEN)
        assert main(["lint", str(tmp_path)]) == 2

    def test_json_output_artifact(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        artifact = tmp_path / "report.json"
        code = main(
            [
                "lint",
                str(tmp_path / "bad.py"),
                "--format",
                "json",
                "--output",
                str(artifact),
            ]
        )
        assert code == 1
        data = json.loads(artifact.read_text())
        assert data["format"] == "repro-lint"
        assert data["counts_by_rule"] == {"RPR006": 1}
        stdout = json.loads(capsys.readouterr().out)
        assert stdout == data

    def test_select_limits_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY)
        assert main(["lint", str(tmp_path), "--select", "RPR009"]) == 0
        assert main(["lint", str(tmp_path), "--select", "rpr006"]) == 1

    def test_ignore_skips_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY)
        assert main(["lint", str(tmp_path), "--ignore", "RPR006"]) == 0

    def test_unknown_select_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN)
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", str(tmp_path), "--select", "NOPE999"])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (f"RPR{i:03d}" for i in range(1, 11)):
            assert rule_id in out

    def test_suppressed_shown_on_request(self, tmp_path, capsys):
        (tmp_path / "waived.py").write_text(
            "def f(x):\n    return x == 0.5  # repro: noqa[RPR006]\n"
        )
        assert main(["lint", str(tmp_path), "--show-suppressed"]) == 0
        assert "[suppressed]" in capsys.readouterr().out


class TestConcurrencyLint:
    def test_on_by_default(self, tmp_path):
        (tmp_path / "leaky.py").write_text(LEAKY)
        assert main(["lint", str(tmp_path)]) == 1

    def test_planted_violation_fails(self, tmp_path, capsys):
        """The concurrency rules run by default: a guarded-field race
        and a leaked handle each fail a plain ``repro lint``."""
        (tmp_path / "leaky.py").write_text(LEAKY)
        (tmp_path / "racy.py").write_text(RACY)
        code = main(["lint", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "RPR013" in captured.out
        assert "RPR015" in captured.out
        assert "2 failing finding(s)" in captured.err

    def test_select_enables_concurrency_rule_without_flag(self, tmp_path):
        (tmp_path / "leaky.py").write_text(LEAKY)
        assert main(["lint", str(tmp_path), "--select", "RPR015"]) == 1

    def test_list_rules_includes_concurrency(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR013", "RPR015"):
            assert rule_id in out
        assert "RPR014" not in out

    def test_noqa_waives_concurrency_finding(self, tmp_path):
        (tmp_path / "waived.py").write_text(
            "def leak(path):\n"
            "    fh = open(path)  # repro: noqa[RPR015] -- handed to caller\n"
            "    return fh.read()\n"
        )
        assert main(["lint", str(tmp_path)]) == 0

    def test_blanket_noqa_covers_concurrency_rules(self, tmp_path):
        (tmp_path / "waived.py").write_text(
            "def leak(path):\n"
            "    fh = open(path)  # repro: noqa -- blanket\n"
            "    return fh.read()\n"
        )
        assert main(["lint", str(tmp_path)]) == 0
