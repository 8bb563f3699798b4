"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_floorplan(self, capsys):
        assert main(["floorplan", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "M" in out and "#" in out

    def test_throughput(self, capsys):
        assert main(["throughput", "--sweeps", "2"]) == 0
        out = capsys.readouterr().out
        assert "airtime" in out

    def test_throughput_infeasible_rate_errors(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["throughput", "--sweeps", "10"])

    def test_evaluate_small(self, capsys):
        assert main(["evaluate", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "BLoc" in out and "median" in out

    def test_demo(self, capsys):
        assert main(["demo", "-x", "0.5", "-y", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "error" in out
        assert "T" in out or "E" in out


class TestCliObservability:
    def test_demo_trace_exports_parseable_ndjson(self, capsys, tmp_path):
        from repro.obs import get_observer, load_ndjson

        path = tmp_path / "demo.ndjson"
        assert main(["demo", "--trace", str(path)]) == 0
        records = load_ndjson(path)
        assert records[0]["type"] == "meta"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {
            "correct", "map_likelihood", "find_peaks", "score_peaks"
        } <= span_names
        out = capsys.readouterr().out
        assert "span timings" in out and "metrics" in out
        # The observer must be uninstalled again after the command.
        assert get_observer().enabled is False

    def test_evaluate_trace_and_metrics(self, capsys, tmp_path):
        from repro.obs import load_ndjson

        path = tmp_path / "eval.ndjson"
        assert main(
            ["evaluate", "-n", "2", "--trace", str(path), "--metrics"]
        ) == 0
        records = load_ndjson(path)
        spans = [r for r in records if r["type"] == "span"]
        fix_ids = {s["span_id"] for s in spans if s["name"] == "fix"}
        assert fix_ids  # one root span per fix
        per_fix_children = {
            s["name"] for s in spans if s["parent_id"] in fix_ids
        }
        assert len(per_fix_children) >= 4
        metric_names = {
            r["name"] for r in records if r["type"] in (
                "counter", "gauge", "histogram"
            )
        }
        assert "ble.crc_failures" in metric_names
        assert "peaks.candidates" in metric_names
        assert "eval.fix_latency_s" in metric_names
        out = capsys.readouterr().out
        assert "ble.crc_failures" in out
        assert "eval.fix_latency_s" in out

    def test_evaluate_without_flags_stays_unobserved(self, capsys):
        from repro.obs import get_observer

        assert main(["evaluate", "-n", "2", "--no-ledger"]) == 0
        out = capsys.readouterr().out
        assert "span timings" not in out
        assert get_observer().enabled is False

    def test_evaluate_profile_exports_flamegraph(self, capsys, tmp_path):
        prefix = tmp_path / "prof"
        assert main(
            ["evaluate", "-n", "2", "--no-ledger",
             "--profile", str(prefix)]
        ) == 0
        folded = (tmp_path / "prof.folded").read_text(encoding="utf-8")
        for line in folded.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
        assert any(
            line.startswith("evaluate;") for line in folded.splitlines()
        )
        # The folded file is the one profile artifact.
        assert [p.name for p in tmp_path.iterdir()] == ["prof.folded"]
        out = capsys.readouterr().out
        assert f"-> {prefix}.folded\n" in out


class TestCliLedgerAndSlo:
    def _evaluate(self, ledger_path, n="2"):
        return main(
            ["evaluate", "-n", n, "--ledger", str(ledger_path)]
        )

    def test_evaluate_appends_run_record(self, capsys, tmp_path):
        from repro.obs import RunLedger

        path = tmp_path / "runs.ndjson"
        assert self._evaluate(path) == 0
        (record,) = RunLedger(path).load()
        assert record["type"] == "run"
        assert record["command"] == "evaluate"
        assert record["host"]["cpu_count"] >= 1
        assert "fix" in record["spans"]
        assert any(
            key.endswith(".median_m") for key in record["results"]
        )
        assert "[obs] run" in capsys.readouterr().out

    def test_obs_runs_diff_report(self, capsys, tmp_path):
        path = tmp_path / "runs.ndjson"
        assert self._evaluate(path) == 0
        assert self._evaluate(path) == 0
        capsys.readouterr()

        assert main(["obs", "runs", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run_id" in out and out.count("evaluate") == 2

        assert main(
            ["obs", "diff", "--ledger", str(path), "--", "-2", "-1"]
        ) == 0
        out = capsys.readouterr().out
        assert "A:" in out and "B:" in out
        assert "result:bloc.median_m" in out

        # The refs default to the latest pair.
        assert main(["obs", "diff", "--ledger", str(path)]) == 0
        assert capsys.readouterr().out == out

        # The runs listing plus the default diff is the whole report.
        with pytest.raises(SystemExit):
            main(["obs", "report", "--ledger", str(path)])

    def test_obs_runs_empty_ledger(self, capsys, tmp_path):
        path = tmp_path / "absent.ndjson"
        assert main(["obs", "runs", "--ledger", str(path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_obs_diff_bad_ref_errors(self, capsys, tmp_path):
        path = tmp_path / "runs.ndjson"
        assert self._evaluate(path) == 0
        capsys.readouterr()
        assert main(
            ["obs", "diff", "--ledger", str(path), "zzz", "-1"]
        ) == 2
        assert "error" in capsys.readouterr().err

    SLO_SPEC = """\
[slo.warm_fix_s]
source = "bench"
key = "steering_cache.warm_s_per_fix"
max = 0.1

[slo.cache_hit_rate]
source = "ledger"
kind = "ratio"
num = "metric:engine.cache_hits"
den = ["metric:engine.cache_hits", "metric:engine.cache_misses"]
min = 0.5
"""

    def test_obs_slo_gate_passes_and_fails(self, capsys, tmp_path):
        import json

        path = tmp_path / "runs.ndjson"
        assert self._evaluate(path) == 0
        capsys.readouterr()
        spec_path = tmp_path / "slo.toml"
        spec_path.write_text(self.SLO_SPEC, encoding="utf-8")
        bench = {
            "benchmark": "localize",
            "steering_cache": {"warm_s_per_fix": 0.01},
        }
        bench_path = tmp_path / "bench.json"
        bench_path.write_text(json.dumps(bench), encoding="utf-8")
        gate = [
            "obs", "slo", "--ledger", str(path),
            "--spec", str(spec_path), "--bench", str(bench_path),
        ]
        assert main(gate) == 0
        out = capsys.readouterr().out
        assert "SLO gate: 2 ok, 0 failed, 0 skipped" in out

        bench["steering_cache"]["warm_s_per_fix"] = 5.0
        bench_path.write_text(json.dumps(bench), encoding="utf-8")
        assert main(gate) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_obs_slo_missing_bench_errors(self, capsys, tmp_path):
        assert main(
            ["obs", "slo", "--ledger", str(tmp_path / "runs.ndjson"),
             "--bench", str(tmp_path / "absent.json")]
        ) == 2
        assert "error" in capsys.readouterr().err

    MERGED_SLO_SPEC = """\
[slo.warm_fix_s]
source = "bench"
key = "steering_cache.warm_s_per_fix"
max = 0.1

[slo.service_p95_s]
source = "bench"
key = "service.p95_s"
max = 1.0
"""

    def test_obs_slo_merges_repeated_bench_payloads(
        self, capsys, tmp_path
    ):
        import json

        spec_path = tmp_path / "slo.toml"
        spec_path.write_text(self.MERGED_SLO_SPEC, encoding="utf-8")
        localize = tmp_path / "bench_localize.json"
        localize.write_text(
            json.dumps({"steering_cache": {"warm_s_per_fix": 0.01}}),
            encoding="utf-8",
        )
        service = tmp_path / "bench_service.json"
        service.write_text(
            json.dumps({"service": {"p95_s": 0.05}}), encoding="utf-8"
        )
        assert main(
            ["obs", "slo", "--ledger", str(tmp_path / "runs.ndjson"),
             "--spec", str(spec_path),
             "--bench", str(localize), "--bench", str(service)]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO gate: 2 ok, 0 failed, 0 skipped" in out


class TestCliDiagnostics:
    def test_evaluate_writes_bundles_and_diag_replays(
        self, capsys, tmp_path
    ):
        bundle_dir = tmp_path / "bundles"
        assert (
            main(
                [
                    "evaluate",
                    "-n",
                    "3",
                    "--bundle-dir",
                    str(bundle_dir),
                    "--bundle-worst",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[diag] wrote 2 fix bundle(s)" in out
        bundles = sorted(bundle_dir.glob("*.npz"))
        assert len(bundles) == 2
        assert main(["diag", str(bundles[0]), "--explain", "--bands"]) == 0
        report = capsys.readouterr().out
        assert "fix bundle" in report
        assert (
            "bit-exact match with recorded estimate" in report
            or "matches recorded outcome" in report
        )

    def test_diag_missing_bundle_errors(self, capsys, tmp_path):
        assert main(["diag", str(tmp_path / "absent.npz")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diag_rejects_garbage_file(self, capsys, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"definitely not a bundle")
        assert main(["diag", str(junk)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_without_bundle_dir_writes_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "-n", "2"]) == 0
        assert "[diag]" not in capsys.readouterr().out
        assert list(tmp_path.glob("*.npz")) == []
