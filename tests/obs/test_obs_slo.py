"""Tests for repro.obs.slo: spec parsing, rule evaluation, gating."""

from __future__ import annotations

import copy
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.slo import (
    DEFAULT_SLO_PATH,
    SloRule,
    SloSpec,
    evaluate_slos,
    load_slo_spec,
    parse_toml_minimal,
    render_slo_results,
    slo_exit_code,
)

SPEC_TEXT = """\
# comment line
[slo.warm_fix_s]
source = "bench"
key = "steering_cache.warm_s_per_fix"
max = 0.1

[slo.hit_rate]
source = "ledger"
kind = "ratio"
num = "metric:engine.cache_hits"
den = ["metric:engine.cache_hits", "metric:engine.cache_misses"]
min = 0.5
required = false
"""


class TestMinimalTomlParser:
    def test_tables_scalars_arrays_comments(self):
        data = parse_toml_minimal(SPEC_TEXT)
        assert data["slo"]["warm_fix_s"]["max"] == 0.1
        assert data["slo"]["hit_rate"]["den"] == [
            "metric:engine.cache_hits",
            "metric:engine.cache_misses",
        ]
        assert data["slo"]["hit_rate"]["required"] is False

    def test_matches_tomllib_on_the_spec_subset(self):
        tomllib = pytest.importorskip("tomllib")
        assert parse_toml_minimal(SPEC_TEXT) == tomllib.loads(SPEC_TEXT)

    def test_bad_line_raises(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_toml_minimal("just words\n")

    def test_bad_scalar_raises(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_toml_minimal("x = nonsense\n")


class TestLoadSpec:
    def test_committed_spec_loads(self):
        # The repository slo.toml must stay inside the parser subset.
        spec = load_slo_spec()
        assert spec.rules, "committed slo.toml defines no rules"

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(SPEC_TEXT, encoding="utf-8")
        spec = load_slo_spec(path)
        by_name = {r.name: r for r in spec.rules}
        assert by_name["warm_fix_s"].max == 0.1
        assert by_name["hit_rate"].kind == "ratio"
        assert by_name["hit_rate"].required is False

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_slo_spec(tmp_path / "absent.toml")

    @pytest.mark.parametrize(
        "body",
        [
            'source = "nowhere"\nkey = "a.b"\nmax = 1\n',
            'kind = "median"\nkey = "a.b"\nmax = 1\n',
            "max = 1\n",  # value rule without key
            'kind = "ratio"\nmin = 0.5\n',  # ratio without num/den
            'key = "a.b"\n',  # no min and no max
            # A misspelt field must not silently leave the rule required.
            pytest.param(
                'key = "a.b"\nmax = 1\nrequried = false\n',
                id="unknown-field",
            ),
            # Ratio rules read ledger scalar views; a bench ratio would
            # load and then never evaluate.
            pytest.param(
                'source = "bench"\nkind = "ratio"\nnum = "a.b"\n'
                'den = ["a.b"]\nmin = 0.5\n',
                id="bench-ratio",
            ),
        ],
    )
    def test_malformed_rules_raise(self, tmp_path, body):
        path = tmp_path / "slo.toml"
        path.write_text(f"[slo.broken]\n{body}", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_slo_spec(path)

    def test_unknown_top_level_table_raises(self, tmp_path):
        # A stale [bench] table would otherwise load and gate nothing.
        path = tmp_path / "slo.toml"
        path.write_text(
            SPEC_TEXT + "\n[bench]\ntolerance = 0.25\n", encoding="utf-8"
        )
        with pytest.raises(ConfigurationError, match="bench"):
            load_slo_spec(path)


def spec_with(*rules):
    return SloSpec(rules=list(rules))


def ledger_record(results=None, metrics=()):
    return {
        "run_id": "r",
        "metrics": list(metrics),
        "spans": {},
        "results": results or {},
    }


class TestEvaluate:
    def test_bench_value_within_bounds(self):
        rule = SloRule(name="warm", source="bench",
                       key="steering_cache.warm_s_per_fix", max=0.1)
        (result,) = evaluate_slos(
            spec_with(rule),
            bench={"steering_cache": {"warm_s_per_fix": 0.02}},
        )
        assert result.status == "ok"
        assert result.value == pytest.approx(0.02)

    def test_bench_value_violating_ceiling_fails(self):
        rule = SloRule(name="warm", source="bench",
                       key="steering_cache.warm_s_per_fix", max=0.1)
        (result,) = evaluate_slos(
            spec_with(rule),
            bench={"steering_cache": {"warm_s_per_fix": 1.0}},
        )
        assert result.status == "fail"
        assert "ceiling" in result.detail

    def test_floor_violation_fails(self):
        rule = SloRule(name="rate", source="bench", key="r", min=5.0)
        (result,) = evaluate_slos(spec_with(rule), bench={"r": 1.0})
        assert result.status == "fail"
        assert "floor" in result.detail

    def test_missing_required_data_fails(self):
        rule = SloRule(name="warm", source="bench", key="absent.key",
                       max=0.1)
        (result,) = evaluate_slos(spec_with(rule), bench={})
        assert result.status == "fail"

    def test_missing_optional_data_skips(self):
        rule = SloRule(name="warm", source="bench", key="absent.key",
                       max=0.1, required=False)
        (result,) = evaluate_slos(spec_with(rule), bench={})
        assert result.status == "skip"

    def test_ledger_value_uses_newest_answering_record(self):
        rule = SloRule(name="p95", source="ledger",
                       key="result:bloc.p95_m", max=1.0)
        records = [
            ledger_record(results={"bloc.p95_m": 0.4}),
            ledger_record(results={"bloc.p95_m": 0.9}),
            ledger_record(results={}),  # newest cannot answer
        ]
        (result,) = evaluate_slos(
            spec_with(rule), ledger_records=records
        )
        assert result.status == "ok"
        assert result.value == pytest.approx(0.9)

    def test_ledger_ratio_skips_zero_denominator(self):
        rule = SloRule(
            name="hits", source="ledger", kind="ratio",
            num="metric:c.hits",
            den=("metric:c.hits", "metric:c.misses"),
            min=0.5, required=False,
        )
        zero = ledger_record(metrics=[
            {"type": "counter", "name": "c.hits", "value": 0},
            {"type": "counter", "name": "c.misses", "value": 0},
        ])
        good = ledger_record(metrics=[
            {"type": "counter", "name": "c.hits", "value": 3},
            {"type": "counter", "name": "c.misses", "value": 1},
        ])
        (result,) = evaluate_slos(
            spec_with(rule), ledger_records=[good, zero]
        )
        # Newest record divides by zero -> falls back to the older one.
        assert result.status == "ok"
        assert result.value == pytest.approx(0.75)

    def test_exit_code(self):
        ok = SloRule(name="a", source="bench", key="x", max=10)
        bad = SloRule(name="b", source="bench", key="x", max=0.1)
        results = evaluate_slos(spec_with(ok, bad), bench={"x": 1.0})
        assert [r.status for r in results] == ["ok", "fail"]
        assert slo_exit_code(results) == 1
        assert slo_exit_code(results[:1]) == 0

    def test_render_includes_verdict(self):
        rule = SloRule(name="a", source="bench", key="x", max=10)
        text = render_slo_results(
            evaluate_slos(spec_with(rule), bench={"x": 1.0})
        )
        assert "SLO gate: 1 ok, 0 failed, 0 skipped" in text
        assert render_slo_results([]) == "(no SLO rules defined)"


#: Every bench-source rule of the committed spec.  Listing them keeps a
#: threshold from leaving the gate unnoticed.
COMMITTED_BENCH_RULES = (
    "warm_fix_s",
    "warm_speedup_vs_direct",
    "serial_fixes_per_s",
    "profiler_overhead_frac",
    "service_p95_s",
)


def committed_bench():
    path = DEFAULT_SLO_PATH.parent / "BENCH_localize.json"
    return json.loads(path.read_text(encoding="utf-8"))


def set_dotted(payload, dotted, value):
    *parents, leaf = dotted.split(".")
    node = payload
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value


class TestCommittedSpec:
    def test_bench_rules_are_listed(self):
        spec = load_slo_spec()
        names = [r.name for r in spec.rules if r.source == "bench"]
        assert sorted(names) == sorted(COMMITTED_BENCH_RULES)

    def test_committed_bench_passes(self):
        results = evaluate_slos(
            load_slo_spec(), bench=committed_bench(), ledger_records=[]
        )
        failed = [(r.rule.name, r.detail) for r in results
                  if r.status == "fail"]
        assert not failed
        assert slo_exit_code(results) == 0

    @pytest.mark.parametrize("name", COMMITTED_BENCH_RULES)
    def test_planted_out_of_bound_value_fails(self, name):
        rule = {r.name: r for r in load_slo_spec().rules}[name]
        planted = (
            rule.min / 2.0 - 1.0 if rule.min is not None
            else rule.max * 2.0 + 1.0
        )
        bench = copy.deepcopy(committed_bench())
        set_dotted(bench, rule.key, planted)
        results = evaluate_slos(
            load_slo_spec(), bench=bench, ledger_records=[]
        )
        status = {r.rule.name: r.status for r in results}
        assert status[name] == "fail"
        assert slo_exit_code(results) == 1
