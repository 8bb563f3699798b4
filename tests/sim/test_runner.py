"""Tests for repro.sim.runner: the evaluation sweep driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LocalizationError
from repro.sim.dataset import build_dataset
from repro.sim.runner import evaluate, evaluate_anchor_subsets
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point


class PerfectOracle:
    """A localizer that returns the ground truth (for runner testing)."""

    def locate(self, observations, keep_map=True):
        class Result:
            position = observations.ground_truth

        return Result()


class FixedGuess:
    def __init__(self, point):
        self._point = point

    def locate(self, observations, keep_map=True):
        guess = self._point

        class Result:
            position = guess

        return Result()


class AlwaysFails:
    def locate(self, observations, keep_map=True):
        raise LocalizationError("nope")


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(open_room_testbed(), num_positions=5, seed=13)


class TestEvaluate:
    def test_oracle_zero_error(self, dataset):
        run = evaluate(PerfectOracle(), dataset, label="oracle")
        assert run.stats().median_m() == 0.0
        assert run.num_failed == 0

    def test_fixed_guess_errors_match_geometry(self, dataset):
        guess = Point(0.0, 0.0)
        run = evaluate(FixedGuess(guess), dataset)
        for record in run.records:
            assert record.error_m == pytest.approx(
                (record.truth - guess).norm()
            )

    def test_failures_recorded_not_raised(self, dataset):
        run = evaluate(AlwaysFails(), dataset)
        assert run.num_failed == len(dataset)
        stats = run.stats(failure_error_m=7.0)
        assert stats.median_m() == 7.0

    def test_transform_applied(self, dataset):
        seen = []

        class Spy:
            def locate(self, observations, keep_map=True):
                seen.append(observations.num_antennas)

                class Result:
                    position = observations.ground_truth

                return Result()

        evaluate(Spy(), dataset, transform=lambda o: o.select_antennas(2))
        assert set(seen) == {2}

    def test_limit(self, dataset):
        run = evaluate(PerfectOracle(), dataset, limit=2)
        assert len(run.records) == 2

    def test_limit_zero_means_no_entries(self, dataset):
        run = evaluate(PerfectOracle(), dataset, limit=0)
        assert run.records == []

    def test_limit_none_means_all_entries(self, dataset):
        run = evaluate(PerfectOracle(), dataset, limit=None)
        assert len(run.records) == len(dataset)

    def test_errors_list_matches_records(self, dataset):
        run = evaluate(FixedGuess(Point(1, 1)), dataset)
        assert len(run.errors()) == len(run.records)

    def test_negative_limit_rejected(self, dataset):
        # limit=-1 used to slice observations[:-1], silently evaluating
        # all-but-the-last entry; the documented contract is "0 means
        # none", so negatives must raise.
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="limit must be >= 0"):
            evaluate(PerfectOracle(), dataset, limit=-1)
        with pytest.raises(ConfigurationError, match="limit must be >= 0"):
            evaluate(PerfectOracle(), dataset, limit=-len(dataset))


class TestParallelEvaluate:
    def test_records_identical_to_serial(self, dataset):
        guess = Point(0.2, -0.4)
        serial = evaluate(FixedGuess(guess), dataset)
        parallel = evaluate(FixedGuess(guess), dataset, workers=4)
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in parallel.records
        ]
        assert [r.truth for r in serial.records] == [
            r.truth for r in parallel.records
        ]

    def test_failures_preserved_in_order(self, dataset):
        run = evaluate(AlwaysFails(), dataset, workers=3)
        assert run.num_failed == len(dataset)
        assert run.failure_reasons() == ["nope"] * len(dataset)

    def test_invalid_worker_count(self, dataset):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            evaluate(PerfectOracle(), dataset, workers=0)
        with pytest.raises(ConfigurationError):
            evaluate(PerfectOracle(), dataset, workers=-2)

    def test_worker_metrics_merged(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(PerfectOracle(), dataset, workers=3)
        assert obs.metrics.get("eval.fixes_total").value == len(dataset)
        assert obs.metrics.get("eval.fix_latency_s").count == len(dataset)

    def test_worker_failure_counters_merged(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(AlwaysFails(), dataset, workers=4)
        counter = obs.metrics.get("eval.failures.LocalizationError")
        assert counter is not None and counter.value == len(dataset)

    def test_fix_spans_recorded_from_worker_threads(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(PerfectOracle(), dataset, workers=2, label="par")
        fixes = [s for s in obs.tracer.finished() if s.name == "fix"]
        assert len(fixes) == len(dataset)
        assert {s.attributes["index"] for s in fixes} == set(
            range(len(dataset))
        )

    def test_anchor_subsets_parallel_matches_serial(self, dataset):
        serial = evaluate_anchor_subsets(
            FixedGuess(Point(0.1, 0.1)), dataset, subset_size=3
        )
        parallel = evaluate_anchor_subsets(
            FixedGuess(Point(0.1, 0.1)), dataset, subset_size=3, workers=4
        )
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in parallel.records
        ]

    def test_anchor_subsets_limit_zero(self, dataset):
        run = evaluate_anchor_subsets(
            PerfectOracle(), dataset, subset_size=3, limit=0
        )
        assert run.records == []

    def test_anchor_subsets_negative_limit_rejected(self, dataset):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="limit must be >= 0"):
            evaluate_anchor_subsets(
                PerfectOracle(), dataset, subset_size=3, limit=-1
            )



class FailsForSmallSubsets:
    """Succeeds on the full anchor set, raises on any strict subset."""

    def __init__(self, full_size, point):
        self._full_size = full_size
        self._point = point

    def locate(self, observations, keep_map=True):
        if observations.num_anchors < self._full_size:
            raise LocalizationError(
                f"only {observations.num_anchors} anchors"
            )
        guess = self._point

        class Result:
            position = guess

        return Result()


class TestFailureReasons:
    def test_failure_reason_attached(self, dataset):
        run = evaluate(AlwaysFails(), dataset)
        assert all(r.failure_reason == "nope" for r in run.records)
        assert run.failure_reasons() == ["nope"] * len(dataset)

    def test_success_has_no_reason(self, dataset):
        run = evaluate(PerfectOracle(), dataset)
        assert run.failure_reasons() == [None] * len(dataset)

    def test_reason_round_trips_through_stats(self, dataset):
        run = evaluate(AlwaysFails(), dataset)
        before = run.failure_reasons()
        run.stats(failure_error_m=5.0)  # must not mutate the records
        assert run.failure_reasons() == before
        assert [r.error_m for r in run.records] == [float("inf")] * len(
            dataset
        )

    def test_failures_counted_by_exception_type(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(AlwaysFails(), dataset)
        counter = obs.metrics.get("eval.failures.LocalizationError")
        assert counter is not None and counter.value == len(dataset)

    def test_fix_latency_histogram_populated(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(PerfectOracle(), dataset)
        latency = obs.metrics.get("eval.fix_latency_s")
        assert latency.count == len(dataset)
        assert latency.percentile(50) <= latency.percentile(95)
        assert obs.metrics.get("eval.fixes_total").value == len(dataset)

    def test_fix_spans_recorded(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(PerfectOracle(), dataset, label="oracle")
        fixes = [s for s in obs.tracer.finished() if s.name == "fix"]
        assert len(fixes) == len(dataset)
        assert fixes[0].attributes["label"] == "oracle"


class TestAnchorSubsets:
    def test_oracle_still_zero(self, dataset):
        run = evaluate_anchor_subsets(PerfectOracle(), dataset, subset_size=3)
        assert run.stats().median_m() == 0.0

    def test_subset_sizes_passed_down(self, dataset):
        sizes = []

        class Spy:
            def locate(self, observations, keep_map=True):
                sizes.append(observations.num_anchors)

                class Result:
                    position = observations.ground_truth

                return Result()

        evaluate_anchor_subsets(Spy(), dataset, subset_size=3, limit=1)
        # 3 subsets of size 3 containing the master, out of 4 anchors.
        assert sizes == [3, 3, 3]

    def test_two_anchor_subsets(self, dataset):
        run = evaluate_anchor_subsets(
            PerfectOracle(), dataset, subset_size=2, limit=2
        )
        assert len(run.records) == 2

    def test_no_estimate_leak_when_all_subsets_fail(self, dataset):
        run = evaluate_anchor_subsets(
            AlwaysFails(), dataset, subset_size=3, limit=2
        )
        for record in run.records:
            assert record.estimate is None
            assert record.error_m == float("inf")
            assert record.failure_reason == "nope"
        assert run.num_failed == 2

    def test_aggregate_record_has_no_single_estimate(self, dataset):
        # Subsets disagree (FixedGuess vs truth distances differ per
        # subset only through the shared guess -- use a localizer whose
        # error varies per subset instead): the oracle gives identical
        # zero errors, so the mean equals each subset error and an
        # estimate IS reported; a fixed guess gives equal errors too.
        # Build a localizer with per-call jitter to force disagreement.
        class Drifting:
            def __init__(self):
                self.calls = 0

            def locate(self, observations, keep_map=True):
                self.calls += 1
                offset = 0.1 * self.calls
                guess = Point(offset, 0.0)

                class Result:
                    position = guess

                return Result()

        run = evaluate_anchor_subsets(
            Drifting(), dataset, subset_size=3, limit=1
        )
        record = run.records[0]
        # Three different subset errors: the mean matches none of them,
        # so no single subset's estimate may masquerade as "the" fix.
        assert record.estimate is None
        assert np.isfinite(record.error_m)
        assert run.num_failed == 0

    def test_single_surviving_subset_estimate_is_reported(self, dataset):
        # One subset (the full set is never evaluated here) succeeds:
        # subset_size equals the anchor count, so there is exactly one
        # subset and its estimate must be reported as-is.
        guess = Point(0.3, -0.2)
        full = dataset.observations[0].num_anchors
        run = evaluate_anchor_subsets(
            FixedGuess(guess), dataset, subset_size=full, limit=1
        )
        record = run.records[0]
        assert record.estimate is not None
        assert record.estimate.x == guess.x
        assert record.error_m == pytest.approx(
            (record.truth - guess).norm()
        )

    def test_subset_failures_counted(self, dataset):
        from repro.obs import observed

        full = dataset.observations[0].num_anchors
        localizer = FailsForSmallSubsets(full, Point(0, 0))
        with observed() as obs:
            run = evaluate_anchor_subsets(
                localizer, dataset, subset_size=full - 1, limit=2
            )
        # All (full-1)-sized subsets fail: 3 subsets per entry, 2 entries.
        assert obs.metrics.get("eval.subset_failures").value == 6
        assert all(r.error_m == float("inf") for r in run.records)
        assert all(
            r.failure_reason is not None for r in run.records
        )


class TestParallelSpanPropagation:
    def test_fix_spans_parent_under_evaluate_root(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            with obs.span("session") as session:
                evaluate(PerfectOracle(), dataset, workers=3)
        spans = obs.tracer.finished()
        roots = [s for s in spans if s.name == "evaluate"]
        assert len(roots) == 1
        assert roots[0].parent_id == session.span_id
        fixes = [s for s in spans if s.name == "fix"]
        assert len(fixes) == len(dataset)
        # Per-fix spans merge back under the evaluate root even though
        # workers ran them: the parent id crossed the pool boundary as a
        # SpanHandle, not as the live Span object.
        assert {s.parent_id for s in fixes} == {roots[0].span_id}
        assert {s.depth for s in fixes} == {roots[0].depth + 1}
        # Workers really ran the fixes, yet parentage survived the hop.
        assert len({s.thread for s in fixes}) >= 1

    def test_serial_and_parallel_same_span_tree_shape(self, dataset):
        from repro.obs import observed

        def tree(workers):
            with observed() as obs:
                with obs.span("session"):
                    evaluate(PerfectOracle(), dataset, workers=workers)
            return sorted(
                (s.name, s.depth)
                for s in obs.tracer.finished()
            )

        assert tree(1) == tree(4)


class TestDiagnosticsCapture:
    @pytest.fixture(scope="class")
    def bloc(self):
        from repro import BlocConfig, BlocLocalizer

        return BlocLocalizer(config=BlocConfig(grid_resolution_m=0.15))

    @pytest.fixture(scope="class")
    def small_dataset(self):
        return build_dataset(
            open_room_testbed(), num_positions=3, seed=21
        )

    def test_stub_localizer_collects_but_writes_nothing(
        self, dataset, tmp_path
    ):
        from repro.sim import DiagnosticsCapture

        capture = DiagnosticsCapture(directory=tmp_path, worst_n=2)
        run = evaluate(PerfectOracle(), dataset, capture=capture)
        assert run.num_failed == 0
        # Stubs expose no config/engine, so nothing can be bundled ...
        assert capture.written == []
        assert list(tmp_path.iterdir()) == []
        # ... but collection itself still happened (without diagnostics).
        assert capture.diagnostics_for(0) is None

    def test_bloc_writes_worst_n_bundles(
        self, bloc, small_dataset, tmp_path
    ):
        from repro.obs import load_fix_bundle
        from repro.sim import DiagnosticsCapture

        capture = DiagnosticsCapture(directory=tmp_path, worst_n=2)
        run = evaluate(bloc, small_dataset, label="BLoc", capture=capture)
        assert len(capture.written) == 2
        errors = [r.error_m for r in run.records]
        worst = sorted(
            range(len(errors)), key=lambda i: errors[i], reverse=True
        )[:2]
        for path in capture.written:
            assert path.exists()
            bundle = load_fix_bundle(path)
            assert bundle.fix_index in worst
            assert bundle.label == "BLoc"
            assert bundle.diagnostics is not None
            assert bundle.diagnostics.stage_reached == "located"
            assert bundle.error_m == pytest.approx(
                errors[bundle.fix_index]
            )

    def test_capture_feeds_health_monitor_every_fix(
        self, bloc, small_dataset
    ):
        from repro.obs import AnchorHealthMonitor
        from repro.sim import DiagnosticsCapture

        monitor = AnchorHealthMonitor()
        capture = DiagnosticsCapture(health=monitor)
        evaluate(bloc, small_dataset, capture=capture)
        rows = monitor.summary_rows()
        assert len(rows) == small_dataset.observations[0].num_anchors
        assert all(row[1] == str(len(small_dataset)) for row in rows)

    def test_failed_fixes_bundled_with_reason(
        self, bloc, small_dataset, tmp_path
    ):
        from repro.obs import load_fix_bundle
        from repro.sim import DiagnosticsCapture

        class BrokenBloc:
            """Real BLoc config/engine, but every fix fails."""

            def __init__(self, inner):
                self.config = inner.config
                self.engine = inner.engine
                self.bounds = getattr(inner, "bounds", None)

            def locate(self, observations, keep_map=True,
                       diagnostics=False):
                raise LocalizationError("forced failure")

        capture = DiagnosticsCapture(
            directory=tmp_path, worst_n=0, capture_failures=True
        )
        run = evaluate(
            BrokenBloc(bloc), small_dataset, label="broken",
            capture=capture,
        )
        assert run.num_failed == len(small_dataset)
        assert len(capture.written) == len(small_dataset)
        bundle = load_fix_bundle(capture.written[0])
        assert bundle.failure_reason == "forced failure"
        assert bundle.estimate_xy is None
        assert bundle.error_m is None

    def test_parallel_capture_matches_serial(
        self, bloc, small_dataset, tmp_path
    ):
        from repro.sim import DiagnosticsCapture

        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = DiagnosticsCapture(directory=serial_dir, worst_n=1)
        parallel = DiagnosticsCapture(directory=parallel_dir, worst_n=1)
        evaluate(bloc, small_dataset, label="x", capture=serial)
        evaluate(
            bloc, small_dataset, label="x", capture=parallel, workers=3
        )
        assert [p.name for p in serial.written] == [
            p.name for p in parallel.written
        ]
        assert (
            serial.written[0].read_bytes()
            == parallel.written[0].read_bytes()
        )

    def test_bundle_counter_incremented_under_observer(
        self, bloc, small_dataset, tmp_path
    ):
        from repro.obs import observed
        from repro.sim import DiagnosticsCapture

        capture = DiagnosticsCapture(directory=tmp_path, worst_n=2)
        with observed() as obs:
            evaluate(bloc, small_dataset, capture=capture)
        counter = obs.metrics.get("diag.bundles_written")
        assert counter is not None and counter.value == 2
