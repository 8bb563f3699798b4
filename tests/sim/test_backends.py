"""Tests for the evaluate() backend matrix: serial/thread/process x batch.

The process-backend stubs live at module level so they pickle under
both fork and spawn start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro import BlocConfig, BlocLocalizer
from repro.errors import ConfigurationError, LocalizationError
from repro.sim import DiagnosticsCapture
from repro.sim.dataset import build_dataset
from repro.sim.procpool import WORKER_DIED_REASON, WORKER_ID_STRIDE
from repro.sim.runner import BACKENDS, evaluate, evaluate_anchor_subsets
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point


class Oracle:
    """Ground-truth localizer (picklable, engine-less)."""

    def locate(self, observations, keep_map=True):
        class Result:
            position = observations.ground_truth

        return Result()


class Fails:
    def locate(self, observations, keep_map=True):
        raise LocalizationError("nope")


class FailsBeyond:
    """Fails only on fixes whose truth lies right of a threshold."""

    def __init__(self, x_threshold):
        self.x_threshold = x_threshold

    def locate(self, observations, keep_map=True):
        truth = observations.ground_truth
        if truth.x > self.x_threshold:
            raise LocalizationError("out of range")

        class Result:
            position = truth

        return Result()


class CrashingBloc(BlocLocalizer):
    """A real BLoc localizer whose every fix SIGKILLs its process."""

    def locate(self, observations, keep_map=True):
        os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(open_room_testbed(), num_positions=5, seed=13)


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(open_room_testbed(), num_positions=3, seed=21)


def _bloc():
    return BlocLocalizer(config=BlocConfig(grid_resolution_m=0.3))


class TestBackendSelection:
    def test_backends_tuple(self):
        assert BACKENDS == ("serial", "thread", "process")

    def test_default_is_serial(self, dataset):
        run = evaluate(Oracle(), dataset)
        assert run.backend == "serial"
        assert run.effective_workers == 1
        assert run.batch_size is None

    def test_workers_imply_thread(self, dataset):
        run = evaluate(Oracle(), dataset, workers=2)
        assert run.backend == "thread"

    def test_unknown_backend_rejected(self, dataset):
        with pytest.raises(ConfigurationError):
            evaluate(Oracle(), dataset, backend="gpu")

    def test_serial_backend_rejects_workers(self, dataset):
        with pytest.raises(ConfigurationError):
            evaluate(Oracle(), dataset, backend="serial", workers=2)

    def test_bad_batch_size_rejected(self, dataset):
        with pytest.raises(ConfigurationError):
            evaluate(Oracle(), dataset, batch_size=0)

    def test_capture_incompatible_with_process(self, dataset, tmp_path):
        capture = DiagnosticsCapture(directory=tmp_path, worst_n=1)
        with pytest.raises(ConfigurationError):
            evaluate(
                Oracle(), dataset, workers=2, backend="process",
                capture=capture,
            )

    def test_capture_incompatible_with_batching(self, dataset, tmp_path):
        capture = DiagnosticsCapture(directory=tmp_path, worst_n=1)
        with pytest.raises(ConfigurationError):
            evaluate(Oracle(), dataset, batch_size=4, capture=capture)

    def test_workers_clamped_to_dataset(self, dataset):
        run = evaluate(Oracle(), dataset, workers=32)
        assert run.effective_workers == len(dataset)

    def test_run_metadata_recorded(self, dataset):
        run = evaluate(
            Oracle(), dataset, workers=2, backend="process", batch_size=2
        )
        assert run.backend == "process"
        assert run.effective_workers == 2
        assert run.batch_size == 2


class TestProcessBackend:
    def test_records_match_serial(self, dataset):
        guess = Point(0.2, -0.4)

        class Result:
            position = guess

        serial = evaluate(Oracle(), dataset)
        process = evaluate(
            Oracle(), dataset, workers=2, backend="process"
        )
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in process.records
        ]
        assert [r.truth for r in serial.records] == [
            r.truth for r in process.records
        ]

    def test_failures_preserved_in_order(self, dataset):
        run = evaluate(Fails(), dataset, workers=2, backend="process")
        assert run.num_failed == len(dataset)
        assert run.failure_reasons() == ["nope"] * len(dataset)

    def test_mixed_failures_keep_dataset_order(self, dataset):
        median_x = sorted(
            o.ground_truth.x for o in dataset.observations
        )[len(dataset) // 2]
        serial = evaluate(FailsBeyond(median_x), dataset)
        process = evaluate(
            FailsBeyond(median_x), dataset, workers=2, backend="process"
        )
        assert serial.failure_reasons() == process.failure_reasons()
        assert 0 < process.num_failed < len(dataset)

    def test_worker_metrics_merge_into_one_registry(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(Oracle(), dataset, workers=2, backend="process")
        assert obs.metrics.get("eval.fixes_total").value == len(dataset)
        assert obs.metrics.get("eval.fix_latency_s").count == len(dataset)

    def test_worker_failure_counters_merge(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(Fails(), dataset, workers=2, backend="process")
        counter = obs.metrics.get("eval.failures.LocalizationError")
        assert counter is not None and counter.value == len(dataset)

    def test_worker_spans_disjoint_and_under_evaluate_root(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            with obs.span("session"):
                evaluate(Oracle(), dataset, workers=2, backend="process")
        spans = obs.tracer.finished()
        roots = [s for s in spans if s.name == "evaluate"]
        assert len(roots) == 1
        fixes = [s for s in spans if s.name == "fix"]
        assert len(fixes) == len(dataset)
        # Cross-process parentage: the SpanHandle crossed the pool.
        assert {s.parent_id for s in fixes} == {roots[0].span_id}
        # Worker ids live in pid-offset blocks, disjoint from the
        # parent's (offset 0) and from each other.
        assert all(s.span_id >= WORKER_ID_STRIDE for s in fixes)
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        assert {s.attributes["index"] for s in fixes} == set(
            range(len(dataset))
        )

    def test_anchor_subsets_match_serial(self, dataset):
        serial = evaluate_anchor_subsets(
            Oracle(), dataset, subset_size=3
        )
        process = evaluate_anchor_subsets(
            Oracle(), dataset, subset_size=3, workers=2, backend="process"
        )
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in process.records
        ]


def _shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


class TestWorkerCrash:
    def test_crash_leaves_no_shm_and_clean_failure_reasons(self, dataset):
        before = _shm_names()
        localizer = CrashingBloc(
            config=BlocConfig(grid_resolution_m=0.5)
        )
        run = evaluate(
            localizer, dataset, workers=2, backend="process"
        )
        assert len(run.records) == len(dataset)
        assert all(
            r.failure_reason == WORKER_DIED_REASON for r in run.records
        )
        assert all(r.error_m == float("inf") for r in run.records)
        assert all(r.estimate is None for r in run.records)
        assert _shm_names() <= before


class TestBatchedEvaluate:
    def test_stub_fallback_keeps_order(self, dataset):
        serial = evaluate(Oracle(), dataset)
        batched = evaluate(Oracle(), dataset, batch_size=2)
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in batched.records
        ]

    def test_per_fix_failures_contained_in_batch(self, dataset):
        median_x = sorted(
            o.ground_truth.x for o in dataset.observations
        )[len(dataset) // 2]
        serial = evaluate(FailsBeyond(median_x), dataset)
        batched = evaluate(FailsBeyond(median_x), dataset, batch_size=3)
        assert serial.failure_reasons() == batched.failure_reasons()
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in batched.records
        ]

    def test_batched_metrics_amortize_latency(self, dataset):
        from repro.obs import observed

        with observed() as obs:
            evaluate(Oracle(), dataset, batch_size=2)
        assert obs.metrics.get("eval.fixes_total").value == len(dataset)
        assert obs.metrics.get("eval.fix_latency_s").count == len(dataset)


class TestEquivalence:
    """Acceptance: backend/batched results equal serial on the room."""

    def test_process_backend_bit_identical(self, small_dataset):
        serial = evaluate(_bloc(), small_dataset)
        process = evaluate(
            _bloc(), small_dataset, workers=2, backend="process"
        )
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in process.records
        ]

    def test_batched_within_documented_tolerance(self, small_dataset):
        serial = evaluate(_bloc(), small_dataset)
        batched = evaluate(_bloc(), small_dataset, batch_size=3)
        for ours, ref in zip(batched.records, serial.records):
            assert ref.estimate is not None
            # BLAS reduction reordering only: nanometre-scale (the
            # tolerance DESIGN.md documents is < 1e-9 m).
            assert abs(ours.error_m - ref.error_m) < 1e-9
            assert abs(ours.estimate.x - ref.estimate.x) < 1e-9
            assert abs(ours.estimate.y - ref.estimate.y) < 1e-9

    def test_process_workers_share_the_published_entry(
        self, small_dataset
    ):
        from repro.obs import observed

        before = _shm_names()
        with observed() as obs:
            process = evaluate(
                _bloc(), small_dataset, workers=2, backend="process"
            )
        assert process.num_failed == 0
        # The parent's build is the sweep's only miss: every worker
        # lookup hits the entry seeded through the pool initializer.
        assert obs.metrics.get("engine.cache_misses").value == 1
        assert obs.metrics.get("engine.cache_hits").value == len(
            small_dataset
        )
        assert _shm_names() <= before

    def test_spawned_workers_get_the_pickled_entry(
        self, small_dataset, monkeypatch
    ):
        from repro.obs import observed

        # process_sweep forks wherever fork exists; hide it so the
        # initializer's steering entry has to pickle to each worker.
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        serial = evaluate(_bloc(), small_dataset)
        with observed() as obs:
            process = evaluate(
                _bloc(), small_dataset, workers=2, backend="process"
            )
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in process.records
        ]
        assert [r.estimate for r in serial.records] == [
            r.estimate for r in process.records
        ]
        assert obs.metrics.get("engine.cache_misses").value == 1
        assert obs.metrics.get("engine.cache_hits").value == len(
            small_dataset
        )

    def test_process_batched_matches_serial(self, small_dataset):
        serial = evaluate(_bloc(), small_dataset)
        combined = evaluate(
            _bloc(),
            small_dataset,
            workers=2,
            backend="process",
            batch_size=2,
        )
        for ours, ref in zip(combined.records, serial.records):
            assert abs(ours.error_m - ref.error_m) < 1e-9
