"""Micro-batcher: coalescing, per-future failure containment, close."""

from __future__ import annotations

import threading
import time
from typing import List, Sequence

import pytest

from repro.errors import LocalizationError, ReproError
from repro.service.batcher import MicroBatcher


class RecordingBatchFn:
    """A fake locate_batch that records the batches it was handed."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.batches: List[int] = []
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def __call__(self, items: Sequence[object]) -> List[object]:
        if self.delay_s:
            time.sleep(self.delay_s)
        with self._lock:
            self.batches.append(len(items))
        return [("ok", item) for item in items]


def test_single_request_round_trips():
    fn = RecordingBatchFn()
    batcher = MicroBatcher(fn, max_batch=4, max_wait_s=0.001)
    try:
        outcome = batcher.locate("obs-1")
        assert outcome.decision == ("ok", "obs-1")
        assert outcome.batch_size == 1
    finally:
        batcher.close()


def test_concurrent_submits_coalesce():
    # Slow first batch so later submits pile up behind the worker.
    fn = RecordingBatchFn(delay_s=0.05)
    batcher = MicroBatcher(fn, max_batch=8, max_wait_s=0.02)
    try:
        futures = [batcher.submit(f"obs-{i}") for i in range(6)]
        outcomes = [f.result(timeout=5.0) for f in futures]
    finally:
        batcher.close()
    # Every caller got its own item back...
    for i, outcome in enumerate(outcomes):
        assert outcome.decision == ("ok", f"obs-{i}")
    # ...and at least one locate_batch call served multiple requests.
    assert max(fn.batches) > 1
    assert sum(fn.batches) == 6
    assert batcher.requests_total == 6
    assert batcher.largest_batch == max(fn.batches)


def test_max_batch_bounds_coalescing():
    fn = RecordingBatchFn(delay_s=0.05)
    batcher = MicroBatcher(fn, max_batch=2, max_wait_s=0.5)
    try:
        futures = [batcher.submit(i) for i in range(5)]
        for future in futures:
            future.result(timeout=5.0)
    finally:
        batcher.close()
    assert max(fn.batches) <= 2


def test_per_item_errors_stay_per_future():
    def flaky(items: Sequence[object]) -> List[object]:
        return [
            LocalizationError("bad fix") if item == "bad" else ("ok", item)
            for item in items
        ]

    batcher = MicroBatcher(flaky, max_batch=4, max_wait_s=0.01)
    try:
        good = batcher.submit("good")
        bad = batcher.submit("bad")
        assert good.result(timeout=5.0).decision == ("ok", "good")
        assert isinstance(
            bad.result(timeout=5.0).decision, LocalizationError
        )
    finally:
        batcher.close()


def test_batch_fn_exception_fails_all_futures():
    def broken(items: Sequence[object]) -> List[object]:
        raise ReproError("backend down")

    batcher = MicroBatcher(broken, max_batch=4, max_wait_s=0.01)
    try:
        future = batcher.submit("obs")
        with pytest.raises(ReproError, match="backend down"):
            future.result(timeout=5.0)
    finally:
        batcher.close()


def test_submit_after_close_rejected():
    batcher = MicroBatcher(RecordingBatchFn(), max_batch=2, max_wait_s=0.0)
    batcher.close()
    with pytest.raises(ReproError, match="closed"):
        batcher.submit("obs")


def test_close_is_idempotent():
    batcher = MicroBatcher(RecordingBatchFn(), max_batch=2, max_wait_s=0.0)
    batcher.close()
    batcher.close()


@pytest.mark.parametrize("max_batch,max_wait", [(0, 0.01), (1, -1.0)])
def test_invalid_parameters_rejected(max_batch, max_wait):
    with pytest.raises(ReproError):
        MicroBatcher(
            RecordingBatchFn(), max_batch=max_batch, max_wait_s=max_wait
        )


def test_info_shape():
    batcher = MicroBatcher(RecordingBatchFn(), max_batch=3, max_wait_s=0.01)
    try:
        batcher.locate("obs")
        info = batcher.info()
    finally:
        batcher.close()
    assert info["max_batch"] == 3
    assert info["requests_total"] == 1
    assert info["batches_total"] == 1


class TestAnnouncedWindow:
    """The window waits only for announced requests, up to max_wait_s."""

    def test_lone_request_does_not_wait_out_the_window(self):
        fn = RecordingBatchFn()
        batcher = MicroBatcher(fn, max_batch=8, max_wait_s=0.5)
        try:
            started = time.perf_counter()
            outcome = batcher.locate("obs")
            elapsed = time.perf_counter() - started
        finally:
            batcher.close()
        assert outcome.batch_size == 1
        assert elapsed < 0.25

    def test_announced_request_joins_the_open_batch(self):
        fn = RecordingBatchFn()
        batcher = MicroBatcher(fn, max_batch=8, max_wait_s=0.5)
        try:
            batcher.announce()
            first = batcher.submit("first")
            time.sleep(0.02)  # let the worker take "first" and wait
            second = batcher.submit("second", announced=True)
            outcomes = [f.result(timeout=5.0) for f in (first, second)]
        finally:
            batcher.close()
        assert [o.batch_size for o in outcomes] == [2, 2]
        assert [o.decision for o in outcomes] == [
            ("ok", "first"),
            ("ok", "second"),
        ]
        assert fn.batches == [2]

    def test_withdrawn_announcement_does_not_hold_requests(self):
        fn = RecordingBatchFn()
        batcher = MicroBatcher(fn, max_batch=8, max_wait_s=0.5)
        try:
            batcher.announce()
            held = batcher.submit("held")
            time.sleep(0.02)
            started = time.perf_counter()
            batcher.withdraw()
            assert held.result(timeout=5.0).batch_size == 1
            # The next lone request finds nothing announced either.
            lone = batcher.locate("lone")
            elapsed = time.perf_counter() - started
        finally:
            batcher.close()
        assert lone.batch_size == 1
        assert elapsed < 0.25
        assert fn.batches == [1, 1]

    def test_close_with_outstanding_announcement_exits(self):
        batcher = MicroBatcher(
            RecordingBatchFn(), max_batch=8, max_wait_s=60.0
        )
        batcher.announce()
        future = batcher.submit("obs")
        time.sleep(0.02)
        batcher.close(timeout_s=5.0)
        assert not batcher._worker.is_alive()
        assert future.result(timeout=1.0).decision == ("ok", "obs")
