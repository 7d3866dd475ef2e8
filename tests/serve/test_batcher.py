"""MicroBatcher: coalescing, deadlines, backpressure, caching — no sockets."""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    BatcherClosedError, BatchPolicy, DeadlineExceededError, MicroBatcher,
    QueueFullError, content_hash,
)


class RecordingPredict:
    """predict_fn double: records batch sizes, optionally blocks on a gate."""

    def __init__(self, gate: threading.Event | None = None):
        self.batch_sizes: list[int] = []
        self.gate = gate
        self.started = threading.Event()

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10.0), "test gate never opened"
        self.batch_sizes.append(len(batch))
        return batch * 2.0


def submit_async(batcher, array, **kwargs):
    """Run submit on a thread; returns (thread, result-or-error box)."""
    box = {}

    def run():
        try:
            box["result"] = batcher.submit(array, **kwargs)
        except Exception as error:  # noqa: BLE001 - captured for assertions
            box["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class FakeClock:
    """Injectable monotonic clock: time moves only when a test says so.

    Deadline expiry and ``max_wait_ms`` coalescing become deterministic:
    no assertion below depends on a real sleep outrunning a real timer.
    Pair :meth:`advance` with ``batcher.kick()`` so the worker re-reads
    the clock (a real clock wakes timed waits on its own; a fake one
    cannot).
    """

    def __init__(self, start: float = 1_000.0):
        self._now = start
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds


@pytest.fixture
def gate():
    return threading.Event()


class TestCoalescing:
    def test_concurrent_requests_share_one_batch(self, gate):
        predict = RecordingPredict(gate)
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=8, max_wait_ms=200.0, cache_entries=0))
        rng = np.random.default_rng(0)
        # plug: the worker picks this up and blocks inside predict
        plug_thread, _ = submit_async(batcher, rng.random((2, 2)))
        assert predict.started.wait(5.0)
        # queue four more while the worker is busy; they must coalesce
        followers = [submit_async(batcher, rng.random((2, 2))) for _ in range(4)]
        assert wait_until(lambda: batcher.queue_depth() == 4)
        gate.set()
        plug_thread.join(10.0)
        for thread, box in followers:
            thread.join(10.0)
            assert "result" in box
        assert predict.batch_sizes[0] == 1          # the plug ran alone
        assert predict.batch_sizes[1] == 4          # followers coalesced
        batcher.close()

    def test_batch_size_capped(self, gate):
        predict = RecordingPredict(gate)
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=2, max_wait_ms=200.0, cache_entries=0))
        rng = np.random.default_rng(1)
        plug_thread, _ = submit_async(batcher, rng.random((2,)))
        assert predict.started.wait(5.0)
        followers = [submit_async(batcher, rng.random((2,))) for _ in range(5)]
        assert wait_until(lambda: batcher.queue_depth() == 5)
        gate.set()
        for thread, _ in [*followers, (plug_thread, None)]:
            thread.join(10.0)
        assert max(predict.batch_sizes) <= 2
        batcher.close()

    def test_results_stay_with_their_request(self):
        predict = RecordingPredict()
        batcher = MicroBatcher(predict, BatchPolicy(max_wait_ms=50.0))
        inputs = [np.full((3,), float(i)) for i in range(6)]
        threads = [submit_async(batcher, array) for array in inputs]
        for (thread, box), array in zip(threads, inputs):
            thread.join(10.0)
            assert np.array_equal(box["result"], array * 2.0)
        batcher.close()

    def test_mixed_shapes_not_stacked(self):
        predict = RecordingPredict()
        batcher = MicroBatcher(predict, BatchPolicy(max_wait_ms=50.0, cache_entries=0))
        a = batcher.submit(np.ones((2, 2)))
        b = batcher.submit(np.ones((3,)))
        assert a.shape == (2, 2) and b.shape == (3,)
        batcher.close()


class TestLanes:
    def test_lanes_run_batches_side_by_side_off_one_queue(self, gate):
        calls = threading.Semaphore(0)

        def predict(batch):
            calls.release()
            assert gate.wait(10.0), "test gate never opened"
            return batch * 2.0

        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=1, max_wait_ms=0.0, cache_entries=0), lanes=2)
        inputs = [np.full((2,), float(i)) for i in range(3)]
        submits = [submit_async(batcher, array) for array in inputs]
        # two lanes hold a batch each; the third request waits its turn
        assert calls.acquire(timeout=5.0) and calls.acquire(timeout=5.0)
        assert wait_until(lambda: batcher.queue_depth() == 1)
        gate.set()
        for (thread, box), array in zip(submits, inputs):
            thread.join(10.0)
            assert np.array_equal(box["result"], array * 2.0)
        assert batcher.stats()["batches_run"] == 3
        batcher.close()
        assert not any(lane.is_alive() for lane in batcher._lanes)

    def test_needs_a_lane(self):
        with pytest.raises(ValueError):
            MicroBatcher(RecordingPredict(), lanes=0)


class TestDeadlines:
    def test_expired_request_dropped_without_forward(self, gate):
        """Deterministic deadline expiry: the fake clock jumps past the
        doomed request's deadline while the worker is held at the gate —
        no real sleep racing a real timer."""
        clock = FakeClock()
        predict = RecordingPredict(gate)
        # max_wait_ms=0: on a fake clock a nonzero hold window would
        # never expire by itself; the coalescing window has its own
        # fake-clock tests below
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=4, max_wait_ms=0.0, cache_entries=0), clock=clock)
        rng = np.random.default_rng(2)
        plug_thread, _ = submit_async(batcher, rng.random((2,)))
        assert predict.started.wait(5.0)
        # enqueued with a 10ms deadline measured on the fake clock
        doomed_thread, doomed = submit_async(batcher, rng.random((2,)),
                                             deadline_ms=10.0)
        assert wait_until(lambda: batcher.queue_depth() == 1)
        clock.advance(0.011)            # one tick past the deadline
        gate.set()
        plug_thread.join(10.0)
        doomed_thread.join(10.0)
        assert isinstance(doomed.get("error"), DeadlineExceededError)
        # the doomed request never consumed a forward pass
        assert predict.batch_sizes == [1]
        batcher.close()

    def test_request_inside_deadline_survives(self, gate):
        """Control for the expiry test: advance to one tick *before* the
        deadline and the queued request must still be served."""
        clock = FakeClock()
        predict = RecordingPredict(gate)
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=4, max_wait_ms=0.0, cache_entries=0), clock=clock)
        rng = np.random.default_rng(6)
        plug_thread, _ = submit_async(batcher, rng.random((2,)))
        assert predict.started.wait(5.0)
        racer_thread, racer = submit_async(batcher, rng.random((2,)),
                                           deadline_ms=10.0)
        assert wait_until(lambda: batcher.queue_depth() == 1)
        clock.advance(0.009)            # inside the deadline
        gate.set()
        plug_thread.join(10.0)
        racer_thread.join(10.0)
        assert "result" in racer
        assert predict.batch_sizes == [1, 1]
        batcher.close()

    def test_client_side_timeout(self, gate):
        predict = RecordingPredict(gate)
        batcher = MicroBatcher(predict, BatchPolicy(cache_entries=0))
        thread, box = submit_async(batcher, np.ones((2,)), timeout_s=0.05)
        thread.join(10.0)
        assert isinstance(box.get("error"), DeadlineExceededError)
        gate.set()
        batcher.close()


class TestCoalescingWindow:
    """The ``max_wait_ms`` hold window on a fake clock: the worker holds
    an open batch until the *fake* time passes ``hold_until``, so the
    coalescing decision is asserted without a single real-time sleep."""

    def test_window_collects_stragglers_until_clock_expires(self):
        clock = FakeClock()
        predict = RecordingPredict()
        # a 5s (fake) window — far beyond any real-clock flake range,
        # but inside the 30s default request deadline; on the fake clock
        # the test completes as fast as the threads can run, proving the
        # window closes on clock time, not luck
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=8, max_wait_ms=5_000.0, cache_entries=0),
            clock=clock)
        rng = np.random.default_rng(8)
        first_thread, first = submit_async(batcher, rng.random((2,)))
        # the worker now holds [first] open, sleeping in the condition
        # wait: the queue is drained but no forward has started
        assert wait_until(lambda: batcher.queue_depth() == 0)
        assert not predict.started.is_set()
        second_thread, second = submit_async(batcher, rng.random((2,)))
        assert wait_until(lambda: batcher.queue_depth() == 0)
        assert not predict.started.is_set()   # still inside the window
        clock.advance(5.001)
        batcher.kick()                        # deliver the timer wake-up
        first_thread.join(10.0)
        second_thread.join(10.0)
        assert "result" in first and "result" in second
        assert predict.batch_sizes == [2]     # one coalesced batch
        batcher.close()

    def test_full_batch_short_circuits_the_window(self):
        clock = FakeClock()
        predict = RecordingPredict()
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=2, max_wait_ms=5_000.0, cache_entries=0),
            clock=clock)
        rng = np.random.default_rng(9)
        threads = [submit_async(batcher, rng.random((2,))) for _ in range(2)]
        # no clock advance at all: hitting max_batch_size must dispatch
        # immediately, without waiting out the window
        for thread, box in threads:
            thread.join(10.0)
            assert "result" in box
        assert predict.batch_sizes == [2]
        batcher.close()


class TestBackpressure:
    def test_full_queue_rejects_immediately(self, gate):
        predict = RecordingPredict(gate)
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=1, max_wait_ms=0.0, max_queue=2, cache_entries=0))
        rng = np.random.default_rng(3)
        plug_thread, _ = submit_async(batcher, rng.random((2,)))
        assert predict.started.wait(5.0)
        waiting = [submit_async(batcher, rng.random((2,))) for _ in range(2)]
        assert wait_until(lambda: batcher.queue_depth() == 2)
        start = time.monotonic()
        with pytest.raises(QueueFullError, match="retry"):
            batcher.submit(rng.random((2,)))
        assert time.monotonic() - start < 1.0  # rejected, not queued
        assert batcher.queue_depth() == 2      # the bound held
        gate.set()
        plug_thread.join(10.0)
        for thread, box in waiting:
            thread.join(10.0)
            assert "result" in box
        batcher.close()


class TestCache:
    def test_repeat_input_served_from_cache(self):
        predict = RecordingPredict()
        batcher = MicroBatcher(predict, BatchPolicy(max_wait_ms=1.0))
        x = np.random.default_rng(4).random((3, 3))
        first = batcher.submit(x)
        second = batcher.submit(x)
        assert np.array_equal(first, second)
        assert sum(predict.batch_sizes) == 1   # one forward total
        batcher.close()

    def test_cache_lru_eviction(self):
        predict = RecordingPredict()
        batcher = MicroBatcher(predict, BatchPolicy(max_wait_ms=1.0, cache_entries=2))
        a, b, c = (np.full((2,), float(i)) for i in range(3))
        batcher.submit(a)
        batcher.submit(b)
        batcher.submit(c)                       # evicts a
        batcher.submit(a)                       # recomputed
        assert sum(predict.batch_sizes) == 4
        batcher.close()

    def test_content_hash_distinguishes_dtype_and_shape(self):
        a = np.zeros((4,), dtype=np.float64)
        assert content_hash(a) != content_hash(a.astype(np.float32))
        assert content_hash(a) != content_hash(a.reshape(2, 2))
        assert content_hash(a) == content_hash(np.zeros((4,), dtype=np.float64))


class TestLifecycle:
    def test_close_drains_queued_requests(self, gate):
        predict = RecordingPredict(gate)
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=1, max_wait_ms=0.0, cache_entries=0))
        rng = np.random.default_rng(5)
        plug_thread, _ = submit_async(batcher, rng.random((2,)))
        assert predict.started.wait(5.0)
        queued = [submit_async(batcher, rng.random((2,))) for _ in range(3)]
        assert wait_until(lambda: batcher.queue_depth() == 3)
        gate.set()
        batcher.close(drain=True)
        for thread, box in queued:
            thread.join(10.0)
            assert "result" in box
        plug_thread.join(10.0)

    def test_close_without_drain_fails_queued(self, gate):
        predict = RecordingPredict(gate)
        batcher = MicroBatcher(predict, BatchPolicy(
            max_batch_size=1, max_wait_ms=0.0, cache_entries=0))
        plug_thread, _ = submit_async(batcher, np.ones((2,)))
        assert predict.started.wait(5.0)
        queued_thread, queued = submit_async(batcher, np.zeros((2,)))
        assert wait_until(lambda: batcher.queue_depth() == 1)
        gate.set()
        batcher.close(drain=False)
        queued_thread.join(10.0)
        assert isinstance(queued.get("error"), BatcherClosedError)
        plug_thread.join(10.0)

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(RecordingPredict())
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.submit(np.ones((2,)))

    def test_predict_error_propagates_to_all_waiters(self):
        def exploding(batch):
            raise RuntimeError("model on fire")

        batcher = MicroBatcher(exploding, BatchPolicy(max_wait_ms=50.0, cache_entries=0))
        threads = [submit_async(batcher, np.full((2,), float(i))) for i in range(3)]
        for thread, box in threads:
            thread.join(10.0)
            assert isinstance(box.get("error"), RuntimeError)
        batcher.close()

    def test_stats_shape(self):
        batcher = MicroBatcher(RecordingPredict(), BatchPolicy(max_wait_ms=1.0))
        batcher.submit(np.ones((2,)))
        stats = batcher.stats()
        assert stats["requests_done"] == 1
        assert stats["batches_run"] == 1
        assert stats["queue_depth"] == 0
        assert stats["policy"]["max_batch_size"] == 8
        batcher.close()
        assert batcher.stats()["closed"]
