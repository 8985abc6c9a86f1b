"""Concurrency stress tests for :class:`MicroBatchScheduler`.

The scheduler's contract under contention: every request that ``submit``
accepts resolves (no stranded futures), no coalesced micro-batch ever
exceeds the row cap, and the lifetime statistics stay consistent with what
was actually executed — even while ``close()`` races a storm of mixed-size
bursts from many threads.  These scenarios certify the shutdown
serialisation the scheduler promises (the shutdown marker is the last item
the queue ever sees).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import MicroBatchScheduler

MAX_BATCH = 8


def _accumulate(x: np.ndarray) -> np.ndarray:
    return x + 1.0


class TestSchedulerStress:
    @pytest.mark.parametrize("close_delay_ms", [0, 2, 10])
    def test_racing_close_strands_no_futures(self, close_delay_ms):
        """Bursty multi-threaded traffic racing ``close()``: every accepted
        request must resolve correctly, and stats must match the accepted set."""
        scheduler = MicroBatchScheduler(_accumulate, max_batch=MAX_BATCH)
        accepted = []
        accepted_lock = threading.Lock()
        start_barrier = threading.Barrier(7)

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            local = []
            start_barrier.wait()
            for _ in range(40):
                rows = int(rng.integers(1, 6))
                array = rng.normal(size=(rows, 3))
                try:
                    future = scheduler.submit(array)
                except RuntimeError:
                    break  # scheduler closed mid-burst: a valid outcome
                local.append((array, future))
            with accepted_lock:
                accepted.extend(local)

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        time.sleep(close_delay_ms / 1000.0)
        scheduler.close()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        # No stranded futures: every accepted request resolves, correctly.
        total_rows = 0
        for array, future in accepted:
            result = future.result(timeout=30)
            np.testing.assert_array_equal(result, array + 1.0)
            total_rows += array.shape[0]

        stats = scheduler.stats
        assert stats.num_requests == len(accepted)
        assert stats.num_rows == total_rows
        # Request sizes never exceed the cap, so no batch may either.
        assert stats.max_rows_per_batch <= MAX_BATCH
        # The per-batch log agrees with the aggregates (nothing recorded twice).
        assert sum(reqs for reqs, _ in stats.batches) == stats.num_requests
        assert sum(rows for _, rows in stats.batches) == stats.num_rows

    def test_concurrent_close_calls_are_safe(self):
        """Multiple threads closing while others submit: one winner, no hang."""
        scheduler = MicroBatchScheduler(_accumulate, max_batch=4)
        futures = []
        futures_lock = threading.Lock()

        def submitter() -> None:
            for index in range(50):
                try:
                    future = scheduler.submit(np.full((1, 2), float(index)))
                except RuntimeError:
                    return
                with futures_lock:
                    futures.append((index, future))

        def closer() -> None:
            time.sleep(0.002)
            scheduler.close()

        threads = [threading.Thread(target=submitter) for _ in range(3)]
        threads += [threading.Thread(target=closer) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        for index, future in futures:
            np.testing.assert_array_equal(
                future.result(timeout=30), np.full((1, 2), float(index) + 1.0)
            )
        with pytest.raises(RuntimeError):
            scheduler.submit(np.zeros((1, 2)))

    def test_sustained_saturation_respects_row_cap_and_coalesces(self):
        """Under saturation every batch obeys the cap and batching is real."""
        release = threading.Event()

        def runner(x: np.ndarray) -> np.ndarray:
            release.wait(10)
            return x * 2.0

        with MicroBatchScheduler(runner, max_batch=MAX_BATCH) as scheduler:
            rng = np.random.default_rng(0)
            requests = []
            for _ in range(60):
                rows = int(rng.integers(1, 5))
                array = rng.normal(size=(rows, 2))
                requests.append((array, scheduler.submit(array)))
            release.set()
            for array, future in requests:
                np.testing.assert_array_equal(future.result(timeout=30), array * 2.0)
        stats = scheduler.stats
        assert stats.max_rows_per_batch <= MAX_BATCH
        assert stats.num_requests == len(requests)
        # With the worker initially blocked, the queue is deep enough that
        # coalescing must have packed multiple requests per execution.
        assert stats.num_batches < stats.num_requests

    def test_slow_runner_with_racing_close_flushes_queue(self):
        """Queued work behind a slow runner still completes across close()."""
        def runner(x: np.ndarray) -> np.ndarray:
            time.sleep(0.005)
            return x - 1.0

        scheduler = MicroBatchScheduler(runner, max_batch=2)
        arrays = [np.full((1, 3), float(index)) for index in range(12)]
        futures = [scheduler.submit(array) for array in arrays]
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        for array, future in zip(arrays, futures):
            np.testing.assert_array_equal(future.result(timeout=30), array - 1.0)
        closer.join(timeout=30)
        assert not closer.is_alive()
