"""Dynamic micro-batching: coalesce concurrent requests into one execution.

Serving a compiled plan one request at a time wastes the runtime's main
advantage — a batched matmul amortises the per-call overhead (tap-major
conv lowering, BLAS dispatch, Python) over every row.  The :class:`MicroBatchScheduler` closes
that gap for concurrent traffic: requests enqueue individually, a worker
thread coalesces whatever is waiting — up to ``max_batch`` rows — into one
stacked execution, and scatters the result rows back onto per-request
futures.

The batching policy is work-conserving: the worker never idles while a
request is queued.

* the worker blocks until a first request arrives, then drains whatever is
  *already* queued (no timer, no deadline) until the batch holds
  ``max_batch`` rows, and executes at once — a lone request runs
  immediately, and under load requests pile up while the previous batch
  executes, so batches fill without a coalescing window;
* a request that would push the batch past ``max_batch`` rows is held back
  and opens the *next* micro-batch, so an over-full queue yields several
  consecutive capped batches rather than one oversized execution;
* a single request larger than ``max_batch`` on its own is executed as one
  (oversized) batch rather than split, so callers may mix single samples and
  pre-batched arrays freely.

The scheduler is model-agnostic: ``runner`` is any callable mapping a
stacked ``(rows, ...)`` array to a ``(rows, ...)`` result (for serving,
``InferencePlan.run``).  A runner exception fails every future in the
affected batch; later batches are unaffected.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional, Tuple

import numpy as np

_SHUTDOWN = object()


def check_max_batch(max_batch: int) -> int:
    """Validate a micro-batch row cap: a positive int (bools rejected)."""
    if isinstance(max_batch, bool) or not isinstance(max_batch, int) or (
        max_batch < 1
    ):
        raise ValueError(f"max_batch must be a positive int, got {max_batch!r}")
    return max_batch


#: How many per-batch (requests, rows) samples ``SchedulerStats`` retains for
#: inspection; the aggregate counters cover the full process lifetime.
_RECENT_BATCHES = 1024


@dataclass
class SchedulerStats:
    """Batch-composition statistics, maintained by the worker thread.

    Aggregates are lifetime running counters (bounded memory, however long
    the service runs); ``batches`` keeps only the most recent
    ``(num_requests, num_rows)`` pairs for inspection.
    ``mean_rows_per_batch`` near 1 means serial traffic, near ``max_batch``
    means saturated.
    """

    num_batches: int = 0
    num_requests: int = 0
    num_rows: int = 0
    max_rows_per_batch: int = 0
    batches: Deque[Tuple[int, int]] = field(
        default_factory=lambda: deque(maxlen=_RECENT_BATCHES)
    )

    def record(self, requests: int, rows: int) -> None:
        self.num_batches += 1
        self.num_requests += requests
        self.num_rows += rows
        self.max_rows_per_batch = max(self.max_rows_per_batch, rows)
        self.batches.append((requests, rows))

    @property
    def mean_rows_per_batch(self) -> float:
        return self.num_rows / self.num_batches if self.num_batches else 0.0


class MicroBatchScheduler:
    """Thread-based dynamic micro-batching over a single runner callable."""

    def __init__(
        self,
        runner: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 64,
        name: str = "microbatch",
        on_batch: Optional[Callable[[int, int, float], None]] = None,
    ) -> None:
        self.max_batch = check_max_batch(max_batch)
        self._runner = runner
        self.stats = SchedulerStats()
        # Observability hook: called once per executed micro-batch with
        # (num_requests, num_rows, wait_seconds) from the worker thread,
        # where the wait runs from dequeuing the batch's first request to
        # executing the batch.  Exceptions are swallowed — telemetry must
        # never fail a batch.
        self.on_batch = on_batch
        # SimpleQueue is C-implemented and roughly 4x cheaper per item than
        # queue.Queue; at ~50us per micro-batched request that is the
        # difference between amortising the batching win and eating it.
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        # Serialises submit against close so the shutdown marker is always
        # the last item the queue ever sees — no request can be enqueued
        # after it and stranded with an unresolved future.
        self._submit_lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._loop, name=f"{name}-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def submit(self, rows: np.ndarray) -> Future:
        """Enqueue one request; ``rows`` must carry a leading batch axis.

        Returns a future resolving to the runner's output rows for exactly
        this request (the micro-batch it rode in is invisible to the caller).
        """
        array = np.asarray(rows)
        if array.ndim < 1 or array.shape[0] < 1:
            raise ValueError("a request must contain at least one row")
        future: Future = Future()
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._queue.put((array, future))
        return future

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be coalesced (approximate).

        This is the backpressure signal: the number of submitted requests
        the worker thread has not yet drained into a micro-batch.  A
        saturated service shows a persistently positive depth; the serving
        layer turns a configurable threshold on it into typed
        ``ApiBackpressure`` / HTTP 429 responses.
        """
        return self._queue.qsize()

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests, flush everything queued, join the worker."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _collect(self, first) -> Tuple[list, object, bool]:
        """Coalesce ``first`` with the requests already queued behind it.

        Never waits for more: a request that has not arrived yet rides the
        next batch.  Returns ``(batch, held, stop)``: ``held`` is a queued
        request that would have pushed the batch past ``max_batch`` rows —
        it opens the next batch instead of overflowing this one.
        """
        batch = [first]
        rows = first[0].shape[0]
        stop = False
        held = None
        while rows < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                stop = True
                break
            if rows + item[0].shape[0] > self.max_batch:
                held = item
                break
            batch.append(item)
            rows += item[0].shape[0]
        return batch, held, stop

    def _execute(self, batch: list, wait: float = 0.0) -> None:
        arrays = [array for array, _ in batch]
        futures = [future for _, future in batch]
        if len(arrays) > 1:
            try:
                stacked = np.concatenate(arrays, axis=0)
            except ValueError:
                # Heterogeneous trailing shapes cannot share a stacked
                # execution; degrade to per-request runs so the offending
                # request fails alone instead of poisoning its batch-mates.
                for item in batch:
                    self._execute([item], wait=wait)
                return
        else:
            stacked = arrays[0]
        sizes = [array.shape[0] for array in arrays]
        self.stats.record(len(batch), sum(sizes))
        if self.on_batch is not None:
            try:
                self.on_batch(len(batch), sum(sizes), wait)
            except Exception:  # noqa: BLE001 - telemetry must never fail a batch
                pass
        try:
            result = self._runner(stacked)
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            for future in futures:
                future.set_exception(error)
            return
        offsets = np.cumsum(sizes[:-1])
        for future, piece in zip(futures, np.split(result, offsets, axis=0)):
            future.set_result(piece)

    def _loop(self) -> None:
        # The shutdown marker is the last item the queue ever sees (submit
        # and close serialise on _submit_lock), so reaching it means every
        # request before it has executed: close flushes the queue.
        held = None
        while True:
            if held is not None:
                item, held = held, None
            else:
                item = self._queue.get()
                if item is _SHUTDOWN:
                    return
            batch_started = time.monotonic()
            batch, held, stop = self._collect(item)
            self._execute(batch, wait=time.monotonic() - batch_started)
            if stop:
                return
