"""Cross-process plan sharding: one registry directory, N serving workers.

A :class:`PlanCluster` turns a single :class:`~repro.serve.registry.PlanRegistry`
directory into a multi-process serving deployment.  Each worker process
builds its own registry over the shared directory and runs a full
:class:`~repro.serve.service.InferenceService` (one micro-batching
scheduler per model it serves); the parent keeps only the catalogue index
plus one duplex pipe per worker.  Models are partitioned across workers by
a consistent-hash ring with virtual nodes (:mod:`repro.serve.ring`): each
key's ordered owner list is the first ``replicas`` distinct workers
clockwise from its ring position, so:

* every model is served by R distinct workers (``replicas``, default 2,
  capped by ``num_workers``) — one dead or breaker-open shard degrades a
  model to R-1 replicas instead of taking it offline;
* requests route to the least-loaded live replica (ties prefer ring
  order, so an idle model sticks to its primary and its micro-batching
  scheduler keeps coalescing), and a request stranded by a worker death
  fails over to the next replica *immediately* instead of waiting for the
  respawn;
* the partition is a pure function of ``(key, num_workers, replicas)`` —
  any client or router replica computes the same owner list without
  coordination — and adding/removing a worker moves only ~1/N of keys, so
  :meth:`PlanCluster.restart_worker` is a zero-downtime rolling restart;
* with ``replicas=1`` the ring degrades to the pre-replication semantics
  exactly: one owner per key, fail-fast on a dead shard.

The parent/worker protocol is asynchronous: each typed request dataclass
travels down the pipe under a correlation id, a pool of handler threads
inside the worker serves them concurrently through the worker service's
own typed entry points (so micro-batches still form), and a receiver
thread in the parent scatters the typed results back onto per-request
futures.  Results are exact — the same float64 arrays an in-process
service would return, moved across a pickle boundary.

**Shared-memory transport** (:mod:`repro.serve.shm`): request/response
arrays at or above ``shm_threshold`` bytes do not ride the pickle stream —
they are copied once into a named ``multiprocessing.shared_memory``
segment and travel as a tiny ``(name, dtype, shape)`` descriptor; the
receiving side copies the bytes out and unlinks the segment.  Results stay
bit-identical (the copy is a memcpy and the descriptor carries the full
dtype), small payloads keep using the pipe, and segment cleanup is
accounted: the parent tracks every in-flight segment per request and
sweeps the per-worker name prefix when a worker dies, so a SIGKILL'd
worker cannot leak ``/dev/shm`` entries.

**Self-healing** (``auto_restart=True``): a supervisor thread watches for
dead workers and respawns each one with bounded exponential backoff
(``restart_backoff`` doubling up to ``max_restart_backoff``).  A worker
that keeps crash-looping — ``max_restarts`` consecutive deaths without
surviving ``stability_window`` seconds — trips its shard's *circuit
breaker*: the supervisor stops respawning it and requests to the shard
fail fast with :class:`~repro.api.errors.WorkerDied` carrying
``breaker_open=True`` until an operator re-admits it via
:meth:`PlanCluster.restart_worker` (which resets the breaker).  While the
breaker is *closed*, every protocol request is idempotent/deterministic,
so :class:`~repro.api.client.ClusterClient` transparently retries requests
that failed with ``WorkerDied`` — the combination loses zero requests
across a worker SIGKILL.  Under replication (R >= 2) the ring absorbs the
death *before* the client ever sees it: a breaker-open or dead owner is
skipped in favour of a live replica (counted by
``repro_ring_failover_total``), and ``WorkerDied`` reaches the caller only
when every one of a key's R owners is unavailable — with
``breaker_open=True`` only when *all* of them are breaker-open.

Shutdown is graceful: :meth:`PlanCluster.close` sends each worker a
shutdown sentinel; workers stop reading, finish every in-flight request,
drain their schedulers (:meth:`InferenceService.close`), acknowledge, and
exit.

``PlanCluster`` satisfies the same backend contract as
``InferenceService`` — :meth:`~PlanCluster.predict_request` /
:meth:`~PlanCluster.ensemble_request` are its only request methods — so
:class:`~repro.serve.http.PlanServer` can front either interchangeably.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.errors import ApiError, ModelNotFound, WorkerDied, map_exception
from repro.obs import (
    LogfmtFormatter,
    MetricFamily,
    MetricsRegistry,
    log_event,
    relabel,
)
from repro.obs.tracing import ensure_request_id
from repro.api.types import (
    EnsembleRequest,
    EnsembleResult,
    PredictRequest,
    PredictResult,
)
from repro.serve.registry import PlanKey, PlanRegistry
from repro.serve.ring import (
    DEFAULT_REPLICAS,
    DEFAULT_VNODES,
    HashRing,
    get_ring,
)
from repro.serve.service import InferenceService
from repro.serve.shm import (
    DEFAULT_SHM_THRESHOLD,
    SegmentStats,
    cleanup_prefix,
    offload_payload,
    restore_payload,
    unlink_segment,
)

_SHUTDOWN = None

_LOG = logging.getLogger("repro.serve.cluster")

#: Distinguishes the shared-memory prefixes of clusters living in one
#: parent process (tests routinely run several clusters per process).
_CLUSTER_IDS = itertools.count()


def shard_index(key: PlanKey, num_workers: int) -> int:
    """The primary owner of ``key``: its first worker on the consistent-
    hash ring (:mod:`repro.serve.ring`).

    SHA-256-based point hashing keeps the partition deterministic across
    processes and interpreter runs (``hash(str)`` is salted per process);
    the ring keeps it *stable under resizing* — changing ``num_workers``
    by one moves only ~1/N of keys, where the old modulo partition moved
    nearly all of them.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    return get_ring(num_workers).primary(key.canonical())


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _worker_main(
    conn,
    directory: str,
    capacity: int,
    max_batch: Union[int, str],
    max_wait_ms: float,
    handler_threads: int,
    max_queue_depth: Optional[int] = None,
    max_concurrent_ensembles: Optional[int] = None,
    shm_threshold: Optional[int] = None,
    shm_prefix: str = "",
    worker_index: int = 0,
    log_path: Optional[str] = None,
) -> None:
    """Serve requests from the pipe until the shutdown sentinel arrives.

    Module-level so it pickles under the ``spawn`` start method.  Replies
    are ``(request_id, ok, payload)`` where ``payload`` is the result or
    the exception object itself (exceptions re-raise in the caller's
    process with their original type — including the typed ``ApiError``
    subclasses, e.g. backpressure raised by the worker's service).  Arrays
    above ``shm_threshold`` arrive and leave as shared-memory descriptors
    (consumed destructively on receipt), named under ``shm_prefix`` so the
    parent can sweep anything this process leaves behind if it dies.

    With ``log_path`` set, every ``repro.*`` logger in this process writes
    logfmt lines there — each served request logs its trace id, model,
    shard, and latency, so one grep over the worker files reconstructs a
    request's cross-process path.
    """
    if log_path is not None:
        handler = logging.FileHandler(log_path, encoding="utf-8")
        handler.setFormatter(LogfmtFormatter())
        root = logging.getLogger("repro")
        root.addHandler(handler)
        root.setLevel(logging.INFO)
    registry = PlanRegistry(directory, capacity=capacity)
    service = InferenceService(registry, max_batch=max_batch,
                               max_wait_ms=max_wait_ms,
                               max_queue_depth=max_queue_depth,
                               max_concurrent_ensembles=max_concurrent_ensembles,
                               shard=worker_index)
    send_lock = threading.Lock()
    segment_seq = itertools.count()

    def allocate_name() -> str:
        return f"{shm_prefix}{next(segment_seq)}"

    def reply(request_id, ok, payload) -> None:
        names: List[str] = []
        if ok:
            payload, names = offload_payload(payload, shm_threshold,
                                             allocate_name)
        try:
            with send_lock:
                conn.send((request_id, ok, payload))
        except Exception as error:  # unpicklable payload; degrade to a message
            for name in names:  # the descriptors never reached the parent
                unlink_segment(name)
            with send_lock:
                conn.send((request_id, False,
                           RuntimeError(f"{type(payload).__name__}: {error}")))

    def handle(request_id, kind, payload) -> None:
        try:
            payload = restore_payload(payload)
            result = _dispatch(kind, payload)
        except BaseException as error:  # noqa: BLE001 - forwarded to caller
            reply(request_id, False, error)
            return
        reply(request_id, True, result)

    def _dispatch(kind, payload):
        if kind == "predict" or kind == "ensemble":
            try:
                return _run_request(kind, payload)
            except ModelNotFound:
                # The plan may have been published after this worker
                # indexed the directory; re-scan once and retry.
                registry.refresh()
                return _run_request(kind, payload)
        if kind == "refresh":
            # Parent-broadcast re-scan (a plan was published after this
            # worker indexed the directory): every replica picks up the
            # new key, not just the one that happened to hit ModelNotFound.
            registry.refresh()
            return len(registry)
        if kind == "models":
            return service.models()
        if kind == "stats":
            return service.stats_summary()
        if kind == "metrics":
            # Families are frozen tuples of str/float — they cross the
            # pickle boundary as-is for the parent to merge and relabel.
            return service.metrics_families()
        if kind == "ping":
            return "pong"
        raise ValueError(f"unknown request kind {kind!r}")

    def _run_request(kind, request):
        if kind == "predict":
            return service.predict_request(request)
        return service.ensemble_request(request)

    with ThreadPoolExecutor(
        max_workers=handler_threads, thread_name_prefix="plan-worker"
    ) as pool:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is _SHUTDOWN:
                break
            pool.submit(handle, *message)
        # The executor's __exit__ waits for every in-flight request, so all
        # replies are sent before the shutdown acknowledgement below.
    service.close()
    try:
        conn.send((_SHUTDOWN, True, "closed"))
    except (BrokenPipeError, OSError):  # parent already gone
        pass
    conn.close()


# ---------------------------------------------------------------------- #
# Parent-side worker handle
# ---------------------------------------------------------------------- #
class _WorkerClient:
    """One worker process: pipe, pending-future table, receiver thread."""

    def __init__(self, context, index: int, directory: str, capacity: int,
                 max_batch: Union[int, str], max_wait_ms: float,
                 handler_threads: int,
                 max_queue_depth: Optional[int] = None,
                 max_concurrent_ensembles: Optional[int] = None,
                 shm_threshold: Optional[int] = None,
                 shm_base: str = "", incarnation: int = 0,
                 log_dir: Optional[str] = None) -> None:
        self.index = index
        self.incarnation = incarnation
        self.shm_threshold = shm_threshold
        # One log file per shard, shared by every incarnation (append
        # mode), so restarts do not fragment a shard's request trace.
        log_path = (
            os.path.join(log_dir, f"worker-{index}.log")
            if log_dir is not None else None
        )
        # Segment names are per-(worker, incarnation): "...p..." segments
        # are created by the parent for this worker, "...w..." segments by
        # the worker itself.  Both prefixes are swept when the process dies
        # or the handle is closed, so no incarnation can leak into the next.
        self._parent_prefix = f"{shm_base}p{index}i{incarnation}n"
        self._worker_prefix = f"{shm_base}w{index}i{incarnation}n"
        self._segment_seq = itertools.count()
        self.transport = SegmentStats()
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, directory, capacity, max_batch, max_wait_ms,
                  handler_threads, max_queue_depth, max_concurrent_ensembles,
                  shm_threshold, self._worker_prefix,
                  index, log_path),
            name=f"plan-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        # request_id -> (future, names of in-flight shm segments the parent
        # created for this request; swept if the worker dies before
        # consuming them).
        self._pending: Dict[int, Tuple[Future, List[str]]] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        # Flipped (exactly once, by the receiver thread or a failed send)
        # when the worker process died rather than shut down: pending
        # futures get the typed WorkerDied and the shard is excluded until
        # a restart replaces this handle.
        self.dead = False
        # Set by the cluster just before a rolling restart drains this
        # handle: the router prefers any other live replica, so with
        # replicas >= 2 the restart is zero-downtime.  The handle still
        # serves as a last resort (replicas=1 keeps today's semantics).
        self.retiring = False
        self._receiver = threading.Thread(
            target=self._receive_loop, name=f"plan-worker-{index}-recv", daemon=True
        )
        self._receiver.start()

    def _allocate_name(self) -> str:
        return f"{self._parent_prefix}{next(self._segment_seq)}"

    def active_segments(self) -> int:
        """Parent-created segments still in flight (0 when drained)."""
        with self._lock:
            return sum(len(names) for _, names in self._pending.values())

    def load(self) -> int:
        """Requests currently in flight — the router's least-loaded signal."""
        with self._lock:
            return len(self._pending)

    def transport_stats(self) -> Dict[str, object]:
        """JSON-ready shared-memory transport counters (parent side)."""
        stats: Dict[str, object] = dict(self.transport.snapshot())
        stats["active_segments"] = self.active_segments()
        stats["shm_threshold"] = self.shm_threshold
        return stats

    def submit(self, kind: str, payload) -> Future:
        # Offloading copies the request arrays, so it happens before the
        # lock — a big batch must not stall the receiver's reply handling.
        payload, names = offload_payload(payload, self.shm_threshold,
                                         self._allocate_name, self.transport)
        future: Future = Future()
        with self._lock:
            if self._closed:
                self._discard_segments(names)
                raise RuntimeError("cluster is closed")
            if self.dead:
                self._discard_segments(names)
                raise WorkerDied(
                    f"worker {self.index} has died; its shard is excluded "
                    f"until it is restarted",
                    worker_index=self.index,
                )
            request_id = next(self._ids)
            self._pending[request_id] = (future, names)
            try:
                self._conn.send((request_id, kind, payload))
            except (BrokenPipeError, OSError) as error:
                self._pending.pop(request_id, None)
                self._discard_segments(names)
                self.dead = True
                raise WorkerDied(
                    f"worker {self.index} is not reachable: {error}",
                    worker_index=self.index,
                ) from None
        return future

    def _discard_segments(self, names: List[str]) -> None:
        removed = sum(1 for name in names if unlink_segment(name))
        if removed:
            self.transport.cleaned(removed)

    def _receive_loop(self) -> None:
        while True:
            try:
                request_id, ok, payload = self._conn.recv()
            except (EOFError, OSError):
                break
            if request_id is _SHUTDOWN:
                break
            with self._lock:
                entry = self._pending.pop(request_id, None)
            if entry is None:
                continue
            future, names = entry
            # The worker consumed the request segments before dispatching;
            # anything still present (a reply sent before restore, which
            # only a buggy worker could produce) is swept here so no reply
            # path can leak parent-created segments.
            self._discard_segments(names)
            if ok:
                try:
                    payload = restore_payload(payload, self.transport)
                except Exception as error:  # segment swept under us
                    future.set_exception(WorkerDied(
                        f"worker {self.index} reply lost its shared-memory "
                        f"payload: {error}",
                        worker_index=self.index,
                    ))
                    continue
                future.set_result(payload)
            elif isinstance(payload, BaseException):
                future.set_exception(payload)
            else:  # pragma: no cover - defensive
                future.set_exception(RuntimeError(str(payload)))
        with self._lock:
            closed = self._closed
            if not closed:
                # The pipe hit EOF without a shutdown handshake: the worker
                # process died underneath us.  Mark the shard dead *before*
                # failing the stranded futures so no new request can slip
                # into the pending table in between.
                self.dead = True
        if closed:
            self._fail_pending(RuntimeError(f"worker {self.index} exited"))
        else:
            self._fail_pending(WorkerDied(
                f"worker {self.index} died with the request in flight",
                worker_index=self.index,
            ))
        # Sweep both shm prefixes: request segments the dead worker never
        # consumed and reply segments whose descriptors never arrived.
        self._sweep_segments()

    def _fail_pending(self, error: BaseException) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
        for future, names in pending.values():
            self._discard_segments(names)
            if not future.done():
                future.set_exception(error)

    def _sweep_segments(self) -> None:
        cleanup_prefix(self._parent_prefix, self.transport)
        cleanup_prefix(self._worker_prefix, self.transport)

    def close(self, timeout: Optional[float]) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.send(_SHUTDOWN)
            except (BrokenPipeError, OSError):
                pass
        self._receiver.join(timeout=timeout)
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=1.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._fail_pending(RuntimeError(f"worker {self.index} is closed"))
        self._sweep_segments()


# ---------------------------------------------------------------------- #
# The cluster façade
# ---------------------------------------------------------------------- #
class PlanCluster:
    """Multi-process plan serving over one registry directory.

    Parameters mirror :class:`InferenceService` (each worker builds one
    with ``max_batch`` / ``max_wait_ms`` / ``capacity`` /
    ``max_queue_depth`` / ``max_concurrent_ensembles``), plus the process
    topology: ``num_workers`` serving processes and ``handler_threads``
    concurrent requests per worker (keep > 1 or micro-batches cannot
    form).  ``start_method`` selects the multiprocessing context; the
    ``spawn`` default gives workers a clean interpreter regardless of
    parent threads, at the cost of slower startup.

    ``replicas`` is the replication factor R (capped by ``num_workers``):
    each model's ordered owner list is the first R distinct workers
    clockwise from its key's position on a consistent-hash ring with
    ``vnodes`` virtual nodes per worker (:mod:`repro.serve.ring`).
    Requests go to the least-loaded live owner, fail over to the next on a
    worker death, and fail fast with ``breaker_open=True`` only when every
    owner's circuit breaker is open.  ``replicas=1`` reproduces the
    pre-ring single-shard semantics exactly.

    ``shm_threshold`` switches request/response arrays of at least that
    many bytes onto the shared-memory transport (``None`` or a negative
    value keeps everything on the pipe; ``0`` forces every array through
    shared memory — useful in tests).  ``auto_restart=True`` starts the
    self-healing supervisor: dead workers respawn with exponential backoff
    (``restart_backoff`` doubling per consecutive crash up to
    ``max_restart_backoff``); ``max_restarts`` consecutive crashes — a
    crash "streak" resets once a worker survives ``stability_window``
    seconds — open the shard's circuit breaker instead of retrying
    forever.
    """

    def __init__(
        self,
        directory,
        num_workers: int = 2,
        replicas: int = DEFAULT_REPLICAS,
        vnodes: int = DEFAULT_VNODES,
        capacity: int = 4,
        max_batch: Union[int, str] = 64,
        max_wait_ms: float = 2.0,
        handler_threads: int = 4,
        start_method: str = "spawn",
        max_queue_depth: Optional[int] = None,
        max_concurrent_ensembles: Optional[int] = None,
        shm_threshold: Optional[int] = DEFAULT_SHM_THRESHOLD,
        auto_restart: bool = False,
        max_restarts: int = 5,
        restart_backoff: float = 0.05,
        max_restart_backoff: float = 2.0,
        stability_window: float = 2.0,
        log_dir: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        if handler_threads < 1:
            raise ValueError("handler_threads must be at least 1")
        if max_restarts < 1:
            raise ValueError("max_restarts must be at least 1")
        if restart_backoff < 0 or max_restart_backoff < 0:
            raise ValueError("restart backoffs must be non-negative")
        # The parent never deserialises a plan; its registry is the
        # catalogue index used for listings (capacity 1 keeps it tiny).
        self.catalogue = PlanRegistry(directory, capacity=1)
        self.num_workers = num_workers
        self.replicas = replicas
        #: R capped by the worker count — what the router actually uses.
        self.effective_replicas = min(replicas, num_workers)
        self._ring: HashRing = get_ring(num_workers, vnodes)
        self.auto_restart = bool(auto_restart)
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.max_restart_backoff = max_restart_backoff
        self.stability_window = stability_window
        self._context = multiprocessing.get_context(start_method)
        # The trailing "_" terminates the cluster id so close()'s
        # cleanup_prefix for cluster 1 can never match cluster 11's
        # segments in the same process.
        self._shm_base = f"rps{os.getpid():x}c{next(_CLUSTER_IDS)}_"
        # Per-shard structured log files (worker-N.log, logfmt) when set.
        self._log_dir = str(log_dir) if log_dir is not None else None
        if self._log_dir is not None:
            os.makedirs(self._log_dir, exist_ok=True)
        # Kept so worker restarts can spawn identically configured
        # replacements for a dead shard.
        self._worker_config = (str(self.catalogue.directory), capacity,
                               max_batch, max_wait_ms, handler_threads,
                               max_queue_depth, max_concurrent_ensembles,
                               shm_threshold)
        self._workers = [
            self._spawn_worker(index, incarnation=0)
            for index in range(num_workers)
        ]
        self._closed = False
        # Supervisor bookkeeping, all guarded by _sup_lock.  _restart_lock
        # serialises actual worker replacement (supervisor vs. manual
        # restart_worker) without holding up state reads.
        self._sup_lock = threading.Lock()
        self._restart_lock = threading.Lock()
        self._restarts = [0] * num_workers
        self._consecutive = [0] * num_workers
        self._breaker = [False] * num_workers
        self._restart_due: List[Optional[float]] = [None] * num_workers
        self._last_restart: List[Optional[float]] = [None] * num_workers
        self._incarnations = [0] * num_workers
        self._sup_stop = threading.Event()
        # Parent-side registry: worker liveness, breaker/restart state, and
        # shm transport ledgers, all exported live via callbacks (the same
        # state stats_summary() reports).
        self.metrics = MetricsRegistry()
        self._build_instruments()
        self._supervisor: Optional[threading.Thread] = None
        if self.auto_restart:
            self._supervisor = threading.Thread(
                target=self._supervise, name="plan-cluster-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def _spawn_worker(self, index: int, incarnation: int) -> _WorkerClient:
        return _WorkerClient(
            self._context, index, *self._worker_config,
            shm_base=self._shm_base, incarnation=incarnation,
            log_dir=self._log_dir,
        )

    # ------------------------------------------------------------------ #
    # Observability (parent side)
    # ------------------------------------------------------------------ #
    def _build_instruments(self) -> None:
        metrics = self.metrics
        self._routed_total = metrics.counter(
            "repro_ring_routed_total",
            "Requests routed per worker and role (primary = the key's "
            "first ring owner, replica = any later owner).",
            labels=("worker", "role"),
        )
        self._failover_total = metrics.counter(
            "repro_ring_failover_total",
            "Requests routed past an unavailable owner to a live replica, "
            "by skipped worker and reason.",
            labels=("worker", "reason"),
        )
        self._refresh_broadcasts = metrics.counter(
            "repro_cluster_registry_refreshes_total",
            "Registry re-scan broadcasts to every live worker (a plan was "
            "published after cluster start).",
        )
        metrics.register_callback(
            "repro_ring_replicas", "gauge",
            "Replication factor: configured R and effective R (capped by "
            "the worker count).",
            lambda: [({"kind": "configured"}, float(self.replicas)),
                     ({"kind": "effective"}, float(self.effective_replicas))],
        )
        metrics.register_callback(
            "repro_ring_vnodes", "gauge",
            "Virtual nodes per worker on the consistent-hash ring.",
            lambda: [({}, float(self._ring.vnodes))],
        )
        metrics.register_callback(
            "repro_ring_model_replicas_live", "gauge",
            "Live (alive, breaker closed) owners per served model key.",
            self._collect_model_replicas,
        )
        metrics.register_callback(
            "repro_cluster_worker_up", "gauge",
            "1 while the shard's worker process is alive, else 0.",
            lambda: [
                ({"worker": str(worker.index)}, 0.0 if worker.dead else 1.0)
                for worker in list(self._workers)
            ],
        )
        metrics.register_callback(
            "repro_cluster_breaker_open", "gauge",
            "1 while the shard's circuit breaker is open.",
            self._collect_breakers,
        )
        metrics.register_callback(
            "repro_cluster_worker_restarts_total", "counter",
            "Times each shard's worker has been replaced.",
            self._collect_restarts,
        )
        metrics.register_callback(
            "repro_cluster_worker_consecutive_crashes", "gauge",
            "Current crash streak per shard (resets after stability_window).",
            self._collect_crash_streaks,
        )
        metrics.register_callback(
            "repro_cluster_shm_segments_total", "counter",
            "Shared-memory segments by lifecycle event (created/consumed/"
            "cleaned), per shard, parent side.",
            lambda: self._collect_shm("segments"),
        )
        metrics.register_callback(
            "repro_cluster_shm_bytes_total", "counter",
            "Bytes moved through shared memory per shard and direction, "
            "parent side.",
            lambda: self._collect_shm("bytes"),
        )
        metrics.register_callback(
            "repro_cluster_shm_active_segments", "gauge",
            "Parent-created segments currently in flight per shard.",
            lambda: [
                ({"worker": str(worker.index)}, float(worker.active_segments()))
                for worker in list(self._workers)
            ],
        )

    def _collect_breakers(self) -> Sequence[Tuple[Mapping[str, str], float]]:
        with self._sup_lock:
            flags = list(self._breaker)
        return [({"worker": str(i)}, 1.0 if flag else 0.0)
                for i, flag in enumerate(flags)]

    def _collect_restarts(self) -> Sequence[Tuple[Mapping[str, str], float]]:
        with self._sup_lock:
            counts = list(self._restarts)
        return [({"worker": str(i)}, float(count))
                for i, count in enumerate(counts)]

    def _collect_crash_streaks(
        self,
    ) -> Sequence[Tuple[Mapping[str, str], float]]:
        with self._sup_lock:
            streaks = list(self._consecutive)
        return [({"worker": str(i)}, float(streak))
                for i, streak in enumerate(streaks)]

    def _collect_model_replicas(
        self,
    ) -> Sequence[Tuple[Mapping[str, str], float]]:
        workers, breakers, _, _ = self._snapshot_state()
        available = [not worker.dead and not breakers[worker.index]
                     for worker in workers]
        samples = []
        # Ring placement is version-blind: a __v2 artifact lives on the same
        # shards as its base model, so requests routed by base key can be
        # canaried onto it inside the worker without re-routing.
        for base in dict.fromkeys(k.base_canonical()
                                  for k in self.catalogue.keys()):
            owners = self._ring.owners(base, self.effective_replicas)
            live = sum(1 for index in owners if available[index])
            samples.append(({"model": base}, float(live)))
        return samples

    def _collect_shm(self, which: str):
        samples = []
        for worker in list(self._workers):
            snapshot = worker.transport.snapshot()
            label = str(worker.index)
            if which == "segments":
                for event in ("created", "consumed", "cleaned"):
                    samples.append((
                        {"worker": label, "event": event},
                        float(snapshot.get(f"segments_{event}", 0)),
                    ))
            else:
                for direction in ("sent", "received"):
                    samples.append((
                        {"worker": label, "direction": direction},
                        float(snapshot.get(f"bytes_{direction}", 0)),
                    ))
        return samples

    def metrics_families(self, timeout: Optional[float] = 5.0) -> List[MetricFamily]:
        """Parent instruments plus every live worker's families.

        Worker families are fetched over the pipe (each worker snapshots
        its own registry) and tagged ``worker="N"``; dead or unresponsive
        workers are skipped rather than failing the scrape — the parent's
        ``repro_cluster_worker_up`` gauge reports them.
        """
        families = self.metrics.collect()
        futures: List[Tuple[int, Future]] = []
        for worker in list(self._workers):
            if worker.dead:
                continue
            try:
                futures.append((worker.index, worker.submit("metrics", None)))
            except (WorkerDied, RuntimeError):
                continue
        for index, future in futures:
            try:
                worker_families = future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - a scrape must never fail
                continue
            families.extend(relabel(worker_families, "worker", str(index)))
        return families

    def _snapshot_state(
        self,
    ) -> Tuple[List[_WorkerClient], List[bool], List[int], List[int]]:
        """One consistent (workers, breakers, restarts, streaks) snapshot.

        Handle swaps during a restart happen under the same lock, so no
        reader can observe a respawn half-applied — a worker is never
        counted dead under the old handle while its restart is already in
        the counters (or vice versa).
        """
        with self._sup_lock:
            return (list(self._workers), list(self._breaker),
                    list(self._restarts), list(self._consecutive))

    def health_summary(self) -> Tuple[str, Dict[str, Dict[str, object]]]:
        """(status, detail) for the health endpoint.

        ``"degraded"`` as soon as any worker is dead or its breaker is
        open — the signal a load balancer acts on — else ``"ok"``.  The
        detail maps ``worker-N`` to per-shard liveness and, under the
        ``"models"`` key, each served model to its replica health:
        ``{"replicas": R, "live": n, "state": ...}`` where ``state`` is
        ``"ok"`` (all R owners live), ``"degraded"`` (serving on fewer
        than R replicas), or ``"down"`` (no live owner — the only case
        where requests for the model actually fail).
        """
        detail: Dict[str, Dict[str, object]] = {}
        degraded = False
        workers, breakers, restarts, _ = self._snapshot_state()
        available = [False] * self.num_workers
        for worker in workers:
            index = worker.index
            alive = not worker.dead
            breaker_open = breakers[index] if index < len(breakers) else False
            available[index] = alive and not breaker_open
            if not alive or breaker_open:
                degraded = True
            detail[f"worker-{index}"] = {
                "alive": alive,
                "breaker_open": breaker_open,
                "restarts": restarts[index] if index < len(restarts) else 0,
            }
        models: Dict[str, Dict[str, object]] = {}
        # Version-blind placement: all versions of a model share the base
        # stem's ring owners, so health is reported once per base model.
        for base in dict.fromkeys(k.base_canonical()
                                  for k in self.catalogue.keys()):
            owners = self._ring.owners(base, self.effective_replicas)
            live = sum(1 for index in owners if available[index])
            state = ("ok" if live == len(owners)
                     else "degraded" if live else "down")
            models[base] = {
                "replicas": len(owners), "live": live, "state": state,
            }
        detail["models"] = models
        return ("degraded" if degraded else "ok"), detail

    def describe_workers(self) -> List[Dict[str, object]]:
        """JSON-ready per-shard process detail (the ``/admin/workers`` body).

        Besides process liveness, each entry carries the shard's ring
        placement: every model key the worker owns, split into the keys it
        is *primary* for (first ring owner) and the keys it backs as a
        *replica*.
        """
        workers, breakers, restarts, streaks = self._snapshot_state()
        ownership: Dict[int, Dict[str, List[str]]] = {
            worker.index: {"primary": [], "replica": []}
            for worker in workers
        }
        for base in dict.fromkeys(k.base_canonical()
                                  for k in self.catalogue.keys()):
            owners = self._ring.owners(base, self.effective_replicas)
            for position, index in enumerate(owners):
                if index in ownership:
                    role = "primary" if position == 0 else "replica"
                    ownership[index][role].append(base)
        described: List[Dict[str, object]] = []
        for worker in workers:
            index = worker.index
            described.append({
                "index": index,
                "alive": not worker.dead,
                "retiring": worker.retiring,
                "pid": worker.process.pid,
                "incarnation": worker.incarnation,
                "restarts": restarts[index] if index < len(restarts) else 0,
                "consecutive_crashes":
                    streaks[index] if index < len(streaks) else 0,
                "breaker_open":
                    breakers[index] if index < len(breakers) else False,
                "active_segments": worker.active_segments(),
                "load": worker.load(),
                "serves": ownership.get(index,
                                        {"primary": [], "replica": []}),
            })
        return described

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def worker_for(self, model: str, bits: Optional[int], mapping: str) -> int:
        """Index of the *primary* worker for one plan key (its first ring
        owner — where requests land while every replica is idle)."""
        return self._ring.primary(PlanKey(model, bits, mapping).canonical())

    def replicas_for(
        self, model: str, bits: Optional[int], mapping: str
    ) -> Tuple[int, ...]:
        """The key's ordered owner list: primary first, then replicas."""
        return self._ring.owners(
            PlanKey(model, bits, mapping).canonical(), self.effective_replicas
        )

    def _no_replica_error(
        self, owners: Tuple[int, ...], breakers: List[bool]
    ) -> WorkerDied:
        """The typed error when every owner of a key is unavailable.

        ``breaker_open=True`` (the operator-action fail-fast signal) only
        when *all* owners are breaker-open; any mix that includes a merely
        dead worker stays retryable.
        """
        primary = owners[0]
        phrase = (f"worker {primary}" if len(owners) == 1
                  else "all replicas " + "/".join(str(i) for i in owners))
        if all(breakers[index] for index in owners):
            return WorkerDied(
                f"{phrase} crash-looped; the circuit breaker(s) are open "
                f"and the key stays down until restart_worker() re-admits "
                f"a replica",
                worker_index=primary, breaker_open=True,
            )
        if self.auto_restart:
            return WorkerDied(
                f"{phrase} died and respawns are in progress; the request "
                f"is safe to retry shortly",
                worker_index=primary,
            )
        return WorkerDied(
            f"{phrase} has died; the key is excluded until "
            f"restart_worker() re-admits a replica",
            worker_index=primary,
        )

    def _select_worker(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        excluded: Mapping[int, BaseException],
    ) -> _WorkerClient:
        """The least-loaded live owner of a key, failing over in ring
        order past dead / breaker-open / retiring replicas.

        ``excluded`` maps owner indices this call already tried (the
        worker died with the request in flight) to the error they raised;
        when no owner remains the most recent of those errors is re-raised
        — for ``replicas=1`` that reproduces the single-shard semantics
        exactly.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        owners = self.replicas_for(model, bits, mapping)
        workers, breakers, _, _ = self._snapshot_state()
        candidates: List[Tuple[int, _WorkerClient]] = []
        retiring: List[Tuple[int, _WorkerClient]] = []
        skipped: List[Tuple[int, str]] = []
        for position, index in enumerate(owners):
            worker = workers[index]
            if index in excluded:
                skipped.append((index, "died_in_flight"))
                continue
            if worker.dead:
                skipped.append((index, "dead"))
                continue
            if breakers[index]:
                skipped.append((index, "breaker_open"))
                continue
            if worker.retiring:
                # Draining for a rolling restart: last resort only.
                retiring.append((position, worker))
                continue
            candidates.append((position, worker))
        if not candidates and retiring:
            # replicas=1 (or everything else down): ride out the drain the
            # way the pre-ring cluster did rather than failing the key.
            candidates = retiring[:1]
        elif retiring and candidates:
            skipped.extend((worker.index, "retiring")
                           for _, worker in retiring)
        if not candidates:
            if excluded:
                # Re-raise what the last attempt actually saw.
                raise next(reversed(list(excluded.values())))
            raise self._no_replica_error(owners, breakers)
        position, chosen = min(
            candidates, key=lambda entry: (entry[1].load(), entry[0])
        )
        for index, reason in skipped:
            self._failover_total.inc(worker=str(index), reason=reason)
        self._routed_total.inc(
            worker=str(chosen.index),
            role="primary" if chosen.index == owners[0] else "replica",
        )
        return chosen

    def _ensure_catalogued(
        self, model: str, bits: Optional[int], mapping: str
    ) -> None:
        """Heal the publish-after-start gap before routing.

        A key missing from the parent catalogue triggers one re-scan; if
        the scan finds it (the plan was published after cluster start),
        every live worker is told to re-index too — otherwise only the
        replica that happened to receive a request would heal via its
        ModelNotFound retry, leaving the other R-1 replicas serving 404s.
        """
        key = PlanKey(model, bits, mapping)
        if key in self.catalogue:
            return
        self.catalogue.refresh()
        if key in self.catalogue:
            self.refresh_workers()

    def refresh_workers(self, timeout: Optional[float] = 30.0) -> None:
        """Broadcast a registry re-scan to every live worker.

        Waits for the acknowledgements (bounded by ``timeout``) so that a
        request routed immediately afterwards cannot hit a stale replica;
        workers that die mid-broadcast are skipped — their replacement
        re-indexes the directory on spawn anyway.
        """
        futures: List[Future] = []
        workers, _, _, _ = self._snapshot_state()
        for worker in workers:
            if worker.dead:
                continue
            try:
                futures.append(worker.submit("refresh", None))
            except (WorkerDied, RuntimeError):
                continue
        for future in futures:
            try:
                future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - dead replica heals on respawn
                continue
        self._refresh_broadcasts.inc()

    # ------------------------------------------------------------------ #
    # Versioned rollout (admin surface; the shared plan directory is the
    # source of truth, so one `_rollout.json` write is seen by every
    # worker's registry on its next stat of the file)
    # ------------------------------------------------------------------ #
    def set_canary(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: int,
        fraction: float,
    ) -> Dict[str, Any]:
        """Canary ``fraction`` of traffic onto ``version``, cluster-wide.

        The refresh broadcast makes every replica index the versioned
        artifact *before* the first canaried request can route to it —
        without it only the replica that happened to take the first
        request would heal via its ModelNotFound retry.
        """
        state = self.catalogue.set_canary(model, bits, mapping, version,
                                          fraction)
        self.refresh_workers()
        log_event(_LOG, "rollout_canary", model=model, mapping=mapping,
                  bits=bits, version=version, fraction=fraction)
        return state

    def promote(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Atomically make ``version`` (default: the canary) active."""
        state = self.catalogue.promote(model, bits, mapping, version)
        self.refresh_workers()
        log_event(_LOG, "rollout_promote", model=model, mapping=mapping,
                  bits=bits, active=state.get("active"))
        return state

    def rollback(
        self, model: str, bits: Optional[int], mapping: str
    ) -> Dict[str, Any]:
        """Atomically revert to the previously active version."""
        state = self.catalogue.rollback(model, bits, mapping)
        log_event(_LOG, "rollout_rollback", model=model, mapping=mapping,
                  bits=bits, active=state.get("active"))
        return state

    def rollout_status(self) -> Dict[str, Dict[str, Any]]:
        """The rollout table as JSON-ready dicts."""
        return self.catalogue.rollout_status()

    @property
    def dead_workers(self) -> List[int]:
        """Indices of workers whose process has died (shards excluded).

        Read through the same snapshot the restart path writes, so a
        respawning worker can never appear dead here while its restart is
        already counted elsewhere.
        """
        workers, _, _, _ = self._snapshot_state()
        return [worker.index for worker in workers if worker.dead]

    @property
    def open_breakers(self) -> List[int]:
        """Shards whose circuit breaker is open (no automatic respawn)."""
        with self._sup_lock:
            return [index for index, is_open in enumerate(self._breaker)
                    if is_open]

    # ------------------------------------------------------------------ #
    # Self-healing supervisor
    # ------------------------------------------------------------------ #
    def _supervise(self) -> None:
        while not self._sup_stop.wait(0.02):
            now = time.monotonic()
            for index in range(self.num_workers):
                if self._sup_stop.is_set():
                    return
                try:
                    self._supervise_one(index, now)
                except Exception:  # noqa: BLE001
                    # A failed respawn (fd/process exhaustion mid
                    # crash-storm) must not kill the supervisor: the shard
                    # stays dead, the next tick reschedules it with a
                    # larger backoff, and the breaker still bounds the
                    # loop.  Swallowing here is what keeps self-healing
                    # alive for every other shard too.
                    continue

    def _supervise_one(self, index: int, now: float) -> None:
        with self._sup_lock:
            if self._closed or self._breaker[index]:
                return
            worker = self._workers[index]
            if not worker.dead:
                # Healthy: once the latest respawn has survived the
                # stability window, the crash streak is forgiven.
                last = self._last_restart[index]
                if (self._consecutive[index] and last is not None
                        and now - last >= self.stability_window):
                    self._consecutive[index] = 0
                self._restart_due[index] = None
                return
            if self._consecutive[index] >= self.max_restarts:
                # Crash-looping past the budget: trip the breaker instead
                # of burning CPU respawning a shard that cannot stay up.
                self._breaker[index] = True
                self._restart_due[index] = None
                log_event(_LOG, "breaker_open", level=logging.WARNING,
                          worker=index, crashes=self._consecutive[index])
                return
            due = self._restart_due[index]
            if due is None:
                delay = min(
                    self.restart_backoff * (2 ** self._consecutive[index]),
                    self.max_restart_backoff,
                )
                self._restart_due[index] = now + delay
                return
            if now < due:
                return
            self._restart_due[index] = None
            self._consecutive[index] += 1
        self._respawn(index)

    def _respawn(self, index: int) -> None:
        """Replace one dead worker (supervisor path; spawning is slow, so
        it happens outside ``_sup_lock``)."""
        with self._restart_lock:
            if self._closed:
                return
            old = self._workers[index]
            if not old.dead:  # raced with a manual restart_worker
                return
            old.retiring = True
            old.close(timeout=10.0)
            with self._sup_lock:
                incarnation = self._incarnations[index] + 1
            # May raise under resource exhaustion; counters update only on
            # success so a failed attempt is retried (with backoff) rather
            # than recorded as a restart.
            replacement = self._spawn_worker(index, incarnation)
            # Counters and the handle swap commit atomically: no reader
            # can see the restart counted while the dead handle still
            # routes (or the new handle live with a stale streak).
            with self._sup_lock:
                self._incarnations[index] = incarnation
                self._restarts[index] += 1
                self._last_restart[index] = time.monotonic()
                self._workers[index] = replacement
            log_event(_LOG, "worker_respawned", worker=index,
                      incarnation=incarnation, pid=replacement.process.pid)

    def restart_worker(self, index: int) -> None:
        """Replace one worker process, re-admitting its shard.

        Safe for both dead and live workers (a live one is drained and
        shut down first), so it doubles as a rolling-restart primitive —
        and with ``replicas >= 2`` a *zero-downtime* one: the handle is
        marked retiring before the drain, so new requests for its keys
        route to their other live owners for the whole restart window.
        A manual restart also resets the shard's crash streak and closes
        its circuit breaker — this is the operator's re-admission path
        after a crash-loop.  The replacement rebuilds its registry over
        the shared directory and serves the exact same ring positions —
        the partition is a pure function of ``(key, num_workers,
        replicas)``, so no other worker is disturbed.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        if not 0 <= index < self.num_workers:
            raise ValueError(
                f"worker index {index} out of range 0..{self.num_workers - 1}"
            )
        with self._restart_lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            old = self._workers[index]
            # Route new work to the other replicas before draining; with
            # replicas=1 the router still uses the retiring handle as the
            # last resort, preserving the pre-ring behavior.
            old.retiring = True
            # For a dead worker this just reaps the corpse and fails any
            # straggler futures; for a live one it is the graceful drain.
            old.close(timeout=30.0)
            with self._sup_lock:
                incarnation = self._incarnations[index] + 1
            replacement = self._spawn_worker(index, incarnation)
            # Swap and counters commit atomically (see _respawn).
            with self._sup_lock:
                self._incarnations[index] = incarnation
                self._restarts[index] += 1
                self._consecutive[index] = 0
                self._breaker[index] = False
                self._restart_due[index] = None
                self._last_restart[index] = time.monotonic()
                self._workers[index] = replacement
            log_event(_LOG, "worker_restarted", worker=index,
                      incarnation=incarnation,
                      pid=replacement.process.pid)

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def _submit_routed(
        self,
        kind: str,
        request: Union[PredictRequest, EnsembleRequest],
        excluded: Dict[int, BaseException],
    ) -> Tuple[_WorkerClient, Future]:
        """Select an owner and submit, failing over on submit-time races.

        A worker that dies between selection and the pipe send (or a
        handle drained for a rolling restart) is recorded in ``excluded``
        and the next owner is tried at once; ``_select_worker`` raises the
        recorded error when the key has no owner left.
        """
        while True:
            worker = self._select_worker(request.model, request.bits,
                                         request.mapping, excluded)
            try:
                return worker, worker.submit(kind, request)
            except WorkerDied as error:
                excluded[worker.index] = error
            except RuntimeError as error:
                if self._closed:
                    raise
                excluded[worker.index] = error

    def _request(
        self,
        kind: str,
        request: Union[PredictRequest, EnsembleRequest],
        timeout: Optional[float],
    ):
        """One typed request with immediate replica failover.

        The request dataclass itself crosses the pipe (its arrays over
        shared memory above ``shm_threshold``), stamped first with its
        trace id so the worker's service logs the id the caller holds.  A
        ``WorkerDied`` from an in-flight request does not wait for the
        supervisor's respawn: the same (idempotent, deterministic) request
        is resubmitted to the key's next live owner right away.  Only when
        every owner has been tried or is unavailable does the typed error
        surface to the caller — at which point ``ClusterClient``'s
        backoff-retry loop takes over (or, for ``breaker_open=True``, the
        caller fails fast).  Parent-side failures (a closed cluster, an
        unroutable key) fold into the same typed errors the worker raises.
        """
        request_id = ensure_request_id(request.request_id)
        images = np.asarray(request.images)
        if request_id != request.request_id or images is not request.images:
            request = replace(request, images=images, request_id=request_id)
        try:
            self._ensure_catalogued(request.model, request.bits,
                                    request.mapping)
            excluded: Dict[int, BaseException] = {}
            while True:
                worker, future = self._submit_routed(kind, request, excluded)
                try:
                    return future.result(timeout=timeout)
                except WorkerDied as error:
                    excluded[worker.index] = error
        except ApiError:
            raise
        except Exception as error:
            raise map_exception(error) from error

    def predict_request(
        self, request: PredictRequest, timeout: Optional[float] = 60.0
    ) -> PredictResult:
        """Deterministic logits from a live owner of this model."""
        return self._request("predict", request, timeout)

    def ensemble_request(
        self, request: EnsembleRequest, timeout: Optional[float] = 120.0
    ) -> EnsembleResult:
        """Seeded Monte-Carlo ensemble request, served by a live owner.

        Ensemble sampling is a pure function of the request (model digest,
        sigma, samples, seed), so failover between replicas is bit-exact.
        """
        return self._request("ensemble", request, timeout)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def models(self) -> List[dict]:
        """The shared catalogue with digests, annotated with each key's
        primary worker and full replica list."""
        self.catalogue.refresh()
        described = self.catalogue.describe()
        for entry in described:
            owners = self.replicas_for(
                entry["model"], entry["bits"], entry["mapping"]
            )
            entry["worker"] = owners[0]
            entry["replicas"] = list(owners)
        return described

    def stats_summary(self, timeout: Optional[float] = 10.0) -> Dict[str, dict]:
        """Per-worker serving statistics (JSON-ready), keyed ``worker-N``.

        Each worker's service stats are annotated parent-side with a
        ``transport`` block (shared-memory segments/bytes moved, in-flight
        segment gauge) and a ``supervisor`` block (restart counts, crash
        streak, breaker state).  A dead worker reports ``{"status":
        {"dead": True}}`` instead of failing the whole listing, so
        monitoring keeps working while a shard is down.  Liveness and
        supervisor counters come from one state snapshot, so this listing,
        ``dead_workers``, and ``/admin/workers`` agree at every point of a
        rolling restart.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        workers, breakers, restarts, streaks = self._snapshot_state()
        futures: Dict[int, Future] = {}
        for worker in workers:
            if worker.dead:
                continue
            try:
                futures[worker.index] = worker.submit("stats", None)
            except (WorkerDied, RuntimeError):
                pass  # died (or closed) between the check and the send
        summary: Dict[str, dict] = {}
        for worker in workers:
            future = futures.get(worker.index)
            try:
                if future is None:
                    raise WorkerDied(f"worker {worker.index} is dead",
                                     worker_index=worker.index)
                stats = dict(future.result(timeout=timeout))
            except WorkerDied:
                stats = {"status": {"dead": True}}
            stats["transport"] = worker.transport_stats()
            stats["supervisor"] = {
                "auto_restart": self.auto_restart,
                "restarts": restarts[worker.index],
                "consecutive_crashes": streaks[worker.index],
                "breaker_open": breakers[worker.index],
            }
            summary[f"worker-{worker.index}"] = stats
        return summary

    def wait_ready(self, timeout: Optional[float] = 60.0) -> None:
        """Block until every worker process answers a ping."""
        futures = [worker.submit("ping", None) for worker in list(self._workers)]
        for future in futures:
            future.result(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Drain every worker (in-flight requests and micro-batches) and exit."""
        if self._closed:
            return
        self._closed = True
        self._sup_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        with self._restart_lock:
            for worker in self._workers:
                worker.close(timeout)
        # Belt and braces: nothing under this cluster's prefix may survive
        # (worker sweeps already ran per handle; this catches a handle
        # replaced mid-close).
        cleanup_prefix(self._shm_base)

    def __enter__(self) -> "PlanCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
