"""Cross-process plan sharding: one registry directory, N serving workers.

A :class:`PlanCluster` turns a single :class:`~repro.serve.registry.PlanRegistry`
directory into a multi-process serving deployment.  Each worker process
builds its own registry over the shared directory and runs a full
:class:`~repro.serve.service.InferenceService` (one micro-batching
scheduler per model it serves); the parent keeps only the catalogue index
plus one handle per worker — its duplex pipe and its supervisor state,
the parent's only per-shard table.  Models are partitioned across workers by
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
travels down the pipe under a correlation id, and a receiver thread in
the parent scatters the typed results back onto per-request futures.
The worker serves its pipe the way an in-process service serves its
callers: a predict goes from the receive loop straight into its model's
micro-batch scheduler and is answered from the batch's done-callback,
so the scheduler queue is the worker's only queue (coalescing and
``max_queue_depth`` behave as in process); an ensemble or admin request
runs on a thread of its own, as a caller's thread runs it in process.
Results are exact — the same float64 arrays an in-process service would
return, moved across a pickle boundary.  The pipe is the only transport:
every array, large or small, rides the pickle stream.

**Late publishes** need no coordination: each worker's registry re-scans
the shared directory when a request names a key it has not indexed
(:meth:`~repro.serve.registry.PlanRegistry.get`), so a plan published
after the cluster started — a new model, or a ``__vN`` rollout version —
is served by whichever owner the request lands on.

**Self-healing** (``auto_restart=True``): a supervisor thread watches for
dead workers and respawns each one with bounded exponential backoff
(``restart_backoff`` doubling up to ``max_restart_backoff``).  A worker
that keeps crash-looping — ``max_restarts`` consecutive deaths without
surviving ``stability_window`` seconds — trips its shard's *circuit
breaker*: the supervisor stops respawning it and requests to the shard
fail fast with :class:`~repro.api.errors.WorkerDied` carrying
``breaker_open=True`` until an operator re-admits it via
:meth:`PlanCluster.restart_worker` (which resets the breaker).  Under
replication (R >= 2) the ring absorbs a death first: a breaker-open or
dead owner is skipped in favour of a live replica (counted by
``repro_ring_failover_total``).  When *no* owner of a key is live but at
least one breaker is still closed, the request itself waits for the
supervisor's respawn (counted by ``repro_cluster_respawn_waits_total``)
and then routes to the fresh worker — every protocol request is
idempotent/deterministic, so this loses zero requests across a worker
SIGKILL, for every front end alike.  ``WorkerDied`` reaches the caller
only when waiting cannot help: the cluster does not auto-restart, every
owner's breaker is open (``breaker_open=True``), or the request's
``timeout`` ran out first.

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

import contextlib
import functools
import itertools
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.api.errors import ApiError, WorkerDied, map_exception
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
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, get_ring
from repro.serve.scheduler import check_max_batch
from repro.serve.service import InferenceService

_SHUTDOWN = None

_LOG = logging.getLogger("repro.serve.cluster")


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
    max_batch: int,
    max_queue_depth: Optional[int] = None,
    max_concurrent_ensembles: Optional[int] = None,
    worker_index: int = 0,
    log_path: Optional[str] = None,
) -> None:
    """Serve requests from the pipe until the shutdown sentinel arrives.

    Module-level so it pickles under the ``spawn`` start method.  Replies
    are ``(request_id, ok, payload)`` where ``payload`` is the result or
    the exception object itself (exceptions re-raise in the caller's
    process with their original type — including the typed ``ApiError``
    subclasses, e.g. backpressure raised by the worker's service).

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
    registry = PlanRegistry(directory)
    service = InferenceService(registry, max_batch=max_batch,
                               max_queue_depth=max_queue_depth,
                               max_concurrent_ensembles=max_concurrent_ensembles,
                               shard=worker_index)
    send_lock = threading.Lock()

    def reply(request_id, ok, payload) -> None:
        try:
            with send_lock:
                conn.send((request_id, ok, payload))
        except OSError:  # the parent is gone: nobody awaits the reply
            pass
        except Exception as error:  # unpicklable payload; degrade to a message
            with contextlib.suppress(OSError), send_lock:
                conn.send((request_id, False,
                           RuntimeError(f"{type(payload).__name__}: {error}")))

    def answer(request_id, future: Future) -> None:
        error = future.exception()
        if error is None:
            reply(request_id, True, future.result())
        else:
            reply(request_id, False, error)

    def handle(request_id, kind, payload) -> None:
        try:
            result = _dispatch(kind, payload)
        except BaseException as error:  # noqa: BLE001 - forwarded to caller
            reply(request_id, False, error)
            return
        reply(request_id, True, result)

    def _dispatch(kind, payload):
        if kind == "ensemble":
            return service.ensemble_request(payload)
        if kind == "stats":
            return service.stats_summary()
        if kind == "metrics":
            # Families are frozen tuples of str/float — they cross the
            # pickle boundary as-is for the parent to merge and relabel.
            return service.metrics_families()
        if kind == "ping":
            return "pong"
        raise ValueError(f"unknown request kind {kind!r}")

    # Ensemble and admin requests still running, each on its own thread.
    threads: List[threading.Thread] = []
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is _SHUTDOWN:
            break
        request_id, kind, payload = message
        if kind == "predict":
            service._submit_predict(payload).add_done_callback(
                functools.partial(answer, request_id))
            continue
        threads = [thread for thread in threads if thread.is_alive()]
        thread = threading.Thread(target=handle, args=message,
                                  name=f"plan-worker-{kind}", daemon=True)
        thread.start()
        threads.append(thread)
    # Every request received before the sentinel is answered before the
    # acknowledgement below: the request threads finish first, then
    # closing the service flushes the schedulers, whose done-callbacks
    # reply to the predicts still queued.
    for thread in threads:
        thread.join()
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
    """One incarnation of one shard: its worker process, pipe,
    pending-future table and receiver thread, plus the shard's supervisor
    state.

    The cluster keeps no other per-shard table.  A restart builds a new
    handle carrying its predecessor's crash streak and swaps it into the
    shard's slot in one assignment, so a reader holding a handle sees one
    incarnation's liveness and counters together.  Every replacement is
    the next ``incarnation``, which therefore doubles as the shard's
    restart count.
    """

    def __init__(self, context, index: int, directory: str, max_batch: int,
                 max_queue_depth: Optional[int] = None,
                 max_concurrent_ensembles: Optional[int] = None,
                 incarnation: int = 0,
                 log_dir: Optional[str] = None) -> None:
        self.index = index
        self.incarnation = incarnation
        # One log file per shard, shared by every incarnation (append
        # mode), so restarts do not fragment a shard's request trace.
        log_path = (
            os.path.join(log_dir, f"worker-{index}.log")
            if log_dir is not None else None
        )
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, directory, max_batch,
                  max_queue_depth, max_concurrent_ensembles, index, log_path),
            name=f"plan-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        self._pending: Dict[int, Future] = {}
        self._ids = itertools.count()
        # ``_lock`` guards the pending table and the closed/dead flags and
        # is never held across a pipe write, so a large pickle in flight
        # blocks neither reply delivery nor ``load()``.  ``_send_lock``
        # orders each request's registration and write against the other
        # submits and ``close()``'s sentinel (lock order: send, then table).
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
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
        # Supervisor state, written under the cluster's _sup_lock.
        # Consecutive crashes, forgiven once an incarnation has been up
        # for stability_window seconds since it ``started``; at
        # max_restarts the breaker opens and respawning stops.
        self.crash_streak = 0
        self.started = time.monotonic()
        self.breaker_open = False
        # When the supervisor respawns this (dead) incarnation.
        self.restart_due: Optional[float] = None
        self._receiver = threading.Thread(
            target=self._receive_loop, name=f"plan-worker-{index}-recv", daemon=True
        )
        self._receiver.start()

    @property
    def available(self) -> bool:
        """Alive with its breaker closed: an owner requests may route to."""
        return not self.dead and not self.breaker_open

    def load(self) -> int:
        """Requests currently in flight — the router's least-loaded signal."""
        with self._lock:
            return len(self._pending)

    def submit(self, kind: str, payload) -> Future:
        future: Future = Future()
        with self._send_lock:
            with self._lock:
                if self._closed:
                    raise RuntimeError("cluster is closed")
                if self.dead:
                    raise WorkerDied(
                        f"worker {self.index} has died; its shard is excluded "
                        f"until it is restarted",
                        worker_index=self.index,
                    )
                request_id = next(self._ids)
                self._pending[request_id] = future
            try:
                self._conn.send((request_id, kind, payload))
            except (BrokenPipeError, OSError) as error:
                with self._lock:
                    self._pending.pop(request_id, None)
                    self.dead = True
                raise WorkerDied(
                    f"worker {self.index} is not reachable: {error}",
                    worker_index=self.index,
                ) from None
        return future

    def _receive_loop(self) -> None:
        while True:
            try:
                request_id, ok, payload = self._conn.recv()
            except (EOFError, OSError):
                break
            if request_id is _SHUTDOWN:
                break
            with self._lock:
                future = self._pending.pop(request_id, None)
            if future is None:
                continue
            if ok:
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

    def _fail_pending(self, error: BaseException) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    def close(self, timeout: Optional[float]) -> None:
        with self._send_lock:
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


# ---------------------------------------------------------------------- #
# The cluster façade
# ---------------------------------------------------------------------- #
class PlanCluster:
    """Multi-process plan serving over one registry directory.

    Parameters mirror :class:`InferenceService` (each worker builds one
    with ``max_batch`` / ``max_queue_depth`` /
    ``max_concurrent_ensembles``, which bound each worker exactly as they
    bound an in-process service), plus the process topology:
    ``num_workers`` serving processes.

    ``replicas`` is the replication factor R (capped by ``num_workers``):
    each model's ordered owner list is the first R distinct workers
    clockwise from its key's position on the consistent-hash ring
    (:mod:`repro.serve.ring`, ``DEFAULT_VNODES`` virtual nodes per worker).
    Requests go to the least-loaded live owner, fail over to the next on a
    worker death, and fail fast with ``breaker_open=True`` only when every
    owner's circuit breaker is open.  ``replicas=1`` reproduces the
    pre-ring single-shard semantics exactly.

    ``auto_restart=True`` starts the self-healing supervisor: dead workers
    respawn with exponential backoff (``restart_backoff`` doubling per
    consecutive crash up to ``max_restart_backoff``); ``max_restarts``
    consecutive crashes — a crash "streak" resets once a worker survives
    ``stability_window`` seconds — open the shard's circuit breaker instead
    of retrying forever.  While a respawn is pending, requests for the
    shard's keys wait for it (bounded by their ``timeout``) instead of
    failing.

    Each shard's liveness and supervisor counters live on its worker
    handle in ``_workers``; a restart swaps in a whole new handle, so every
    reader takes the list once and needs no lock.  A plan published after
    start is found by the owning workers' registries on their first miss
    and by the parent's catalogue on its next listing.
    """

    def __init__(
        self,
        directory,
        num_workers: int = 2,
        replicas: int = DEFAULT_REPLICAS,
        max_batch: int = 64,
        max_queue_depth: Optional[int] = None,
        max_concurrent_ensembles: Optional[int] = None,
        auto_restart: bool = False,
        max_restarts: int = 5,
        restart_backoff: float = 0.05,
        max_restart_backoff: float = 2.0,
        stability_window: float = 2.0,
        log_dir: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        check_max_batch(max_batch)
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        if max_restarts < 1:
            raise ValueError("max_restarts must be at least 1")
        if restart_backoff < 0 or max_restart_backoff < 0:
            raise ValueError("restart backoffs must be non-negative")
        # The parent never deserialises a plan; its registry is the
        # catalogue index used for listings.
        self.catalogue = PlanRegistry(directory)
        self.num_workers = num_workers
        self.replicas = replicas
        #: R capped by the worker count — what the router actually uses.
        self.effective_replicas = min(replicas, num_workers)
        self._ring: HashRing = get_ring(num_workers)
        self.auto_restart = bool(auto_restart)
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.max_restart_backoff = max_restart_backoff
        self.stability_window = stability_window
        # spawn: a clean interpreter per worker, whatever threads the
        # parent runs (slower startup than fork).
        self._context = multiprocessing.get_context("spawn")
        # Per-shard structured log files (worker-N.log, logfmt) when set.
        self._log_dir = str(log_dir) if log_dir is not None else None
        if self._log_dir is not None:
            os.makedirs(self._log_dir, exist_ok=True)
        # Kept so worker restarts can spawn identically configured
        # replacements for a dead shard.
        self._worker_config = (str(self.catalogue.directory), max_batch,
                               max_queue_depth, max_concurrent_ensembles)
        self._workers = [self._spawn_worker(index)
                         for index in range(num_workers)]
        self._closed = False
        # _sup_lock guards the supervisor state on the handles and every
        # swap of a handle into its slot.  _restart_lock serialises actual
        # worker replacement (supervisor vs. manual restart_worker) without
        # holding up readers, who take ``list(self._workers)`` once.
        self._sup_lock = threading.Lock()
        self._restart_lock = threading.Lock()
        # Signalled on every handle swap, breaker opening, and close():
        # what a request with no live owner waits on (_await_respawn).
        self._respawned = threading.Condition(self._sup_lock)
        self._sup_stop = threading.Event()
        # Parent-side registry: worker liveness and breaker/restart state,
        # exported live via callbacks (the same state stats_summary()
        # reports), plus the rollout flips made through this parent.
        self.metrics = MetricsRegistry()
        self._build_instruments()
        self._supervisor: Optional[threading.Thread] = None
        if self.auto_restart:
            self._supervisor = threading.Thread(
                target=self._supervise, name="plan-cluster-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def _spawn_worker(self, index: int, incarnation: int = 0) -> _WorkerClient:
        return _WorkerClient(
            self._context, index, *self._worker_config,
            incarnation=incarnation, log_dir=self._log_dir,
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
        self._respawn_waits = metrics.counter(
            "repro_cluster_respawn_waits_total",
            "Requests that found no live owner and waited for the "
            "supervisor's respawn, by the key's primary worker.",
            labels=("worker",),
        )
        # The rollout table is written here, through the parent catalogue,
        # so the flips are counted here; the workers' families of the same
        # name stay empty and merge with this one in a scrape.
        self._rollout_flips = metrics.counter(
            "repro_rollout_flips_total",
            "Rollout table mutations (canary/promote/rollback).",
            labels=("action",),
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
        for name, kind, text, read in (
            ("repro_cluster_worker_up", "gauge",
             "1 while the shard's worker process is alive, else 0.",
             lambda worker: not worker.dead),
            ("repro_cluster_breaker_open", "gauge",
             "1 while the shard's circuit breaker is open.",
             lambda worker: worker.breaker_open),
            ("repro_cluster_worker_restarts_total", "counter",
             "Times each shard's worker has been replaced.",
             lambda worker: worker.incarnation),
            ("repro_cluster_worker_consecutive_crashes", "gauge",
             "Current crash streak per shard (resets after "
             "stability_window).",
             lambda worker: worker.crash_streak),
        ):
            metrics.register_callback(name, kind, text,
                                      self._per_worker(read))

    def _per_worker(
        self, read: Callable[[_WorkerClient], object]
    ) -> Callable[[], Sequence[Tuple[Mapping[str, str], float]]]:
        """A collect callback: ``read(handle)`` for every shard."""
        return lambda: [({"worker": str(worker.index)}, float(read(worker)))
                        for worker in list(self._workers)]

    def _served_owners(self) -> Dict[str, Tuple[int, ...]]:
        """Ring owners per served base model, from a fresh catalogue scan.

        Placement is version-blind: a ``__v2`` artifact lives on the same
        shards as its base model, so requests routed by base key can be
        canaried onto it inside the worker without re-routing.  The scan
        lists a plan published after start before any request names it.
        """
        self.catalogue.refresh()
        return {
            base: self._ring.owners(base, self.effective_replicas)
            for base in dict.fromkeys(key.base_canonical()
                                      for key in self.catalogue.keys())
        }

    def _collect_model_replicas(
        self,
    ) -> Sequence[Tuple[Mapping[str, str], float]]:
        workers = list(self._workers)
        return [
            ({"model": base},
             float(sum(1 for index in owners if workers[index].available)))
            for base, owners in self._served_owners().items()
        ]

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
        workers = list(self._workers)
        detail: Dict[str, Dict[str, object]] = {
            f"worker-{worker.index}": {
                "alive": not worker.dead,
                "breaker_open": worker.breaker_open,
                "restarts": worker.incarnation,
            }
            for worker in workers
        }
        models: Dict[str, Dict[str, object]] = {}
        for base, owners in self._served_owners().items():
            live = sum(1 for index in owners if workers[index].available)
            state = ("ok" if live == len(owners)
                     else "degraded" if live else "down")
            models[base] = {
                "replicas": len(owners), "live": live, "state": state,
            }
        detail["models"] = models
        healthy = all(worker.available for worker in workers)
        return ("ok" if healthy else "degraded"), detail

    def describe_workers(self) -> List[Dict[str, object]]:
        """JSON-ready per-shard process detail (the ``/admin/workers`` body).

        Besides process liveness, each entry carries the shard's ring
        placement: every model key the worker owns, split into the keys it
        is *primary* for (first ring owner) and the keys it backs as a
        *replica*.
        """
        workers = list(self._workers)
        serves: List[Dict[str, List[str]]] = [
            {"primary": [], "replica": []} for _ in workers
        ]
        for base, owners in self._served_owners().items():
            for position, index in enumerate(owners):
                role = "primary" if position == 0 else "replica"
                serves[index][role].append(base)
        return [
            {
                "index": worker.index,
                "alive": not worker.dead,
                "retiring": worker.retiring,
                "pid": worker.process.pid,
                "incarnation": worker.incarnation,
                "restarts": worker.incarnation,
                "consecutive_crashes": worker.crash_streak,
                "breaker_open": worker.breaker_open,
                "load": worker.load(),
                "serves": serves[worker.index],
            }
            for worker in workers
        ]

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

    def _no_replica_error(self, owners: Sequence[_WorkerClient]) -> WorkerDied:
        """The typed error when every owner of a key is unavailable.

        ``breaker_open=True`` (the operator-action fail-fast signal) only
        when *all* owners are breaker-open; any mix that includes a merely
        dead worker stays retryable.
        """
        primary = owners[0].index
        phrase = (f"worker {primary}" if len(owners) == 1
                  else "all replicas "
                  + "/".join(str(owner.index) for owner in owners))
        if all(owner.breaker_open for owner in owners):
            return WorkerDied(
                f"{phrase} crash-looped; the circuit breaker(s) are open "
                f"and the key stays down until restart_worker() re-admits "
                f"a replica",
                worker_index=primary, breaker_open=True,
            )
        if self.auto_restart:
            return WorkerDied(
                f"{phrase} died and was not respawned within the "
                f"request's timeout; the request is safe to retry",
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
        excluded: Mapping[_WorkerClient, BaseException],
        timeout: Optional[float],
    ) -> _WorkerClient:
        """The least-loaded live owner of a key, failing over in ring
        order past dead / breaker-open / retiring replicas.

        ``excluded`` maps worker handles this request already tried (the
        worker died with the request in flight) to the error they raised.
        It is keyed by handle, not index, so a respawned worker is
        routable again within the same request.  When no owner is live
        the call waits for a respawn (:meth:`_await_respawn`), which
        raises the typed error once waiting cannot help.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        owners = self.replicas_for(model, bits, mapping)
        workers = list(self._workers)
        candidates: List[Tuple[int, _WorkerClient]] = []
        retiring: List[Tuple[int, _WorkerClient]] = []
        skipped: List[Tuple[int, str]] = []
        for position, index in enumerate(owners):
            worker = workers[index]
            if worker in excluded:
                skipped.append((index, "died_in_flight"))
                continue
            if worker.dead:
                skipped.append((index, "dead"))
                continue
            if worker.breaker_open:
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
            self._await_respawn(owners, excluded, timeout)
            return self._select_worker(model, bits, mapping, excluded,
                                       timeout)
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

    def _await_respawn(
        self,
        owners: Tuple[int, ...],
        excluded: Mapping[_WorkerClient, BaseException],
        timeout: Optional[float],
    ) -> None:
        """Block until an owner of the key is routable again, or raise.

        Waiting helps only on a self-healing cluster with an owner whose
        breaker is still closed: the supervisor will swap in a fresh
        handle (every swap, breaker opening and ``close()`` signals the
        condition).  Otherwise, or once ``timeout`` is spent, the typed
        error surfaces: the last in-flight death this request saw, else
        :meth:`_no_replica_error`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        counted = False
        with self._respawned:
            while True:
                if self._closed:
                    raise RuntimeError("cluster is closed")
                handles = [self._workers[index] for index in owners]
                if any(worker.available and worker not in excluded
                       for worker in handles):
                    return
                all_open = all(worker.breaker_open for worker in handles)
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if (not self.auto_restart or all_open
                        or (remaining is not None and remaining <= 0)):
                    if excluded and not all_open:
                        # Re-raise what the last attempt actually saw.
                        raise next(reversed(list(excluded.values())))
                    raise self._no_replica_error(handles)
                if not counted:
                    self._respawn_waits.inc(worker=str(owners[0]))
                    counted = True
                self._respawned.wait(remaining)

    # ------------------------------------------------------------------ #
    # Versioned rollout (admin surface; the shared plan directory is the
    # source of truth, so one `_rollout.json` write is seen by every
    # worker's registry on its next stat of the file, and a worker that
    # has not indexed the version yet finds it on its first miss)
    # ------------------------------------------------------------------ #
    def set_canary(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: int,
        fraction: float,
    ) -> Dict[str, Any]:
        """Canary ``fraction`` of traffic onto ``version``, cluster-wide."""
        state = self.catalogue.set_canary(model, bits, mapping, version,
                                          fraction)
        self._rollout_flips.inc(action="canary")
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
        self._rollout_flips.inc(action="promote")
        log_event(_LOG, "rollout_promote", model=model, mapping=mapping,
                  bits=bits, active=state.get("active"))
        return state

    def rollback(
        self, model: str, bits: Optional[int], mapping: str
    ) -> Dict[str, Any]:
        """Atomically revert to the previously active version."""
        state = self.catalogue.rollback(model, bits, mapping)
        self._rollout_flips.inc(action="rollback")
        log_event(_LOG, "rollout_rollback", model=model, mapping=mapping,
                  bits=bits, active=state.get("active"))
        return state

    def rollout_status(self) -> Dict[str, Dict[str, Any]]:
        """The rollout table as JSON-ready dicts."""
        return self.catalogue.rollout_status()

    @property
    def dead_workers(self) -> List[int]:
        """Indices of workers whose process has died (shards excluded)."""
        return [worker.index for worker in list(self._workers) if worker.dead]

    @property
    def open_breakers(self) -> List[int]:
        """Shards whose circuit breaker is open (no automatic respawn)."""
        return [worker.index for worker in list(self._workers)
                if worker.breaker_open]

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
            worker = self._workers[index]
            if self._closed or worker.breaker_open:
                return
            if not worker.dead:
                # Healthy: once this incarnation has survived the
                # stability window, the crash streak is forgiven.
                if (worker.crash_streak
                        and now - worker.started >= self.stability_window):
                    worker.crash_streak = 0
                worker.restart_due = None
                return
            if worker.crash_streak >= self.max_restarts:
                # Crash-looping past the budget: trip the breaker instead
                # of burning CPU respawning a shard that cannot stay up.
                worker.breaker_open = True
                worker.restart_due = None
                log_event(_LOG, "breaker_open", level=logging.WARNING,
                          worker=index, crashes=worker.crash_streak)
                self._respawned.notify_all()
                return
            if worker.restart_due is None:
                delay = min(
                    self.restart_backoff * (2 ** worker.crash_streak),
                    self.max_restart_backoff,
                )
                worker.restart_due = now + delay
                return
            if now < worker.restart_due:
                return
            worker.restart_due = None
            # Counted before the spawn, so a failed attempt is retried
            # with a longer backoff and still bounded by the breaker.
            worker.crash_streak += 1
        with self._restart_lock:
            # A manual restart_worker may have replaced the handle since.
            if not self._closed and self._workers[index] is worker:
                self._replace_worker(worker, reset=False, close_timeout=10.0,
                                     event="worker_respawned")

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
            self._replace_worker(self._workers[index], reset=True,
                                 close_timeout=30.0, event="worker_restarted")

    def _replace_worker(self, old: _WorkerClient, reset: bool,
                        close_timeout: float, event: str) -> None:
        """Retire, close, respawn and swap in one shard's worker.

        The caller holds ``_restart_lock``.  Spawning is slow, so it runs
        outside ``_sup_lock``.  The replacement is the next incarnation,
        starts with its breaker closed, inherits its predecessor's crash
        streak unless ``reset`` (an operator's re-admission), and enters
        the slot in one assignment.  A spawn that raises (resource
        exhaustion) leaves the old handle in place, so the supervisor
        retries with backoff.
        """
        # Route new work to the other replicas before draining; with
        # replicas=1 the router still uses the retiring handle as the last
        # resort, preserving the pre-ring behavior.
        old.retiring = True
        # For a dead worker this just reaps the corpse and fails any
        # straggler futures; for a live one it is the graceful drain.
        old.close(timeout=close_timeout)
        replacement = self._spawn_worker(old.index, old.incarnation + 1)
        if not reset:
            replacement.crash_streak = old.crash_streak
        with self._sup_lock:
            self._workers[old.index] = replacement
            self._respawned.notify_all()
        log_event(_LOG, event, worker=old.index,
                  incarnation=replacement.incarnation,
                  pid=replacement.process.pid)

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def _submit_routed(
        self,
        kind: str,
        request: Union[PredictRequest, EnsembleRequest],
        excluded: Dict[_WorkerClient, BaseException],
        timeout: Optional[float],
    ) -> Tuple[_WorkerClient, Future]:
        """Select an owner and submit, failing over on submit-time races.

        A worker that dies between selection and the pipe send (or a
        handle drained for a rolling restart) is recorded in ``excluded``
        and the next owner is tried at once; ``_select_worker`` waits for
        a respawn or raises when the key has no owner left.
        """
        while True:
            worker = self._select_worker(request.model, request.bits,
                                         request.mapping, excluded, timeout)
            try:
                return worker, worker.submit(kind, request)
            except WorkerDied as error:
                excluded[worker] = error
            except RuntimeError as error:
                if self._closed:
                    raise
                excluded[worker] = error

    def _request(
        self,
        kind: str,
        request: Union[PredictRequest, EnsembleRequest],
        timeout: Optional[float],
    ):
        """One typed request with replica failover and respawn waits.

        The request dataclass itself crosses the pipe, arrays and all,
        stamped first with its trace id so the worker's service logs the id
        the caller holds.  A ``WorkerDied`` from an in-flight request does
        not wait for the supervisor's respawn while another owner is live:
        the same (idempotent, deterministic) request is resubmitted to the
        key's next live owner right away.  When no owner is live on a
        self-healing cluster, the request waits (up to ``timeout``) for the
        supervisor to respawn one and then routes to it — so every caller,
        the HTTP edge included, rides out a worker death.  The typed error
        surfaces only when waiting cannot help: no ``auto_restart``, every
        owner's breaker open (``breaker_open=True``, fail fast), the wait
        timed out, or the cluster closed (``BackendClosed``).  Parent-side
        failures (a closed cluster, an unroutable key) fold into the same
        typed errors the worker raises.
        """
        request_id = ensure_request_id(request.request_id)
        images = np.asarray(request.images)
        if request_id != request.request_id or images is not request.images:
            request = replace(request, images=images, request_id=request_id)
        try:
            excluded: Dict[_WorkerClient, BaseException] = {}
            while True:
                worker, future = self._submit_routed(kind, request, excluded,
                                                     timeout)
                try:
                    return future.result(timeout=timeout)
                except WorkerDied as error:
                    excluded[worker] = error
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
        ``supervisor`` block (restart counts, crash streak, breaker state).
        A dead worker reports ``{"status": {"dead": True}}`` instead of
        failing the whole listing, so monitoring keeps working while a
        shard is down.  Liveness and supervisor counters are read from one
        handle per shard, so this listing, ``dead_workers``, and
        ``/admin/workers`` agree at every point of a rolling restart.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        workers = list(self._workers)
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
            stats["supervisor"] = {
                "auto_restart": self.auto_restart,
                "restarts": worker.incarnation,
                "consecutive_crashes": worker.crash_streak,
                "breaker_open": worker.breaker_open,
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
        with self._respawned:  # waiters re-check and see the closed cluster
            self._respawned.notify_all()
        self._sup_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        with self._restart_lock:
            for worker in self._workers:
                worker.close(timeout)

    def __enter__(self) -> "PlanCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
