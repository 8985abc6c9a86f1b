"""The serving façade: deterministic and variation-aware inference requests.

:class:`InferenceService` ties the registry and the scheduler together into
the request/response layer of the plan-serving subsystem.  Each published
``(model, bits, mapping)`` gets its own lazily created
:class:`MicroBatchScheduler`, so concurrent deterministic requests against
the same model coalesce into stacked plan executions while different models
run independently.

Two typed entry points mirror the paper's two readouts; each consumes and
produces the shared ``repro.api`` dataclasses:

* :meth:`InferenceService.predict_request` — deterministic logits from the
  frozen plan (the sigma=0 operating point).  Execution is
  ``InferencePlan.run`` in float64, so a request executed alone is
  bit-identical to ``plan.run`` on the same rows, on every backend.  Rows
  coalesced into a larger micro-batch agree within 1e-10, not bitwise:
  BLAS may sum a matmul's terms in a different order for a different
  batch height (a 64-row LeNet batch split into runs of 1 to 16 rows
  differs by about 2e-15).
* :meth:`InferenceService.ensemble_request` — a seeded Monte-Carlo
  ensemble over device-variation draws (the Fig. 6 protocol as a serving
  scenario): per-request sigma and sample count, returning mean logits plus
  a majority-vote class and its vote confidence.  A fixed seed makes the
  whole response reproducible.

Each entry point assigns the request's trace id and folds every failure
into the typed :class:`~repro.api.errors.ApiError` hierarchy once
(:func:`~repro.api.errors.map_exception`), so the HTTP front-end, the
cluster workers and :class:`~repro.api.client.LocalClient` all report the
identical typed error.  ``max_queue_depth`` adds backpressure: a
deterministic request that finds its scheduler queue past the threshold is
rejected with the typed :class:`~repro.api.errors.ApiBackpressure` (HTTP
429) instead of deepening the queue.  ``max_concurrent_ensembles`` is the
ensemble lane's counterpart: ensembles execute synchronously in their
caller's thread, so the pressure signal there is the number mid-flight,
and one past the cap is rejected the same typed way before any sampling
happens.  Callers that want a future rather than a blocking call submit
rows to :meth:`InferenceService.scheduler_for` directly.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api.errors import ApiBackpressure, ApiError, map_exception
from repro.api.types import (
    EnsembleRequest,
    EnsembleResult,
    PredictRequest,
    PredictResult,
)
from repro.obs import MetricFamily, MetricsRegistry, log_event
from repro.obs.tracing import ensure_request_id
from repro.runtime.montecarlo import run_plan_samples, sample_crossbar_weights
from repro.runtime.plan import InferencePlan
from repro.serve.registry import PlanKey, PlanRegistry
from repro.serve.scheduler import (
    MicroBatchScheduler,
    SchedulerStats,
    check_max_batch,
)

_LOG = logging.getLogger("repro.serve.service")

#: Batch-size histogram bounds: powers of two past the default max_batch of
#: 64 (an oversized lone request lands in the top buckets), so the exported
#: distribution reads as "how full were batches".
_BATCH_ROW_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class InferenceService:
    """Multi-model serving façade over a :class:`PlanRegistry`."""

    def __init__(
        self,
        registry: PlanRegistry,
        max_batch: int = 64,
        ensemble_cache_size: int = 8,
        max_queue_depth: Optional[int] = None,
        max_concurrent_ensembles: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        shard: Optional[int] = None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative or None")
        if max_concurrent_ensembles is not None and max_concurrent_ensembles < 0:
            raise ValueError(
                "max_concurrent_ensembles must be non-negative or None"
            )
        self.registry = registry
        self.max_batch = check_max_batch(max_batch)
        # Backpressure threshold: a deterministic request whose scheduler
        # already holds this many undrained requests is rejected with the
        # typed ApiBackpressure instead of queueing (None disables).
        self.max_queue_depth = max_queue_depth
        # The ensemble lane's counterpart: ensembles run num_samples
        # stacked passes synchronously in their caller's thread, so the
        # pressure signal is how many are mid-flight, not a queue depth.
        # One past the cap is rejected with the same typed ApiBackpressure
        # (HTTP 429) instead of piling more stacked passes onto the
        # executor (None disables).
        self.max_concurrent_ensembles = max_concurrent_ensembles
        self._ensembles_in_flight = 0
        self._schedulers: Dict[PlanKey, MicroBatchScheduler] = {}
        # The process's only store of deserialised plans: each key is loaded
        # from the registry once (a full .npz read) and pinned for the
        # service's lifetime, so a scheduler's runner and the ensemble lane
        # keep serving the exact plan the key first resolved to.
        self._plans: Dict[PlanKey, InferencePlan] = {}
        # Sampled Monte-Carlo weight stacks, keyed by the full draw identity
        # (plan key, sigma, sample count, seed).  Sampling is the
        # per-request cost of an ensemble response that does not depend on
        # the request's images, so ensemble-heavy traffic that
        # repeats (sigma, seed) points — dashboards polling a fixed
        # operating point, robustness sweeps re-reading the same grid —
        # skips the resampling entirely.  Bounded LRU: one entry holds
        # every crossbar's (num_samples, NO, NI) stack, which for large
        # plans is the dominant memory of a request.
        self._ensemble_cache: "OrderedDict[tuple, Dict[int, np.ndarray]]" = (
            OrderedDict()
        )
        self.ensemble_cache_size = ensemble_cache_size
        self._lock = threading.Lock()
        self._closed = False
        # Shard index when this service runs inside a cluster worker
        # (attached to every structured log line); None single-process.
        self.shard = shard
        # All ad-hoc counters live in a MetricsRegistry, so stats_summary()
        # and Prometheus exposition read the same source of truth.  A shared
        # registry may be injected (the HTTP layer merges it into one
        # /metrics page); each registry holds at most one service's
        # callbacks.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._build_instruments()

    def _build_instruments(self) -> None:
        metrics = self.metrics
        self._m_latency = metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency by model and lane.",
            labels=("model", "lane"),
        )
        self._m_requests = metrics.counter(
            "repro_requests_total",
            "Requests served by model, lane, and outcome (ok/error).",
            labels=("model", "lane", "outcome"),
        )
        self._m_batches = metrics.counter(
            "repro_scheduler_batches_total",
            "Micro-batches executed per model.",
            labels=("model",),
        )
        self._m_batch_rows = metrics.histogram(
            "repro_scheduler_batch_rows",
            "Rows coalesced into each micro-batch.",
            labels=("model",),
            buckets=_BATCH_ROW_BUCKETS,
        )
        self._m_batch_wait = metrics.histogram(
            "repro_scheduler_batch_wait_seconds",
            "Time from dequeuing a batch's first request to executing the "
            "batch (about zero: the scheduler never waits for more).",
            labels=("model",),
        )
        self._m_cache_hits = metrics.counter(
            "repro_ensemble_cache_hits_total",
            "Ensemble weight-stack cache hits.",
        )
        self._m_cache_misses = metrics.counter(
            "repro_ensemble_cache_misses_total",
            "Ensemble weight-stack cache misses (cold draws).",
        )
        self._m_ens_rejected = metrics.counter(
            "repro_ensembles_rejected_total",
            "Ensemble requests rejected by the concurrency cap.",
        )
        self._m_canary = metrics.counter(
            "repro_canary_requests_total",
            "Requests resolved through the versioned-rollout table, by base "
            "model and the version that actually served them.",
            labels=("model", "version"),
        )
        self._m_rollout_flips = metrics.counter(
            "repro_rollout_flips_total",
            "Rollout table mutations (canary/promote/rollback).",
            labels=("action",),
        )
        metrics.register_callback(
            "repro_rollout_active_version", "gauge",
            "Active plan version per base model (from the rollout table).",
            self._collect_rollout_versions,
        )
        metrics.register_callback(
            "repro_rollout_canary_fraction", "gauge",
            "Traffic fraction routed to the canary version per base model.",
            self._collect_canary_fractions,
        )
        metrics.register_callback(
            "repro_scheduler_queue_depth", "gauge",
            "Requests waiting in each model's micro-batch queue.",
            self._collect_queue_depths,
        )
        metrics.register_callback(
            "repro_ensembles_in_flight", "gauge",
            "Ensemble requests currently executing.",
            lambda: [({}, float(self._ensembles_in_flight))],
        )
        metrics.register_callback(
            "repro_ensemble_cache_entries", "gauge",
            "Entries resident in the ensemble weight-stack cache.",
            lambda: [({}, float(len(self._ensemble_cache)))],
        )

    # Collect-time callbacks: exported live, never double-counted.
    def _collect_rollout_versions(
        self,
    ) -> Sequence[Tuple[Mapping[str, str], float]]:
        return [
            ({"model": base}, float(entry.active))
            for base, entry in sorted(self.registry.rollout_entries().items())
        ]

    def _collect_canary_fractions(
        self,
    ) -> Sequence[Tuple[Mapping[str, str], float]]:
        return [
            ({"model": base}, float(entry.canary_fraction))
            for base, entry in sorted(self.registry.rollout_entries().items())
        ]

    def _collect_queue_depths(
        self,
    ) -> Sequence[Tuple[Mapping[str, str], float]]:
        return [
            ({"model": name}, float(depth))
            for name, depth in sorted(self.queue_depths().items())
        ]

    # Legacy counter attributes, now registry-backed (same names, same
    # semantics — stats_summary() keeps its exact shape).
    @property
    def ensemble_cache_hits(self) -> int:
        return int(self._m_cache_hits.value())

    @property
    def ensemble_cache_misses(self) -> int:
        return int(self._m_cache_misses.value())

    @property
    def ensembles_rejected(self) -> int:
        return int(self._m_ens_rejected.value())

    def metrics_families(self) -> List[MetricFamily]:
        """Snapshot this service's metric families (picklable)."""
        return self.metrics.collect()

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def scheduler_for(
        self, model: str, bits: Optional[int], mapping: str
    ) -> MicroBatchScheduler:
        """The (lazily created) micro-batching scheduler of one plan key."""
        scheduler, _ = self._serving_pair(PlanKey(model, bits, mapping))
        return scheduler

    def _routed_key(self, key: PlanKey, request_id: Optional[str]) -> PlanKey:
        """Route a request key through the registry's rollout rule.

        :meth:`PlanRegistry.route` owns the rule; the service only counts
        the requests the rollout table governed.  Each resolved version
        gets its own scheduler/plan pin/ensemble-cache identity downstream,
        so versions never share state.
        """
        routed, governed = self.registry.route(key, request_id)
        if governed:
            self._m_canary.inc(model=key.canonical(),
                               version=f"v{routed.version}")
        return routed

    def _pinned_plan(self, key: PlanKey) -> InferencePlan:
        """The plan this service serves for ``key``, pinned on first use.

        Both request flavours resolve through here, so deterministic and
        ensemble responses for one key always come from the same artifact
        even if the registry republishes it mid-flight.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            plan = self._plans.get(key)
        if plan is not None:
            return plan
        # Deserialising reads the whole artifact; do it outside the lock so
        # a cold load of one key cannot stall other keys' requests, the
        # ensemble cache or a metrics scrape.  Racing loads of one key keep
        # whichever plan was inserted first, so every request serves it.
        loaded = self.registry.get(
            key.model, key.bits, key.mapping, version=key.version
        )
        with self._lock:
            return self._plans.setdefault(key, loaded)

    # ------------------------------------------------------------------ #
    # Versioned rollout (admin surface; delegates to the registry)
    # ------------------------------------------------------------------ #
    def set_canary(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: int,
        fraction: float,
    ) -> Dict[str, Any]:
        """Canary ``fraction`` of request-id traffic onto ``version``."""
        state = self.registry.set_canary(model, bits, mapping, version, fraction)
        self._m_rollout_flips.inc(action="canary")
        log_event(_LOG, "rollout_canary", model=model, mapping=mapping,
                  bits=bits, version=version, fraction=fraction,
                  shard=self.shard)
        return state

    def promote(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Atomically make ``version`` (default: the canary) active."""
        state = self.registry.promote(model, bits, mapping, version)
        self._m_rollout_flips.inc(action="promote")
        log_event(_LOG, "rollout_promote", model=model, mapping=mapping,
                  bits=bits, active=state.get("active"), shard=self.shard)
        return state

    def rollback(
        self, model: str, bits: Optional[int], mapping: str
    ) -> Dict[str, Any]:
        """Atomically revert to the previously active version."""
        state = self.registry.rollback(model, bits, mapping)
        self._m_rollout_flips.inc(action="rollback")
        log_event(_LOG, "rollout_rollback", model=model, mapping=mapping,
                  bits=bits, active=state.get("active"), shard=self.shard)
        return state

    def rollout_status(self) -> Dict[str, Dict[str, Any]]:
        """The rollout table as JSON-ready dicts."""
        return self.registry.rollout_status()

    def _serving_pair(self, key: PlanKey):
        plan = self._pinned_plan(key)
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            scheduler = self._schedulers.get(key)
            if scheduler is None:
                canonical = key.canonical()

                def _on_batch(
                    requests: int, rows: int, wait: float, _name: str = canonical
                ) -> None:
                    self._m_batches.inc(model=_name)
                    self._m_batch_rows.observe(float(rows), model=_name)
                    self._m_batch_wait.observe(wait, model=_name)

                scheduler = MicroBatchScheduler(
                    plan.run,
                    max_batch=self.max_batch,
                    name=canonical,
                    on_batch=_on_batch,
                )
                self._schedulers[key] = scheduler
            return scheduler, plan

    @staticmethod
    def _normalize(plan: InferencePlan, images: np.ndarray):
        """Add the batch axis to a single-sample request; report if we did.

        For plans with a recorded input shape the per-sample geometry is also
        validated symbolically before the request is enqueued, so a malformed
        request fails in its caller's thread instead of poisoning the whole
        micro-batch it would have been coalesced into.  An empty batch is
        refused here too, before either lane queues it, holds an ensemble
        slot or draws a weight stack for it.
        """
        array = np.asarray(images)
        single = (
            plan.input_shape is not None and array.ndim == len(plan.input_shape)
        )
        if single:
            array = array[None]
        if array.ndim and not len(array):
            raise ValueError("a request must contain at least one row")
        if plan.input_shape is not None:
            try:
                plan.output_shapes(array.shape[1:])
            except (ValueError, TypeError) as error:
                raise ValueError(
                    f"request of shape {np.asarray(images).shape} is "
                    f"incompatible with plan input shape {plan.input_shape}: "
                    f"{error}"
                ) from None
        return array, single

    def models(self) -> List[dict]:
        """The registry catalogue as JSON-ready dicts (with content digests).

        This is the listing the HTTP front-end serves from ``GET
        /v1/models``; re-scans the directory first so artifacts published by
        another process since startup appear.
        """
        self.registry.refresh()
        return self.registry.describe()

    @property
    def stats(self) -> Dict[str, SchedulerStats]:
        """Per-model batching statistics, keyed by canonical plan name."""
        with self._lock:
            return {
                key.canonical(): scheduler.stats
                for key, scheduler in self._schedulers.items()
            }

    def queue_depths(self) -> Dict[str, int]:
        """Scheduler queue depth per canonical plan name (the 429 signal)."""
        with self._lock:
            return {
                key.canonical(): scheduler.queue_depth
                for key, scheduler in self._schedulers.items()
            }

    def queue_depth(self) -> int:
        """The deepest scheduler queue (0 when idle or before first request)."""
        depths = self.queue_depths()
        return max(depths.values()) if depths else 0

    def stats_summary(self) -> Dict[str, dict]:
        """The batching statistics as JSON-ready dicts (HTTP ``/v1/stats``)."""
        summary = {}
        depths = self.queue_depths()
        for name, stats in self.stats.items():
            summary[name] = {
                "num_batches": stats.num_batches,
                "num_requests": stats.num_requests,
                "num_rows": stats.num_rows,
                "max_rows_per_batch": stats.max_rows_per_batch,
                "mean_rows_per_batch": stats.mean_rows_per_batch,
                "queue_depth": depths.get(name, 0),
                "max_batch": self.max_batch,
            }
        summary["ensemble_cache"] = {
            "hits": self.ensemble_cache_hits,
            "misses": self.ensemble_cache_misses,
            "size": len(self._ensemble_cache),
        }
        with self._lock:
            summary["ensemble_lane"] = {
                "max_concurrent": self.max_concurrent_ensembles,
                "in_flight": self._ensembles_in_flight,
                "rejected": self.ensembles_rejected,
            }
        return summary

    def close(self) -> None:
        """Flush and stop every scheduler; further requests are rejected."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            schedulers = list(self._schedulers.values())
        for scheduler in schedulers:
            scheduler.close()

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Deterministic requests
    # ------------------------------------------------------------------ #
    def _observe(
        self,
        name: str,
        lane: str,
        started: float,
        request_id: Optional[str],
        error: Optional[BaseException] = None,
    ) -> None:
        """Record one request's latency/outcome and its structured log line."""
        elapsed = time.monotonic() - started
        outcome = "ok" if error is None else "error"
        self._m_latency.observe(elapsed, model=name, lane=lane)
        self._m_requests.inc(model=name, lane=lane, outcome=outcome)
        log_event(
            _LOG,
            lane,
            request_id=request_id,
            model=name,
            shard=self.shard,
            latency_ms=elapsed * 1000.0,
            status=outcome if error is None else type(error).__name__,
        )

    def predict_request(
        self, request: PredictRequest, timeout: Optional[float] = 60.0
    ) -> PredictResult:
        """Deterministic logits, micro-batched with concurrent requests.

        ``request.images`` may be a single sample (the plan's input shape)
        or a pre-batched array; the logits mirror the choice — a single
        sample comes back as ``(classes,)``.  The request's trace id
        (assigned here when it carries none) selects the served plan
        version when a canary rollout is configured, and is stamped onto
        the result.  A request still queued after ``timeout`` raises
        ``ApiTimeout`` here and is counted when its batch resolves.
        """
        try:
            return self._submit_predict(request).result(timeout=timeout)
        except FutureTimeoutError as error:
            raise map_exception(error) from error

    def _submit_predict(self, request: PredictRequest) -> "Future[PredictResult]":
        """The one predict path: route, validate and enqueue ``request``.

        Returns at once with a future of the typed result.
        :meth:`predict_request` blocks on it; a cluster worker replies from
        its done-callback, so there too the scheduler queue is the only
        queue.  Every failure, before enqueueing or in the batch, resolves
        the future with its typed error, and each request's latency and
        outcome are observed exactly once.
        """
        request_id = ensure_request_id(request.request_id)
        started = time.monotonic()
        done: "Future[PredictResult]" = Future()

        def fail(error: BaseException) -> None:
            self._observe(request.name, "predict", started, request_id, error)
            typed = map_exception(error)
            if typed is not error:
                typed.__cause__ = error
            done.set_exception(typed)

        try:
            key = self._routed_key(
                PlanKey(request.model, request.bits, request.mapping),
                request_id,
            )
            scheduler, plan = self._serving_pair(key)
            array, single = self._normalize(plan, request.images)
            if self.max_queue_depth is not None:
                depth = scheduler.queue_depth
                if depth >= self.max_queue_depth:
                    # Reject before enqueueing: a 429'd client retries
                    # against a queue that can only have shrunk, instead
                    # of deepening it.
                    raise ApiBackpressure(
                        f"scheduler queue for {key.canonical()!r} holds "
                        f"{depth} request(s), at or over the "
                        f"max_queue_depth of {self.max_queue_depth}; retry "
                        f"shortly",
                        retry_after=1.0,
                    )
            rows = scheduler.submit(array)
        except Exception as error:
            fail(error)
            return done

        def finish(batch: Future) -> None:
            # Runs on the scheduler thread as the batch resolves.
            error = batch.exception()
            if error is not None:
                fail(error)
                return
            logits = batch.result()
            self._observe(request.name, "predict", started, request_id)
            done.set_result(PredictResult(
                model=request.model, bits=request.bits,
                mapping=request.mapping,
                logits=logits[0] if single else logits,
                request_id=request_id,
            ))

        rows.add_done_callback(finish)
        return done

    # ------------------------------------------------------------------ #
    # Variation-aware requests
    # ------------------------------------------------------------------ #
    def _acquire_ensemble_slot(self, key: PlanKey) -> None:
        """Admit one ensemble into the lane or reject with backpressure."""
        if self.max_concurrent_ensembles is None:
            return
        with self._lock:
            if self._ensembles_in_flight >= self.max_concurrent_ensembles:
                self._m_ens_rejected.inc()
                raise ApiBackpressure(
                    f"{self._ensembles_in_flight} ensemble request(s) already "
                    f"in flight for this service, at or over the "
                    f"max_concurrent_ensembles cap of "
                    f"{self.max_concurrent_ensembles}; retry shortly "
                    f"(requested plan: {key.canonical()!r})",
                    retry_after=1.0,
                )
            self._ensembles_in_flight += 1

    def _release_ensemble_slot(self) -> None:
        if self.max_concurrent_ensembles is None:
            return
        with self._lock:
            self._ensembles_in_flight -= 1

    def _sampled_stacks(
        self,
        key: PlanKey,
        plan: InferencePlan,
        sigma_fraction: float,
        num_samples: int,
        seed: int,
    ) -> Dict[int, np.ndarray]:
        """The sampled weight stacks of one draw identity.

        Draws are seeded, so the stack for a given ``(key, sigma,
        num_samples, seed)`` is immutable — repeated identical ensemble
        requests reuse it bit-identically instead of re-running the
        perturb/clip/quantise/periphery pipeline per request.  The stacks
        are only ever read (batched matmuls), so cache entries are safe to
        share across threads.
        """
        cache_key = (key, sigma_fraction, num_samples, seed)
        with self._lock:
            cached = self._ensemble_cache.get(cache_key)
            if cached is not None:
                self._m_cache_hits.inc()
                self._ensemble_cache.move_to_end(cache_key)
                return cached
        # Sample outside the lock: a cold draw is the expensive path and
        # must not stall concurrent ensemble requests for other keys.  Two
        # racing identical requests may both sample, but the draw is
        # deterministic, so whichever insertion wins the cache is correct.
        rng = np.random.default_rng(seed)
        sampled = sample_crossbar_weights(plan, sigma_fraction, num_samples, rng=rng)
        with self._lock:
            self._m_cache_misses.inc()
            self._ensemble_cache[cache_key] = sampled
            self._ensemble_cache.move_to_end(cache_key)
            while len(self._ensemble_cache) > self.ensemble_cache_size:
                self._ensemble_cache.popitem(last=False)
        return sampled

    def ensemble_request(self, request: EnsembleRequest) -> EnsembleResult:
        """Seeded Monte-Carlo ensemble prediction under device variation.

        Draws ``num_samples`` variation perturbations of every crossbar in
        the plan (one seeded generator, so the whole response is
        reproducible), executes the vectorized sample-stacked plan once, and
        aggregates: mean logits, per-draw argmax votes, the majority class
        and its vote fraction.  Single samples come back without a batch
        axis, as in :meth:`predict_request`.
        """
        request_id = ensure_request_id(request.request_id)
        sigma_fraction = float(request.sigma_fraction)
        num_samples = int(request.num_samples)
        seed = int(request.seed)
        started = time.monotonic()
        try:
            key = self._routed_key(
                PlanKey(request.model, request.bits, request.mapping),
                request_id,
            )
            plan = self._pinned_plan(key)
            array, single = self._normalize(plan, request.images)
            # Backpressure gates the expensive part only: validation above
            # fails a malformed request with its real typed error even when
            # the lane is saturated.
            self._acquire_ensemble_slot(key)
            try:
                sampled = self._sampled_stacks(
                    key, plan, sigma_fraction, num_samples, seed
                )
                logits = run_plan_samples(plan, array, sampled, num_samples)
            finally:
                self._release_ensemble_slot()
        except Exception as error:
            # Metrics/log labels stay base-canonical; the served version
            # is visible separately via repro_canary_requests_total.
            self._observe(request.name, "ensemble", started, request_id, error)
            if isinstance(error, ApiError):
                raise
            raise map_exception(error) from error
        self._observe(request.name, "ensemble", started, request_id)
        mean_logits = logits.mean(axis=0)
        votes = logits.argmax(axis=-1)  # (num_samples, batch)
        num_classes = logits.shape[-1]
        vote_counts = (votes[:, :, None] == np.arange(num_classes)).sum(axis=0)
        predictions = vote_counts.argmax(axis=-1)
        confidence = vote_counts.max(axis=-1) / num_samples
        if single:
            mean_logits = mean_logits[0]
            vote_counts = vote_counts[0]
            predictions = predictions[0]
            confidence = confidence[0]
        return EnsembleResult(
            model=request.model,
            bits=request.bits,
            mapping=request.mapping,
            mean_logits=mean_logits,
            predictions=predictions,
            confidence=confidence,
            vote_counts=vote_counts,
            sigma_fraction=sigma_fraction,
            num_samples=num_samples,
            seed=seed,
            request_id=request_id,
        )
