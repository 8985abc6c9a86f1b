"""Plan-serving subsystem: registry, micro-batching, HTTP, and sharding.

This package is the request/response layer on top of the compiled runtime —
the step from "a trained model can be frozen into a serialisable
:class:`~repro.runtime.plan.InferencePlan`" to "a deployment serves many
such plans to concurrent clients over the network":

* :class:`PlanRegistry` (:mod:`repro.serve.registry`) — a directory of plan
  artifacts indexed by ``(model, bits, mapping)`` and addressable by
  content digest; it loads an artifact on request and keeps none resident.
* :class:`MicroBatchScheduler` (:mod:`repro.serve.scheduler`) — work-
  conserving micro-batching: the requests already queued coalesce (up to
  ``max_batch`` rows, with no coalescing window) into single stacked plan
  executions whose rows scatter back onto per-request futures.
* :class:`InferenceService` (:mod:`repro.serve.service`) — the in-process
  façade with two typed request methods: ``predict_request`` (deterministic
  logits: a request executed alone is bit-identical to ``plan.run`` on its
  rows, and rows coalesced with other requests agree within 1e-10) and
  ``ensemble_request`` (seeded Monte-Carlo ensembles whose sampled weight
  stacks are cached per (plan, sigma, samples, seed)).  It loads each
  served key's plan once and pins it: the process's only plan cache.
* :class:`PlanServer` (:mod:`repro.serve.http`) — the stdlib HTTP/JSON
  front-end: ``POST /v1/predict``, ``POST /v1/predict_under_variation``,
  ``GET /v1/models``, ``GET /v1/stats``, ``GET /healthz``, with arrays
  carried base64-packed or as nested lists and failures mapped to 4xx.
  One handler thread per HTTP/1.1 keep-alive connection; the routes, auth,
  drain flag, and edge metrics live in its transport-agnostic ``EdgeCore``.
* :class:`PlanCluster` (:mod:`repro.serve.cluster`) — cross-process
  sharding: N worker processes over one registry directory, models
  partitioned by a stable key hash (:func:`shard_index`), each worker
  running its own schedulers so independent models serve in true parallel.
  Every request and result crosses the worker pipe as a pickle, and
  ``auto_restart=True`` makes the cluster self-healing: dead workers
  respawn with backoff behind a crash-loop circuit breaker, and requests
  whose owners are all down wait for the respawn.
* :class:`JobManager` (:mod:`repro.serve.jobs`) — asynchronous study jobs:
  a typed sweep spec decomposed into idempotent cells, executed through
  any typed backend, checkpointed to disk after every cell
  (write-rename), and resumed after a worker or manager death with zero
  lost cells.
* Versioned rollout (:mod:`repro.serve.registry`) — ``__vN`` plan
  artifacts published alongside v1, a deterministic per-request-id canary
  split (:func:`canary_bucket`), and atomic promote/rollback without a
  restart.

``python -m repro.serve --plan-dir DIR [--workers N]`` starts the HTTP
endpoint over either backend (:mod:`repro.serve.__main__`).

Consumers should not usually code against these classes directly:
:mod:`repro.api` is the typed, transport-agnostic facade —
``repro.api.connect("local:DIR" | "http://host:port" |
"cluster:DIR?workers=N")`` returns interchangeable clients speaking the
shared request/response dataclasses.  ``predict_request`` /
``ensemble_request`` are the only request methods of both backends here,
so every client and the HTTP edge call the same two entry points.
"""

from repro.serve.registry import (
    PlanArtifactError,
    PlanEntry,
    PlanKey,
    PlanRegistry,
    RolloutEntry,
    canary_bucket,
    parse_bits,
)
from repro.serve.scheduler import MicroBatchScheduler, SchedulerStats
from repro.serve.service import InferenceService
from repro.serve.http import PlanServer, RequestError
from repro.serve.cluster import PlanCluster, shard_index
from repro.serve.jobs import JobManager

__all__ = [
    "InferenceService",
    "JobManager",
    "MicroBatchScheduler",
    "PlanArtifactError",
    "PlanCluster",
    "PlanEntry",
    "PlanKey",
    "PlanRegistry",
    "PlanServer",
    "RequestError",
    "RolloutEntry",
    "SchedulerStats",
    "canary_bucket",
    "parse_bits",
    "shard_index",
]
