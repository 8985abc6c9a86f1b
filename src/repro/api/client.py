"""The ``Client`` protocol and its in-process backend implementations.

A :class:`Client` is the one surface every consumer codes against:
typed requests in (:class:`~repro.api.types.PredictRequest`,
:class:`~repro.api.types.EnsembleRequest`), typed results out, typed
:class:`~repro.api.errors.ApiError` failures — with the transport an
implementation detail chosen at :func:`~repro.api.connect.connect` time:

* :class:`LocalClient` — wraps an in-process
  :class:`~repro.serve.service.InferenceService` (micro-batching included);
* :class:`~repro.api.http_client.HttpClient` — speaks the JSON wire
  protocol against a :class:`~repro.serve.http.PlanServer`;
* :class:`ClusterClient` — wraps a sharded multi-process
  :class:`~repro.serve.cluster.PlanCluster`.

All three return bit-identical float64 predictions for the same request
and raise the identical typed error for the same malformed input — the
backend-equivalence test matrix enforces both properties.
"""

from __future__ import annotations

from types import TracebackType
from typing import Any, Dict, List, Optional, Protocol, Type, TypeVar, cast

from repro.api.errors import ApiError, map_exception
from repro.api.types import (
    EnsembleRequest,
    EnsembleResult,
    HealthStatus,
    ModelInfo,
    PredictRequest,
    PredictResult,
    StudySpec,
    StudyStatus,
)
from repro.serve.cluster import PlanCluster
from repro.serve.jobs import JobManager
from repro.serve.service import InferenceService


class Client(Protocol):
    """Transport-agnostic serving client (structural protocol).

    Implementations are context managers; ``close()`` releases whatever
    the client owns (for ``own_backend=True`` wrappers, the backend too).
    """

    def predict(self, request: PredictRequest) -> PredictResult:
        """Deterministic logits for one request (bit-exact across backends)."""
        ...

    def ensemble(self, request: EnsembleRequest) -> EnsembleResult:
        """Seeded Monte-Carlo ensemble prediction under device variation."""
        ...

    def submit_study(self, spec: StudySpec) -> str:
        """Submit an asynchronous study job; returns its job id."""
        ...

    def get_study(self, job_id: str) -> StudyStatus:
        """Poll a study job: state, progress, and (when done) its result."""
        ...

    def cancel_study(self, job_id: str) -> StudyStatus:
        """Cancel a study job (idempotent); returns the resulting status."""
        ...

    def models(self) -> List[ModelInfo]:
        """The backend's published-plan catalogue (with content digests)."""
        ...

    def stats(self) -> Dict[str, Any]:
        """Serving statistics (micro-batching, caches, queue depths)."""
        ...

    def health(self) -> HealthStatus:
        """Liveness probe: backend status and catalogue size."""
        ...

    def close(self) -> None:
        """Release the client (and, when owned, its backend)."""
        ...

    def __enter__(self) -> "Client":
        ...

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        ...


_ClientT = TypeVar("_ClientT", bound="_BackendClient")


class _BackendClient:
    """Shared plumbing of the two backend-wrapping clients."""

    def __init__(
        self,
        backend: Any,
        own_backend: bool,
        jobs_dir: Optional[str] = None,
    ) -> None:
        self.backend = backend
        self.own_backend = own_backend
        self.jobs_dir = jobs_dir
        self._jobs: Optional[JobManager] = None
        self._closed = False

    @property
    def jobs(self) -> JobManager:
        """The lazily created study-job manager of this client.

        Jobs execute through the wrapped backend in this process; with
        ``jobs_dir`` set they checkpoint there, and interrupted studies
        found on disk resume the moment the manager is first used.
        """
        if self._jobs is None:
            self._jobs = JobManager(self.backend, checkpoint_dir=self.jobs_dir)
            self._jobs.resume()
        return self._jobs

    def submit_study(self, spec: StudySpec) -> str:
        return self.jobs.submit(spec)

    def get_study(self, job_id: str) -> StudyStatus:
        return self.jobs.status(job_id)

    def cancel_study(self, job_id: str) -> StudyStatus:
        return self.jobs.cancel(job_id)

    def models(self) -> List[ModelInfo]:
        try:
            entries = self.backend.models()
        except ApiError:
            raise
        except Exception as error:
            raise map_exception(error) from error
        return [ModelInfo.from_wire(entry) for entry in entries]

    def stats(self) -> Dict[str, Any]:
        try:
            return cast(Dict[str, Any], self.backend.stats_summary())
        except ApiError:
            raise
        except Exception as error:
            raise map_exception(error) from error

    def health(self) -> HealthStatus:
        models = len(self.models())
        summarize = getattr(self.backend, "health_summary", None)
        if callable(summarize):
            # Cluster backends know about dead shards and open breakers;
            # report "degraded" with the per-shard detail, exactly like
            # the HTTP front-end's /healthz.
            status, detail = summarize()
            return HealthStatus(
                status=status, models=models,
                detail=None if status == "ok" else dict(detail),
            )
        return HealthStatus(status="ok", models=models)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._jobs is not None:
            self._jobs.close()
        if self.own_backend:
            self.backend.close()

    def __enter__(self: _ClientT) -> _ClientT:
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


class LocalClient(_BackendClient):
    """In-process backend: the service's schedulers, caches, and registry.

    ``connect("local:plans/")`` builds the registry + service and returns
    one of these with ``own_backend=True`` (closing the client drains the
    schedulers).  Wrap an existing service with ``own_backend=False`` to
    share it between a client and, say, an HTTP front-end.
    """

    def __init__(
        self,
        service: InferenceService,
        own_backend: bool = True,
        timeout: Optional[float] = 60.0,
        jobs_dir: Optional[str] = None,
    ) -> None:
        super().__init__(service, own_backend, jobs_dir=jobs_dir)
        self.timeout = timeout

    @property
    def service(self) -> InferenceService:
        return cast(InferenceService, self.backend)

    def predict(self, request: PredictRequest) -> PredictResult:
        return cast(
            PredictResult,
            self.backend.predict_request(request, timeout=self.timeout),
        )

    def ensemble(self, request: EnsembleRequest) -> EnsembleResult:
        return cast(
            EnsembleResult, self.backend.ensemble_request(request)
        )


class ClusterClient(_BackendClient):
    """Replicated multi-process backend: each model on R ring workers.

    ``connect("cluster:plans/?workers=4&replicas=2")`` spawns the cluster
    and returns one of these with ``own_backend=True``.

    Worker death is handled inside the cluster, not here: a request
    stranded by a dead (or breaker-open) worker fails over to the next
    live replica, and when no owner is live a self-healing cluster
    (``auto_restart=True``) holds the request until the supervisor has
    respawned one — the same for this client and the HTTP edge.
    :class:`~repro.api.errors.WorkerDied` surfaces only when waiting
    cannot help: every owner's circuit breaker is open
    (``error.breaker_open``), the cluster does not auto-restart
    (``client.backend.restart_worker(i)`` re-admits manually), or the
    request's ``timeout`` ran out while the owners were still down.
    """

    def __init__(
        self,
        cluster: PlanCluster,
        own_backend: bool = True,
        timeout: Optional[float] = 60.0,
        ensemble_timeout: Optional[float] = 120.0,
        jobs_dir: Optional[str] = None,
    ) -> None:
        super().__init__(cluster, own_backend, jobs_dir=jobs_dir)
        self.timeout = timeout
        # Ensembles run num_samples stacked passes, so they get the
        # cluster backend's larger default budget rather than inheriting
        # the deterministic-request timeout.
        self.ensemble_timeout = ensemble_timeout

    @property
    def cluster(self) -> PlanCluster:
        return cast(PlanCluster, self.backend)

    def predict(self, request: PredictRequest) -> PredictResult:
        return cast(
            PredictResult,
            self.backend.predict_request(request, timeout=self.timeout),
        )

    def ensemble(self, request: EnsembleRequest) -> EnsembleResult:
        return cast(
            EnsembleResult,
            self.backend.ensemble_request(request,
                                          timeout=self.ensemble_timeout),
        )
