"""Unified typed client layer: one facade over every serving backend.

``repro.api`` is the surface consumers code against, with the transport an
implementation detail selected at :func:`connect` time:

* **Types** (:mod:`repro.api.types`) — ``@dataclass`` requests/responses
  (:class:`PredictRequest`, :class:`EnsembleRequest`,
  :class:`PredictResult`, :class:`EnsembleResult`, :class:`ModelInfo`,
  :class:`HealthStatus`) shared by every backend *and* by the serve-side
  internals, so the HTTP handlers are thin codecs (:mod:`repro.api.codec`)
  and the cluster pickles the same objects across its process boundary.
* **Errors** (:mod:`repro.api.errors`) — a typed :class:`ApiError`
  hierarchy with stable machine-readable codes (``model_not_found``,
  ``invalid_request``, ``backpressure``, ``auth_failed``, ``worker_died``,
  ...); the same malformed request raises the identical typed error
  through every backend.
* **Clients** (:mod:`repro.api.client`, :mod:`repro.api.http_client`) —
  the :class:`Client` protocol and its three
  interchangeable implementations: :class:`LocalClient` (in-process
  :class:`~repro.serve.service.InferenceService`), :class:`HttpClient`
  (wire protocol against :class:`~repro.serve.http.PlanServer`, with a
  keep-alive connection
  pool, idempotent-request retries, and bearer-token auth), and
  :class:`ClusterClient` (sharded
  :class:`~repro.serve.cluster.PlanCluster`).  ``asyncio`` code awaits
  ``asyncio.to_thread(client.predict, request)`` on a pooled
  :class:`HttpClient`.
* **Dispatch** (:mod:`repro.api.connect`) — ``connect("local:plans/")``,
  ``connect("http://host:8100")``, ``connect("cluster:plans/?workers=4")``.
* **Studies** (:mod:`repro.api.study`, :mod:`repro.serve.jobs`) —
  asynchronous, checkpointed study jobs: submit a typed
  :class:`StudySpec` sweep (models × sigmas) via
  :meth:`Client.submit_study`, poll with :meth:`Client.get_study` /
  :func:`wait_study`, collect a :class:`StudyResult` that is bit-identical
  whether the job ran straight through or was killed and resumed.  The
  Fig. 6 sigma sweep (:func:`variation_sweep_via_client`) is a thin
  wrapper over one such job.

All three backends return bit-identical float64 predictions for the same
request; the backend-equivalence test matrix enforces it.

The pure modules (``types``, ``errors``, ``codec``) import nothing from
:mod:`repro.serve`, which lets the serve internals depend on them; the
client/connect layer (which *does* import the backends) loads lazily via
module ``__getattr__`` so the two packages can import each other's leaves
without a cycle.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, List

from repro.api.errors import (
    ApiAuthError,
    ApiBackpressure,
    ApiConnectionError,
    ApiError,
    ApiServerError,
    ApiTimeout,
    BackendClosed,
    ERROR_CODES,
    InvalidRequest,
    ModelNotFound,
    WorkerDied,
    error_for,
    map_exception,
)
from repro.api.types import (
    EnsembleRequest,
    EnsembleResult,
    HealthStatus,
    ModelInfo,
    PredictRequest,
    PredictResult,
    STUDY_STATES,
    StudyCellResult,
    StudyModel,
    StudyResult,
    StudySpec,
    StudyStatus,
    bits_token,
    canonical_name,
    parse_bits_token,
    study_spec,
)

if TYPE_CHECKING:  # the lazy names, visible to type checkers
    from repro.api.client import Client, ClusterClient, LocalClient
    from repro.api.connect import connect
    from repro.api.http_client import HttpClient
    from repro.api.study import (
        ClientSweepResult,
        SigmaPoint,
        variation_sweep_via_client,
        wait_study,
    )

#: Lazily resolved exports -> defining module.  These modules import the
#: serve backends, so resolving them eagerly from a serve-internal import
#: of repro.api.types would cycle.
_LAZY: Dict[str, str] = {
    "Client": "repro.api.client",
    "ClusterClient": "repro.api.client",
    "LocalClient": "repro.api.client",
    "HttpClient": "repro.api.http_client",
    "connect": "repro.api.connect",
    "ClientSweepResult": "repro.api.study",
    "SigmaPoint": "repro.api.study",
    "variation_sweep_via_client": "repro.api.study",
    "wait_study": "repro.api.study",
}

__all__ = [
    "ApiAuthError",
    "ApiBackpressure",
    "ApiConnectionError",
    "ApiError",
    "ApiServerError",
    "ApiTimeout",
    "BackendClosed",
    "Client",
    "ClientSweepResult",
    "ClusterClient",
    "ERROR_CODES",
    "EnsembleRequest",
    "EnsembleResult",
    "HealthStatus",
    "HttpClient",
    "InvalidRequest",
    "LocalClient",
    "ModelInfo",
    "ModelNotFound",
    "PredictRequest",
    "PredictResult",
    "STUDY_STATES",
    "SigmaPoint",
    "StudyCellResult",
    "StudyModel",
    "StudyResult",
    "StudySpec",
    "StudyStatus",
    "WorkerDied",
    "bits_token",
    "canonical_name",
    "connect",
    "error_for",
    "map_exception",
    "parse_bits_token",
    "study_spec",
    "variation_sweep_via_client",
    "wait_study",
]


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    # Cache every export of the module, not just the requested name: the
    # import above also binds the *submodule* onto this package (standard
    # submodule semantics), and for repro.api.connect that binding would
    # shadow the connect() function — resolving it through this hook must
    # not leave repro.api.connect a module object.
    for export, owner in _LAZY.items():
        if owner == module_name:
            globals()[export] = getattr(module, export)
    value: Any = globals()[name]
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_LAZY))
