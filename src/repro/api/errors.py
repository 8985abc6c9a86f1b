"""Typed error hierarchy of the ``repro.api`` client layer.

Every failure a client can observe — regardless of whether the request ran
in-process, over HTTP, or against a worker process of a plan cluster — is
expressed as one :class:`ApiError` subclass carrying a *stable
machine-readable code* (:attr:`ApiError.code`) and the HTTP status the
error maps to on the wire (:attr:`ApiError.status`).  The codes are the
cross-transport contract: the HTTP front-end embeds them in error bodies,
:class:`~repro.api.http_client.HttpClient` resolves them back to the same
classes, and the backend-equivalence tests assert that one malformed
request produces the *identical* typed error through every backend.

:func:`map_exception` is the single place legacy exceptions (``KeyError``
for an unknown plan, ``ValueError`` for bad geometry, ``RuntimeError`` for
a closed backend, ...) are folded into the typed hierarchy; the in-process
service, the cluster façade, and the HTTP server all route through it so
the mapping can never drift apart.

This module is import-pure (stdlib only) so any layer — including the
low-level serve modules — may depend on it without cycles.
"""

from __future__ import annotations

from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Optional, Type


class ApiError(Exception):
    """Base of every typed API failure.

    Subclasses override the two class attributes:

    * ``code`` — stable machine-readable identifier, carried verbatim in
      HTTP error bodies and used by clients to re-raise the right class.
    * ``status`` — the HTTP status the error maps to on the wire.

    Instances are constructed with a single message argument (kept in
    ``args``), which makes every subclass picklable across the cluster's
    process boundary: unpickling calls ``cls(message)`` and then restores
    any extra attributes from ``__dict__``.
    """

    code: str = "internal"
    status: int = 500

    def __init__(self, message: str) -> None:
        super().__init__(message)

    @property
    def message(self) -> str:
        """The human-readable failure description."""
        return str(self.args[0]) if self.args else ""


class InvalidRequest(ApiError):
    """The request itself is malformed: bad payload, geometry, or fields."""

    code = "invalid_request"
    status = 400


class ApiAuthError(ApiError):
    """The server requires a bearer token and the request lacked a valid one."""

    code = "auth_failed"
    status = 401


class ModelNotFound(ApiError):
    """No plan is published under the requested (model, bits, mapping) key."""

    code = "model_not_found"
    status = 404


class ApiBackpressure(ApiError):
    """The serving queue is past its configured depth; retry after a delay.

    ``retry_after`` is the server's pacing hint in seconds (the HTTP
    front-end renders it as a ``Retry-After`` header on the 429 response).
    """

    code = "backpressure"
    status = 429

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ApiServerError(ApiError):
    """An internal failure on the serving side (e.g. a corrupt artifact)."""

    code = "internal"
    status = 500


class ApiConnectionError(ApiError):
    """The backend could not be reached at the transport level."""

    code = "unreachable"
    status = 502


class BackendClosed(ApiError):
    """The backend is closed or shutting down; the request was not served."""

    code = "backend_closed"
    status = 503


class WorkerDied(ApiError):
    """A cluster worker process died.

    Raised for the in-flight requests the dead worker stranded *and* for
    new requests routed to its shard while it is down.  The metadata tells
    a client what to do next:

    * ``worker_index`` — the shard whose process died (``None`` when the
      failure could not be attributed to one worker).
    * ``breaker_open`` — ``True`` when the shard's circuit breaker is open:
      the worker crash-looped past the cluster's ``max_restarts`` budget
      and will *not* be respawned automatically, so retrying is pointless
      until an operator calls
      :meth:`~repro.serve.cluster.PlanCluster.restart_worker`.  With the
      breaker closed, every protocol request is idempotent/deterministic
      and safe to retry; a self-healing cluster already waits out the
      respawn itself, so a closed-breaker ``WorkerDied`` means the
      cluster does not auto-restart or the request's timeout ran out.

    Extra attributes live in ``__dict__`` and therefore survive pickling
    across the cluster's process boundary (see :class:`ApiError`).
    """

    code = "worker_died"
    status = 503

    def __init__(
        self,
        message: str,
        worker_index: Optional[int] = None,
        breaker_open: bool = False,
    ) -> None:
        super().__init__(message)
        self.worker_index = worker_index
        self.breaker_open = bool(breaker_open)


class ApiTimeout(ApiError):
    """The request did not complete within its deadline."""

    code = "timeout"
    status = 504


#: Stable code → class registry; the inverse of ``ApiError.code``.  Clients
#: use it to resurrect the typed error a server embedded in an error body.
ERROR_CODES: Dict[str, Type[ApiError]] = {
    cls.code: cls
    for cls in (
        InvalidRequest,
        ApiAuthError,
        ModelNotFound,
        ApiBackpressure,
        ApiServerError,
        ApiConnectionError,
        BackendClosed,
        WorkerDied,
        ApiTimeout,
    )
}

#: Fallback resolution for error responses that carry no known code (e.g. a
#: proxy or an older server): the HTTP status alone picks the closest class.
STATUS_CLASSES: Dict[int, Type[ApiError]] = {
    400: InvalidRequest,
    401: ApiAuthError,
    403: ApiAuthError,
    404: ModelNotFound,
    405: InvalidRequest,
    408: ApiTimeout,
    413: InvalidRequest,
    429: ApiBackpressure,
    500: ApiServerError,
    502: ApiConnectionError,
    503: BackendClosed,
    504: ApiTimeout,
}


#: Codes the HTTP layer emits for *protocol*-level failures (unknown path,
#: wrong method, oversized body).  They name misuses of the endpoint, not
#: backend results, so they resolve to InvalidRequest — never to
#: ModelNotFound, which a client may legitimately branch on (e.g. to
#: trigger plan publishing) and which the 404-status fallback alone would
#: wrongly pick for an unknown path.
PROTOCOL_CODES: Dict[str, Type[ApiError]] = {
    "not_found": InvalidRequest,
    "method_not_allowed": InvalidRequest,
    "payload_too_large": InvalidRequest,
}


def error_for(code: str, status: int, message: str) -> ApiError:
    """Resurrect the typed error for a wire-level ``(code, status, message)``."""
    cls = (ERROR_CODES.get(code) or PROTOCOL_CODES.get(code)
           or STATUS_CLASSES.get(status, ApiServerError))
    return cls(message)


def map_exception(error: BaseException) -> ApiError:
    """Fold a legacy exception into the typed hierarchy.

    This is the one shared mapping every backend applies, so the same
    underlying failure yields the identical typed error through the
    in-process service, the HTTP server, and the cluster:

    * ``KeyError`` — an unknown plan key → :class:`ModelNotFound` (the
      quoted ``str()`` wrapper ``KeyError`` adds is unwrapped);
    * ``ValueError`` / ``TypeError`` (including the wire format's
      ``WireFormatError``) — malformed payloads or incompatible geometry →
      :class:`InvalidRequest`;
    * timeouts → :class:`ApiTimeout`;
    * ``PlanArtifactError`` (matched by name; this module stays
      import-pure) — a corrupt published artifact → :class:`ApiServerError`;
    * any other ``RuntimeError`` — the backends' "closed / shutting down"
      signal → :class:`BackendClosed`.
    """
    if isinstance(error, ApiError):
        return error
    if isinstance(error, KeyError):
        message = str(error.args[0]) if error.args else str(error)
        return ModelNotFound(message)
    if isinstance(error, (ValueError, TypeError)):
        return InvalidRequest(str(error))
    if isinstance(error, (FutureTimeoutError, TimeoutError)):
        return ApiTimeout(str(error) or "request timed out")
    if type(error).__name__ == "PlanArtifactError":
        return ApiServerError(str(error))
    if isinstance(error, RuntimeError):
        return BackendClosed(str(error))
    return ApiServerError(f"{type(error).__name__}: {error}")
