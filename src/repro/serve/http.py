"""HTTP front-end: the serving stack as a stdlib HTTP endpoint.

:class:`PlanServer` is a threaded ``http.server`` edge: one handler
thread per HTTP/1.1 keep-alive connection, requests on a connection
answered in order.  The thread only does socket plumbing; every parsed
request goes to :class:`EdgeCore` — the transport-agnostic route table,
auth check, drain flag, study-job manager, and metrics registry.
The wire protocol:

``POST /v1/predict``
    ``{"model", "mapping", "bits", "images"}`` → deterministic logits.
    ``images`` is a wire array payload (base64-packed or nested lists, see
    :mod:`repro.runtime.wire`); ``bits`` is an int, ``null``, or a
    canonical token (``"4b"``, ``"fp32"``).  Response arrays are always
    base64-packed; an optional ``"encoding"`` field must say ``"b64"``
    (any other value is a 400 ``invalid_request``).
``POST /v1/predict_under_variation``
    The ensemble flavour: adds ``sigma_fraction``, ``num_samples``,
    ``seed``; returns mean logits, majority-vote predictions, vote
    confidence, and per-class vote counts.
``GET /v1/models``
    The registry catalogue with content digests.
``GET /v1/stats``
    Per-model micro-batching statistics.
``POST /v1/studies`` / ``GET /v1/studies/{id}`` / ``DELETE /v1/studies/{id}``
    Asynchronous study jobs (:mod:`repro.serve.jobs`): submit a typed
    sweep spec (models × sigmas), poll for the checkpointed, resumable
    :class:`~repro.api.types.StudyResult`, or cancel a running job.
    Submission answers immediately with the job's status document;
    polling survives server restarts when the server was given a
    ``jobs_dir``.  ``DELETE`` is idempotent — cancelling a finished or
    already-cancelled job answers 200 with its unchanged status — and an
    unknown id answers the typed 404 (``model_not_found``), exactly like
    ``GET``.
``GET /healthz``
    Liveness probe: ``"ok"``, ``"degraded"`` (a cluster shard is dead or
    its breaker is open; 503 with per-shard detail under ``workers`` and —
    for a replicated cluster — per-model replica health under
    ``replication``, distinguishing a model *down* from one degraded to
    R-1 live replicas), or ``"draining"``.
``GET /metrics``
    Prometheus text exposition (no auth, like ``/healthz``): the server's
    edge instruments merged with the backend's — per-worker families
    tagged ``worker="N"`` for a cluster backend.
``GET /admin/workers`` / ``POST /admin/restart_worker`` / ``POST /admin/drain``
    The operator surface (bearer auth required): per-shard process detail,
    rolling restart of one worker (body ``{"worker": N}``; also the
    breaker re-admission path), and pausing/resuming new prediction work
    (optional body ``{"drain": false}`` resumes).
``GET /admin/rollout`` / ``POST /admin/canary`` / ``POST /admin/promote``
/ ``POST /admin/rollback``
    Versioned plan rollout: inspect the rollout table, canary a traffic
    fraction onto a published ``__vN`` artifact (body ``{"model",
    "mapping", "bits"?, "version", "fraction"}``), then promote it to
    active or revert — all without a restart.

Both prediction routes also take their body as one binary frame, sent
with ``Content-Type: application/x-repro-frame``: 4 magic bytes
(``RPF1``), a u32 little-endian header length, a UTF-8 JSON header with
the scalar fields above plus ``"arrays": {name: {"dtype", "shape",
"offset"}}``, then the arrays' raw C-order little-endian bytes (layout and
checks in :mod:`repro.runtime.wire`).  A frame request is answered with a
frame of the same layout; :class:`~repro.api.HttpClient` sends every
predict and ensemble this way.  Only that media type is read as a frame:
any other ``Content-Type`` (``curl -d`` sends
``application/x-www-form-urlencoded``) is parsed as JSON.  Error
responses are JSON whatever the request's form.

Every response echoes an ``X-Request-Id`` header — the client's, when it
sent a valid one, else server-assigned — and the same id is threaded into
the typed request the backend serves, so worker-side structured logs line
up with the HTTP exchange.

Malformed requests are mapped to proper 4xx responses (400 bad payloads,
404 unknown models/paths, 405 wrong method, 413 oversized body) with a JSON
error body carrying the stable machine-readable ``code`` of the typed
:mod:`repro.api.errors` hierarchy; a closed backend answers 503, a
scheduler queue past the backend's ``max_queue_depth`` answers 429 with a
``Retry-After`` header, and (with ``auth_token`` set) a request without
the matching ``Authorization: Bearer`` token answers 401 — the token
compare is constant-time.  A request body shorter than its declared
``Content-Length`` (the client died or lied) answers 400 with an explicit
"truncated" message instead of a misleading parse failure — the body
is read in a loop until the declared length or EOF, so a slow client
dribbling its body in segments is served normally.  Bodies up to 1 MiB
are read into one reused buffer per connection.  A request line
``http.server`` cannot parse answers the same JSON 400.  Every error
response closes the connection.  float64 arrays, base64-packed or
framed, are bit-equivalent to in-process results.

Shutdown is graceful: :meth:`PlanServer.close` stops accepting
connections, waits for in-flight requests to finish, hangs up the idle
keep-alive connections, and then closes the backend — which drains every
in-flight micro-batch — before returning.

The handlers are thin codecs (:mod:`repro.api.codec`) over the shared
request/response dataclasses: the backend contract (satisfied by
``InferenceService`` and ``PlanCluster``) is the typed pair
``predict_request(PredictRequest) -> PredictResult`` /
``ensemble_request(EnsembleRequest) -> EnsembleResult`` plus ``models()``,
``stats_summary()``, ``close()``.
"""

from __future__ import annotations

import hmac
import json
import logging
import math
import socket
import ssl
import threading
import time
from dataclasses import dataclass, field, replace
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Mapping, Optional, Set, Tuple

from repro.api.codec import (
    FRAME_CONTENT_TYPE,
    _key_fields,
    decode_ensemble_request,
    decode_ensemble_request_frame,
    decode_predict_request,
    decode_predict_request_frame,
    decode_study_spec,
    encode_ensemble_result,
    encode_ensemble_result_frame,
    encode_error,
    encode_predict_result,
    encode_predict_result_frame,
    encode_study_status,
    media_type,
)
from repro.api.errors import ApiAuthError, ApiBackpressure, map_exception
from repro.runtime.wire import Buffer
from repro.serve.jobs import JobManager
from repro.obs import (
    REQUEST_ID_HEADER,
    MetricsRegistry,
    log_event,
    new_request_id,
    render,
    valid_request_id,
)

_LOG = logging.getLogger("repro.serve.http")

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Hard cap on request body size; a request over this answers 413 before
#: any bytes are read.
MAX_BODY_BYTES = 1 << 30

#: Largest chunk one body-read loop iteration asks the transport for, and
#: the most a connection's reusable body buffer grows to.
_READ_CHUNK = 1 << 20

#: Machine-readable codes for the protocol-level failures that are not
#: typed API errors (they never reach a backend).
_PROTOCOL_CODES = {
    400: "invalid_request",
    404: "not_found",
    405: "method_not_allowed",
    413: "payload_too_large",
    503: "unavailable",
}

#: Lower-cased header key the trace id travels under.
_REQUEST_ID_KEY = REQUEST_ID_HEADER.lower()


class RequestError(ValueError):
    """An HTTP-visible protocol failure with an explicit status code.

    A ``ValueError`` subclass so that one escaping through the shared
    exception mapping still reads as an invalid request (400); the
    explicit ``status``/``code`` carried here win whenever the HTTP layer
    handles it itself (404 unknown path, 405 method, 413 oversized body).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = _PROTOCOL_CODES.get(status, "internal")


def _status_for(error: BaseException) -> int:
    """Map an exception onto the HTTP status it should produce.

    Typed errors carry their own status; everything else goes through the
    shared :func:`repro.api.errors.map_exception`, so the HTTP mapping can
    never drift from what the other transports report.
    """
    if isinstance(error, RequestError):
        return error.status
    return map_exception(error).status


def _error_body(status: int, error: BaseException) -> dict:
    if isinstance(error, RequestError):
        return encode_error(error, status=status, code=error.code)
    return encode_error(error, status=status)


def parse_content_length(headers: Mapping[str, str]) -> Optional[int]:
    """Validate a (lower-cased) header map's ``Content-Length``.

    Returns ``None`` when the header is absent (a body-less request),
    the parsed length otherwise; raises :class:`RequestError` 400 for an
    unparseable or negative value and 413 past :data:`MAX_BODY_BYTES` —
    *before* any body byte is read.
    """
    length_header = headers.get("content-length")
    if length_header is None:
        return None
    try:
        length = int(length_header)
    except ValueError:
        raise RequestError(400, f"invalid Content-Length {length_header!r}")
    if length < 0:
        raise RequestError(400, "Content-Length must be non-negative")
    if length > MAX_BODY_BYTES:
        raise RequestError(413, f"request body over {MAX_BODY_BYTES} bytes")
    return length


def read_exact(readinto: Callable[[memoryview], Optional[int]],
               length: int, scratch: memoryview) -> memoryview:
    """Read exactly ``length`` bytes from a blocking ``readinto`` callable.

    A body that fits ``scratch`` is read into it and returned as a view of
    it.  A longer one is read through ``scratch`` a chunk at a time into a
    ``bytearray`` of its own that grows only as bytes arrive, so a client
    that declares a large ``Content-Length`` and sends little costs what it
    sent, not what it declared.

    A single ``readinto`` may legally fill less (a slow or segmented
    client); this loops until the declared length arrives, and a genuine
    EOF short of it raises the explicit truncation 400 instead of letting
    the partial body surface as a misleading JSON error.
    """
    if length <= len(scratch):
        body, filled = scratch[:length], 0
        while filled < length:
            received = readinto(body[filled:])
            if not received:
                raise _truncated(length, filled)
            filled += received
        return body
    grown = bytearray()
    while len(grown) < length:
        received = readinto(scratch[:length - len(grown)])
        if not received:
            raise _truncated(length, len(grown))
        grown += scratch[:received]
    return memoryview(grown)


def _truncated(length: int, received: int) -> RequestError:
    return RequestError(
        400, f"request body truncated: expected {length} bytes, got {received}"
    )


@dataclass
class EdgeResponse:
    """One rendered HTTP response, transport-agnostic.

    ``close`` asks the transport to drop the connection after writing —
    set on every error response, because several error paths respond
    before the request body was consumed and the unread bytes would be
    parsed as the next request line under keep-alive.
    """

    status: int
    payload: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    close: bool = False


class EdgeCore:
    """The transport-agnostic core of the HTTP edge.

    Owns everything about the protocol that is not socket plumbing: the
    route table, bearer-token auth (constant-time compare), the drain
    flag, the study-job manager, the edge metrics registry, and in-flight
    request accounting.  A transport parses one request off its
    connection (method, path, lower-cased headers, raw body bytes) and
    calls :meth:`handle`; everything after that — dispatch, typed-error
    mapping, metrics, structured logging — happens here.
    """

    def __init__(
        self,
        backend,
        auth_token: Optional[str] = None,
        jobs_dir: Optional[str] = None,
    ) -> None:
        self.backend = backend
        self.auth_token = auth_token
        # While True, prediction routes answer 503 and /healthz reports
        # "draining"; flipped by POST /admin/drain (bool writes are atomic
        # under the GIL, so no lock).
        self.draining = False
        # Edge-level instruments; /metrics merges these with the backend's.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP exchanges by route, method, and status code.",
            labels=("route", "method", "status"),
        )
        self._m_latency = self.metrics.histogram(
            "repro_http_request_latency_seconds",
            "HTTP exchange latency by route.",
            labels=("route",),
        )
        self.metrics.register_callback(
            "repro_http_inflight_requests", "gauge",
            "Requests currently mid-handling.",
            lambda: [({}, float(self._inflight))],
        )
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        # The study-job subsystem rides on the edge registry so /metrics
        # exports its counters; with a checkpoint directory, interrupted
        # studies found on disk resume before the first request arrives.
        self.jobs = JobManager(backend, checkpoint_dir=jobs_dir,
                               metrics=self.metrics)
        resumed = self.jobs.resume()
        if resumed:
            log_event(_LOG, "studies_resumed", jobs=len(resumed))
        self._routes: Dict[Tuple[str, str], Callable[..., EdgeResponse]] = {
            ("GET", "/healthz"): self._handle_health,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/v1/models"): self._handle_models,
            ("GET", "/v1/stats"): self._handle_stats,
            ("POST", "/v1/predict"): self._handle_predict,
            ("POST", "/v1/predict_under_variation"): self._handle_ensemble,
            ("POST", "/v1/studies"): self._handle_study_submit,
            ("GET", "/admin/workers"): self._handle_admin_workers,
            ("POST", "/admin/restart_worker"): self._handle_admin_restart,
            ("POST", "/admin/drain"): self._handle_admin_drain,
            ("GET", "/admin/rollout"): self._handle_admin_rollout,
            ("POST", "/admin/canary"): self._handle_admin_canary,
            ("POST", "/admin/promote"): self._handle_admin_promote,
            ("POST", "/admin/rollback"): self._handle_admin_rollback,
        }
        self._route_paths = {path for _, path in self._routes}

    def drain(self, timeout: Optional[float]) -> bool:
        """Wait until no request is mid-handling; True if fully drained."""
        with self._inflight_cv:
            return self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    # -------------------------------------------------------------- #
    # Dispatch
    # -------------------------------------------------------------- #
    def handle(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: Optional[Buffer] = None,
        body_error: Optional[BaseException] = None,
    ) -> EdgeResponse:
        """One parsed request in, one rendered response out.

        ``headers`` must carry lower-cased keys.  ``body`` is the raw
        request body, any bytes-like object (``None`` when the request had
        no ``Content-Length``); nothing refers into it once this returns,
        so a transport may reuse its buffer for the next request.
        A transport that failed to obtain the body (bad or oversized
        Content-Length, truncation, a read timeout) passes the failure as
        ``body_error`` instead; it is raised *after* the auth check so the
        status precedence matches the pre-split behaviour (401 before
        400/413), then mapped like every other error.
        """
        path = path.split("?", 1)[0]
        # The two parameterised routes collapse onto a single metrics
        # label so job ids cannot grow cardinality.
        study_id: Optional[str] = None
        if path.startswith("/v1/studies/"):
            study_id = path[len("/v1/studies/"):]
        # The trace id of this exchange: the client's (echoed) when it
        # sent a valid X-Request-Id, otherwise server-assigned here.
        supplied = headers.get(_REQUEST_ID_KEY)
        request_id = (
            supplied if valid_request_id(supplied) else new_request_id()
        )
        status = 0
        started = time.monotonic()
        with self._inflight_cv:
            self._inflight += 1
        try:
            try:
                # The liveness probe and metrics scrape stay open so
                # orchestrators and scrapers can poll without holding the
                # secret; everything else requires the token.
                if path not in ("/healthz", "/metrics"):
                    self._check_auth(headers)
                if body_error is not None:
                    raise body_error
                if study_id is not None:
                    if method == "GET":
                        response = self._handle_study_get(study_id, request_id)
                    elif method == "DELETE":
                        response = self._handle_study_cancel(study_id,
                                                             request_id)
                    else:
                        raise RequestError(
                            405, f"{method} is not allowed on {path}"
                        )
                else:
                    handler = self._routes.get((method, path))
                    if handler is None:
                        if path in self._route_paths:
                            raise RequestError(
                                405, f"{method} is not allowed on {path}"
                            )
                        raise RequestError(404, f"unknown path {path!r}")
                    response = handler(
                        body, request_id,
                        media_type(headers.get("content-type")),
                    )
            except Exception as error:  # noqa: BLE001 - becomes JSON
                response = self._error_response(error, request_id)
            status = response.status
            return response
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                if self._inflight == 0:
                    self._inflight_cv.notify_all()
            elapsed = time.monotonic() - started
            # Unknown paths collapse onto one label value so a scanner
            # cannot grow the metric cardinality without bound.
            if study_id is not None:
                route = "/v1/studies/{id}"
            else:
                route = path if path in self._route_paths else "unknown"
            try:
                self._m_requests.inc(route=route, method=method,
                                     status=str(status))
                self._m_latency.observe(elapsed, route=route)
            except Exception:  # noqa: BLE001 - telemetry must never fail a request
                pass
            log_event(_LOG, "http_request", request_id=request_id,
                      route=route, method=method, status=status,
                      latency_ms=elapsed * 1000.0)

    # -------------------------------------------------------------- #
    # Response construction
    # -------------------------------------------------------------- #
    def _payload_response(
        self,
        status: int,
        payload: bytes,
        request_id: str,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> EdgeResponse:
        merged = dict(headers or {})
        # Every response — success or error — echoes the trace id.
        merged[REQUEST_ID_HEADER] = request_id
        return EdgeResponse(status=status, payload=payload,
                            content_type=content_type, headers=merged,
                            close=close)

    def _json(
        self,
        status: int,
        body: dict,
        request_id: str,
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> EdgeResponse:
        payload = json.dumps(body, allow_nan=False).encode("utf-8")
        return self._payload_response(status, payload, request_id,
                                      headers=headers, close=close)

    def _frame(self, payload: bytes, request_id: str) -> EdgeResponse:
        """A 200 carrying one binary frame (see :mod:`repro.runtime.wire`)."""
        return self._payload_response(200, payload, request_id,
                                      content_type=FRAME_CONTENT_TYPE)

    def _error_response(
        self, error: BaseException, request_id: str
    ) -> EdgeResponse:
        # Several error paths (unknown route, 405, 413, bad Content-Length)
        # respond before the request body was read; under HTTP/1.1
        # keep-alive the unread bytes would be parsed as the next request
        # line, corrupting every later exchange on the connection.  Closing
        # after any error keeps the stream unambiguous.
        status = _status_for(error)
        headers: Dict[str, str] = {}
        if isinstance(error, ApiBackpressure):
            # Retry-After is integral seconds per RFC 9110; round up so the
            # hint is never shorter than the backend asked for.
            headers["Retry-After"] = str(max(1, math.ceil(error.retry_after)))
        if isinstance(error, ApiAuthError):
            headers["WWW-Authenticate"] = "Bearer"
        return self._json(status, _error_body(status, error), request_id,
                          headers=headers, close=True)

    # -------------------------------------------------------------- #
    # Plumbing
    # -------------------------------------------------------------- #
    def _check_auth(self, headers: Mapping[str, str]) -> None:
        """Enforce the optional shared bearer token (constant-time compare)."""
        token = self.auth_token
        if token is None:
            return
        supplied = headers.get("authorization", "")
        expected = f"Bearer {token}"
        # hmac.compare_digest keeps the comparison constant-time in the
        # length-equal case, so the token cannot be recovered byte-by-byte
        # from response timing.
        if not hmac.compare_digest(
            supplied.encode("utf-8"), expected.encode("utf-8")
        ):
            raise ApiAuthError(
                "missing or invalid bearer token; send "
                "'Authorization: Bearer <token>'"
            )

    def _body(self, body: Optional[Buffer]) -> Buffer:
        if body is None:
            raise RequestError(400, "Content-Length header is required")
        return body

    def _json_body(self, body: Optional[Buffer]) -> dict:
        raw = self._body(body)
        try:
            parsed = json.loads(str(raw, "utf-8"))
        except (ValueError, RecursionError) as error:  # UTF-8, JSON, nesting
            raise RequestError(400, f"request body is not valid JSON: {error}")
        if not isinstance(parsed, dict):
            raise RequestError(400, "request body must be a JSON object")
        return parsed

    def _optional_json_body(self, body: Optional[Buffer]) -> dict:
        """Like :meth:`_json_body`, but a body-less request is ``{}``
        (the admin routes take their arguments as optional)."""
        if body is None:
            return {}
        return self._json_body(body)

    # -------------------------------------------------------------- #
    # Routes
    # -------------------------------------------------------------- #
    def _handle_health(self, body: Optional[Buffer], request_id: str,
                       body_type: str) -> EdgeResponse:
        models = len(self.backend.models())
        status = "ok"
        detail = None
        if self.draining:
            status = "draining"
        else:
            summarize = getattr(self.backend, "health_summary", None)
            if callable(summarize):
                status, detail = summarize()
        if status == "ok":
            return self._json(200, {"status": "ok", "models": models},
                              request_id)
        doc: dict = {"status": status, "models": models}
        if detail is not None:
            detail = dict(detail)
            # A replicated cluster reports per-model replica health under
            # "models"; surfaced separately so operators can tell a model
            # *down* (no live replica) from one degraded to R-1 replicas.
            replication = detail.pop("models", None)
            doc["workers"] = detail
            if replication is not None:
                doc["replication"] = replication
        # 503 so load balancers eject the endpoint on their health probe
        # alone; the body still carries the per-shard specifics.
        return self._json(503, doc, request_id)

    def _handle_metrics(self, body: Optional[Buffer], request_id: str,
                        body_type: str) -> EdgeResponse:
        families = list(self.metrics.collect())
        collect = getattr(self.backend, "metrics_families", None)
        if callable(collect):
            families.extend(collect())
        payload = render(families).encode("utf-8")
        return self._payload_response(200, payload, request_id,
                                      content_type=METRICS_CONTENT_TYPE)

    def _handle_admin_workers(self, body: Optional[Buffer], request_id: str,
                              body_type: str) -> EdgeResponse:
        describe = getattr(self.backend, "describe_workers", None)
        if not callable(describe):
            raise RequestError(
                404, "backend has no worker processes to describe"
            )
        return self._json(200, {"workers": describe()}, request_id)

    def _handle_admin_restart(self, body: Optional[Buffer], request_id: str,
                              body_type: str) -> EdgeResponse:
        restart = getattr(self.backend, "restart_worker", None)
        if not callable(restart):
            raise RequestError(
                404, "backend has no worker processes to restart"
            )
        parsed = self._json_body(body)
        worker = parsed.get("worker")
        if isinstance(worker, bool) or not isinstance(worker, int):
            raise RequestError(400, "body must carry an integer 'worker'")
        restart(worker)
        log_event(_LOG, "admin_restart_worker", request_id=request_id,
                  worker=worker)
        return self._json(200, {"restarted": worker}, request_id)

    def _handle_admin_drain(self, body: Optional[Buffer], request_id: str,
                            body_type: str) -> EdgeResponse:
        parsed = self._optional_json_body(body)
        drain = parsed.get("drain", True)
        if not isinstance(drain, bool):
            raise RequestError(400, "'drain' must be a boolean")
        self.draining = drain
        log_event(_LOG, "admin_drain", request_id=request_id,
                  draining=drain)
        return self._json(200, {"draining": drain}, request_id)

    def _handle_models(self, body: Optional[Buffer], request_id: str,
                       body_type: str) -> EdgeResponse:
        return self._json(200, {"models": self.backend.models()}, request_id)

    def _handle_stats(self, body: Optional[Buffer], request_id: str,
                      body_type: str) -> EdgeResponse:
        return self._json(200, {"stats": self.backend.stats_summary()},
                          request_id)

    # The two prediction routes are nothing but codec shells: body (a
    # frame or JSON, by media type) -> shared request dataclass -> typed
    # backend entry point -> shared result dataclass -> body of the same
    # form.  All validation lives in the codec and the dataclasses
    # themselves, so every transport applies it identically.
    def _reject_if_draining(self) -> None:
        if self.draining:
            raise RequestError(
                503, "server is draining; no new prediction work is accepted"
            )

    def _handle_predict(self, body: Optional[Buffer], request_id: str,
                        body_type: str) -> EdgeResponse:
        self._reject_if_draining()
        framed = body_type == FRAME_CONTENT_TYPE
        if framed:
            request = decode_predict_request_frame(self._body(body))
        else:
            request = decode_predict_request(self._json_body(body))
        request = replace(request, request_id=request_id)
        result = self.backend.predict_request(request)
        if framed:
            return self._frame(encode_predict_result_frame(result), request_id)
        return self._json(200, encode_predict_result(result), request_id)

    def _handle_ensemble(self, body: Optional[Buffer], request_id: str,
                         body_type: str) -> EdgeResponse:
        self._reject_if_draining()
        framed = body_type == FRAME_CONTENT_TYPE
        if framed:
            request = decode_ensemble_request_frame(self._body(body))
        else:
            request = decode_ensemble_request(self._json_body(body))
        request = replace(request, request_id=request_id)
        result = self.backend.ensemble_request(request)
        if framed:
            return self._frame(encode_ensemble_result_frame(result), request_id)
        return self._json(200, encode_ensemble_result(result), request_id)

    # -------------------------------------------------------------- #
    # Study jobs
    # -------------------------------------------------------------- #
    def _handle_study_submit(self, body: Optional[Buffer], request_id: str,
                             body_type: str) -> EdgeResponse:
        self._reject_if_draining()
        spec = decode_study_spec(self._json_body(body))
        job_id = self.jobs.submit(spec)
        log_event(_LOG, "study_submitted", request_id=request_id,
                  job_id=job_id, cells=spec.cell_count)
        return self._json(200, encode_study_status(self.jobs.status(job_id)),
                          request_id)

    def _handle_study_get(self, job_id: str, request_id: str) -> EdgeResponse:
        # Polling stays allowed while draining: a drained server still
        # finishes and reports the studies it accepted.
        status = self.jobs.status(job_id)
        return self._json(200, encode_study_status(status), request_id)

    def _handle_study_cancel(self, job_id: str,
                             request_id: str) -> EdgeResponse:
        # Cancellation is idempotent and allowed while draining (it only
        # sheds work); an unknown id raises the typed 404 from the manager.
        status = self.jobs.cancel(job_id)
        log_event(_LOG, "study_cancel", request_id=request_id,
                  job_id=job_id, state=status.state)
        return self._json(200, encode_study_status(status), request_id)

    # -------------------------------------------------------------- #
    # Versioned rollout admin
    # -------------------------------------------------------------- #
    def _rollout_backend(self, attr: str):
        method = getattr(self.backend, attr, None)
        if not callable(method):
            raise RequestError(404, "backend has no versioned-rollout surface")
        return method

    def _handle_admin_rollout(self, body: Optional[Buffer], request_id: str,
                              body_type: str) -> EdgeResponse:
        status = self._rollout_backend("rollout_status")
        return self._json(200, {"rollout": status()}, request_id)

    def _handle_admin_canary(self, body: Optional[Buffer], request_id: str,
                             body_type: str) -> EdgeResponse:
        set_canary = self._rollout_backend("set_canary")
        parsed = self._json_body(body)
        model, bits, mapping = _key_fields(parsed)
        version = parsed.get("version")
        fraction = parsed.get("fraction")
        if isinstance(version, bool) or not isinstance(version, int):
            raise RequestError(400, "body must carry an integer 'version'")
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)):
            raise RequestError(400, "body must carry a numeric 'fraction'")
        state = set_canary(model, bits, mapping, version, float(fraction))
        log_event(_LOG, "admin_canary", request_id=request_id,
                  model=model, version=version, fraction=fraction)
        return self._json(200, {"rollout": state}, request_id)

    def _handle_admin_promote(self, body: Optional[Buffer], request_id: str,
                              body_type: str) -> EdgeResponse:
        promote = self._rollout_backend("promote")
        parsed = self._json_body(body)
        model, bits, mapping = _key_fields(parsed)
        version = parsed.get("version")
        if version is not None and (
            isinstance(version, bool) or not isinstance(version, int)
        ):
            raise RequestError(400, "'version' must be an integer when given")
        state = promote(model, bits, mapping, version)
        log_event(_LOG, "admin_promote", request_id=request_id,
                  model=model, active=state.get("active"))
        return self._json(200, {"rollout": state}, request_id)

    def _handle_admin_rollback(self, body: Optional[Buffer], request_id: str,
                               body_type: str) -> EdgeResponse:
        rollback = self._rollout_backend("rollback")
        parsed = self._json_body(body)
        model, bits, mapping = _key_fields(parsed)
        state = rollback(model, bits, mapping)
        log_event(_LOG, "admin_rollback", request_id=request_id,
                  model=model, active=state.get("active"))
        return self._json(200, {"rollout": state}, request_id)


class _Handler(BaseHTTPRequestHandler):
    """Thin transport: socket/body plumbing; the protocol lives in EdgeCore."""

    protocol_version = "HTTP/1.1"
    # Idle keep-alive connections drop after this long.
    timeout = 30.0
    server_version = "repro-serve/1.0"
    # TCP_NODELAY on every accepted socket: with Nagle on, a response
    # segment waits for the ACK of the previous one, which the client
    # delays by up to ~40 ms (RFC 896 meeting RFC 1122's delayed ACK).
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        # This connection's reusable request-body buffer (see _body_scratch).
        self._body_buffer = bytearray()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # pragma: no cover - disabled in tests
            super().log_message(format, *args)

    def send_error(self, code, message=None, explain=None):
        # Failures http.server detects before a request exists (malformed
        # request line, oversized header section, unsupported method)
        # answer the protocol's JSON error body instead of an HTML page.
        # A request line too garbled to name its version still gets a
        # full HTTP/1.1 status line and headers, not a bare HTTP/0.9 body.
        if self.request_version == "HTTP/0.9":
            self.request_version = self.protocol_version
        error = RequestError(code, message or HTTPStatus(code).phrase)
        payload = json.dumps(_error_body(code, error)).encode("utf-8")
        self._send(EdgeResponse(status=code, payload=payload, close=True))

    def parse_request(self) -> bool:
        # A request line arrived: the connection is busy until answered.
        self.server.set_idle(self.connection, False)
        return super().parse_request()

    def handle_one_request(self) -> None:
        super().handle_one_request()
        # Back to waiting for the next request — unless close() has begun,
        # in which case the connection is hung up instead of kept alive.
        if not self.close_connection and not self.server.set_idle(
            self.connection, True
        ):
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        # No route takes PUT; the core answers 405 on a known path, 404 else.
        self._dispatch("PUT")

    def _dispatch(self, method: str) -> None:
        core = self.server.core
        headers = {key.lower(): value for key, value in self.headers.items()}
        body: Optional[memoryview] = None
        body_error: Optional[BaseException] = None
        try:
            length = parse_content_length(headers)
            if length is not None:
                body = read_exact(self.rfile.readinto, length,
                                  self._body_scratch(length))
        except Exception as error:  # noqa: BLE001 - mapped by the core
            body_error = error
        self._send(core.handle(method, self.path, headers, body, body_error))

    def _body_scratch(self, length: int) -> memoryview:
        """This connection's body buffer, grown (never shrunk) to hold a
        ``length``-byte body, or :data:`_READ_CHUNK` for a longer one.

        Requests on a connection are served one after another and the
        decoders copy what they keep, so each body up to
        :data:`_READ_CHUNK` overwrites the last instead of faulting in fresh
        pages; a longer body only passes through it (:func:`read_exact`).
        An idle keep-alive connection pins at most :data:`_READ_CHUNK`.
        """
        size = min(length, _READ_CHUNK)
        if len(self._body_buffer) < size:
            self._body_buffer = bytearray(size)
        return memoryview(self._body_buffer)

    def _send(self, response: EdgeResponse) -> None:
        if response.close:
            self.close_connection = True
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        # Status line, headers and payload leave in one write (instead of
        # end_headers() flushing the head first), so a small response is
        # one segment and a peer that hung up early only costs this guard.
        self._headers_buffer.append(b"\r\n")
        head = b"".join(self._headers_buffer)
        self._headers_buffer = []
        try:
            self.wfile.write(head + response.payload)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True


class _PlanHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server: socket lifecycle around one EdgeCore."""

    # Handler threads are daemonic: an idle keep-alive connection must not
    # block shutdown.  In-flight *requests* are tracked by the core and
    # idle connections here, so close() can drain real work first and then
    # hang up the connections waiting for a next request.
    daemon_threads = True
    # With daemon threads there is nothing for server_close() to join.
    block_on_close = False
    # http.server's default listen backlog (5) drops connection bursts on
    # the floor — clients stall in SYN retransmit.  An edge accepting
    # hundreds of keep-alive clients needs a real backlog.
    request_queue_size = 1024

    def __init__(self, address, core: EdgeCore, verbose: bool) -> None:
        self.core = core
        self.verbose = verbose
        self._idle: Set[socket.socket] = set()
        self._idle_lock = threading.Lock()
        self._closing = False
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        self.set_idle(request, True)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self.set_idle(request, False)
        super().shutdown_request(request)

    def set_idle(self, connection: socket.socket, idle: bool) -> bool:
        """Record whether ``connection`` waits for its next request.

        Returns False, recording nothing, when a connection turns idle
        after :meth:`hang_up_idle` began: its handler must hang up.
        """
        with self._idle_lock:
            if not idle:
                self._idle.discard(connection)
            elif self._closing:
                return False
            else:
                self._idle.add(connection)
        return True

    def hang_up_idle(self) -> None:
        """Shut down every connection waiting for a next request.

        Its handler, blocked reading, sees EOF and exits; the peer sees
        the connection close.  A connection still mid-request is left to
        finish its response, then hangs up through :meth:`set_idle`.
        """
        with self._idle_lock:
            self._closing = True
            idle, self._idle = self._idle, set()
        for connection in idle:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer or the handler closed it first


class PlanServer:
    """Lifecycle wrapper: serve a backend over HTTP until closed.

    ``port=0`` binds an ephemeral port (see :attr:`url` after
    :meth:`start`).  With ``own_backend=True`` (default) closing the server
    also closes the backend, draining its in-flight micro-batches.
    ``auth_token`` turns on shared-token auth: every route except
    ``/healthz`` and ``/metrics`` requires ``Authorization: Bearer
    <token>`` and answers 401 otherwise (clients: ``HttpClient(url,
    token=...)`` or ``repro.api.connect(url, token=...)``).

    ``tls_cert``/``tls_key`` (both or neither) terminate TLS on the
    listening socket; :attr:`url` turns ``https://`` and clients verify
    with ``HttpClient(url, cafile=...)``.

    Connections are HTTP/1.1 keep-alive, one handler thread each, with
    ``TCP_NODELAY`` set and each response written in one send; a
    connection idle for ``_Handler.timeout`` seconds (30) is closed.
    ``HttpClient`` pools connections to it.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        own_backend: bool = True,
        verbose: bool = False,
        auth_token: Optional[str] = None,
        tls_cert: Optional[str] = None,
        tls_key: Optional[str] = None,
        jobs_dir: Optional[str] = None,
    ) -> None:
        if (tls_cert is None) != (tls_key is None):
            raise ValueError(
                "tls_cert and tls_key must be provided together"
            )
        self.backend = backend
        self.own_backend = own_backend
        self.core = EdgeCore(backend, auth_token=auth_token,
                             jobs_dir=jobs_dir)
        self._httpd = _PlanHTTPServer((host, port), self.core, verbose)
        self.tls = tls_cert is not None
        if tls_cert is not None and tls_key is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(certfile=tls_cert, keyfile=tls_key)
            self._httpd.socket = context.wrap_socket(
                self._httpd.socket, server_side=True
            )
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def metrics(self) -> MetricsRegistry:
        """The server's edge-level metric registry (merged into /metrics)."""
        return self.core.metrics

    @property
    def jobs(self) -> JobManager:
        """The study-job manager behind ``POST /v1/studies``."""
        return self.core.jobs

    @property
    def draining(self) -> bool:
        """True while POST /admin/drain has paused new prediction work."""
        return self.core.draining

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        scheme = "https" if self.tls else "http"
        return f"{scheme}://{host}:{port}"

    def start(self) -> "PlanServer":
        """Begin serving on a background thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="plan-http-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, hang up idle
        keep-alive connections, close backend."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=timeout)
        self.core.drain(timeout)
        self._httpd.hang_up_idle()
        # Jobs close before the backend they execute through; an unfinished
        # study stays checkpointed on disk and resumes on the next start.
        self.core.jobs.close()
        if self.own_backend:
            self.backend.close()
        self._httpd.server_close()

    def __enter__(self) -> "PlanServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
