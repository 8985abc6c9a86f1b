"""``HttpClient``: the :class:`~repro.api.client.Client` protocol over HTTP.

Speaks the wire protocol of :class:`~repro.serve.http.PlanServer`
(``POST /v1/predict``, ``POST /v1/predict_under_variation``, ``GET
/v1/models``, ``GET /v1/stats``, ``GET /healthz``, the study routes)
through the shared codecs in :mod:`repro.api.codec`, so requests and
responses are the exact dataclasses every other backend consumes.

Predicts and ensembles always travel as binary frames
(``Content-Type: application/x-repro-frame``): 4 magic bytes, a u32
little-endian header length, a JSON header with the scalar fields and an
``arrays`` table of ``{dtype, shape, offset}``, then the raw C-order
little-endian array bytes (:mod:`repro.runtime.wire`).  The server answers
a frame with a frame, so no array crosses base64 or a JSON string; float64
frames make the results bit-equivalent to in-process execution.  Every
response is decoded by its own ``Content-Type``; every other route, and
every error response, is JSON.

Connections are pooled: up to ``pool_size`` idle keep-alive connections
are retained (LIFO, so the warmest socket is reused first) and handed back
after each successful, fully-read exchange.  The pool never retains a
connection in an ambiguous state — any transport failure, timeout, or
half-read response closes the socket instead of releasing it, so a
poisoned connection (stray body bytes that would be misparsed as the next
response) cannot leak into a later request.  A pooled connection the
server quietly closed while idle costs one transparent re-issue on a
fresh socket, not a caller-visible error.

Failure handling:

* HTTP error responses are resolved back to the typed
  :class:`~repro.api.errors.ApiError` hierarchy via the machine-readable
  ``code`` the server embeds (429 additionally carries the parsed
  ``Retry-After`` as :attr:`ApiBackpressure.retry_after`).
* Transport-level failures (connection refused/reset, a dropped
  keep-alive socket) are retried up to ``retries`` times with a small
  backoff.  Every request in this protocol is idempotent — predictions
  are deterministic functions of the request — so retrying a POST whose
  response never arrived is safe.  Exhausted retries raise the typed
  :class:`~repro.api.errors.ApiConnectionError`.  Socket *timeouts* are
  deliberately not retried: the server is still computing, so a re-send
  only multiplies its load — they raise
  :class:`~repro.api.errors.ApiTimeout`, matching every other backend.
* An optional bearer ``token`` is sent as ``Authorization: Bearer ...``;
  a 401 raises :class:`~repro.api.errors.ApiAuthError`.

``asyncio`` consumers call the blocking methods through
``asyncio.to_thread`` on one pooled client; the executor's thread count
is the in-flight width, and ``pool_size`` should match it.
"""

from __future__ import annotations

import http.client
import json
import ssl
import threading
import time
import urllib.parse
from dataclasses import replace
from types import TracebackType
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Tuple, Type, TypeVar,
)

from repro.api.codec import (
    FRAME_CONTENT_TYPE,
    decode_ensemble_result,
    decode_ensemble_result_frame,
    decode_error,
    decode_predict_result,
    decode_predict_result_frame,
    decode_study_status,
    encode_ensemble_request_frame,
    encode_predict_request_frame,
    encode_study_spec,
    media_type,
)
from repro.api.errors import ApiConnectionError, ApiTimeout, InvalidRequest
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
from repro.obs.tracing import REQUEST_ID_HEADER, ensure_request_id

#: Transport-level failures worth a retry: the request may never have
#: reached the server, or the (idempotent) response was lost in flight.
_RETRYABLE = (ConnectionError, http.client.HTTPException, OSError)

_JSON_CONTENT_TYPE = "application/json"

_Result = TypeVar("_Result")


def _retry_after(headers: Mapping[str, str]) -> Optional[float]:
    """The parsed ``Retry-After`` of a (lower-cased) response header map."""
    header = headers.get("retry-after")
    if header is None:
        return None
    try:
        return float(header)
    except ValueError:
        return None


def _parse_json_body(raw: bytes) -> Any:
    """Best-effort JSON parse of a response body (undecodable → ``{}``)."""
    if not raw:
        return {}
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {}


def _json_payload(body: Mapping[str, Any]) -> bytes:
    return json.dumps(body, allow_nan=False).encode("utf-8")


def _decode_result(
    headers: Mapping[str, str],
    raw: bytes,
    from_frame: Callable[[bytes], _Result],
    from_json: Callable[[Mapping[str, Any]], _Result],
    what: str,
) -> _Result:
    """Decode a 200 prediction response by its own ``Content-Type``."""
    if media_type(headers.get("content-type")) == FRAME_CONTENT_TYPE:
        return from_frame(raw)
    body = _parse_json_body(raw)
    if not isinstance(body, Mapping):
        raise InvalidRequest(f"malformed {what} response: {body!r}")
    return from_json(body)


def _study_status(body: Any) -> StudyStatus:
    if not isinstance(body, Mapping):
        raise InvalidRequest(f"malformed study response: {body!r}")
    return decode_study_status(body)


def _require_job_id(job_id: str) -> None:
    if not isinstance(job_id, str) or not job_id:
        raise InvalidRequest("job_id must be a non-empty string")


def _close_quietly(connection: http.client.HTTPConnection) -> None:
    try:
        connection.close()
    except Exception:  # noqa: BLE001 - teardown must never raise
        pass


class _ConnectionPool:
    """Bounded, thread-safe pool of idle keep-alive connections.

    LIFO so the most recently used (warmest, least likely to have been
    reaped by the server's idle timeout) socket is reused first; entries
    idle past ``keepalive_timeout`` are closed on acquire instead of being
    handed out.  Callers must only :meth:`release` a connection whose
    response was *fully read* on a socket the server will keep open —
    anything ambiguous gets closed, never pooled.
    """

    def __init__(self, size: int, keepalive_timeout: float) -> None:
        self._size = size
        self._keepalive = keepalive_timeout
        self._lock = threading.Lock()
        self._idle: List[Tuple[http.client.HTTPConnection, float]] = []
        self._closed = False

    def acquire(self) -> Optional[http.client.HTTPConnection]:
        """An idle pooled connection, or ``None`` (caller dials fresh)."""
        now = time.monotonic()
        stale: List[http.client.HTTPConnection] = []
        taken: Optional[http.client.HTTPConnection] = None
        with self._lock:
            while self._idle:
                connection, stored = self._idle.pop()
                if now - stored <= self._keepalive:
                    taken = connection
                    break
                stale.append(connection)
        for connection in stale:
            _close_quietly(connection)
        return taken

    def release(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self._size:
                self._idle.append((connection, time.monotonic()))
                return
        _close_quietly(connection)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
            self._closed = True
        for connection, _ in idle:
            _close_quietly(connection)

    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)


class HttpClient:
    """Typed client for a served :class:`~repro.serve.http.PlanServer`.

    Parameters
    ----------
    base_url:
        ``http://host:port`` (a trailing path prefix is kept and prepended
        to every route, so a reverse-proxied deployment works too).
    token:
        Optional shared secret; sent as ``Authorization: Bearer <token>``.
    timeout:
        Socket timeout per attempt, seconds.
    retries:
        Additional attempts after a transport-level failure (not after an
        HTTP error response, which is authoritative).
    retry_backoff:
        Sleep before retry ``n`` is ``retry_backoff * 2**(n-1)`` seconds.
    cafile:
        For ``https://`` endpoints: a PEM bundle to verify the server
        certificate against (e.g. a self-signed deployment's own cert).
        Defaults to the system trust store.
    insecure:
        Skip certificate verification entirely (test rigs only).
    pool_size:
        Idle keep-alive connections retained for reuse (``0`` disables
        pooling and restores one-connection-per-request behaviour).
    keepalive_timeout:
        Seconds an idle pooled connection stays eligible for reuse; keep
        it at or below the server's idle timeout (30 s on ``PlanServer``)
        so the pool never hands out a socket the server is about to close.

    :meth:`predict` and :meth:`ensemble` send one binary frame each
    (``Content-Type: application/x-repro-frame``, layout in
    :mod:`repro.runtime.wire`) and decode the response by its
    ``Content-Type``; every other call is JSON.

    Every request carries an ``X-Request-Id`` (the request dataclass's, or
    client-minted) so client, edge, and worker logs line up; transport
    retries, timeouts, and connection reuse are counted in
    :meth:`client_stats` so a retry storm — or a pool that never hits —
    is visible from the caller's side too.
    """

    def __init__(
        self,
        base_url: str,
        token: Optional[str] = None,
        timeout: Optional[float] = 60.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
        cafile: Optional[str] = None,
        insecure: bool = False,
        pool_size: int = 8,
        keepalive_timeout: float = 25.0,
    ) -> None:
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(
                f"base_url must start with http:// or https://, got {base_url!r}"
            )
        host = parts.hostname
        if not host:
            raise ValueError(f"base_url {base_url!r} has no host")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        if keepalive_timeout <= 0:
            raise ValueError("keepalive_timeout must be positive")
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.pool_size = pool_size
        self.keepalive_timeout = keepalive_timeout
        self._scheme = parts.scheme
        self._host: str = host
        self._port = parts.port or (443 if parts.scheme == "https" else 80)
        self._prefix = parts.path.rstrip("/")
        self._ssl_context: Optional[ssl.SSLContext] = None
        if parts.scheme == "https":
            if insecure:
                context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
                context.check_hostname = False
                context.verify_mode = ssl.CERT_NONE
            else:
                context = ssl.create_default_context(cafile=cafile)
            self._ssl_context = context
        self._pool = _ConnectionPool(pool_size, keepalive_timeout)
        # Per-call request id and body media type, carried thread-locally
        # so _attempt keeps its (method, path, payload) seam for tests and
        # subclasses.
        self._call_context = threading.local()
        # Client-side transport counters (thread-safe): how this client
        # experienced the wire, independent of what the server recorded.
        self._stats_lock = threading.Lock()
        self._transport_stats = {
            "requests": 0,
            "responses": 0,
            "retries": 0,
            "timeouts": 0,
            "connection_failures": 0,
            "http_errors": 0,
            "connections_reused": 0,
            "connections_opened": 0,
            "stale_retries": 0,
        }

    def _count(self, event: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._transport_stats[event] += amount

    def client_stats(self) -> Dict[str, int]:
        """This client's transport counters (requests, retries, reuse...)."""
        with self._stats_lock:
            return dict(self._transport_stats)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        self._count("connections_opened")
        if self._scheme == "https":
            return http.client.HTTPSConnection(
                self._host, self._port, timeout=self.timeout,
                context=self._ssl_context,
            )
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout
        )

    def _exchange(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        payload: Optional[bytes],
    ) -> Tuple[int, Dict[str, str], bytes, bool]:
        """One request/response on ``connection``.

        Returns ``(status, headers, raw body, reusable)`` — ``reusable`` is
        True only when the response was fully read off a socket the
        server will keep open, i.e. the connection is provably in a clean
        between-requests state.  Any exception leaves the connection
        ambiguous; the *caller* must close it, never pool it.
        """
        headers = {"Content-Type": getattr(self._call_context, "content_type",
                                           _JSON_CONTENT_TYPE)}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        request_id = getattr(self._call_context, "request_id", None)
        if request_id is not None:
            headers[REQUEST_ID_HEADER] = request_id
        connection.request(
            method, self._prefix + path, body=payload, headers=headers
        )
        response = connection.getresponse()
        # read() consumes exactly the declared Content-Length; a peer that
        # disconnects mid-body raises IncompleteRead (retryable), and the
        # half-read socket is discarded by the caller — never reused.
        raw = response.read()
        status = response.status
        header_map = {key.lower(): value for key, value in response.getheaders()}
        reusable = bool(response.isclosed()) and not response.will_close
        return status, header_map, raw, reusable

    def _attempt(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request over a pooled or fresh connection.

        Returns ``(status, headers, raw body)``.  Connection hygiene lives
        here: a clean, fully-read keep-alive exchange releases the socket
        back to the pool; every failure path closes it.  A *reused*
        connection that fails before yielding a response gets one free
        re-issue on a fresh socket — the server merely closed it while it
        sat idle — without consuming a caller-visible retry.  Timeouts are
        excluded from that free pass: the server may be computing, and
        re-sending would double its load.
        """
        connection = self._pool.acquire()
        reused = connection is not None
        if connection is None:
            connection = self._connection()
        else:
            self._count("connections_reused")
        try:
            status, headers, body, reusable = self._exchange(
                connection, method, path, payload
            )
        except TimeoutError:
            _close_quietly(connection)
            raise
        except _RETRYABLE:
            _close_quietly(connection)
            if not reused:
                raise
            # Stale pooled socket: re-issue once on a fresh connection.
            self._count("stale_retries")
            connection = self._connection()
            try:
                status, headers, body, reusable = self._exchange(
                    connection, method, path, payload
                )
            except BaseException:
                _close_quietly(connection)
                raise
        except BaseException:
            _close_quietly(connection)
            raise
        if reusable:
            self._pool.release(connection)
        else:
            _close_quietly(connection)
        return status, headers, body

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[bytes] = None,
        content_type: str = _JSON_CONTENT_TYPE,
        request_id: Optional[str] = None,
        ok_statuses: Tuple[int, ...] = (200,),
    ) -> Tuple[Dict[str, str], bytes]:
        """Issue one API call, retrying transport failures; typed errors out.

        Returns the ``(headers, raw body)`` of a response whose status is
        in ``ok_statuses``; any other status raises the typed error its
        JSON body names.
        """
        last_error: Optional[BaseException] = None
        self._call_context.request_id = request_id
        self._call_context.content_type = content_type
        for attempt in range(self.retries + 1):
            if attempt:
                self._count("retries")
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            self._count("requests")
            try:
                status, headers, raw = self._attempt(method, path, payload)
            except TimeoutError as error:
                # socket.timeout.  The request reached the server and is
                # (still) being computed — re-sending it would multiply the
                # server load without helping, and the typed contract maps
                # timeouts to ApiTimeout everywhere.  Caught before
                # _RETRYABLE: TimeoutError is an OSError subclass.
                self._count("timeouts")
                raise ApiTimeout(
                    f"{method} {path} against {self.base_url} timed out "
                    f"after {self.timeout}s"
                ) from error
            except _RETRYABLE as error:
                self._count("connection_failures")
                last_error = error
                continue
            self._count("responses")
            if status in ok_statuses:
                return headers, raw
            self._count("http_errors")
            raise decode_error(_parse_json_body(raw), status,
                               retry_after=_retry_after(headers))
        raise ApiConnectionError(
            f"{self.base_url} unreachable after {self.retries + 1} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        )

    def _call_json(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        request_id: Optional[str] = None,
        ok_statuses: Tuple[int, ...] = (200,),
    ) -> Any:
        """:meth:`_call` with a JSON request body and a parsed JSON reply."""
        payload = None if body is None else _json_payload(body)
        _, raw = self._call(method, path, payload, request_id=request_id,
                            ok_statuses=ok_statuses)
        return _parse_json_body(raw)

    # ------------------------------------------------------------------ #
    # Client protocol
    # ------------------------------------------------------------------ #
    def predict(self, request: PredictRequest) -> PredictResult:
        request_id = ensure_request_id(request.request_id)
        headers, raw = self._call("POST", "/v1/predict",
                                  encode_predict_request_frame(request),
                                  FRAME_CONTENT_TYPE, request_id=request_id)
        result = _decode_result(headers, raw, decode_predict_result_frame,
                                decode_predict_result, "predict")
        if result.request_id is None:  # pre-tracing server
            result = replace(result, request_id=request_id)
        return result

    def ensemble(self, request: EnsembleRequest) -> EnsembleResult:
        request_id = ensure_request_id(request.request_id)
        headers, raw = self._call("POST", "/v1/predict_under_variation",
                                  encode_ensemble_request_frame(request),
                                  FRAME_CONTENT_TYPE, request_id=request_id)
        result = _decode_result(headers, raw, decode_ensemble_result_frame,
                                decode_ensemble_result, "ensemble")
        if result.request_id is None:  # pre-tracing server
            result = replace(result, request_id=request_id)
        return result

    def submit_study(self, spec: StudySpec) -> str:
        """Submit a study job to the server; returns its job id.

        Submission is idempotent on the server side only at the cell
        level; the POST itself is retried like every other call because a
        resubmitted study merely starts a second job computing identical
        (deterministic, seeded) results.
        """
        request_id = ensure_request_id(spec.request_id)
        body = self._call_json("POST", "/v1/studies", encode_study_spec(spec),
                               request_id=request_id)
        return _study_status(body).job_id

    def get_study(self, job_id: str) -> StudyStatus:
        """Poll one study job: state, progress, result when done."""
        _require_job_id(job_id)
        body = self._call_json("GET", f"/v1/studies/{job_id}")
        return _study_status(body)

    def cancel_study(self, job_id: str) -> StudyStatus:
        """Cancel one study job (``DELETE /v1/studies/{id}``; idempotent).

        A running job flips to the terminal ``"cancelled"`` state; a job
        already done/failed/cancelled answers its current status
        unchanged; an unknown id raises the typed 404
        (:class:`~repro.api.errors.ModelNotFound`).
        """
        _require_job_id(job_id)
        body = self._call_json("DELETE", f"/v1/studies/{job_id}")
        return _study_status(body)

    def models(self) -> List[ModelInfo]:
        body = self._call_json("GET", "/v1/models")
        entries = body.get("models", []) if isinstance(body, Mapping) else []
        return [ModelInfo.from_wire(entry) for entry in entries]

    def stats(self) -> Dict[str, Any]:
        body = self._call_json("GET", "/v1/stats")
        stats = body.get("stats", {}) if isinstance(body, Mapping) else {}
        stats = dict(stats)
        # The caller's view of the wire, alongside the server's counters.
        stats["client"] = self.client_stats()
        return stats

    def health(self) -> HealthStatus:
        # A degraded or draining server answers the probe with 503 plus a
        # diagnostic body — that is a *successful* health check reporting
        # an unhealthy service, not a transport error.
        body = self._call_json("GET", "/healthz", ok_statuses=(200, 503))
        if not isinstance(body, Mapping):
            raise InvalidRequest(f"malformed health response: {body!r}")
        return HealthStatus.from_wire(body)

    def close(self) -> None:
        """Close the pooled idle connections (in-flight requests finish)."""
        self._pool.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()
