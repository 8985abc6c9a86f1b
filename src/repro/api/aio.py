"""``AsyncClient``: the typed client surface as ``await``-ables.

The ``asyncio`` counterpart of :class:`~repro.api.http_client.HttpClient`:
the same typed dataclasses in and out, the same machine-readable error
mapping, the same idempotent-retry policy — with every method a coroutine
and the transport a pool of keep-alive ``asyncio`` stream connections
instead of blocking sockets.  Response decoding is shared with the sync
client (module-level helpers in :mod:`repro.api.http_client`), so the two
transports return bit-identical results and raise identical typed errors
by construction.

Pooling: at most ``pool_size`` connections to the host exist at once — a
semaphore makes callers past the limit *wait for a connection* instead of
dialing more sockets — and connections are reused LIFO across requests
while they stay warm (``keepalive_timeout``).  The pool never retains an
ambiguous socket: a timeout, transport failure, or half-read response
closes the connection; only a fully-read keep-alive exchange releases it
for reuse.  A pooled connection the server quietly closed while idle
costs one transparent re-issue on a fresh socket, not an error.

Talks to :class:`~repro.serve.http.PlanServer` over HTTP or TLS::

    async with connect_async("http://127.0.0.1:8000", token="s3cret") as api:
        result = await api.predict(PredictRequest(images=batch, model="mlp"))

Concurrency model: one ``AsyncClient`` belongs to one event loop.  Methods
may be awaited concurrently (that is the point — ``asyncio.gather`` many
predicts over the pooled connections); sharing an instance across loops
or threads is not supported.
"""

from __future__ import annotations

import asyncio
import json
import ssl
import time
import urllib.parse
from types import TracebackType
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from repro.api.codec import (
    encode_ensemble_request,
    encode_predict_request,
    encode_study_spec,
)
from repro.api.errors import ApiConnectionError, ApiTimeout, InvalidRequest
from repro.api.http_client import (
    ensemble_result_from_body,
    parse_json_body,
    predict_result_from_body,
    require_job_id,
    response_to_error,
    study_status_from_body,
)
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

#: Transport failures worth re-issuing the (idempotent) request over:
#: the connection died before a complete response arrived.
#: ``EOFError`` covers ``asyncio.IncompleteReadError`` (a peer that hung
#: up mid-response).  Note ``TimeoutError`` is an ``OSError`` subclass —
#: timeouts are caught first and deliberately never retried.
_ASYNC_RETRYABLE = (ConnectionError, EOFError, OSError)

_Conn = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


def _close_conn(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except Exception:  # noqa: BLE001 - teardown must never raise
        pass


class _AsyncPool:
    """Per-host connection pool: a concurrency cap plus LIFO idle reuse.

    ``acquire`` first takes the semaphore (so at most ``limit``
    connections are in flight or idle at once — callers past the limit
    queue on the semaphore, they do not dial), then hands back the
    warmest idle connection, or ``None`` when the caller should dial a
    fresh one.  ``release`` returns the semaphore and either parks the
    connection for reuse or closes it.
    """

    def __init__(self, limit: int, keepalive_timeout: float) -> None:
        self._sem = asyncio.Semaphore(limit)
        self._keepalive = keepalive_timeout
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter,
                               float]] = []
        self._closed = False

    async def acquire(self) -> Optional[_Conn]:
        await self._sem.acquire()
        now = time.monotonic()
        while self._idle:
            reader, writer, stored = self._idle.pop()
            if now - stored <= self._keepalive and not writer.is_closing():
                return reader, writer
            _close_conn(writer)
        return None

    def release(self, conn: Optional[_Conn], reusable: bool) -> None:
        if conn is not None:
            reader, writer = conn
            if reusable and not self._closed and not writer.is_closing():
                self._idle.append((reader, writer, time.monotonic()))
            else:
                _close_conn(writer)
        self._sem.release()

    def idle_count(self) -> int:
        return len(self._idle)

    async def close(self) -> None:
        self._closed = True
        idle, self._idle = self._idle, []
        for _, writer, _ in idle:
            _close_conn(writer)
        for _, writer, _ in idle:
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - teardown must never raise
                pass


class AsyncClient:
    """Awaitable typed client for a served HTTP endpoint.

    Same parameters and semantics as
    :class:`~repro.api.http_client.HttpClient` (``token``, ``timeout``,
    ``retries``, ``retry_backoff``, ``encoding``, ``cafile``,
    ``insecure``, ``pool_size``, ``keepalive_timeout``) — with every
    protocol method an ``await``-able and ``pool_size`` acting as a hard
    per-host concurrency cap: the ``pool_size + 1``-th concurrent request
    waits for a pooled connection instead of opening another socket.
    """

    def __init__(
        self,
        base_url: str,
        token: Optional[str] = None,
        timeout: Optional[float] = 60.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
        encoding: str = "b64",
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
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if keepalive_timeout <= 0:
            raise ValueError("keepalive_timeout must be positive")
        if encoding not in ("b64", "list"):
            raise ValueError(f"encoding must be 'b64' or 'list', not {encoding!r}")
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.encoding = encoding
        self.pool_size = pool_size
        self.keepalive_timeout = keepalive_timeout
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
        self._pool = _AsyncPool(pool_size, keepalive_timeout)
        self._closed = False
        # Same counter catalogue as the sync client, so stats()["client"]
        # has one shape regardless of transport.
        self._transport_stats: Dict[str, int] = {
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
        # Single-loop access only; plain increments are race-free there.
        self._transport_stats[event] += amount

    def client_stats(self) -> Dict[str, int]:
        """This client's transport counters (requests, retries, reuse...)."""
        return dict(self._transport_stats)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    async def _open_connection(self) -> _Conn:
        self._count("connections_opened")
        reader, writer = await asyncio.open_connection(
            self._host, self._port, ssl=self._ssl_context
        )
        return reader, writer

    def _request_bytes(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
        request_id: Optional[str],
    ) -> bytes:
        lines = [
            f"{method} {self._prefix + path} HTTP/1.1",
            f"Host: {self._host}:{self._port}",
            "Content-Type: application/json",
        ]
        if payload is not None:
            lines.append(f"Content-Length: {len(payload)}")
        if self.token is not None:
            lines.append(f"Authorization: Bearer {self.token}")
        if request_id is not None:
            lines.append(f"{REQUEST_ID_HEADER}: {request_id}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head if payload is None else head + payload

    async def _exchange(
        self,
        conn: _Conn,
        method: str,
        path: str,
        payload: Optional[bytes],
        request_id: Optional[str],
    ) -> Tuple[int, Dict[str, str], Any, bool]:
        """One request/response on ``conn``; see the sync twin's contract.

        Returns ``(status, headers, body, reusable)``; any exception
        leaves the connection ambiguous and the caller must close it.
        """
        reader, writer = conn
        writer.write(self._request_bytes(method, path, payload, request_id))
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            # EOF before a status byte: the keep-alive peer hung up.
            raise ConnectionResetError("server closed connection")
        try:
            status = int(status_line.decode("latin-1").split(" ", 2)[1])
        except (IndexError, ValueError, UnicodeDecodeError):
            raise ConnectionError(
                f"malformed response status line {status_line!r}"
            )
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if line == b"":
                raise ConnectionResetError("connection lost in headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_header = headers.get("content-length")
        if length_header is not None:
            raw = await reader.readexactly(int(length_header))
            reusable = headers.get("connection", "").lower() != "close"
        else:
            # No explicit framing: body runs to EOF, connection spent.
            raw = await reader.read()
            reusable = False
        return status, headers, parse_json_body(raw), reusable

    async def _dial(self) -> _Conn:
        try:
            return await asyncio.wait_for(
                self._open_connection(), timeout=self.timeout
            )
        except (asyncio.TimeoutError, TimeoutError) as error:
            raise ApiTimeout(
                f"connect to {self.base_url} timed out after {self.timeout}s"
            ) from error

    async def _timed_exchange(
        self,
        conn: _Conn,
        method: str,
        path: str,
        payload: Optional[bytes],
        request_id: Optional[str],
    ) -> Tuple[int, Dict[str, str], Any, bool]:
        try:
            return await asyncio.wait_for(
                self._exchange(conn, method, path, payload, request_id),
                timeout=self.timeout,
            )
        except (asyncio.TimeoutError, TimeoutError) as error:
            raise ApiTimeout(
                f"{method} {path} against {self.base_url} timed out "
                f"after {self.timeout}s"
            ) from error

    async def _attempt(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
        request_id: Optional[str],
    ) -> Tuple[int, Dict[str, str], Any]:
        """One request over a pooled or fresh connection.

        Mirrors the sync client's connection hygiene exactly: clean
        fully-read exchanges release the socket for reuse, every failure
        closes it (the pool's concurrency slot is returned either way),
        and a *reused* connection failing before a complete response gets
        one free re-issue on a fresh socket (timeouts excluded — the
        server may still be computing).
        """
        conn = await self._pool.acquire()
        reused = conn is not None
        released = False
        try:
            if conn is None:
                conn = await self._dial()
            else:
                self._count("connections_reused")
            try:
                status, headers, body, reusable = await self._timed_exchange(
                    conn, method, path, payload, request_id
                )
            except _ASYNC_RETRYABLE:
                _close_conn(conn[1])
                conn = None
                if not reused:
                    raise
                # Stale pooled socket: re-issue once on a fresh connection.
                self._count("stale_retries")
                conn = await self._dial()
                status, headers, body, reusable = await self._timed_exchange(
                    conn, method, path, payload, request_id
                )
            self._pool.release(conn, reusable)
            released = True
            return status, headers, body
        except BaseException:
            if conn is not None:
                _close_conn(conn[1])
            raise
        finally:
            if not released:
                # Failure path: the connection (if any) is already closed
                # above; hand only the concurrency slot back.
                self._pool.release(None, False)

    async def _call(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        request_id: Optional[str] = None,
        ok_statuses: Tuple[int, ...] = (200,),
    ) -> Any:
        """Issue one API call, retrying transport failures; typed errors out."""
        if self._closed:
            raise ApiConnectionError("client is closed")
        payload = (
            None if body is None
            else json.dumps(body, allow_nan=False).encode("utf-8")
        )
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._count("retries")
                await asyncio.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            self._count("requests")
            try:
                status, headers, parsed = await self._attempt(
                    method, path, payload, request_id
                )
            except ApiTimeout:
                # The server is still computing; re-sending only multiplies
                # its load.  Typed contract: timeouts map to ApiTimeout.
                self._count("timeouts")
                raise
            except _ASYNC_RETRYABLE as error:
                self._count("connection_failures")
                last_error = error
                continue
            self._count("responses")
            if status in ok_statuses:
                return parsed
            self._count("http_errors")
            raise response_to_error(parsed, status, headers)
        raise ApiConnectionError(
            f"{self.base_url} unreachable after {self.retries + 1} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        )

    # ------------------------------------------------------------------ #
    # Client protocol (awaitable)
    # ------------------------------------------------------------------ #
    async def predict(self, request: PredictRequest) -> PredictResult:
        """Deterministic logits for one request (bit-exact across backends)."""
        request_id = ensure_request_id(request.request_id)
        body = await self._call(
            "POST", "/v1/predict",
            encode_predict_request(request, encoding=self.encoding),
            request_id=request_id,
        )
        return predict_result_from_body(body, request_id)

    async def ensemble(self, request: EnsembleRequest) -> EnsembleResult:
        """Seeded Monte-Carlo ensemble prediction under device variation."""
        request_id = ensure_request_id(request.request_id)
        body = await self._call(
            "POST", "/v1/predict_under_variation",
            encode_ensemble_request(request, encoding=self.encoding),
            request_id=request_id,
        )
        return ensemble_result_from_body(body, request_id)

    async def submit_study(self, spec: StudySpec) -> str:
        """Submit an asynchronous study job; returns its job id."""
        request_id = ensure_request_id(spec.request_id)
        body = await self._call(
            "POST", "/v1/studies",
            encode_study_spec(spec, encoding=self.encoding),
            request_id=request_id,
        )
        return study_status_from_body(body).job_id

    async def get_study(self, job_id: str) -> StudyStatus:
        """Poll one study job: state, progress, result when done."""
        require_job_id(job_id)
        body = await self._call("GET", f"/v1/studies/{job_id}")
        return study_status_from_body(body)

    async def cancel_study(self, job_id: str) -> StudyStatus:
        """Cancel one study job (``DELETE /v1/studies/{id}``; idempotent)."""
        require_job_id(job_id)
        body = await self._call("DELETE", f"/v1/studies/{job_id}")
        return study_status_from_body(body)

    async def models(self) -> List[ModelInfo]:
        """The backend's published-plan catalogue (with content digests)."""
        body = await self._call("GET", "/v1/models")
        entries = body.get("models", []) if isinstance(body, Mapping) else []
        return [ModelInfo.from_wire(entry) for entry in entries]

    async def stats(self) -> Dict[str, Any]:
        """Serving statistics, with this client's transport counters under
        ``"client"``."""
        body = await self._call("GET", "/v1/stats")
        stats = body.get("stats", {}) if isinstance(body, Mapping) else {}
        stats = dict(stats)
        stats["client"] = self.client_stats()
        return stats

    async def health(self) -> HealthStatus:
        """Liveness probe; a 503 is a successful check reporting unhealthy."""
        body = await self._call("GET", "/healthz", ok_statuses=(200, 503))
        if not isinstance(body, Mapping):
            raise InvalidRequest(f"malformed health response: {body!r}")
        return HealthStatus.from_wire(body)

    async def close(self) -> None:
        """Close the pooled idle connections (in-flight requests finish)."""
        if self._closed:
            return
        self._closed = True
        await self._pool.close()

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        await self.close()
