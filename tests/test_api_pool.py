"""Connection pooling: keep-alive reuse and poisoned-socket hygiene.

Covers the pooled :class:`HttpClient` — called directly, and through
``asyncio.to_thread`` as event-loop consumers use it — against
:class:`PlanServer`, plus hostile servers (half-written responses, silent
hangs, idle-closing peers) built from raw listening sockets.  The invariant under test: the
pool only ever re-issues requests on sockets that finished their
previous exchange cleanly; everything else is closed, never parked.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import (
    ApiConnectionError,
    ApiTimeout,
    HttpClient,
    PredictRequest,
    connect,
)
import repro.serve.http
from repro.models import make_mlp
from repro.runtime import compile_model
from repro.serve import InferenceService, PlanRegistry, PlanServer


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pool-plans")
    registry = PlanRegistry(directory)
    model = make_mlp(input_size=16, hidden_sizes=(6,), mapping="acm",
                     quantizer_bits=4, seed=0)
    registry.publish_model(model, "mlp", 4, "acm")
    service = InferenceService(registry, max_batch=16)
    server = PlanServer(service, own_backend=True).start()
    images = np.random.default_rng(1).normal(size=(4, 16))
    yield SimpleNamespace(directory=directory, server=server, images=images,
                          plan=compile_model(model))
    server.close()


class _HostileServer:
    """A one-connection-at-a-time raw TCP server with a scripted response.

    ``behaviour`` is called with the accepted socket after one request's
    headers (and any body) have arrived; whatever it writes is the
    response.  Used to simulate peers that vanish mid-body or never
    answer at all.
    """

    def __init__(self, behaviour):
        self._behaviour = behaviour
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._closing = False
        self.connections = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self):
        return f"http://{self.address[0]}:{self.address[1]}"

    def _serve(self):
        while not self._closing:
            try:
                self._listener.settimeout(0.2)
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            try:
                conn.settimeout(5.0)
                # Drain the request head (clients here send no bodies).
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                self._behaviour(conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


def _half_body(conn):
    # Promise 1000 bytes, deliver 10, hang up: a poisoned half-read socket.
    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 b"Content-Length: 1000\r\n\r\n{\"stats\":")


def _never_answer(conn):
    time.sleep(3.0)


class TestHttpClientPooling:
    def test_sequential_requests_reuse_one_connection(self, env):
        with HttpClient(env.server.url) as client:
            for _ in range(5):
                result = client.predict(PredictRequest(
                    images=env.images, model="mlp", mapping="acm", bits=4))
                np.testing.assert_array_equal(result.logits,
                                              env.plan.run(env.images))
            stats = client.client_stats()
            assert stats["connections_opened"] == 1
            assert stats["connections_reused"] == 4
            assert client._pool.idle_count() == 1

    def test_pooled_predicts_pay_no_delayed_ack_stall(self, env):
        # A response split across sends on a Nagle socket waits for the
        # client's delayed ACK (~40 ms); the edge sets TCP_NODELAY and
        # writes each response in one send.
        request = PredictRequest(images=env.images, model="mlp",
                                 mapping="acm", bits=4)
        with HttpClient(env.server.url) as client:
            for _ in range(5):
                client.predict(request)
            latencies = []
            for _ in range(30):
                start = time.perf_counter()
                client.predict(request)
                latencies.append(time.perf_counter() - start)
            assert client.client_stats()["connections_opened"] == 1
            deadline = time.monotonic() + 2.0
            while True:  # the handler parks its socket just after replying
                with env.server._httpd._idle_lock:
                    idle = list(env.server._httpd._idle)
                if idle or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert idle
            for connection in idle:
                assert connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        assert np.median(latencies) < 0.010, (
            f"median pooled predict {np.median(latencies) * 1e3:.1f} ms")

    def test_pool_size_zero_disables_reuse(self, env):
        with HttpClient(env.server.url, pool_size=0) as client:
            for _ in range(3):
                assert client.health().ok
            stats = client.client_stats()
            assert stats["connections_opened"] == 3
            assert stats["connections_reused"] == 0
            assert client._pool.idle_count() == 0

    def test_error_response_does_not_kill_reuse(self, env):
        # 4xx responses are fully read, so their sockets stay reusable
        # when the server keeps the connection open; the client only pays
        # for transport-ambiguous failures.
        from repro.api import ModelNotFound

        with HttpClient(env.server.url) as client:
            assert client.health().ok
            with pytest.raises(ModelNotFound):
                client.predict(PredictRequest(images=env.images,
                                              model="ghost", mapping="acm"))
            assert client.health().ok
            # The error closed its socket iff the server said so; either
            # way nothing half-read is parked for the next request.
            assert client._pool.idle_count() <= 1

    def test_mid_body_disconnect_discards_the_socket(self):
        server = _HostileServer(_half_body)
        try:
            with HttpClient(server.url, retries=0, timeout=5.0) as client:
                with pytest.raises(ApiConnectionError):
                    client.models()
                # The poisoned connection must be closed, never pooled.
                assert client._pool.idle_count() == 0
                assert client.client_stats()["connection_failures"] == 1
        finally:
            server.close()

    def test_server_closing_idle_socket_costs_one_free_retry(
        self, env, monkeypatch
    ):
        # A server with a very short keep-alive window hangs up on idle
        # sockets; the pooled client must transparently re-issue on a
        # fresh connection instead of surfacing the stale socket's EOF.
        monkeypatch.setattr(repro.serve.http._Handler, "timeout", 0.3)
        server = PlanServer(
            InferenceService(PlanRegistry(env.directory), max_batch=16),
        ).start()
        try:
            with HttpClient(server.url, retries=0) as client:
                assert client.health().ok
                time.sleep(0.8)  # server reaps the idle connection
                assert client.health().ok  # transparently redialed
                stats = client.client_stats()
                assert stats["stale_retries"] == 1
                assert stats["connections_opened"] == 2
        finally:
            server.close()

    def test_timeout_closes_socket_and_maps_to_api_timeout(self):
        server = _HostileServer(_never_answer)
        try:
            with HttpClient(server.url, retries=2, timeout=0.3) as client:
                with pytest.raises(ApiTimeout):
                    client.models()
                assert client._pool.idle_count() == 0
                stats = client.client_stats()
                assert stats["timeouts"] == 1
                assert stats["retries"] == 0  # timeouts are never re-sent
        finally:
            server.close()

    def test_close_empties_the_pool(self, env):
        client = HttpClient(env.server.url)
        assert client.health().ok
        assert client._pool.idle_count() == 1
        client.close()
        assert client._pool.idle_count() == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="http:// or https://"):
            HttpClient("ftp://x")
        with pytest.raises(ValueError, match="no host"):
            HttpClient("http://:8100")
        with pytest.raises(ValueError, match="retries"):
            HttpClient("http://x", retries=-1)
        with pytest.raises(ValueError, match="pool_size"):
            HttpClient("http://x", pool_size=-1)
        with pytest.raises(ValueError, match="keepalive_timeout"):
            HttpClient("http://x", keepalive_timeout=0.0)
        # The list response codec is gone; asking for it fails loudly.
        with pytest.raises(TypeError, match="encoding"):
            HttpClient("http://x", encoding="b64")


class TestAsyncClientPooling:
    """Pool hygiene as an ``asyncio`` consumer sees it.

    Every call runs through ``asyncio.to_thread`` on one pooled
    :class:`HttpClient`, on a loop with a 2-thread executor (the recipe
    in the README).
    """

    @staticmethod
    def _drive(client, script, threads=2):
        async def main():
            asyncio.get_running_loop().set_default_executor(
                ThreadPoolExecutor(threads))
            with client:
                return await script(client)

        return asyncio.run(main())

    def test_pool_size_caps_concurrent_sockets(self, env):
        async def script(client):
            await asyncio.gather(*(asyncio.to_thread(client.health)
                                   for _ in range(10)))
            return client.client_stats()

        stats = self._drive(HttpClient(env.server.url, pool_size=2), script)
        assert stats["connections_opened"] <= 2
        assert stats["connections_reused"] >= 8

    def test_mid_body_disconnect_discards_the_socket(self):
        server = _HostileServer(_half_body)

        async def script(client):
            with pytest.raises(ApiConnectionError):
                await asyncio.to_thread(client.models)
            return client._pool.idle_count(), client.client_stats()

        try:
            idle, stats = self._drive(
                HttpClient(server.url, retries=0, timeout=5.0), script)
            assert idle == 0
            assert stats["connection_failures"] == 1
        finally:
            server.close()

    def test_server_closing_idle_socket_costs_one_free_retry(
        self, env, monkeypatch
    ):
        monkeypatch.setattr(repro.serve.http._Handler, "timeout", 0.3)
        server = PlanServer(
            InferenceService(PlanRegistry(env.directory), max_batch=16),
        ).start()

        async def script(client):
            assert (await asyncio.to_thread(client.health)).ok
            await asyncio.sleep(0.8)
            assert (await asyncio.to_thread(client.health)).ok
            return client.client_stats()

        try:
            stats = self._drive(HttpClient(server.url, retries=0), script)
            assert stats["stale_retries"] == 1
            assert stats["connections_opened"] == 2
        finally:
            server.close()

    def test_timeout_maps_to_api_timeout_without_retry(self):
        server = _HostileServer(_never_answer)

        async def script(client):
            with pytest.raises(ApiTimeout):
                await asyncio.to_thread(client.models)
            return client.client_stats()

        try:
            stats = self._drive(
                HttpClient(server.url, retries=3, timeout=0.3), script)
            assert stats["timeouts"] == 1
            assert stats["retries"] == 0
        finally:
            server.close()

    def test_unreachable_endpoint_is_api_connection_error(self):
        async def script(client):
            with pytest.raises(ApiConnectionError, match="2 attempt"):
                await asyncio.to_thread(client.models)

        self._drive(HttpClient("http://127.0.0.1:1", retries=1,
                               retry_backoff=0.01, timeout=0.5), script)


class TestConnectDispatch:
    def test_sync_connect_still_returns_http_client(self, env):
        with connect(env.server.url) as client:
            assert isinstance(client, HttpClient)
            assert client.health().ok

    def test_connect_survives_connect_async_resolving_first(self):
        # Resolving connect lazily imports the repro.api.connect submodule,
        # whose import binds the *module* onto the package under the name
        # "connect".  The lazy hook must re-cache the function so
        # repro.api.connect stays callable on every later lookup.  Import
        # order is the trigger, so run in a fresh interpreter.
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.api\n"
            "assert 'repro.api.connect' not in sys.modules\n"
            "assert callable(repro.api.connect), type(repro.api.connect)\n"
            "assert callable(repro.api.connect), type(repro.api.connect)\n"
            "from repro.api import connect\n"
            "assert callable(connect), type(connect)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
