"""End-to-end observability: /metrics, tracing, admin surface, TLS.

The operational claims under test:

* ``GET /metrics`` exposes valid Prometheus text (checked by the strict
  parser in :mod:`prometheus`) under real traffic, its counters never go
  backwards, and it agrees with ``stats_summary()`` — one source of
  truth, two renderings;
* a request id survives every transport of the equivalence matrix
  (local, HTTP, cluster), is echoed as
  ``X-Request-Id``, and is greppable in worker-side structured logs;
* ``/healthz`` degrades (503 + per-shard detail) when a worker dies and
  recovers after a restart;
* the admin surface (``/admin/workers``, ``/admin/restart_worker``,
  ``/admin/drain``) works end-to-end behind bearer auth over TLS;
* the HTTP client counts its own transport retries and timeouts.
"""

from __future__ import annotations

import http.client
import json
import shutil
import socket
import ssl
import subprocess
import time
from types import SimpleNamespace

import numpy as np
import pytest

import prometheus
from repro.api import connect
from repro.api.errors import (
    ApiAuthError,
    ApiConnectionError,
    ApiTimeout,
    InvalidRequest,
    ModelNotFound,
)
from repro.api.http_client import HttpClient
from repro.api.types import EnsembleRequest, PredictRequest
from repro.models import make_mlp
from repro.obs import valid_request_id
from repro.runtime.wire import encode_array
from repro.serve import InferenceService, PlanCluster, PlanRegistry, PlanServer

TOKEN = "obs-secret"
BACKENDS = ("local", "http", "cluster")


def _publish_model(directory, name="mlp", seed=0):
    registry = PlanRegistry(directory)
    model = make_mlp(input_size=16, hidden_sizes=(6,), mapping="acm",
                     quantizer_bits=4, seed=seed)
    registry.publish_model(model, name, 4, "acm")
    return registry


def _request(address, method, path, body=None, headers=None, token=TOKEN):
    """One raw HTTP exchange; returns (status, headers dict, parsed body)."""
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        all_headers = {"Content-Type": "application/json"}
        if token is not None:
            all_headers["Authorization"] = f"Bearer {token}"
        if headers:
            all_headers.update(headers)
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload, headers=all_headers)
        response = connection.getresponse()
        raw = response.read()
        header_map = {k.lower(): v for k, v in response.getheaders()}
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            parsed = raw.decode("utf-8", errors="replace")
        return response.status, header_map, parsed
    finally:
        connection.close()


def _predict_body(images):
    return {"model": "mlp", "bits": 4, "mapping": "acm",
            "images": encode_array(np.asarray(images))}


# ---------------------------------------------------------------------- #
# The three-backend stack (mirrors the equivalence matrix, plus log dirs)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    directory = tmp_path_factory.mktemp("obs-plans")
    _publish_model(directory)
    log_dirs = {"cluster": tmp_path_factory.mktemp("pipe-logs")}
    service = InferenceService(PlanRegistry(directory), max_batch=16)
    server = PlanServer(service, own_backend=True, auth_token=TOKEN).start()
    clients = {
        "local": connect(f"local:{directory}?max_batch=16"),
        "http": connect(server.url, token=TOKEN),
        "cluster": connect(
            f"cluster:{directory}?workers=1&log_dir={log_dirs['cluster']}"
        ),
    }
    clients["cluster"].backend.wait_ready(timeout=120)
    images = np.random.default_rng(7).normal(size=(6, 16))
    yield SimpleNamespace(
        directory=directory, server=server, service=service,
        clients=clients, images=images, log_dirs=log_dirs,
    )
    for client in clients.values():
        client.close()
    server.close()


def _scrape(stack):
    status, headers, text = _request(
        stack.server.address, "GET", "/metrics", token=None
    )
    assert status == 200
    assert headers["content-type"] == "text/plain; version=0.0.4; charset=utf-8"
    assert isinstance(text, str)
    return prometheus.validate(text)


# ---------------------------------------------------------------------- #
# /metrics under traffic
# ---------------------------------------------------------------------- #
class TestMetricsScrape:
    def test_scrape_is_open_valid_and_typed(self, stack):
        families = _scrape(stack)
        assert families["repro_http_requests_total"].type == "counter"
        assert families["repro_request_latency_seconds"].type == "histogram"
        assert families["repro_scheduler_queue_depth"].type == "gauge"

    def test_traffic_populates_serving_metrics(self, stack):
        client = stack.clients["http"]
        for _ in range(3):
            client.predict(PredictRequest(
                images=stack.images, model="mlp", mapping="acm", bits=4))
        client.ensemble(EnsembleRequest(
            images=stack.images, model="mlp", mapping="acm", bits=4,
            sigma_fraction=0.1, num_samples=5, seed=1))
        families = _scrape(stack)

        requests = prometheus.counter_values(
            families, "repro_requests_total")
        predict_lane = (("lane", "predict"), ("model", "mlp__4b__acm"),
                        ("outcome", "ok"))
        assert requests[predict_lane] >= 3
        ensemble_lane = (("lane", "ensemble"), ("model", "mlp__4b__acm"),
                         ("outcome", "ok"))
        assert requests[ensemble_lane] >= 1

        batches = prometheus.counter_values(
            families, "repro_scheduler_batches_total")
        assert batches[(("model", "mlp__4b__acm"),)] >= 1

        latency = families["repro_request_latency_seconds"]
        counts = [s for s in latency.samples
                  if s.name.endswith("_count")
                  and s.labels.get("lane") == "predict"]
        assert counts and counts[0].value >= 3

        edge = prometheus.counter_values(
            families, "repro_http_requests_total")
        predict_route = (("method", "POST"), ("route", "/v1/predict"),
                         ("status", "200"))
        assert edge[predict_route] >= 3

    def test_bad_geometry_counts_as_error_outcome(self, stack):
        client = stack.clients["http"]
        bad = np.zeros((1, 3))  # the plan takes 16 features per row
        before = prometheus.counter_values(
            _scrape(stack), "repro_requests_total")
        with pytest.raises(InvalidRequest):
            client.predict(PredictRequest(
                images=bad, model="mlp", mapping="acm", bits=4))
        with pytest.raises(InvalidRequest):
            client.ensemble(EnsembleRequest(
                images=bad, model="mlp", mapping="acm", bits=4,
                sigma_fraction=0.1, num_samples=5, seed=1))
        after = prometheus.counter_values(
            _scrape(stack), "repro_requests_total")
        for lane in ("predict", "ensemble"):
            errors = (("lane", lane), ("model", "mlp__4b__acm"),
                      ("outcome", "error"))
            assert after[errors] - before.get(errors, 0) == 1, lane

    def test_counters_are_monotonic_across_scrapes(self, stack):
        before = _scrape(stack)
        stack.clients["http"].predict(PredictRequest(
            images=stack.images, model="mlp", mapping="acm", bits=4))
        after = _scrape(stack)
        prometheus.assert_counters_monotonic(before, after)
        edge = prometheus.counter_values(after, "repro_http_requests_total")
        edge_before = prometheus.counter_values(
            before, "repro_http_requests_total")
        predict_route = (("method", "POST"), ("route", "/v1/predict"),
                         ("status", "200"))
        assert edge[predict_route] > edge_before.get(predict_route, 0)

    def test_stats_summary_and_metrics_share_one_source_of_truth(self, stack):
        client = stack.clients["http"]
        request = EnsembleRequest(
            images=stack.images, model="mlp", mapping="acm", bits=4,
            sigma_fraction=0.2, num_samples=5, seed=9)
        client.ensemble(request)
        client.ensemble(request)  # second run hits the stack cache
        summary = client.stats()
        families = _scrape(stack)
        hits = prometheus.counter_values(
            families, "repro_ensemble_cache_hits_total")
        misses = prometheus.counter_values(
            families, "repro_ensemble_cache_misses_total")
        assert hits.get((), 0) == summary["ensemble_cache"]["hits"]
        assert misses.get((), 0) == summary["ensemble_cache"]["misses"]
        assert summary["ensemble_cache"]["hits"] >= 1

    def test_unknown_paths_collapse_to_one_label(self, stack):
        for path in ("/nope", "/scanner/probe", "/admin/zzz"):
            _request(stack.server.address, "GET", path)
        families = _scrape(stack)
        edge = prometheus.counter_values(families, "repro_http_requests_total")
        unknown = [series for series in edge
                   if dict(series).get("route") == "unknown"]
        assert len(unknown) >= 1
        routes = {dict(series).get("route") for series in edge}
        assert "/nope" not in routes and "/scanner/probe" not in routes

    def test_cluster_merges_worker_families_with_worker_label(self, stack):
        client = stack.clients["cluster"]
        client.predict(PredictRequest(
            images=stack.images, model="mlp", mapping="acm", bits=4))
        from repro.obs import render
        text = render(client.backend.metrics_families())
        families = prometheus.validate(text)
        up = {tuple(sorted(s.labels.items())): s.value
              for s in families["repro_cluster_worker_up"].samples}
        assert up[(("worker", "0"),)] == 1
        worker_requests = prometheus.counter_values(
            families, "repro_requests_total")
        assert any(dict(series).get("worker") == "0"
                   for series in worker_requests)


# ---------------------------------------------------------------------- #
# Request-id round trip
# ---------------------------------------------------------------------- #
class TestRequestIdRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_supplied_id_is_echoed(self, stack, backend):
        client = stack.clients[backend]
        supplied = f"trace-{backend}-0042"
        result = client.predict(PredictRequest(
            images=stack.images, model="mlp", mapping="acm", bits=4,
            request_id=supplied))
        assert result.request_id == supplied
        ensemble = client.ensemble(EnsembleRequest(
            images=stack.images, model="mlp", mapping="acm", bits=4,
            sigma_fraction=0.1, num_samples=3, seed=2,
            request_id=supplied))
        assert ensemble.request_id == supplied

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_missing_id_gets_server_assigned(self, stack, backend):
        client = stack.clients[backend]
        result = client.predict(PredictRequest(
            images=stack.images, model="mlp", mapping="acm", bits=4))
        assert valid_request_id(result.request_id)

    def test_http_header_echo(self, stack):
        status, headers, _ = _request(
            stack.server.address, "POST", "/v1/predict",
            body=_predict_body(stack.images),
            headers={"X-Request-Id": "edge-echo-1"})
        assert status == 200
        assert headers["x-request-id"] == "edge-echo-1"

    def test_invalid_header_id_is_replaced_not_rejected(self, stack):
        status, headers, _ = _request(
            stack.server.address, "POST", "/v1/predict",
            body=_predict_body(stack.images),
            headers={"X-Request-Id": "has spaces !!"})
        assert status == 200
        echoed = headers["x-request-id"]
        assert echoed != "has spaces !!"
        assert valid_request_id(echoed)

    def test_error_responses_carry_the_id_too(self, stack):
        status, headers, _ = _request(
            stack.server.address, "GET", "/definitely-not-a-route",
            headers={"X-Request-Id": "err-trace-7"})
        assert status == 404
        assert headers["x-request-id"] == "err-trace-7"

    @pytest.mark.parametrize("backend", ("cluster",))
    def test_id_lands_in_worker_structured_logs(self, stack, backend):
        client = stack.clients[backend]
        supplied = f"grep-me-{backend}"
        client.predict(PredictRequest(
            images=stack.images, model="mlp", mapping="acm", bits=4,
            request_id=supplied))
        log_file = stack.log_dirs[backend] / "worker-0.log"
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if log_file.exists():
                text = log_file.read_text(encoding="utf-8")
                lines = [line for line in text.splitlines()
                         if f"request_id={supplied}" in line]
                if lines:
                    break
            time.sleep(0.05)
        else:
            pytest.fail(f"request id {supplied!r} never reached {log_file}")
        (line,) = lines[:1]
        assert "event=predict" in line
        assert "model=mlp__4b__acm" in line
        assert "latency_ms=" in line
        assert line.startswith("ts=")


# ---------------------------------------------------------------------- #
# Degraded health
# ---------------------------------------------------------------------- #
class TestDegradedHealth:
    @pytest.fixture
    def degradable(self, tmp_path):
        _publish_model(tmp_path / "plans")
        cluster = PlanCluster(tmp_path / "plans", num_workers=2)
        cluster.wait_ready(timeout=120)
        server = PlanServer(cluster, own_backend=True).start()
        yield SimpleNamespace(cluster=cluster, server=server)
        server.close()

    def test_dead_worker_degrades_and_restart_recovers(self, degradable):
        address = degradable.server.address
        status, _, body = _request(address, "GET", "/healthz", token=None)
        assert (status, body) == (200, {"status": "ok", "models": 1})

        victim = degradable.cluster._workers[0]
        victim.process.kill()
        victim.process.join(timeout=30)

        status, _, body = _request(address, "GET", "/healthz", token=None)
        assert status == 503
        assert body["status"] == "degraded"
        assert body["workers"]["worker-0"]["alive"] is False
        assert body["workers"]["worker-1"]["alive"] is True

        # The typed clients see the same degradation, without raising.
        health = HttpClient(degradable.server.url).health()
        assert health.status == "degraded"
        assert health.detail["worker-0"]["alive"] is False

        degradable.cluster.restart_worker(0)
        degradable.cluster.wait_ready(timeout=120)
        status, _, body = _request(address, "GET", "/healthz", token=None)
        assert (status, body) == (200, {"status": "ok", "models": 1})


# ---------------------------------------------------------------------- #
# Admin surface behind bearer auth over TLS
# ---------------------------------------------------------------------- #
requires_openssl = pytest.mark.skipif(
    shutil.which("openssl") is None, reason="openssl CLI not available"
)


@pytest.fixture(scope="module")
def tls_certs(tmp_path_factory):
    if shutil.which("openssl") is None:
        pytest.skip("openssl CLI not available")
    directory = tmp_path_factory.mktemp("tls")
    cert, key = directory / "cert.pem", directory / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048",
         "-keyout", str(key), "-out", str(cert), "-days", "2", "-nodes",
         "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True,
    )
    return SimpleNamespace(cert=str(cert), key=str(key))


@pytest.fixture(scope="module")
def tls_admin(tmp_path_factory, tls_certs):
    """A one-worker cluster behind bearer auth *and* TLS."""
    directory = tmp_path_factory.mktemp("tls-plans")
    _publish_model(directory)
    cluster = PlanCluster(directory, num_workers=1)
    cluster.wait_ready(timeout=120)
    server = PlanServer(cluster, own_backend=True, auth_token=TOKEN,
                        tls_cert=tls_certs.cert, tls_key=tls_certs.key)
    server.start()
    images = np.random.default_rng(5).normal(size=(4, 16))
    yield SimpleNamespace(server=server, cluster=cluster, images=images,
                          cafile=tls_certs.cert)
    server.close()


def _https_request(env, method, path, body=None, headers=None, token=TOKEN):
    context = ssl.create_default_context(cafile=env.cafile)
    host, port = env.server.address
    connection = http.client.HTTPSConnection(host, port, timeout=60,
                                             context=context)
    try:
        all_headers = {"Content-Type": "application/json"}
        if token is not None:
            all_headers["Authorization"] = f"Bearer {token}"
        if headers:
            all_headers.update(headers)
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload, headers=all_headers)
        response = connection.getresponse()
        raw = response.read()
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            parsed = raw.decode("utf-8", errors="replace")
        return response.status, parsed
    finally:
        connection.close()


class TestAdminOverTls:
    def test_url_is_https_and_verified_client_predicts(self, tls_admin):
        assert tls_admin.server.url.startswith("https://")
        with connect(tls_admin.server.url, token=TOKEN,
                     cafile=tls_admin.cafile) as client:
            result = client.predict(PredictRequest(
                images=tls_admin.images, model="mlp", mapping="acm", bits=4))
            assert result.logits.shape[0] == 4
        with connect(tls_admin.server.url, token=TOKEN,
                     insecure=True) as client:
            assert client.health().status == "ok"

    def test_unverified_client_is_refused(self, tls_admin):
        client = HttpClient(tls_admin.server.url, token=TOKEN, retries=0)
        with pytest.raises(ApiConnectionError):
            client.models()

    def test_admin_routes_require_the_token(self, tls_admin):
        for method, path in (("GET", "/admin/workers"),
                             ("POST", "/admin/restart_worker"),
                             ("POST", "/admin/drain")):
            status, body = _https_request(tls_admin, method, path,
                                          body={}, token=None)
            assert status == 401, (path, body)
            assert body["error"]["code"] == "auth_failed"

    def test_workers_listing(self, tls_admin):
        status, body = _https_request(tls_admin, "GET", "/admin/workers")
        assert status == 200
        (worker,) = body["workers"]
        assert worker["index"] == 0
        assert worker["alive"] is True
        assert isinstance(worker["pid"], int)

    def test_restart_worker_end_to_end(self, tls_admin):
        _, before = _https_request(tls_admin, "GET", "/admin/workers")
        incarnation = before["workers"][0]["incarnation"]
        status, body = _https_request(
            tls_admin, "POST", "/admin/restart_worker", body={"worker": 0})
        assert (status, body) == (200, {"restarted": 0})
        tls_admin.cluster.wait_ready(timeout=120)
        _, after = _https_request(tls_admin, "GET", "/admin/workers")
        assert after["workers"][0]["incarnation"] == incarnation + 1
        assert after["workers"][0]["alive"] is True
        # The restarted shard still serves.
        with connect(tls_admin.server.url, token=TOKEN,
                     cafile=tls_admin.cafile) as client:
            client.predict(PredictRequest(
                images=tls_admin.images, model="mlp", mapping="acm", bits=4))

    @pytest.mark.parametrize("body,expected", [
        ({}, 400),
        ({"worker": "zero"}, 400),
        ({"worker": True}, 400),
        ({"worker": 99}, 400),
    ])
    def test_restart_worker_rejects_bad_input(self, tls_admin, body, expected):
        status, parsed = _https_request(
            tls_admin, "POST", "/admin/restart_worker", body=body)
        assert status == expected, parsed

    def test_drain_rejects_new_work_until_undrained(self, tls_admin):
        status, body = _https_request(tls_admin, "POST", "/admin/drain",
                                      body={})
        assert (status, body) == (200, {"draining": True})
        try:
            status, health = _https_request(tls_admin, "GET", "/healthz",
                                            token=None)
            assert status == 503
            assert health["status"] == "draining"
            status, body = _https_request(
                tls_admin, "POST", "/v1/predict",
                body=_predict_body(tls_admin.images))
            assert status == 503
            assert body["error"]["code"] == "unavailable"
        finally:
            status, body = _https_request(
                tls_admin, "POST", "/admin/drain", body={"drain": False})
        assert (status, body) == (200, {"draining": False})
        status, health = _https_request(tls_admin, "GET", "/healthz",
                                        token=None)
        assert (status, health) == (200, {"status": "ok", "models": 1})

    def test_drain_validates_flag(self, tls_admin):
        status, _ = _https_request(tls_admin, "POST", "/admin/drain",
                                   body={"drain": "yes"})
        assert status == 400


class TestAdminWithoutWorkers:
    def test_admin_routes_404_on_in_process_backend(self, stack):
        status, _, _ = _request(stack.server.address, "GET", "/admin/workers")
        assert status == 404
        status, _, _ = _request(
            stack.server.address, "POST", "/admin/restart_worker",
            body={"worker": 0})
        assert status == 404

    def test_drain_still_works_without_workers(self, stack):
        status, _, body = _request(stack.server.address, "POST",
                                   "/admin/drain", body={})
        assert (status, body) == (200, {"draining": True})
        try:
            health = stack.clients["http"].health()
            assert health.status == "draining"
        finally:
            status, _, body = _request(stack.server.address, "POST",
                                       "/admin/drain", body={"drain": False})
            assert (status, body) == (200, {"draining": False})


# ---------------------------------------------------------------------- #
# Client-side transport stats
# ---------------------------------------------------------------------- #
def _dead_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestClientTransportStats:
    def test_connection_failures_without_retries(self):
        client = HttpClient(f"http://127.0.0.1:{_dead_port()}", retries=0)
        with pytest.raises(ApiConnectionError):
            client.models()
        stats = client.client_stats()
        assert stats["requests"] == 1
        assert stats["connection_failures"] == 1
        assert stats["retries"] == 0
        assert stats["responses"] == 0

    def test_each_retry_is_counted(self):
        client = HttpClient(f"http://127.0.0.1:{_dead_port()}", retries=2,
                            retry_backoff=0.001)
        with pytest.raises(ApiConnectionError):
            client.models()
        stats = client.client_stats()
        assert stats["requests"] == 3
        assert stats["retries"] == 2
        assert stats["connection_failures"] == 3

    def test_timeouts_are_counted_not_retried(self, monkeypatch):
        client = HttpClient("http://127.0.0.1:1", retries=5, timeout=0.1)

        def timing_out(self, method, path, payload):
            raise socket.timeout("read timed out")

        monkeypatch.setattr(HttpClient, "_attempt", timing_out)
        with pytest.raises(ApiTimeout):
            client.models()
        stats = client.client_stats()
        assert stats["timeouts"] == 1
        assert stats["requests"] == 1
        assert stats["retries"] == 0

    def test_http_errors_and_stats_merge(self, stack):
        client = HttpClient(stack.server.url, token=TOKEN)
        with pytest.raises(ModelNotFound):
            client.predict(PredictRequest(
                images=stack.images, model="ghost", mapping="acm", bits=4))
        merged = client.stats()
        assert merged["client"]["http_errors"] == 1
        assert merged["client"]["responses"] >= 2  # the error + the stats call
        assert "ensemble_cache" in merged

    def test_auth_failure_counts_as_http_error(self, stack):
        client = HttpClient(stack.server.url, token="wrong")
        with pytest.raises(ApiAuthError):
            client.models()
        assert client.client_stats()["http_errors"] == 1
