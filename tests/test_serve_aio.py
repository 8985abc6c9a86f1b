"""PlanServer spot-checks over a small MLP plan.

A second, smaller fixture than ``test_serve_http.py`` (one 16-input MLP
instead of LeNet) pins the edge's routes, auth, body reading, keep-alive
idle reaping, study jobs and lifecycle with cheap requests.  The raw-socket
helpers are shared with ``test_serve_http.py``.
"""

from __future__ import annotations

import http.client
import socket
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro.serve.http
from repro.models import make_mlp
from repro.runtime import compile_model
from repro.runtime.wire import decode_array
from repro.serve import InferenceService, PlanRegistry, PlanServer
from tests.test_serve_http import (
    _connect,
    _predict_body,
    _raw_request,
    _read_response,
    _request,
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live PlanServer over one published MLP plan."""
    directory = tmp_path_factory.mktemp("mlp-plans")
    model = make_mlp(input_size=16, hidden_sizes=(8,), mapping="acm",
                     quantizer_bits=4, seed=0)
    PlanRegistry(directory).publish_model(model, "mlp", 4, "acm")
    service = InferenceService(PlanRegistry(directory), max_batch=16)
    server = PlanServer(service, own_backend=True).start()
    yield SimpleNamespace(
        address=server.address, directory=directory,
        images=np.random.default_rng(7).normal(size=(4, 16)),
        plan=compile_model(model),
    )
    server.close()


def _fresh_server(directory, **kwargs):
    service = InferenceService(PlanRegistry(directory), max_batch=16)
    return PlanServer(service, own_backend=True, **kwargs).start()


def _mlp_body(images):
    return _predict_body(images, model="mlp")


class TestRoutes:
    def test_predict_bit_identical_to_plan(self, served):
        status, body = _request(served.address, "POST", "/v1/predict",
                                _mlp_body(served.images))
        assert status == 200
        np.testing.assert_array_equal(decode_array(body["logits"]),
                                      served.plan.run(served.images))

    def test_healthz_and_models(self, served):
        status, body = _request(served.address, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = _request(served.address, "GET", "/v1/models")
        assert status == 200
        assert [entry["name"] for entry in body["models"]] == ["mlp__4b__acm"]

    def test_unknown_route_404_and_wrong_method_405(self, served):
        assert _request(served.address, "GET", "/nope")[0] == 404
        assert _request(served.address, "GET", "/v1/predict")[0] == 405
        assert _request(served.address, "PUT", "/v1/studies/abc")[0] == 405

    def test_invalid_json_is_400(self, served):
        sock, reader = _connect(served.address)
        try:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 9\r\n\r\nnot json!")
            status, _, body = _read_response(reader)
            assert status == 400
            assert body["error"]["code"] == "invalid_request"
        finally:
            sock.close()

    def test_missing_content_length_is_400(self, served):
        sock, reader = _connect(served.address)
        try:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _, body = _read_response(reader)
            assert status == 400
            assert "Content-Length" in body["error"]["message"]
        finally:
            sock.close()

    def test_auth_enforced_with_healthz_open(self, served):
        server = _fresh_server(served.directory, auth_token="s3cret")
        try:
            address = server.address
            assert _request(address, "GET", "/v1/models")[0] == 401
            assert _request(address, "GET", "/healthz")[0] == 200
            connection = http.client.HTTPConnection(*address, timeout=30)
            try:
                connection.request("GET", "/v1/models", headers={
                    "Authorization": "Bearer s3cret"})
                assert connection.getresponse().status == 200
            finally:
                connection.close()
        finally:
            server.close()

    def test_request_id_echoed(self, served):
        connection = http.client.HTTPConnection(*served.address, timeout=30)
        try:
            connection.request("GET", "/healthz",
                               headers={"X-Request-Id": "trace-me-42"})
            response = connection.getresponse()
            assert response.getheader("X-Request-Id") == "trace-me-42"
            response.read()
        finally:
            connection.close()


class TestKeepAlive:
    def test_idle_connection_closed_after_keepalive_timeout(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(repro.serve.http._Handler, "timeout", 0.4)
        server = _fresh_server(served.directory)
        try:
            sock, reader = _connect(server.address)
            try:
                sock.sendall(_raw_request("GET", "/healthz"))
                assert _read_response(reader)[0] == 200
                start = time.monotonic()
                sock.settimeout(10.0)
                assert reader.read() == b""  # EOF once the idle timer fires
                assert time.monotonic() - start < 8.0
            finally:
                sock.close()
        finally:
            server.close()


class _ResetWriter:
    """A response stream whose peer has already reset the connection."""

    def write(self, data):
        raise ConnectionResetError("peer reset")


class TestResponseWrite:
    def test_peer_reset_before_the_response_is_swallowed(self):
        # The whole response, headers included, leaves in one guarded
        # write: a peer that vanished costs the handler its connection,
        # never a traceback.
        handler = repro.serve.http._Handler.__new__(repro.serve.http._Handler)
        handler.server = SimpleNamespace(verbose=False)
        handler.requestline = "GET /healthz HTTP/1.1"
        handler.request_version = "HTTP/1.1"
        handler.close_connection = False
        handler.wfile = _ResetWriter()
        handler._send(repro.serve.http.EdgeResponse(status=200, payload=b"{}"))
        assert handler.close_connection


class TestBodyReading:
    def test_dribbled_body_is_read_to_completion(self, served):
        # The body arrives in small dribbles: one read() would see a short
        # body, so the edge must loop until Content-Length bytes arrived.
        payload = _raw_request("POST", "/v1/predict", _mlp_body(served.images))
        sock, reader = _connect(served.address)
        try:
            for offset in range(0, len(payload), 256):
                sock.sendall(payload[offset:offset + 256])
                time.sleep(0.005)
            status, _, body = _read_response(reader)
            assert status == 200 and "logits" in body
        finally:
            sock.close()

    def test_truncated_body_is_400_invalid_request(self, served):
        sock, reader = _connect(served.address)
        try:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 1000\r\n\r\n{\"model\":")
            sock.shutdown(socket.SHUT_WR)  # dead client, body never arrives
            status, headers, body = _read_response(reader)
            assert status == 400
            assert body["error"]["code"] == "invalid_request"
            assert "truncated" in body["error"]["message"]
            assert headers.get("connection") == "close"
        finally:
            sock.close()

    def test_oversized_content_length_is_413(self, served):
        sock, reader = _connect(served.address)
        try:
            sock.sendall(_raw_request(
                "POST", "/v1/predict",
                headers={"Content-Length": str(1 << 31)}))
            assert _read_response(reader)[0] == 413
        finally:
            sock.close()


class TestStudyRoutes:
    def test_submit_poll_cancel_lifecycle(self, served):
        from repro.api.codec import encode_study_spec
        from repro.api.types import study_spec

        spec = study_spec(images=served.images, models=[("mlp", "acm", 4)],
                          sigmas=(0.0,), num_samples=3, seed=5)
        status, body = _request(served.address, "POST", "/v1/studies",
                                encode_study_spec(spec))
        assert status == 200
        job_id = body["job_id"]
        deadline = time.monotonic() + 60
        while True:
            status, body = _request(served.address, "GET",
                                    f"/v1/studies/{job_id}")
            assert status == 200
            if body["state"] != "running":
                break
            assert time.monotonic() < deadline, "study never finished"
            time.sleep(0.05)
        assert body["state"] == "done"
        # Cancel after completion: idempotent no-op reporting "done".
        status, body = _request(served.address, "DELETE",
                                f"/v1/studies/{job_id}")
        assert status == 200 and body["state"] == "done"

    def test_cancel_unknown_job_is_typed_404(self, served):
        status, body = _request(served.address, "DELETE",
                                "/v1/studies/no-such-job")
        assert status == 404
        assert body["error"]["code"] == "model_not_found"


class TestLifecycle:
    def test_double_close_is_safe(self, served):
        server = _fresh_server(served.directory)
        server.close()
        server.close()

    def test_metrics_exposed(self, served):
        connection = http.client.HTTPConnection(*served.address, timeout=30)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            text = response.read().decode("utf-8")
            assert response.status == 200
            assert "repro_http_requests_total" in text
        finally:
            connection.close()

    def test_stats_route(self, served):
        status, body = _request(served.address, "GET", "/v1/stats")
        assert status == 200 and "stats" in body
