"""HTTP front-end tests: wire format, end-to-end equivalence, 4xx mapping.

The serving claim under test: a response that travelled through JSON, HTTP,
and the micro-batching scheduler must be *bit-equivalent* to what the
in-process service (and the bare plan) produces for the same request — and
every malformed request must map to a proper 4xx instead of poisoning a
batch or surfacing a stack trace.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import EnsembleRequest, PredictRequest
from repro.api.codec import (
    FRAME_CONTENT_TYPE,
    decode_ensemble_result_frame,
    decode_predict_result_frame,
    encode_ensemble_request_frame,
    encode_predict_request_frame,
)
from repro.models import make_lenet, make_mlp
from repro.runtime import compile_model
from repro.runtime.wire import WireFormatError, decode_array, encode_array
from repro.serve import InferenceService, PlanRegistry, PlanServer


# ---------------------------------------------------------------------- #
# Wire format
# ---------------------------------------------------------------------- #
class TestWireFormat:
    @pytest.mark.parametrize("dtype", ["float32", "float64", "int32", "int64"])
    def test_b64_round_trip_is_exact(self, dtype, rng):
        if dtype.startswith("float"):
            array = rng.normal(size=(3, 4, 2)).astype(dtype)
        else:
            array = rng.integers(-1000, 1000, size=(5, 2)).astype(dtype)
        payload = encode_array(array)
        assert payload["dtype"] == dtype
        decoded = decode_array(payload)
        assert decoded.dtype == array.dtype
        np.testing.assert_array_equal(decoded, array)

    def test_b64_survives_json_round_trip(self, rng):
        array = rng.normal(size=(2, 7))
        via_json = json.loads(json.dumps(encode_array(array)))
        np.testing.assert_array_equal(decode_array(via_json), array)

    def test_list_round_trip_is_exact_for_float64(self, rng):
        array = rng.normal(size=(4, 3))
        payload = json.loads(json.dumps(array.tolist()))
        np.testing.assert_array_equal(decode_array(payload), array)

    def test_scalar_and_zero_dim(self):
        assert decode_array(1.5) == np.asarray(1.5)
        payload = encode_array(np.float64(2.5))
        assert payload["shape"] == []
        assert decode_array(payload) == 2.5

    def test_float32_repack(self, rng):
        array = rng.normal(size=(3,))
        payload = encode_array(array.astype(np.float32))
        assert payload["dtype"] == "float32"
        np.testing.assert_array_equal(decode_array(payload),
                                      array.astype(np.float32))

    @pytest.mark.parametrize("payload", [
        "a string",
        {"shape": [2], "dtype": "float64"},                      # missing data
        {"shape": [2], "dtype": "complex128", "data": ""},       # bad dtype
        {"shape": "nope", "dtype": "float64", "data": ""},       # bad shape
        {"shape": [-1], "dtype": "float64", "data": ""},         # negative dim
        {"shape": [True, 2], "dtype": "float64",                 # bool dim
         "data": encode_array(np.zeros(2))["data"]},
        {"shape": [2], "dtype": "float64", "data": "!!!"},       # bad base64
        {"shape": [2], "dtype": "float64", "data": "AAAA"},      # wrong length
        {"shape": [2], "dtype": "float64", "data": 5},           # non-string data
        {"shape": [1 << 60], "dtype": "float64", "data": ""},    # absurd size
        [[1.0, 2.0], [3.0]],                                     # ragged list
        [[1.0], ["x"]],                                          # non-numeric
        [float("nan")],                                          # non-finite
    ])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(WireFormatError):
            decode_array(payload)

    def test_bool_extent_error_names_the_field(self):
        payload = encode_array(np.zeros((1, 2)))
        payload["shape"] = [True, 2]
        with pytest.raises(WireFormatError, match="^shape must be"):
            decode_array(payload)

    def test_packed_non_finite_rejected(self):
        payload = encode_array(np.array([1.0, np.inf]))
        with pytest.raises(WireFormatError):
            decode_array(payload)

    def test_unknown_encoding_rejected(self):
        # encode_array has one output form; asking for another fails
        # loudly instead of silently answering b64.
        for encoding in ("list", "csv"):
            with pytest.raises(TypeError, match="encoding"):
                encode_array(np.zeros(2), encoding=encoding)


# ---------------------------------------------------------------------- #
# HTTP client helpers
# ---------------------------------------------------------------------- #
def _request(address, method, path, body=None):
    """One HTTP request; returns (status, parsed JSON body)."""
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _post(address, path, payload, content_type):
    """POST raw bytes; returns (status, lower-cased headers, raw body)."""
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        headers = {} if content_type is None else {
            "Content-Type": content_type}
        connection.request("POST", path, body=payload, headers=headers)
        response = connection.getresponse()
        return (response.status,
                {key.lower(): value for key, value in response.getheaders()},
                response.read())
    finally:
        connection.close()


def _predict_body(images, model="lenet", bits=4, mapping="acm", **extra):
    return {"model": model, "bits": bits, "mapping": mapping,
            "images": encode_array(np.asarray(images)), **extra}


# Raw-socket plumbing: keep-alive and pipelining need byte control.
def _raw_request(method, path, body=None, headers=None, version="1.1"):
    """Serialize one HTTP request to bytes."""
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    lines = [f"{method} {path} HTTP/{version}", "Host: test"]
    if body is not None:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(payload)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def _read_response(reader):
    """Parse one response off a socket file; (status, headers, json body)."""
    status_line = reader.readline()
    if not status_line:
        raise EOFError("connection closed before a status line")
    status = int(status_line.split(b" ", 2)[1])
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw = reader.read(int(headers.get("content-length", 0)))
    return status, headers, json.loads(raw.decode("utf-8")) if raw else None


def _connect(address, timeout=30.0):
    sock = socket.create_connection(address, timeout=timeout)
    return sock, sock.makefile("rb")


# ---------------------------------------------------------------------- #
# End-to-end over a live server
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live PlanServer over two published plans, plus reference plans."""
    directory = tmp_path_factory.mktemp("plans")
    lenet = make_lenet(mapping="acm", quantizer_bits=4, seed=0)
    mlp = make_mlp(input_size=256, hidden_sizes=(32,), mapping="de",
                   quantizer_bits=6, seed=1)
    registry = PlanRegistry(directory)
    registry.publish_model(lenet, "lenet", 4, "acm")
    registry.publish_model(mlp, "mlp", 6, "de")
    service = InferenceService(registry, max_batch=16)
    server = PlanServer(service, own_backend=True).start()
    images = np.random.default_rng(7).normal(size=(12, 1, 16, 16))
    yield SimpleNamespace(
        address=server.address,
        registry=registry,
        directory=directory,
        service=service,
        images=images,
        lenet_plan=compile_model(lenet),
        mlp_plan=compile_model(mlp),
    )
    server.close()


class TestPredictEquivalence:
    def test_b64_float64_request_is_bit_equivalent(self, served):
        status, body = _request(served.address, "POST", "/v1/predict",
                                _predict_body(served.images))
        assert status == 200
        expected = served.lenet_plan.run(served.images)
        np.testing.assert_array_equal(decode_array(body["logits"]), expected)
        assert body["model"] == "lenet" and body["bits"] == 4

    def test_list_request_and_response_bit_equivalent(self, served):
        # A hand-written body may send its images as nested lists; the
        # response is always b64-packed.
        body = _predict_body(served.images[:3])
        body["images"] = served.images[:3].tolist()
        status, response = _request(served.address, "POST", "/v1/predict", body)
        assert status == 200
        assert isinstance(response["logits"], dict)
        expected = served.lenet_plan.run(served.images[:3])
        np.testing.assert_array_equal(decode_array(response["logits"]),
                                      expected)

    def test_float32_packed_request_matches_float32_inputs(self, served):
        compact = served.images[:4].astype(np.float32)
        body = _predict_body(compact)
        status, response = _request(served.address, "POST", "/v1/predict", body)
        assert status == 200
        np.testing.assert_array_equal(
            decode_array(response["logits"]), served.lenet_plan.run(compact)
        )

    def test_bits_token_string_and_second_model(self, served):
        body = _predict_body(served.images[:2], model="mlp", bits="6b",
                             mapping="de")
        status, response = _request(served.address, "POST", "/v1/predict", body)
        assert status == 200
        np.testing.assert_array_equal(
            decode_array(response["logits"]),
            served.mlp_plan.run(served.images[:2]),
        )

    def test_single_sample_request_drops_batch_axis(self, served):
        status, response = _request(served.address, "POST", "/v1/predict",
                                    _predict_body(served.images[0]))
        assert status == 200
        logits = decode_array(response["logits"])
        assert logits.shape == (10,)
        np.testing.assert_array_equal(
            logits, served.lenet_plan.run(served.images[:1])[0]
        )

    # curl -d sends application/x-www-form-urlencoded; http.client sends
    # no Content-Type at all.  Every type but the frame's is parsed as JSON.
    @pytest.mark.parametrize("content_type", [
        "application/json", "application/x-www-form-urlencoded", None,
    ])
    @pytest.mark.parametrize("form", ["packed", "lists"])
    def test_raw_json_bodies_bit_equivalent(self, served, content_type, form):
        body = _predict_body(served.images[:5])
        if form == "lists":
            body["images"] = served.images[:5].tolist()
        status, headers, raw = _post(served.address, "/v1/predict",
                                     json.dumps(body).encode("utf-8"),
                                     content_type)
        assert status == 200
        assert headers["content-type"] == "application/json"
        np.testing.assert_array_equal(
            decode_array(json.loads(raw)["logits"]),
            served.lenet_plan.run(served.images[:5]),
        )

    @pytest.mark.parametrize("content_type", [
        FRAME_CONTENT_TYPE, "Application/X-Repro-Frame; charset=binary",
    ])
    def test_frame_request_answers_bit_equivalent_frame(self, served,
                                                        content_type):
        frame = encode_predict_request_frame(PredictRequest(
            served.images, model="lenet", bits=4, mapping="acm"))
        status, headers, raw = _post(served.address, "/v1/predict", frame,
                                     content_type)
        assert status == 200
        assert headers["content-type"] == FRAME_CONTENT_TYPE
        result = decode_predict_result_frame(raw)
        np.testing.assert_array_equal(result.logits,
                                      served.lenet_plan.run(served.images))
        assert result.request_id == headers["x-request-id"]

    def test_frame_sent_as_json_is_400(self, served):
        frame = encode_predict_request_frame(PredictRequest(
            served.images[:1], model="lenet", bits=4, mapping="acm"))
        status, _, raw = _post(served.address, "/v1/predict", frame,
                               "application/json")
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "invalid_request"

    def test_concurrent_http_clients_coalesce_and_stay_exact(self, served):
        expected = served.lenet_plan.run(served.images)
        with ThreadPoolExecutor(max_workers=8) as clients:
            responses = list(clients.map(
                lambda index: _request(
                    served.address, "POST", "/v1/predict",
                    _predict_body(served.images[index]),
                ),
                range(len(served.images)),
            ))
        for index, (status, response) in enumerate(responses):
            assert status == 200
            # Coalesced requests ride in different stacked geometries than
            # the reference batch, so BLAS blocking may differ in the last
            # bits; 1e-10 is the serving equivalence bar.
            np.testing.assert_allclose(
                decode_array(response["logits"]), expected[index],
                atol=1e-10, rtol=0,
            )
        status, stats = _request(served.address, "GET", "/v1/stats")
        assert status == 200
        assert stats["stats"]["lenet__4b__acm"]["num_requests"] >= len(served.images)


class TestEnsembleEquivalence:
    def test_http_ensemble_bit_equivalent_to_in_process(self, served):
        request = _predict_body(
            served.images[:5], sigma_fraction=0.15, num_samples=9, seed=21
        )
        status, response = _request(
            served.address, "POST", "/v1/predict_under_variation", request
        )
        assert status == 200
        # The reference runs on a *fresh* service (no shared ensemble cache),
        # so equality certifies the wire + seeding, not a common cache entry.
        with InferenceService(PlanRegistry(served.directory)) as reference:
            expected = reference.ensemble_request(EnsembleRequest(
                served.images[:5], model="lenet", bits=4, mapping="acm",
                sigma_fraction=0.15, num_samples=9, seed=21,
            ))
        np.testing.assert_array_equal(
            decode_array(response["mean_logits"]), expected.mean_logits
        )
        np.testing.assert_array_equal(
            decode_array(response["predictions"]), expected.predictions
        )
        np.testing.assert_array_equal(
            decode_array(response["confidence"]), expected.confidence
        )
        np.testing.assert_array_equal(
            decode_array(response["vote_counts"]), expected.vote_counts
        )
        assert response["sigma_fraction"] == 0.15
        assert response["num_samples"] == 9
        assert response["seed"] == 21

    def test_frame_ensemble_bit_equivalent_to_in_process(self, served):
        request = EnsembleRequest(served.images[:5], model="lenet", bits=4,
                                  mapping="acm", sigma_fraction=0.15,
                                  num_samples=9, seed=21)
        status, headers, raw = _post(
            served.address, "/v1/predict_under_variation",
            encode_ensemble_request_frame(request), FRAME_CONTENT_TYPE)
        assert status == 200
        assert headers["content-type"] == FRAME_CONTENT_TYPE
        result = decode_ensemble_result_frame(raw)
        with InferenceService(PlanRegistry(served.directory)) as reference:
            expected = reference.ensemble_request(request)
        for name in ("mean_logits", "predictions", "confidence",
                     "vote_counts"):
            actual, wanted = getattr(result, name), getattr(expected, name)
            assert actual.dtype == np.asarray(wanted).dtype, name
            np.testing.assert_array_equal(actual, wanted, err_msg=name)
        assert (result.sigma_fraction, result.num_samples, result.seed) == \
            (0.15, 9, 21)

    def test_repeated_ensemble_requests_hit_the_stack_cache(self, served):
        request = _predict_body(
            served.images[:2], sigma_fraction=0.11, num_samples=5, seed=33
        )
        _, first = _request(
            served.address, "POST", "/v1/predict_under_variation", request
        )
        hits_before = served.service.ensemble_cache_hits
        _, second = _request(
            served.address, "POST", "/v1/predict_under_variation", request
        )
        assert served.service.ensemble_cache_hits == hits_before + 1
        np.testing.assert_array_equal(
            decode_array(first["mean_logits"]), decode_array(second["mean_logits"])
        )


class TestCatalogueEndpoints:
    def test_models_listing_reports_digests(self, served):
        status, body = _request(served.address, "GET", "/v1/models")
        assert status == 200
        listed = {entry["name"]: entry for entry in body["models"]}
        assert set(listed) == {"lenet__4b__acm", "mlp__6b__de"}
        assert listed["lenet__4b__acm"]["digest"] == \
            served.registry.digest("lenet", 4, "acm")
        assert listed["mlp__6b__de"]["bits"] == 6
        assert listed["mlp__6b__de"]["size_bytes"] > 0

    def test_healthz(self, served):
        status, body = _request(served.address, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": 2}


class TestErrorMapping:
    @pytest.mark.parametrize("path,method,body,expected_status", [
        ("/v1/predict", "POST", None, 400),                      # empty body
        ("/v1/predict", "POST", [1, 2], 400),                    # non-object
        ("/v1/predict", "POST", {"model": "lenet"}, 400),        # missing fields
        ("/v1/predict", "GET", None, 405),                       # wrong method
        ("/healthz", "POST", {}, 405),                           # wrong method
        ("/v1/unknown", "GET", None, 404),                       # unknown path
        ("/nope", "POST", {}, 404),                              # unknown path
    ])
    def test_protocol_errors(self, served, path, method, body, expected_status):
        status, response = _request(served.address, method, path, body)
        assert status == expected_status
        assert response["error"]["status"] == expected_status
        assert response["error"]["message"]

    # Nesting past the parser's recursion limit is a malformed body too,
    # not a server fault.
    @pytest.mark.parametrize("payload", [b"{not json", b"[" * 100_000],
                             ids=["syntax", "too deeply nested"])
    def test_invalid_json_is_400(self, served, payload):
        connection = http.client.HTTPConnection(*served.address, timeout=30)
        try:
            connection.request("POST", "/v1/predict", body=payload,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "JSON" in body["error"]["message"]

    def test_missing_content_length_is_400(self, served):
        connection = http.client.HTTPConnection(*served.address, timeout=30)
        try:
            connection.putrequest("POST", "/v1/predict")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]["message"]

    def test_malformed_request_line_is_400(self, served):
        sock, reader = _connect(served.address)
        try:
            sock.sendall(b"WHAT\r\n\r\n")
            status, headers, body = _read_response(reader)
            assert status == 400
            assert body["error"]["code"] == "invalid_request"
            assert headers.get("connection") == "close"
        finally:
            sock.close()

    @pytest.mark.parametrize("mutate,expected_status", [
        (lambda b: b.update(model="missing-model"), 404),
        (lambda b: b.update(bits=9), 404),
        (lambda b: b.update(bits=[4]), 400),
        (lambda b: b.update(model=7), 400),
        (lambda b: b.update(mapping=None), 400),
        (lambda b: b.update(images={"shape": [2], "dtype": "float64",
                                    "data": "AAAA"}), 400),
        (lambda b: b.update(images="zeros"), 400),
        (lambda b: b.update(encoding="csv"), 400),
        # The list response codec is gone; older clients send "b64".
        (lambda b: b.update(encoding="list"), 400),
        (lambda b: b.update(encoding="b64"), 200),
    ])
    def test_bad_request_fields(self, served, mutate, expected_status):
        body = _predict_body(served.images[:2])
        mutate(body)
        status, response = _request(served.address, "POST", "/v1/predict", body)
        assert status == expected_status
        if status == 400:
            assert response["error"]["code"] == "invalid_request"

    def test_wrong_geometry_is_400_and_names_shapes(self, served):
        body = _predict_body(np.zeros((2, 3, 16, 16)))
        status, response = _request(served.address, "POST", "/v1/predict", body)
        assert status == 400
        assert "incompatible" in response["error"]["message"]

    @pytest.mark.parametrize("extra", [
        {"sigma_fraction": -0.1}, {"sigma_fraction": "big"},
        {"num_samples": 0}, {"num_samples": 2.5}, {"num_samples": True},
        {"seed": -1}, {"seed": "zero"},
    ])
    def test_bad_ensemble_parameters_are_400(self, served, extra):
        body = _predict_body(served.images[:2], **extra)
        status, response = _request(
            served.address, "POST", "/v1/predict_under_variation", body
        )
        assert status == 400

    def test_malformed_request_leaves_concurrent_valid_request_intact(self, served):
        """The 400 path must not poison a concurrently batched good request."""
        good = _predict_body(served.images[0])
        bad = _predict_body(np.zeros((5, 9)))
        with ThreadPoolExecutor(max_workers=2) as clients:
            good_future = clients.submit(
                _request, served.address, "POST", "/v1/predict", good
            )
            bad_future = clients.submit(
                _request, served.address, "POST", "/v1/predict", bad
            )
        assert bad_future.result()[0] == 400
        status, response = good_future.result()
        assert status == 200
        np.testing.assert_array_equal(
            decode_array(response["logits"]),
            served.lenet_plan.run(served.images[:1])[0],
        )


class TestBodyReading:
    """The request body is read to Content-Length, not in one gulp."""

    def test_dribbled_body_is_read_to_completion(self, served):
        # Regression: a slow client whose body arrives in small TCP
        # segments used to lose everything past the first read() return.
        payload = json.dumps(_predict_body(served.images[:2])).encode("utf-8")
        head = (f"POST /v1/predict HTTP/1.1\r\nHost: t\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        sock = socket.create_connection(served.address, timeout=30)
        try:
            sock.sendall(head)
            for offset in range(0, len(payload), 512):
                sock.sendall(payload[offset:offset + 512])
                time.sleep(0.005)
            raw = sock.makefile("rb").read()
        finally:
            sock.close()
        status_line, _, rest = raw.partition(b"\r\n")
        assert b" 200 " in status_line
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        np.testing.assert_array_equal(
            decode_array(body["logits"]),
            served.lenet_plan.run(served.images[:2]),
        )

    def test_truncated_body_is_400_invalid_request(self, served):
        # The client dies mid-body: the edge must answer with a typed 400,
        # not feed a short body into the JSON parser.
        sock = socket.create_connection(served.address, timeout=30)
        try:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 5000\r\n\r\n{\"model\":")
            sock.shutdown(socket.SHUT_WR)
            raw = sock.makefile("rb").read()
        finally:
            sock.close()
        status_line, _, rest = raw.partition(b"\r\n")
        assert b" 400 " in status_line
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert body["error"]["code"] == "invalid_request"
        assert "truncated" in body["error"]["message"]

    def test_oversized_content_length_is_413(self, served):
        sock = socket.create_connection(served.address, timeout=30)
        try:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 2147483648\r\n\r\n")
            raw = sock.makefile("rb").read()
        finally:
            sock.close()
        assert b" 413 " in raw.partition(b"\r\n")[0]


class TestStudyCancel:
    """``DELETE /v1/studies/{id}``: idempotent cancellation."""

    def test_cancel_running_study_reports_cancelled(self, served):
        from repro.api.codec import encode_study_spec
        from repro.api.types import study_spec

        # A wide sweep with many samples keeps the job running long enough
        # to cancel it mid-flight on a single-core host.
        spec = study_spec(images=served.images[:4], models=[("lenet", "acm", 4)],
                          sigmas=tuple(0.01 * k for k in range(20)),
                          num_samples=10, seed=5)
        status, body = _request(served.address, "POST", "/v1/studies",
                                encode_study_spec(spec))
        assert status == 200
        job_id = body["job_id"]
        status, body = _request(served.address, "DELETE",
                                f"/v1/studies/{job_id}")
        assert status == 200
        assert body["state"] in ("cancelled", "done")  # done if it raced
        # Idempotent: a second DELETE reports the same terminal state.
        status, again = _request(served.address, "DELETE",
                                 f"/v1/studies/{job_id}")
        assert status == 200 and again["state"] == body["state"]
        # Polling a cancelled job keeps working and reports no result.
        status, polled = _request(served.address, "GET",
                                  f"/v1/studies/{job_id}")
        assert status == 200 and polled["state"] == body["state"]
        if polled["state"] == "cancelled":
            assert "result" not in polled or polled["result"] is None

    def test_cancel_unknown_job_is_typed_404(self, served):
        status, body = _request(served.address, "DELETE",
                                "/v1/studies/no-such-job")
        assert status == 404
        assert body["error"]["code"] == "model_not_found"


class TestKeepAlive:
    def test_successful_requests_reuse_one_connection(self, served):
        connection = http.client.HTTPConnection(*served.address, timeout=30)
        try:
            for _ in range(3):
                payload = json.dumps(_predict_body(served.images[:2]))
                connection.request("POST", "/v1/predict",
                                   body=payload.encode("utf-8"))
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()

    def test_error_with_unread_body_does_not_poison_the_connection(self, served):
        """Regression: a 404 sent before the body was read must close the
        connection, or the leftover bytes corrupt the next request on it."""
        connection = http.client.HTTPConnection(*served.address, timeout=30)
        try:
            payload = json.dumps(_predict_body(served.images[:2]))
            connection.request("POST", "/nope", body=payload.encode("utf-8"))
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
            # http.client honours Connection: close and reconnects; the
            # follow-up must be a real healthz response, not a parse of the
            # stale body bytes.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_second_request_reuses_the_same_socket(self, served):
        sock, reader = _connect(served.address)
        try:
            for _ in range(2):
                sock.sendall(_raw_request("POST", "/v1/predict",
                                          _predict_body(served.images[:2])))
                status, headers, body = _read_response(reader)
                assert status == 200
                assert headers.get("connection") != "close"
                assert "logits" in body
        finally:
            sock.close()

    def test_pipelined_pair_answered_in_order(self, served):
        # Both requests are on the wire before either response is read.
        sock, reader = _connect(served.address)
        try:
            sock.sendall(_raw_request("GET", "/healthz") +
                         _raw_request("GET", "/v1/models"))
            status, _, body = _read_response(reader)
            assert status == 200 and body["status"] == "ok"
            status, _, body = _read_response(reader)
            assert status == 200 and "models" in body
        finally:
            sock.close()

    def test_connection_close_header_is_honoured(self, served):
        sock, reader = _connect(served.address)
        try:
            sock.sendall(_raw_request("GET", "/healthz",
                                      headers={"Connection": "close"}))
            status, headers, _ = _read_response(reader)
            assert status == 200
            assert headers.get("connection") == "close"
            assert reader.read() == b""  # server hangs up after the response
        finally:
            sock.close()

    def test_http10_without_keepalive_closes(self, served):
        sock, reader = _connect(served.address)
        try:
            sock.sendall(_raw_request("GET", "/healthz", version="1.0"))
            status, headers, _ = _read_response(reader)
            assert status == 200
            assert headers.get("connection") == "close"
            assert reader.read() == b""
        finally:
            sock.close()

    def test_error_response_closes_the_connection(self, served):
        # Errors always close: the request body may sit half-read on the
        # socket and would corrupt the framing of a follow-up request.
        sock, reader = _connect(served.address)
        try:
            sock.sendall(_raw_request("GET", "/nope"))
            status, headers, _ = _read_response(reader)
            assert status == 404
            assert headers.get("connection") == "close"
            assert reader.read() == b""
        finally:
            sock.close()

    def test_close_drains_idle_keepalive_connections(self, served):
        server = PlanServer(InferenceService(PlanRegistry(served.directory)))
        server.start()
        sock, reader = _connect(server.address)
        try:
            sock.sendall(_raw_request("GET", "/healthz"))
            assert _read_response(reader)[0] == 200
            # The connection is idle mid-keep-alive; a graceful close must
            # not hang on it, and must hang *it* up rather than leave a
            # handler thread answering on it.
            start = time.monotonic()
            server.close()
            assert time.monotonic() - start < 8.0
            sock.settimeout(5.0)
            assert reader.read() == b""
        finally:
            sock.close()


class TestLifecycle:
    def test_closed_backend_maps_to_503(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish_model(
            make_mlp(input_size=16, hidden_sizes=(4,), mapping="acm",
                     quantizer_bits=4, seed=0),
            "tiny", 4, "acm",
        )
        service = InferenceService(registry)
        with PlanServer(service, own_backend=False) as server:
            service.close()
            body = {"model": "tiny", "bits": 4, "mapping": "acm",
                    "images": np.zeros((1, 1, 4, 4)).tolist()}
            status, response = _request(server.address, "POST", "/v1/predict",
                                        body)
        assert status == 503
        # The typed layer folds the backend's RuntimeError into the stable
        # machine-readable BackendClosed error.
        assert response["error"]["type"] == "BackendClosed"
        assert response["error"]["code"] == "backend_closed"

    def test_graceful_close_completes_inflight_request(self, tmp_path):
        """close() must drain a request already being handled, not drop it."""
        registry = PlanRegistry(tmp_path / "plans")
        model = make_mlp(input_size=16, hidden_sizes=(4,), mapping="acm",
                         quantizer_bits=4, seed=0)
        registry.publish_model(model, "tiny", 4, "acm")
        # A slow plan execution keeps the request in flight while the
        # server is told to shut down.
        service = InferenceService(registry, max_batch=64)
        scheduler = service.scheduler_for("tiny", 4, "acm")
        run = scheduler._runner

        def slow_run(rows):
            time.sleep(0.3)
            return run(rows)

        scheduler._runner = slow_run
        server = PlanServer(service).start()
        images = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        outcome = {}

        def client() -> None:
            outcome["response"] = _request(
                server.address, "POST", "/v1/predict",
                {"model": "tiny", "bits": 4, "mapping": "acm",
                 "images": images.tolist()},
            )

        thread = threading.Thread(target=client)
        thread.start()
        time.sleep(0.05)  # let the request reach the slow execution
        server.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        status, response = outcome["response"]
        assert status == 200
        np.testing.assert_array_equal(
            decode_array(response["logits"]),
            compile_model(model).run(images),
        )

    def test_double_close_and_start_guard(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        server = PlanServer(InferenceService(registry)).start()
        with pytest.raises(RuntimeError):
            server.start()
        server.close()
        server.close()  # idempotent
