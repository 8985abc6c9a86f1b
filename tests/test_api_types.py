"""Unit tests for the ``repro.api`` vocabulary: types, errors, codecs, connect.

These are the transport-independent contracts: stable machine-readable
error codes, request validation that fires identically everywhere, codec
round trips that preserve exact bits, and the ``connect`` target grammar.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.api import (
    ApiAuthError,
    ApiBackpressure,
    ApiError,
    ApiServerError,
    ApiTimeout,
    BackendClosed,
    ERROR_CODES,
    EnsembleRequest,
    EnsembleResult,
    HealthStatus,
    InvalidRequest,
    ModelInfo,
    ModelNotFound,
    PredictRequest,
    PredictResult,
    WorkerDied,
    bits_token,
    canonical_name,
    error_for,
    map_exception,
    parse_bits_token,
)
from repro.api.codec import (
    decode_ensemble_request,
    decode_ensemble_result,
    decode_error,
    decode_predict_request,
    decode_predict_result,
    encode_ensemble_request,
    encode_ensemble_result,
    encode_error,
    encode_predict_request,
    encode_predict_result,
)
from repro.runtime.wire import WireFormatError
from repro.serve.registry import PlanArtifactError


# ---------------------------------------------------------------------- #
# Error hierarchy
# ---------------------------------------------------------------------- #
class TestErrors:
    def test_codes_are_unique_and_registered(self):
        assert len(ERROR_CODES) >= 8
        for code, cls in ERROR_CODES.items():
            assert cls.code == code
            assert issubclass(cls, ApiError)
            assert 400 <= cls.status < 600 or cls is ApiServerError

    def test_error_for_resolves_code_then_status(self):
        assert type(error_for("model_not_found", 500, "x")) is ModelNotFound
        assert type(error_for("", 404, "x")) is ModelNotFound
        assert type(error_for("nonsense", 429, "x")) is ApiBackpressure
        assert type(error_for("nonsense", 418, "x")) is ApiServerError

    def test_protocol_codes_never_masquerade_as_model_not_found(self):
        # A 404 for an unknown *path* (e.g. a stripped /v1 prefix) must not
        # look like a missing model, which clients may branch on.
        assert type(error_for("not_found", 404, "unknown path")) is InvalidRequest
        assert type(error_for("method_not_allowed", 405, "x")) is InvalidRequest
        assert type(error_for("payload_too_large", 413, "x")) is InvalidRequest

    def test_message_property(self):
        assert ModelNotFound("no such plan").message == "no such plan"

    @pytest.mark.parametrize("legacy,expected", [
        (KeyError("no plan published for 'a__4b__acm'"), ModelNotFound),
        (ValueError("shape mismatch"), InvalidRequest),
        (TypeError("bad type"), InvalidRequest),
        (WireFormatError("ragged"), InvalidRequest),
        (TimeoutError("slow"), ApiTimeout),
        (RuntimeError("service is closed"), BackendClosed),
        (PlanArtifactError("corrupt artifact"), ApiServerError),
        (OSError("disk"), ApiServerError),
    ])
    def test_map_exception(self, legacy, expected):
        mapped = map_exception(legacy)
        assert type(mapped) is expected

    def test_map_exception_unwraps_keyerror_quotes(self):
        mapped = map_exception(KeyError("missing"))
        assert mapped.message == "missing"  # not "'missing'"

    def test_map_exception_passes_typed_errors_through(self):
        original = ApiBackpressure("deep queue", retry_after=2.5)
        assert map_exception(original) is original

    def test_backpressure_pickles_with_retry_after(self):
        # The cluster moves exceptions across a pickle boundary; the
        # pacing hint must survive.
        original = ApiBackpressure("deep queue", retry_after=3.5)
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is ApiBackpressure
        assert clone.message == "deep queue"
        assert clone.retry_after == 3.5

    def test_worker_died_pickles(self):
        clone = pickle.loads(pickle.dumps(WorkerDied("worker 3 died")))
        assert type(clone) is WorkerDied
        assert clone.status == 503 and clone.code == "worker_died"


# ---------------------------------------------------------------------- #
# Request validation (fires identically for every transport)
# ---------------------------------------------------------------------- #
class TestRequestValidation:
    def test_valid_requests_construct(self):
        images = np.zeros((2, 4))
        request = PredictRequest(images=images, model="m", mapping="acm")
        assert request.bits is None and request.name == "m__fp32__acm"
        ensemble = EnsembleRequest(images=images, model="m", mapping="acm",
                                   bits=4, sigma_fraction=0.2, num_samples=9,
                                   seed=7)
        assert ensemble.name == "m__4b__acm"

    @pytest.mark.parametrize("kwargs", [
        {"model": "", "mapping": "acm"},
        {"model": 3, "mapping": "acm"},
        {"model": "m", "mapping": ""},
        {"model": "m", "mapping": "acm", "bits": 0},
        {"model": "m", "mapping": "acm", "bits": True},
        {"model": "m", "mapping": "acm", "bits": "4b"},  # token not parsed here
    ])
    def test_bad_key_fields_raise_invalid_request(self, kwargs):
        with pytest.raises(InvalidRequest):
            PredictRequest(images=np.zeros(4), **kwargs)
        with pytest.raises(InvalidRequest):
            EnsembleRequest(images=np.zeros(4), **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"sigma_fraction": -0.1},
        {"sigma_fraction": float("nan")},
        {"sigma_fraction": "a lot"},
        {"sigma_fraction": True},
        {"num_samples": 0},
        {"num_samples": 2.5},
        {"num_samples": True},
        {"seed": -1},
        {"seed": 1.5},
    ])
    def test_bad_ensemble_params_raise_invalid_request(self, kwargs):
        with pytest.raises(InvalidRequest):
            EnsembleRequest(images=np.zeros(4), model="m", mapping="acm",
                            **kwargs)

    def test_bits_tokens(self):
        assert bits_token(4) == "4b" and bits_token(None) == "fp32"
        assert parse_bits_token("4b") == 4
        assert parse_bits_token("fp32") is None
        with pytest.raises(InvalidRequest):
            parse_bits_token("four")
        assert canonical_name("lenet", 4, "acm") == "lenet__4b__acm"


# ---------------------------------------------------------------------- #
# Codec round trips
# ---------------------------------------------------------------------- #
class TestCodecs:
    def test_predict_request_round_trip_exact(self, rng):
        images = rng.normal(size=(3, 1, 4, 4))
        request = PredictRequest(images=images, model="m", mapping="acm", bits=4)
        body = json.loads(json.dumps(encode_predict_request(request)))
        decoded = decode_predict_request(body)
        assert (decoded.model, decoded.bits, decoded.mapping) == ("m", 4, "acm")
        np.testing.assert_array_equal(decoded.images, images)

    def test_ensemble_request_round_trip(self, rng):
        request = EnsembleRequest(images=rng.normal(size=(2, 4)), model="m",
                                  mapping="de", sigma_fraction=0.15,
                                  num_samples=7, seed=3)
        body = json.loads(json.dumps(encode_ensemble_request(request)))
        decoded = decode_ensemble_request(body)
        assert decoded.sigma_fraction == 0.15
        assert decoded.num_samples == 7 and decoded.seed == 3
        np.testing.assert_array_equal(decoded.images, request.images)

    def test_predict_result_round_trip_exact(self, rng):
        result = PredictResult(model="m", bits=None, mapping="bc",
                               logits=rng.normal(size=(5, 10)))
        body = json.loads(json.dumps(encode_predict_result(result)))
        decoded = decode_predict_result(body)
        assert decoded.bits is None
        np.testing.assert_array_equal(decoded.logits, result.logits)

    def test_ensemble_result_round_trip_exact(self, rng):
        result = EnsembleResult(
            model="m", bits=4, mapping="acm",
            mean_logits=rng.normal(size=(2, 10)),
            predictions=np.array([1, 2]),
            confidence=np.array([1.0, 0.75]),
            vote_counts=np.zeros((2, 10), dtype=np.int64),
            sigma_fraction=0.1, num_samples=4, seed=0,
        )
        body = json.loads(json.dumps(encode_ensemble_result(result)))
        decoded = decode_ensemble_result(body)
        np.testing.assert_array_equal(decoded.mean_logits, result.mean_logits)
        np.testing.assert_array_equal(decoded.predictions, result.predictions)
        np.testing.assert_array_equal(decoded.confidence, result.confidence)
        np.testing.assert_array_equal(decoded.vote_counts, result.vote_counts)
        assert decoded.sigma_fraction == 0.1

    @pytest.mark.parametrize("body", [
        {},
        {"model": "m"},
        {"model": "m", "mapping": "acm"},                       # no images
        {"model": 5, "mapping": "acm", "images": [1.0]},
        {"model": "m", "mapping": 5, "images": [1.0]},
        {"model": "m", "mapping": "acm", "images": "nope"},
        {"model": "m", "mapping": "acm", "images": [1.0], "bits": 1.5},
        {"model": "m", "mapping": "acm", "images": [1.0], "encoding": "csv"},
        {"model": "m", "mapping": "acm", "images": [1.0], "encoding": "list"},
    ])
    def test_malformed_predict_bodies_raise_invalid_request(self, body):
        with pytest.raises(InvalidRequest):
            decode_predict_request(body)

    @pytest.mark.parametrize("extra", [
        {"sigma_fraction": -1.0},
        {"sigma_fraction": "much"},
        {"num_samples": 0},
        {"seed": -3},
    ])
    def test_malformed_ensemble_bodies_raise_invalid_request(self, extra):
        body = {"model": "m", "mapping": "acm", "images": [1.0], **extra}
        with pytest.raises(InvalidRequest):
            decode_ensemble_request(body)

    def test_error_body_round_trip(self):
        body = encode_error(KeyError("no plan published for 'x'"))
        detail = body["error"]
        assert detail["status"] == 404
        assert detail["code"] == "model_not_found"
        assert detail["type"] == "KeyError"
        assert detail["message"] == "no plan published for 'x'"
        error = decode_error(body, detail["status"])
        assert type(error) is ModelNotFound

    def test_decode_error_attaches_retry_after(self):
        body = encode_error(ApiBackpressure("deep", retry_after=2.0))
        error = decode_error(body, 429, retry_after=7.0)
        assert type(error) is ApiBackpressure
        assert error.retry_after == 7.0

    def test_decode_error_survives_garbage_bodies(self):
        assert type(decode_error(None, 503)) is BackendClosed
        assert type(decode_error({"weird": 1}, 401)) is ApiAuthError
        assert decode_error([], 500).message == "HTTP 500"


# ---------------------------------------------------------------------- #
# Catalogue / health wire forms
# ---------------------------------------------------------------------- #
class TestInfoTypes:
    def test_model_info_round_trip(self):
        info = ModelInfo(model="m", bits=4, mapping="acm", name="m__4b__acm",
                         digest="ab" * 32, size_bytes=123, worker=1)
        assert ModelInfo.from_wire(info.to_wire()) == info
        bare = ModelInfo(model="m", bits=None, mapping="de", name="m__fp32__de",
                         digest="cd" * 32, size_bytes=5)
        wire = bare.to_wire()
        assert "worker" not in wire
        assert ModelInfo.from_wire(wire) == bare

    def test_model_info_rejects_malformed_entries(self):
        with pytest.raises(InvalidRequest):
            ModelInfo.from_wire({"model": "m"})

    def test_health_status(self):
        status = HealthStatus.from_wire({"status": "ok", "models": 3})
        assert status.ok and status.models == 3
        assert HealthStatus.from_wire({}).ok is False
