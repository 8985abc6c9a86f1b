"""Property tests for the ``repro.api.codec`` wire round trips.

The codec is the one owner of the HTTP protocol's both directions, so its
two contracts are hardened here with randomized inputs (mirroring the
registry fuzz suite):

* **Exactness** — encode→decode of every request/response dataclass is a
  bit-exact round trip for every wire dtype, including across a real
  ``json.dumps``/``loads`` hop (the b64 packing carries raw bytes; JSON
  adds nothing and loses nothing).
* **Totality on garbage** — decoding *never* crashes with an unexpected
  exception type: every malformed body, mutated field, or junk array
  payload maps to the typed :class:`~repro.api.errors.InvalidRequest`
  (``decode_error`` is total and always returns an ``ApiError``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.codec import (
    decode_ensemble_request,
    decode_ensemble_result,
    decode_error,
    decode_predict_request,
    decode_predict_result,
    encode_ensemble_request,
    encode_ensemble_result,
    encode_predict_request,
    encode_predict_result,
    decode_study_spec,
    decode_study_status,
    encode_study_spec,
    encode_study_status,
)
from repro.api.errors import ApiError, InvalidRequest
from repro.api.types import (
    EnsembleRequest,
    EnsembleResult,
    PredictRequest,
    PredictResult,
    StudyModel,
    StudySpec,
    StudyStatus,
)

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)

_float64_arrays = hnp.arrays(
    dtype=np.float64, shape=_shapes,
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)
_float32_arrays = hnp.arrays(
    dtype=np.float32, shape=_shapes,
    elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
)
_int_arrays = st.one_of(
    hnp.arrays(dtype=np.int32, shape=_shapes,
               elements=st.integers(-2**31, 2**31 - 1)),
    hnp.arrays(dtype=np.int64, shape=_shapes,
               elements=st.integers(-2**62, 2**62)),
)
_wire_arrays = st.one_of(_float64_arrays, _float32_arrays, _int_arrays)

_names = st.from_regex(r"[a-z][a-z0-9\-]{0,8}", fullmatch=True)
_bits = st.one_of(st.none(), st.integers(min_value=1, max_value=64))

#: Arbitrary JSON-shaped values (what a hostile client can actually send).
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(-2**40, 2**40),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
_json_objects = st.dictionaries(st.text(max_size=12), _json_values, max_size=6)


def _json_hop(body):
    """Simulate the HTTP transport: the body really crosses JSON."""
    return json.loads(json.dumps(body, allow_nan=False))


# ---------------------------------------------------------------------- #
# Round trips are exact bits
# ---------------------------------------------------------------------- #
class TestRoundTrips:
    @given(images=_wire_arrays, model=_names, mapping=_names, bits=_bits)
    @settings(max_examples=120, deadline=None)
    def test_predict_request_round_trips_exact(self, images, model, mapping,
                                               bits):
        request = PredictRequest(images=images, model=model, mapping=mapping,
                                 bits=bits)
        body = _json_hop(encode_predict_request(request))
        decoded = decode_predict_request(body)
        assert (decoded.model, decoded.bits, decoded.mapping) == \
            (model, bits, mapping)
        assert decoded.images.dtype == images.dtype
        np.testing.assert_array_equal(decoded.images, images)

    @given(images=_wire_arrays, model=_names, mapping=_names, bits=_bits,
           sigma=st.floats(0, 10, allow_nan=False),
           num_samples=st.integers(1, 500), seed=st.integers(0, 2**31))
    @settings(max_examples=120, deadline=None)
    def test_ensemble_request_round_trips_exact(self, images, model, mapping,
                                                bits, sigma, num_samples,
                                                seed):
        request = EnsembleRequest(images=images, model=model, mapping=mapping,
                                  bits=bits, sigma_fraction=sigma,
                                  num_samples=num_samples, seed=seed)
        decoded = decode_ensemble_request(
            _json_hop(encode_ensemble_request(request))
        )
        assert decoded.sigma_fraction == sigma
        assert decoded.num_samples == num_samples
        assert decoded.seed == seed
        assert decoded.images.dtype == images.dtype
        np.testing.assert_array_equal(decoded.images, images)

    @given(logits=_float64_arrays, model=_names, mapping=_names, bits=_bits)
    @settings(max_examples=100, deadline=None)
    def test_predict_result_round_trips_exact(self, logits, model, mapping,
                                              bits):
        result = PredictResult(model=model, bits=bits, mapping=mapping,
                               logits=logits)
        decoded = decode_predict_result(_json_hop(encode_predict_result(result)))
        assert decoded.logits.dtype == np.float64
        np.testing.assert_array_equal(decoded.logits, logits)

    @given(mean=_float64_arrays, model=_names, mapping=_names,
           num_samples=st.integers(1, 99), seed=st.integers(0, 2**31),
           sigma=st.floats(0, 5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_ensemble_result_round_trips_exact(self, mean, model, mapping,
                                               num_samples, seed, sigma):
        rng = np.random.default_rng(0)
        batch = mean.shape[0] if mean.ndim else 1
        result = EnsembleResult(
            model=model, bits=None, mapping=mapping, mean_logits=mean,
            predictions=rng.integers(0, 10, size=batch),
            confidence=rng.random(batch),
            vote_counts=rng.integers(0, num_samples, size=(batch, 10)),
            sigma_fraction=sigma, num_samples=num_samples, seed=seed,
        )
        decoded = decode_ensemble_result(
            _json_hop(encode_ensemble_result(result))
        )
        np.testing.assert_array_equal(decoded.mean_logits, mean)
        np.testing.assert_array_equal(decoded.predictions, result.predictions)
        np.testing.assert_array_equal(decoded.confidence, result.confidence)
        np.testing.assert_array_equal(decoded.vote_counts, result.vote_counts)
        assert decoded.sigma_fraction == sigma
        assert (decoded.num_samples, decoded.seed) == (num_samples, seed)

    # Nested lists carry no shape header, so a zero-sized dimension
    # collapses the dims after it ((0, 0)).tolist() == []); the exactness
    # property of the list form is scoped to non-degenerate shapes — the
    # b64 form round-trips every shape above.
    @given(images=hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=1,
                               max_side=5),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    ))
    @settings(max_examples=60, deadline=None)
    def test_list_encoding_preserves_float64_values(self, images):
        # A hand-written request carries its images as nested lists:
        # Python's shortest-round-trip floats survive JSON exactly.
        request = PredictRequest(images=images, model="m", mapping="acm")
        body = encode_predict_request(request)
        body["images"] = images.tolist()
        decoded = decode_predict_request(_json_hop(body))
        assert decoded.images.dtype == np.float64
        np.testing.assert_array_equal(decoded.images, images)


# ---------------------------------------------------------------------- #
# Decoding never crashes: garbage in, typed InvalidRequest out
# ---------------------------------------------------------------------- #
_decoders = [decode_predict_request, decode_ensemble_request,
             decode_predict_result, decode_ensemble_result]


def _base_predict_body():
    return encode_predict_request(
        PredictRequest(images=np.zeros((2, 3)), model="m", mapping="acm")
    )


class TestMalformedPayloads:
    @given(body=_json_objects)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_objects_map_to_invalid_request(self, body):
        for decoder in _decoders:
            try:
                decoder(body)
            except InvalidRequest:
                pass  # the typed rejection every transport shares

    @given(field=st.sampled_from(["images", "model", "bits", "mapping",
                                  "encoding"]),
           junk=_json_values)
    @settings(max_examples=200, deadline=None)
    def test_mutated_predict_fields_never_crash(self, field, junk):
        body = _base_predict_body()
        body[field] = junk
        try:
            request = decode_predict_request(body)
        except InvalidRequest:
            return
        # If the decoder accepted the mutation, the result must still be a
        # well-formed request object.
        assert isinstance(request, PredictRequest)

    @given(shape=_json_values, dtype=_json_values, data=_json_values)
    @settings(max_examples=200, deadline=None)
    def test_junk_packed_arrays_never_crash(self, shape, dtype, data):
        body = _base_predict_body()
        body["images"] = {"shape": shape, "dtype": dtype, "data": data}
        with pytest.raises(InvalidRequest):
            decode_predict_request(body)

    @given(sigma=_json_values, num_samples=_json_values, seed=_json_values)
    @settings(max_examples=150, deadline=None)
    def test_junk_ensemble_parameters_never_crash(self, sigma, num_samples,
                                                  seed):
        body = encode_ensemble_request(EnsembleRequest(
            images=np.zeros((1, 4)), model="m", mapping="acm", num_samples=3,
        ))
        body["sigma_fraction"] = sigma
        body["num_samples"] = num_samples
        body["seed"] = seed
        try:
            request = decode_ensemble_request(body)
        except InvalidRequest:
            return
        assert isinstance(request, EnsembleRequest)

    def test_oversized_shape_is_rejected_without_allocating(self):
        body = _base_predict_body()
        body["images"] = {"shape": [2**40], "dtype": "float64", "data": ""}
        with pytest.raises(InvalidRequest):
            decode_predict_request(body)

    @given(body=_json_values, status=st.integers(100, 599),
           retry_after=st.one_of(st.none(), st.floats(0, 3600,
                                                      allow_nan=False)))
    @settings(max_examples=150, deadline=None)
    def test_decode_error_is_total(self, body, status, retry_after):
        error = decode_error(body, status, retry_after=retry_after)
        assert isinstance(error, ApiError)
        assert isinstance(error.code, str) and error.code


# ---------------------------------------------------------------------- #
# Study codec: the POST /v1/studies wire surface
# ---------------------------------------------------------------------- #
_study_decoders = [decode_study_spec, decode_study_status]

_study_images = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)


class TestStudyCodec:
    @given(images=_study_images, model=_names, mapping=_names, bits=_bits,
           sigmas=st.lists(st.floats(0, 5, allow_nan=False), min_size=1,
                           max_size=4),
           num_samples=st.integers(1, 99), seed=st.integers(0, 2**31),
           with_labels=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_study_spec_round_trips_exact(self, images, model, mapping, bits,
                                          sigmas, num_samples, seed,
                                          with_labels):
        labels = (
            np.arange(images.shape[0], dtype=np.int64) if with_labels
            else None
        )
        spec = StudySpec(
            images=images,
            models=(StudyModel(model=model, bits=bits, mapping=mapping),),
            sigmas=tuple(sigmas), num_samples=num_samples, seed=seed,
            labels=labels,
        )
        decoded = decode_study_spec(_json_hop(encode_study_spec(spec)))
        assert decoded.models == spec.models
        assert decoded.sigmas == spec.sigmas
        assert (decoded.num_samples, decoded.seed) == (num_samples, seed)
        assert decoded.images.dtype == images.dtype
        np.testing.assert_array_equal(decoded.images, images)
        if labels is None:
            assert decoded.labels is None
        else:
            np.testing.assert_array_equal(decoded.labels, labels)

    @given(body=_json_objects)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_study_objects_map_to_invalid_request(self, body):
        for decoder in _study_decoders:
            try:
                decoder(body)
            except InvalidRequest:
                pass  # the typed rejection every transport shares

    @given(body=_json_values)
    @settings(max_examples=150, deadline=None)
    def test_non_object_study_bodies_map_to_invalid_request(self, body):
        for decoder in _study_decoders:
            try:
                decoder(body)
            except InvalidRequest:
                pass

    @given(field=st.sampled_from(["images", "models", "sigmas",
                                  "num_samples", "seed", "labels",
                                  "request_id", "encoding"]),
           junk=_json_values)
    @settings(max_examples=200, deadline=None)
    def test_mutated_study_spec_fields_never_crash(self, field, junk):
        body = encode_study_spec(StudySpec(
            images=np.zeros((2, 3)),
            models=(StudyModel(model="m", bits=4, mapping="acm"),),
            sigmas=(0.0, 0.1), num_samples=3,
        ))
        body[field] = junk
        try:
            spec = decode_study_spec(body)
        except InvalidRequest:
            return
        assert isinstance(spec, StudySpec)

    @given(field=st.sampled_from(["job_id", "state", "cells_total",
                                  "cells_done", "retries", "error_code",
                                  "result"]),
           junk=_json_values)
    @settings(max_examples=200, deadline=None)
    def test_mutated_study_status_fields_never_crash(self, field, junk):
        body = encode_study_status(StudyStatus(
            job_id="j", state="running", cells_total=4, cells_done=1,
        ))
        body[field] = junk
        try:
            status = decode_study_status(body)
        except InvalidRequest:
            return
        assert isinstance(status, StudyStatus)
