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

Both hold for the binary frame form too: frames round-trip every wire
dtype bit for bit whatever the sender's layout (0-d, empty,
non-contiguous, big-endian), and every malformed frame is an
``InvalidRequest`` from the codec and a 400 ``invalid_request`` JSON
reply from :class:`~repro.serve.http.EdgeCore`, never a 500.
"""

from __future__ import annotations

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.codec import (
    FRAME_CONTENT_TYPE,
    decode_ensemble_request,
    decode_ensemble_request_frame,
    decode_ensemble_result,
    decode_ensemble_result_frame,
    decode_error,
    decode_predict_request,
    decode_predict_request_frame,
    decode_predict_result,
    decode_predict_result_frame,
    encode_ensemble_request,
    encode_ensemble_request_frame,
    encode_ensemble_result,
    encode_ensemble_result_frame,
    encode_predict_request,
    encode_predict_request_frame,
    encode_predict_result,
    encode_predict_result_frame,
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
from repro.runtime.wire import (
    FRAME_MAGIC,
    MAX_WIRE_ELEMENTS,
    WIRE_DTYPES,
    decode_frame,
    encode_frame,
)
from repro.serve.http import EdgeCore

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


# ---------------------------------------------------------------------- #
# Binary frames: exact bits whatever the layout, typed 400 on garbage
# ---------------------------------------------------------------------- #
@st.composite
def _sent_arrays(draw):
    """A wire array as a sender may hold it: any layout or byte order."""
    array = draw(_wire_arrays)
    if array.ndim and draw(st.booleans()):
        # Same values, non-contiguous: every other element of a doubled array.
        array = np.repeat(array, 2, axis=-1)[..., ::2]
    if array.ndim > 1 and draw(st.booleans()):
        array = array.T
    if draw(st.booleans()):
        array = array.astype(array.dtype.newbyteorder(">"))
    return array


def _assert_bitwise(decoded, sent):
    """``decoded`` is ``sent``'s exact bits as a native, writable C array."""
    native = np.ascontiguousarray(sent, dtype=sent.dtype.newbyteorder("="))
    assert decoded.dtype == native.dtype and decoded.dtype.isnative
    assert decoded.shape == sent.shape
    assert decoded.flags.c_contiguous and decoded.flags.writeable
    assert decoded.tobytes() == native.tobytes()


class TestFrameRoundTrips:
    def test_every_wire_dtype_is_covered(self):
        # _wire_arrays draws exactly these; a new wire dtype needs a strategy.
        assert set(WIRE_DTYPES) == {"float32", "float64", "int32", "int64"}

    @given(first=_sent_arrays(), second=_sent_arrays(),
           fields=st.dictionaries(_names, st.integers(-9, 9), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_arrays_round_trip_bitwise(self, first, second, fields):
        frame = encode_frame(fields, {"first": first, "second": second})
        decoded_fields, arrays = decode_frame(frame)
        assert decoded_fields == fields
        assert list(arrays) == ["first", "second"]
        _assert_bitwise(arrays["first"], first)
        _assert_bitwise(arrays["second"], second)

    @given(images=_sent_arrays(), model=_names, mapping=_names, bits=_bits,
           sigma=st.floats(0, 10, allow_nan=False),
           num_samples=st.integers(1, 500), seed=st.integers(0, 2**31))
    @settings(max_examples=120, deadline=None)
    def test_requests_round_trip_bitwise(self, images, model, mapping, bits,
                                         sigma, num_samples, seed):
        predict = decode_predict_request_frame(encode_predict_request_frame(
            PredictRequest(images=images, model=model, mapping=mapping,
                           bits=bits)))
        assert (predict.model, predict.bits, predict.mapping) == \
            (model, bits, mapping)
        _assert_bitwise(predict.images, images)
        ensemble = decode_ensemble_request_frame(
            encode_ensemble_request_frame(EnsembleRequest(
                images=images, model=model, mapping=mapping, bits=bits,
                sigma_fraction=sigma, num_samples=num_samples, seed=seed)))
        assert (ensemble.sigma_fraction, ensemble.num_samples,
                ensemble.seed) == (sigma, num_samples, seed)
        _assert_bitwise(ensemble.images, images)

    @given(logits=_float64_arrays, model=_names, mapping=_names, bits=_bits,
           num_samples=st.integers(1, 99), seed=st.integers(0, 2**31),
           request_id=st.one_of(st.none(), _names))
    @settings(max_examples=100, deadline=None)
    def test_results_round_trip_bitwise(self, logits, model, mapping, bits,
                                        num_samples, seed, request_id):
        predict = decode_predict_result_frame(encode_predict_result_frame(
            PredictResult(model=model, bits=bits, mapping=mapping,
                          logits=logits, request_id=request_id)))
        assert predict.request_id == request_id
        _assert_bitwise(predict.logits, logits)
        rng = np.random.default_rng(0)
        batch = logits.shape[0] if logits.ndim else 1
        result = EnsembleResult(
            model=model, bits=bits, mapping=mapping, mean_logits=logits,
            predictions=rng.integers(0, 10, size=batch),
            confidence=rng.random(batch),
            vote_counts=rng.integers(0, num_samples, size=(batch, 10)),
            sigma_fraction=0.1, num_samples=num_samples, seed=seed,
            request_id=request_id,
        )
        decoded = decode_ensemble_result_frame(
            encode_ensemble_result_frame(result))
        for name in ("mean_logits", "predictions", "confidence",
                     "vote_counts"):
            _assert_bitwise(getattr(decoded, name), getattr(result, name))
        assert (decoded.num_samples, decoded.seed, decoded.request_id) == \
            (num_samples, seed, request_id)

    def test_data_starts_eight_byte_aligned(self):
        frame = encode_frame({"model": "m"}, {"images": np.ones(3)})
        (header_length,) = struct.unpack_from("<I", frame, 4)
        assert (8 + header_length) % 8 == 0
        assert frame[:4] == FRAME_MAGIC


def _raw_frame(header=None, data=b"", magic=FRAME_MAGIC, header_bytes=None):
    """A frame assembled by hand, so any part of it can be wrong."""
    if header_bytes is None:
        header_bytes = json.dumps(header).encode("utf-8")
    return struct.pack("<4sI", magic, len(header_bytes)) + header_bytes + data


def _images_header(dtype="float64", shape=(2, 3), offset=0, **arrays):
    table = {"images": {"dtype": dtype, "shape": shape, "offset": offset}}
    table.update(arrays)
    return {"model": "m", "bits": 4, "mapping": "acm",
            "num_samples": 3, "arrays": table}


_IMAGES = np.zeros((2, 3)).tobytes()

MALFORMED_FRAMES = {
    "empty": b"",
    "shorter than the prefix": FRAME_MAGIC + b"\x01\x00",
    "header length past the end": struct.pack("<4sI", FRAME_MAGIC, 1 << 20)
    + b"{}",
    "non-JSON header": _raw_frame(header_bytes=b"{not json"),
    "non-UTF-8 header": _raw_frame(header_bytes=b"\xff\xfe"),
    "non-object header": _raw_frame(header_bytes=b"[1, 2]"),
    "too deeply nested header": _raw_frame(header_bytes=b"[" * 100_000),
    "bad magic": _raw_frame(_images_header(), _IMAGES, magic=b"RPF0"),
    "no arrays table": _raw_frame({"model": "m", "mapping": "acm"}),
    "arrays table not an object": _raw_frame(
        {"model": "m", "mapping": "acm", "arrays": [1]}),
    "array spec not an object": _raw_frame(
        {"model": "m", "mapping": "acm", "arrays": {"images": 5}}),
    "missing images": _raw_frame({"model": "m", "mapping": "acm",
                                  "arrays": {}}),
    "unknown dtype": _raw_frame(_images_header(dtype="complex128"),
                                _IMAGES * 2),
    "non-string dtype": _raw_frame(_images_header(dtype=8), _IMAGES),
    "bool extent": _raw_frame(_images_header(shape=(True, 6)), _IMAGES),
    "negative extent": _raw_frame(_images_header(shape=(-2, -3)), _IMAGES),
    "string shape": _raw_frame(_images_header(shape="2x3"), _IMAGES),
    "more than MAX_WIRE_ELEMENTS, no backing bytes": _raw_frame(
        _images_header(shape=(MAX_WIRE_ELEMENTS + 1,))),
    "bool offset": _raw_frame(_images_header(offset=False), _IMAGES),
    "negative offset": _raw_frame(_images_header(offset=-8), _IMAGES),
    "array overruns the frame": _raw_frame(_images_header(shape=(4, 3)),
                                           _IMAGES),
    "arrays overlap": _raw_frame(
        _images_header(extra={"dtype": "int64", "shape": [1], "offset": 0}),
        _IMAGES + bytes(8)),
    "arrays leave a gap": _raw_frame(_images_header(offset=8),
                                     bytes(8) + _IMAGES),
    "trailing bytes": _raw_frame(_images_header(), _IMAGES + bytes(8)),
    "field also sent as an array": _raw_frame(
        _images_header(model={"dtype": "int64", "shape": [], "offset": 48}),
        _IMAGES + bytes(8)),
    "NaN": _raw_frame(_images_header(),
                      np.array([[0, 0, np.nan], [0, 0, 0]]).tobytes()),
    "Inf": _raw_frame(_images_header(dtype="float32"),
                      np.array([0, -np.inf, 0, 0, 0, 0],
                               dtype="<f4").tobytes()),
}

_FRAME_DECODERS = (decode_predict_request_frame,
                   decode_ensemble_request_frame,
                   decode_predict_result_frame,
                   decode_ensemble_result_frame)


class _UnreachableBackend:
    """A backend no malformed frame may reach."""

    def predict_request(self, request):
        raise AssertionError(f"malformed frame reached the backend: {request}")

    ensemble_request = predict_request


@pytest.fixture(scope="module")
def edge():
    core = EdgeCore(_UnreachableBackend())
    yield core
    core.jobs.close()


def _post_frame(core, path, frame):
    return core.handle("POST", path, {"content-type": FRAME_CONTENT_TYPE,
                                      "content-length": str(len(frame))},
                       frame)


class TestMalformedFrames:
    def test_the_valid_base_frame_decodes(self):
        # Every malformed case is one edit away from this frame.
        request = decode_ensemble_request_frame(
            _raw_frame(_images_header(), _IMAGES))
        assert request.images.shape == (2, 3)

    @pytest.mark.parametrize("frame", MALFORMED_FRAMES.values(),
                             ids=MALFORMED_FRAMES.keys())
    def test_codec_raises_invalid_request(self, frame):
        for decoder in _FRAME_DECODERS:
            with pytest.raises(InvalidRequest):
                decoder(frame)

    @pytest.mark.parametrize("frame", MALFORMED_FRAMES.values(),
                             ids=MALFORMED_FRAMES.keys())
    @pytest.mark.parametrize("path", ["/v1/predict",
                                      "/v1/predict_under_variation"])
    def test_edge_answers_400_invalid_request(self, edge, path, frame):
        response = _post_frame(edge, path, frame)
        assert response.status == 400
        assert response.content_type == "application/json"
        assert json.loads(response.payload)["error"]["code"] == \
            "invalid_request"

    def test_frame_without_content_length_is_400(self, edge):
        response = edge.handle("POST", "/v1/predict",
                               {"content-type": FRAME_CONTENT_TYPE}, None)
        assert response.status == 400
        assert "Content-Length" in json.loads(response.payload)["error"][
            "message"]

    def test_oversized_shape_allocates_nothing(self):
        frame = MALFORMED_FRAMES[
            "more than MAX_WIRE_ELEMENTS, no backing bytes"]
        tracemalloc.start()
        try:
            with pytest.raises(InvalidRequest):
                decode_predict_request_frame(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(cut=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_every_truncation_is_invalid(self, cut):
        frame = encode_predict_request_frame(PredictRequest(
            images=np.ones((2, 3, 4)), model="m", mapping="acm"))
        with pytest.raises(InvalidRequest):
            decode_predict_request_frame(frame[:cut % len(frame)])

    @given(position=st.integers(0, 10_000), value=st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_corrupted_bytes_never_crash(self, position, value):
        frame = bytearray(encode_ensemble_request_frame(EnsembleRequest(
            images=np.ones((2, 3)), model="m", mapping="acm", num_samples=3)))
        frame[position % len(frame)] = value
        try:
            request = decode_ensemble_request_frame(bytes(frame))
        except InvalidRequest:
            return
        assert isinstance(request, EnsembleRequest)

    @given(garbage=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_garbage_after_the_magic_never_crashes(self, edge, garbage):
        frame = FRAME_MAGIC + garbage
        response = _post_frame(edge, "/v1/predict", frame)
        assert response.status == 400
