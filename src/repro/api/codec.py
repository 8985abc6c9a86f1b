"""Body codecs between the typed API dataclasses and the wire protocol.

One module owns the translation in both directions, so the HTTP server
(:class:`~repro.serve.http.PlanServer`) and the HTTP client
(:class:`~repro.api.http_client.HttpClient`) can never disagree about the
protocol: the server decodes request bodies with the same functions whose
encoders the client used to produce them, and vice versa for responses.

Predict and ensemble bodies have two forms.  The *frame* form
(``*_frame`` functions, media type :data:`FRAME_CONTENT_TYPE`) is one
:func:`repro.runtime.wire.encode_frame` frame: a length-prefixed JSON
header holding the JSON form's scalar fields (``model``, ``bits``,
``mapping``, the ensemble scalars, ``request_id``) followed by the raw
little-endian bytes of its arrays.  :class:`~repro.api.HttpClient` sends
every predict and ensemble as a frame, and the server answers a frame with
a frame.  The *JSON* form carries arrays as :mod:`repro.runtime.wire`
payloads: responses always base64-packed, requests also as nested lists
(hand-written or ``curl`` bodies).  Study bodies and error bodies are JSON
only.  Both forms round-trip float64 exactly, which is what makes HTTP
responses certifiably bit-equivalent to in-process results.  Any malformed
body raises the typed :class:`~repro.api.errors.InvalidRequest` so the
error a client sees is identical whether the decode failed locally or
server-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.api.errors import (
    ApiBackpressure,
    ApiError,
    InvalidRequest,
    error_for,
    map_exception,
)
from repro.api.types import (
    EnsembleRequest,
    EnsembleResult,
    PredictRequest,
    PredictResult,
    StudyCellResult,
    StudyModel,
    StudyResult,
    StudySpec,
    StudyStatus,
    parse_bits_token,
)
from repro.runtime.wire import decode_array, decode_frame, encode_array, encode_frame

#: Media type of a binary frame body (see :mod:`repro.runtime.wire`).
FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: A body's scalar fields and its named arrays, before either rendering.
_Parts = Tuple[Dict[str, Any], Dict[str, np.ndarray]]


def media_type(content_type: Optional[str]) -> str:
    """The bare, lower-cased media type of a ``Content-Type`` value."""
    return (content_type or "").split(";", 1)[0].strip().lower()


@dataclass(frozen=True)
class _FrameArray:
    """An array :func:`decode_frame` already validated, in a body field.

    JSON never decodes to this type, so a JSON body cannot smuggle an
    unchecked array past :func:`_decode_images`.
    """

    array: np.ndarray


def _json_form(parts: _Parts) -> Dict[str, Any]:
    body, arrays = parts
    body.update((name, encode_array(array)) for name, array in arrays.items())
    return body


def _frame_form(parts: _Parts) -> bytes:
    frame: bytes = encode_frame(*parts)
    return frame


def _frame_body(frame: bytes) -> Dict[str, Any]:
    """A frame as the field mapping the JSON-body decoders read."""
    try:
        fields, arrays = decode_frame(frame)
    except Exception as error:  # WireFormatError -> typed
        raise map_exception(error) from error
    clash = sorted(set(fields) & set(arrays))
    if clash:
        raise InvalidRequest(f"frame fields {clash} are also frame arrays")
    body: Dict[str, Any] = fields
    body.update((name, _FrameArray(array)) for name, array in arrays.items())
    return body


def _check_encoding(body: Mapping[str, Any]) -> None:
    """Reject a request body asking for any response form but b64.

    The field is optional; older clients and study checkpoints send
    ``"b64"``, so that value stays accepted.
    """
    encoding = body.get("encoding", "b64")
    if encoding != "b64":
        raise InvalidRequest(f"encoding must be 'b64', not {encoding!r}")


def _require(body: Mapping[str, Any], field: str) -> Any:
    if field not in body:
        raise InvalidRequest(f"missing required field {field!r}")
    return body[field]


def _decode_images(payload: Any) -> np.ndarray:
    if isinstance(payload, _FrameArray):
        return payload.array
    try:
        return np.asarray(decode_array(payload))
    except ApiError:
        raise
    except Exception as error:  # WireFormatError and friends -> typed
        raise map_exception(error) from error


def _decode_bits(value: Any) -> Optional[int]:
    """The ``bits`` request field: int, null, or a canonical token."""
    if value is None or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    if isinstance(value, str):
        return parse_bits_token(value)
    raise InvalidRequest(f"bits must be an int, null, or token, not {value!r}")


def _key_fields(body: Mapping[str, Any]) -> Tuple[str, Optional[int], str]:
    model = _require(body, "model")
    mapping = _require(body, "mapping")
    if not isinstance(model, str):
        raise InvalidRequest("model must be a string")
    if not isinstance(mapping, str):
        raise InvalidRequest("mapping must be a string")
    return model, _decode_bits(body.get("bits")), mapping


# ---------------------------------------------------------------------- #
# Requests
# ---------------------------------------------------------------------- #
def _predict_request_parts(request: PredictRequest) -> _Parts:
    return (
        {"model": request.model, "bits": request.bits,
         "mapping": request.mapping},
        {"images": np.asarray(request.images)},
    )


def encode_predict_request(request: PredictRequest) -> Dict[str, Any]:
    """Render a :class:`PredictRequest` as a ``POST /v1/predict`` body."""
    return _json_form(_predict_request_parts(request))


def encode_predict_request_frame(request: PredictRequest) -> bytes:
    """Render a :class:`PredictRequest` as a ``POST /v1/predict`` frame."""
    return _frame_form(_predict_request_parts(request))


def decode_predict_request(body: Mapping[str, Any]) -> PredictRequest:
    """Parse a ``POST /v1/predict`` body."""
    model, bits, mapping = _key_fields(body)
    _check_encoding(body)
    return PredictRequest(
        images=_decode_images(_require(body, "images")),
        model=model,
        bits=bits,
        mapping=mapping,
    )


def decode_predict_request_frame(frame: bytes) -> PredictRequest:
    """Parse a ``POST /v1/predict`` frame."""
    return decode_predict_request(_frame_body(frame))


def _ensemble_request_parts(request: EnsembleRequest) -> _Parts:
    return (
        {"model": request.model, "bits": request.bits,
         "mapping": request.mapping,
         "sigma_fraction": request.sigma_fraction,
         "num_samples": request.num_samples, "seed": request.seed},
        {"images": np.asarray(request.images)},
    )


def encode_ensemble_request(request: EnsembleRequest) -> Dict[str, Any]:
    """Render an :class:`EnsembleRequest` as a ``POST /v1/predict_under_variation`` body."""
    return _json_form(_ensemble_request_parts(request))


def encode_ensemble_request_frame(request: EnsembleRequest) -> bytes:
    """Render an :class:`EnsembleRequest` as a ``POST /v1/predict_under_variation`` frame."""
    return _frame_form(_ensemble_request_parts(request))


def decode_ensemble_request(body: Mapping[str, Any]) -> EnsembleRequest:
    """Parse a ``POST /v1/predict_under_variation`` body.

    Field presence and JSON types are checked here; the numeric-range
    invariants (non-negative sigma, positive sample count) live in
    :class:`EnsembleRequest` itself, so they hold for every transport.
    """
    model, bits, mapping = _key_fields(body)
    _check_encoding(body)
    sigma = body.get("sigma_fraction", 0.1)
    if isinstance(sigma, (int, float)) and not isinstance(sigma, bool):
        sigma = float(sigma)
    # Non-numeric sigma (and any bad num_samples/seed) flows into the
    # request constructor unchanged, whose validation raises the same
    # InvalidRequest a local caller would see.
    return EnsembleRequest(
        images=_decode_images(_require(body, "images")),
        model=model,
        bits=bits,
        mapping=mapping,
        sigma_fraction=sigma,
        num_samples=body.get("num_samples", 25),
        seed=body.get("seed", 0),
    )


def decode_ensemble_request_frame(frame: bytes) -> EnsembleRequest:
    """Parse a ``POST /v1/predict_under_variation`` frame."""
    return decode_ensemble_request(_frame_body(frame))


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
def _with_request_id(fields: Dict[str, Any],
                     request_id: Optional[str]) -> Dict[str, Any]:
    if request_id is not None:
        fields["request_id"] = request_id
    return fields


def _predict_result_parts(result: PredictResult) -> _Parts:
    return (
        _with_request_id({"model": result.model, "bits": result.bits,
                          "mapping": result.mapping}, result.request_id),
        {"logits": np.asarray(result.logits)},
    )


def encode_predict_result(result: PredictResult) -> Dict[str, Any]:
    """Render a :class:`PredictResult` as the ``/v1/predict`` response body."""
    return _json_form(_predict_result_parts(result))


def encode_predict_result_frame(result: PredictResult) -> bytes:
    """Render a :class:`PredictResult` as the ``/v1/predict`` response frame."""
    return _frame_form(_predict_result_parts(result))


def _decode_request_id(value: Any) -> Optional[str]:
    return str(value) if value is not None else None


def decode_predict_result(body: Mapping[str, Any]) -> PredictResult:
    """Parse a ``/v1/predict`` response body back into a :class:`PredictResult`."""
    return PredictResult(
        model=str(_require(body, "model")),
        bits=_decode_bits(body.get("bits")),
        mapping=str(_require(body, "mapping")),
        logits=_decode_images(_require(body, "logits")),
        request_id=_decode_request_id(body.get("request_id")),
    )


def decode_predict_result_frame(frame: bytes) -> PredictResult:
    """Parse a ``/v1/predict`` response frame."""
    return decode_predict_result(_frame_body(frame))


def _ensemble_result_parts(result: EnsembleResult) -> _Parts:
    # The integer aggregates travel as int64 and the confidence as
    # float64, matching the in-process dtypes exactly.
    return (
        _with_request_id({"model": result.model, "bits": result.bits,
                          "mapping": result.mapping,
                          "sigma_fraction": result.sigma_fraction,
                          "num_samples": result.num_samples,
                          "seed": result.seed}, result.request_id),
        {"mean_logits": np.asarray(result.mean_logits),
         "predictions": np.asarray(result.predictions, dtype=np.int64),
         "confidence": np.asarray(result.confidence, dtype=np.float64),
         "vote_counts": np.asarray(result.vote_counts, dtype=np.int64)},
    )


def encode_ensemble_result(result: EnsembleResult) -> Dict[str, Any]:
    """Render an :class:`EnsembleResult` as the ensemble response body."""
    return _json_form(_ensemble_result_parts(result))


def encode_ensemble_result_frame(result: EnsembleResult) -> bytes:
    """Render an :class:`EnsembleResult` as the ensemble response frame."""
    return _frame_form(_ensemble_result_parts(result))


def decode_ensemble_result(body: Mapping[str, Any]) -> EnsembleResult:
    """Parse the ensemble response body back into an :class:`EnsembleResult`."""
    sigma = _require(body, "sigma_fraction")
    num_samples = _require(body, "num_samples")
    seed = _require(body, "seed")
    if not isinstance(sigma, (int, float)) or isinstance(sigma, bool):
        raise InvalidRequest(f"sigma_fraction must be a number, not {sigma!r}")
    if not isinstance(num_samples, int) or isinstance(num_samples, bool):
        raise InvalidRequest(f"num_samples must be an int, not {num_samples!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidRequest(f"seed must be an int, not {seed!r}")
    return EnsembleResult(
        model=str(_require(body, "model")),
        bits=_decode_bits(body.get("bits")),
        mapping=str(_require(body, "mapping")),
        mean_logits=_decode_images(_require(body, "mean_logits")),
        predictions=_decode_images(_require(body, "predictions")),
        confidence=_decode_images(_require(body, "confidence")),
        vote_counts=_decode_images(_require(body, "vote_counts")),
        sigma_fraction=float(sigma),
        num_samples=num_samples,
        seed=seed,
        request_id=_decode_request_id(body.get("request_id")),
    )


def decode_ensemble_result_frame(frame: bytes) -> EnsembleResult:
    """Parse an ensemble response frame."""
    return decode_ensemble_result(_frame_body(frame))


# ---------------------------------------------------------------------- #
# Studies
# ---------------------------------------------------------------------- #
def _int_field(value: Any, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidRequest(f"{field} must be an int, not {value!r}")
    return value


def _number_field(value: Any, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidRequest(f"{field} must be a number, not {value!r}")
    return float(value)


def encode_study_spec(spec: StudySpec) -> Dict[str, Any]:
    """Render a :class:`StudySpec` as a ``POST /v1/studies`` body."""
    body: Dict[str, Any] = {
        "models": [
            {"model": m.model, "bits": m.bits, "mapping": m.mapping}
            for m in spec.models
        ],
        "sigmas": list(spec.sigmas),
        "num_samples": spec.num_samples,
        "seed": spec.seed,
        "images": encode_array(np.asarray(spec.images)),
    }
    if spec.labels is not None:
        body["labels"] = encode_array(np.asarray(spec.labels))
    if spec.request_id is not None:
        body["request_id"] = spec.request_id
    return body


def decode_study_spec(body: Mapping[str, Any]) -> StudySpec:
    """Parse a ``POST /v1/studies`` body (also a checkpoint's ``spec``).

    Shape and JSON types are checked here; the value invariants (positive
    counts, finite sigmas, label alignment) live in :class:`StudySpec`
    itself — every malformed body, however it is malformed, raises the
    typed :class:`InvalidRequest` and nothing else.
    """
    if not isinstance(body, Mapping):
        raise InvalidRequest(f"study spec must be an object, not {type(body).__name__}")
    raw_models = _require(body, "models")
    if not isinstance(raw_models, (list, tuple)):
        raise InvalidRequest(
            f"models must be a list of selectors, not {raw_models!r}"
        )
    selectors: List[StudyModel] = []
    for item in raw_models:
        if not isinstance(item, Mapping):
            raise InvalidRequest(
                f"model selectors must be objects, not {item!r}"
            )
        model, bits, mapping = _key_fields(item)
        selectors.append(StudyModel(model=model, mapping=mapping, bits=bits))
    _check_encoding(body)
    labels = body.get("labels")
    return StudySpec(
        images=_decode_images(_require(body, "images")),
        models=tuple(selectors),
        sigmas=body.get("sigmas", (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)),
        num_samples=body.get("num_samples", 25),
        seed=body.get("seed", 0),
        labels=None if labels is None else _decode_images(labels),
        request_id=_decode_request_id(body.get("request_id")),
    )


def encode_study_cell(cell: StudyCellResult) -> Dict[str, Any]:
    """Render one completed study cell (checkpoint / wire form)."""
    return {
        "model": cell.model,
        "bits": cell.bits,
        "mapping": cell.mapping,
        "sigma_fraction": cell.sigma_fraction,
        "mean_logits": encode_array(np.asarray(cell.mean_logits)),
        "predictions": encode_array(
            np.asarray(cell.predictions, dtype=np.int64)
        ),
        "confidence": encode_array(
            np.asarray(cell.confidence, dtype=np.float64)
        ),
        "accuracy": cell.accuracy,
    }


def decode_study_cell(body: Mapping[str, Any]) -> StudyCellResult:
    """Inverse of :func:`encode_study_cell` (bit-exact for b64 arrays)."""
    if not isinstance(body, Mapping):
        raise InvalidRequest(f"study cell must be an object, not {type(body).__name__}")
    model, bits, mapping = _key_fields(body)
    accuracy = body.get("accuracy")
    return StudyCellResult(
        model=model,
        bits=bits,
        mapping=mapping,
        sigma_fraction=_number_field(
            _require(body, "sigma_fraction"), "sigma_fraction"
        ),
        mean_logits=_decode_images(_require(body, "mean_logits")),
        predictions=_decode_images(_require(body, "predictions")),
        confidence=_decode_images(_require(body, "confidence")),
        accuracy=None if accuracy is None
        else _number_field(accuracy, "accuracy"),
    )


def encode_study_result(result: StudyResult) -> Dict[str, Any]:
    """Render a completed :class:`StudyResult`."""
    return {
        "job_id": result.job_id,
        "num_samples": result.num_samples,
        "seed": result.seed,
        "cells": [encode_study_cell(cell) for cell in result.cells],
    }


def decode_study_result(body: Mapping[str, Any]) -> StudyResult:
    """Inverse of :func:`encode_study_result`."""
    if not isinstance(body, Mapping):
        raise InvalidRequest(
            f"study result must be an object, not {type(body).__name__}"
        )
    cells = _require(body, "cells")
    if not isinstance(cells, (list, tuple)):
        raise InvalidRequest(f"cells must be a list, not {cells!r}")
    job_id = _require(body, "job_id")
    if not isinstance(job_id, str) or not job_id:
        raise InvalidRequest(f"job_id must be a non-empty string, not {job_id!r}")
    return StudyResult(
        job_id=job_id,
        cells=tuple(decode_study_cell(cell) for cell in cells),
        num_samples=_int_field(_require(body, "num_samples"), "num_samples"),
        seed=_int_field(_require(body, "seed"), "seed"),
    )


def encode_study_status(status: StudyStatus) -> Dict[str, Any]:
    """Render a :class:`StudyStatus` as the ``GET /v1/studies/{id}`` body."""
    body: Dict[str, Any] = {
        "job_id": status.job_id,
        "state": status.state,
        "cells_total": status.cells_total,
        "cells_done": status.cells_done,
        "retries": status.retries,
    }
    if status.error_code is not None:
        body["error_code"] = status.error_code
        body["error_message"] = status.error_message
    if status.result is not None:
        body["result"] = encode_study_result(status.result)
    return body


def decode_study_status(body: Mapping[str, Any]) -> StudyStatus:
    """Inverse of :func:`encode_study_status`."""
    if not isinstance(body, Mapping):
        raise InvalidRequest(
            f"study status must be an object, not {type(body).__name__}"
        )
    job_id = _require(body, "job_id")
    if not isinstance(job_id, str) or not job_id:
        raise InvalidRequest(f"job_id must be a non-empty string, not {job_id!r}")
    state = _require(body, "state")
    if not isinstance(state, str):
        raise InvalidRequest(f"state must be a string, not {state!r}")
    error_code = body.get("error_code")
    error_message = body.get("error_message")
    if error_code is not None and not isinstance(error_code, str):
        raise InvalidRequest(f"error_code must be a string, not {error_code!r}")
    if error_message is not None and not isinstance(error_message, str):
        raise InvalidRequest(
            f"error_message must be a string, not {error_message!r}"
        )
    result = body.get("result")
    return StudyStatus(
        job_id=job_id,
        state=state,
        cells_total=_int_field(_require(body, "cells_total"), "cells_total"),
        cells_done=_int_field(_require(body, "cells_done"), "cells_done"),
        retries=_int_field(body.get("retries", 0), "retries"),
        error_code=error_code,
        error_message=error_message,
        result=None if result is None else decode_study_result(result),
    )


# ---------------------------------------------------------------------- #
# Errors
# ---------------------------------------------------------------------- #
def encode_error(
    error: BaseException, status: Optional[int] = None, code: Optional[str] = None
) -> Dict[str, Any]:
    """Render any exception as the protocol's JSON error body.

    Non-typed exceptions are folded through
    :func:`~repro.api.errors.map_exception` first so the embedded ``code``
    is always one a client can resolve; ``status`` / ``code`` override the
    mapped values for protocol-level failures (404 path, 405 method, ...)
    that are not typed API errors.
    """
    api = map_exception(error)
    return {"error": {
        "status": api.status if status is None else status,
        "code": api.code if code is None else code,
        "type": type(error).__name__,
        "message": api.message,
    }}


def decode_error(
    body: Any, status: int, retry_after: Optional[float] = None
) -> ApiError:
    """Resurrect the typed error from an error response body.

    ``retry_after`` (parsed from the HTTP header) is attached to
    :class:`~repro.api.errors.ApiBackpressure` instances.
    """
    code = ""
    message = f"HTTP {status}"
    if isinstance(body, Mapping):
        detail = body.get("error")
        if isinstance(detail, Mapping):
            code = str(detail.get("code", ""))
            message = str(detail.get("message", message))
    error = error_for(code, status, message)
    if retry_after is not None and isinstance(error, ApiBackpressure):
        error.retry_after = float(retry_after)
    return error
