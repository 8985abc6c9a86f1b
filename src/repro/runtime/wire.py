"""Wire-format helpers: ndarray payloads for the JSON serving protocol.

The HTTP front-end (:mod:`repro.serve.http`) carries arrays inside JSON
bodies.  Two payload forms are supported:

* **Packed** — a dict ``{"shape": [...], "dtype": "float32", "data":
  "<base64>"}`` holding the raw little-endian array bytes base64-encoded.
  This is the compact form: a float32-packed image batch is ~7x smaller on
  the wire than its JSON-digit rendering, and float64 packing round-trips
  the exact bits, which is what makes HTTP responses certifiably
  bit-equivalent to in-process results.  :func:`encode_array` always
  produces this form.
* **Nested lists** — a plain JSON array (e.g. ``[[0.1, 0.2], ...]``), the
  zero-tooling form any client can produce by hand (requests only).
  Python's JSON float rendering is shortest-round-trip, so float64 values
  survive a list round trip exactly too.

:func:`decode_array` accepts either form.  Malformed payloads raise
:class:`WireFormatError`, a ``ValueError`` subclass the HTTP layer maps to
a 400 response.
"""

from __future__ import annotations

import base64
import binascii
import math
from typing import Union

import numpy as np

#: dtypes a packed payload may declare.  The serving protocol deals in
#: float tensors (images, logits) plus the integer aggregates of ensemble
#: responses (votes, predictions); anything else is rejected up front
#: rather than round-tripped blindly.
WIRE_DTYPES = ("float32", "float64", "int32", "int64")

#: Upper bound on the number of elements a single payload may declare.
#: Guards the server against a tiny JSON body that fans out into an
#: enormous allocation (e.g. ``"shape": [2**40]`` with no data to back it).
MAX_WIRE_ELEMENTS = 1 << 27  # 128M elements, i.e. 1 GiB of float64

WirePayload = Union[dict, list]


class WireFormatError(ValueError):
    """A payload that does not describe a well-formed array."""


def encode_array(array: np.ndarray) -> dict:
    """Render ``array`` as a packed JSON-serialisable payload.

    The raw bytes (little-endian, C order) are base64-encoded alongside
    shape and the array's own dtype; cast before encoding to send another.
    """
    array = np.asarray(array)
    if array.dtype.name not in WIRE_DTYPES:
        raise WireFormatError(
            f"dtype {array.dtype.name!r} is not wire-encodable; "
            f"expected one of {WIRE_DTYPES}"
        )
    packed = np.ascontiguousarray(array.astype(array.dtype.newbyteorder("<")))
    return {
        "shape": list(array.shape),
        "dtype": array.dtype.name,
        "data": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def decode_array(payload: WirePayload) -> np.ndarray:
    """Parse a request payload (packed dict or nested lists) to an ndarray.

    Lists decode to float64; packed payloads keep their declared dtype.
    Any structural problem — ragged lists, unknown dtype, byte count not
    matching the declared shape, invalid base64 — raises
    :class:`WireFormatError`.
    """
    if isinstance(payload, dict):
        return _decode_packed(payload)
    if isinstance(payload, (list, tuple, int, float)):
        try:
            array = np.asarray(payload, dtype=np.float64)
        except (ValueError, TypeError) as error:
            raise WireFormatError(f"payload is not a numeric array: {error}") from None
        if not np.isfinite(array).all():
            # json.dumps refuses NaN/Inf by default, so a response could
            # never carry them back; reject them on the way in as well.
            raise WireFormatError("payload contains non-finite values")
        return array
    raise WireFormatError(
        f"array payload must be a packed dict or nested lists, "
        f"not {type(payload).__name__}"
    )


def _decode_packed(payload: dict) -> np.ndarray:
    missing = {"shape", "dtype", "data"} - set(payload)
    if missing:
        raise WireFormatError(
            f"packed array payload is missing fields: {sorted(missing)}"
        )
    dtype_name = payload["dtype"]
    if dtype_name not in WIRE_DTYPES:
        raise WireFormatError(
            f"dtype {dtype_name!r} is not wire-decodable; "
            f"expected one of {WIRE_DTYPES}"
        )
    shape = payload["shape"]
    if not isinstance(shape, (list, tuple)) or not all(
        isinstance(extent, int) and extent >= 0 for extent in shape
    ):
        raise WireFormatError(f"shape must be a list of non-negative ints, got {shape!r}")
    elements = math.prod(shape)
    if elements > MAX_WIRE_ELEMENTS:
        raise WireFormatError(
            f"payload declares {elements} elements, over the "
            f"{MAX_WIRE_ELEMENTS} limit"
        )
    if not isinstance(payload["data"], str):
        raise WireFormatError("packed data must be a base64 string")
    try:
        raw = base64.b64decode(payload["data"].encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as error:
        raise WireFormatError(f"invalid base64 data: {error}") from None
    dtype = np.dtype(dtype_name).newbyteorder("<")
    if len(raw) != elements * dtype.itemsize:
        raise WireFormatError(
            f"payload holds {len(raw)} bytes but shape {tuple(shape)} of "
            f"{dtype_name} needs {elements * dtype.itemsize}"
        )
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise WireFormatError("payload contains non-finite values")
    # Native byte order + writability: downstream code treats request
    # arrays as ordinary ndarrays.
    return array.astype(dtype.newbyteorder("="))
