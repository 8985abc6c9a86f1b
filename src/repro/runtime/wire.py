"""Wire-format helpers: ndarray payloads for the serving protocol.

The HTTP front-end (:mod:`repro.serve.http`) carries arrays either inside
JSON bodies or in binary frames.  Two JSON payload forms are supported:

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

:func:`decode_array` accepts either form.

A **frame** (:func:`encode_frame` / :func:`decode_frame`) carries a whole
body without text encoding, in the safetensors layout:

* 4 magic bytes, :data:`FRAME_MAGIC`, then the header length as a
  little-endian u32;
* the header: a UTF-8 JSON object holding the body's scalar fields plus
  ``"arrays": {name: {"dtype", "shape", "offset"}}``, space-padded so the
  data starts 8-byte aligned;
* the data: each array's raw C-order little-endian bytes.  ``offset``
  counts from the start of the data; the arrays tile it exactly, with no
  gap, overlap or trailing byte.

Frames are ~25% smaller than the packed form and skip the base64 and JSON
string passes over the array bytes.  Both decoders apply the same checks:
the :data:`WIRE_DTYPES` whitelist, non-negative int extents with at most
:data:`MAX_WIRE_ELEMENTS` elements (checked before any allocation), an
exact byte count, finite floats only, and one copy into a native-order,
writable array.  Malformed payloads raise :class:`WireFormatError`, a
``ValueError`` subclass the HTTP layer maps to a 400 response.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import struct
from typing import Any, Dict, Mapping, Tuple, Union

import numpy as np

#: A bytes-like body: what a transport hands to the decoders.
Buffer = Union[bytes, bytearray, memoryview]

#: dtypes a packed payload may declare.  The serving protocol deals in
#: float tensors (images, logits) plus the integer aggregates of ensemble
#: responses (votes, predictions); anything else is rejected up front
#: rather than round-tripped blindly.
WIRE_DTYPES = ("float32", "float64", "int32", "int64")

#: Upper bound on the number of elements a single payload may declare.
#: Guards the server against a tiny JSON body that fans out into an
#: enormous allocation (e.g. ``"shape": [2**40]`` with no data to back it).
MAX_WIRE_ELEMENTS = 1 << 27  # 128M elements, i.e. 1 GiB of float64

#: First four bytes of every frame ("repro frame", layout 1).
FRAME_MAGIC = b"RPF1"

#: The fixed frame prefix: magic, then the header length (u32 LE).
_FRAME_PREFIX = struct.Struct("<4sI")

WirePayload = Union[dict, list]


class WireFormatError(ValueError):
    """A payload that does not describe a well-formed array."""


def encode_array(array: np.ndarray) -> dict:
    """Render ``array`` as a packed JSON-serialisable payload.

    The raw bytes (little-endian, C order) are base64-encoded alongside
    shape and the array's own dtype; cast before encoding to send another.
    """
    array = np.asarray(array)
    return {
        "shape": list(array.shape),
        "dtype": array.dtype.name,
        "data": base64.b64encode(_little_endian(array).tobytes()).decode("ascii"),
    }


def _little_endian(array: np.ndarray) -> np.ndarray:
    """``array``'s C-order little-endian form (no copy when it already is)."""
    if array.dtype.name not in WIRE_DTYPES:
        raise WireFormatError(
            f"dtype {array.dtype.name!r} is not wire-encodable; "
            f"expected one of {WIRE_DTYPES}"
        )
    return np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))


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
    dtype = _wire_dtype(payload["dtype"], "dtype")
    shape, elements = _checked_shape(payload["shape"], "shape")
    if not isinstance(payload["data"], str):
        raise WireFormatError("packed data must be a base64 string")
    try:
        raw = base64.b64decode(payload["data"].encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as error:
        raise WireFormatError(f"invalid base64 data: {error}") from None
    if len(raw) != elements * dtype.itemsize:
        raise WireFormatError(
            f"payload holds {len(raw)} bytes but shape {shape} of "
            f"{dtype.name} needs {elements * dtype.itemsize}"
        )
    return _native_copy(np.frombuffer(raw, dtype=dtype).reshape(shape))


def _wire_dtype(name: Any, field: str) -> np.dtype:
    """The little-endian dtype a payload's ``field`` names, if whitelisted."""
    if not isinstance(name, str) or name not in WIRE_DTYPES:
        raise WireFormatError(
            f"{field} {name!r} is not wire-decodable; "
            f"expected one of {WIRE_DTYPES}"
        )
    return np.dtype(name).newbyteorder("<")


def _is_count(value: Any) -> bool:
    """A non-negative int that is not a bool (``True`` is an int)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _checked_shape(shape: Any, field: str) -> Tuple[Tuple[int, ...], int]:
    """Validate a declared shape; returns it with its element count.

    The count is bounded by :data:`MAX_WIRE_ELEMENTS` here, before any
    caller allocates or reads a byte for it.
    """
    if not isinstance(shape, (list, tuple)) or not all(map(_is_count, shape)):
        raise WireFormatError(
            f"{field} must be a list of non-negative ints, got {shape!r}"
        )
    elements = math.prod(shape)
    if elements > MAX_WIRE_ELEMENTS:
        raise WireFormatError(
            f"{field} declares {elements} elements, over the "
            f"{MAX_WIRE_ELEMENTS} limit"
        )
    return tuple(shape), elements


def _native_copy(view: np.ndarray) -> np.ndarray:
    """Copy a little-endian view of wire bytes into a native, writable array.

    Downstream code treats request arrays as ordinary ndarrays; NaN and
    Inf are refused, since a JSON response could never carry them back.
    """
    array = view.astype(view.dtype.newbyteorder("="))
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise WireFormatError("payload contains non-finite values")
    return array


# ---------------------------------------------------------------------- #
# Binary frames
# ---------------------------------------------------------------------- #
def encode_frame(fields: Mapping[str, Any], arrays: Mapping[str, np.ndarray]) -> bytes:
    """Render scalar ``fields`` and named ``arrays`` as one binary frame.

    ``fields`` must be JSON-serialisable (finite floats only) and must not
    use the reserved key ``"arrays"``.  Each array keeps its own dtype,
    which must be one of :data:`WIRE_DTYPES`.
    """
    if "arrays" in fields:
        raise WireFormatError("frame fields may not use the reserved key 'arrays'")
    table: Dict[str, Dict[str, Any]] = {}
    chunks = []
    offset = 0
    for name, array in arrays.items():
        array = np.asarray(array)
        packed = _little_endian(array)
        table[name] = {"dtype": array.dtype.name, "shape": list(array.shape),
                       "offset": offset}
        chunks.append(packed)
        offset += packed.nbytes
    header = json.dumps({**fields, "arrays": table}, allow_nan=False,
                        separators=(",", ":")).encode("utf-8")
    header += b" " * (-(_FRAME_PREFIX.size + len(header)) % 8)
    return b"".join([_FRAME_PREFIX.pack(FRAME_MAGIC, len(header)), header, *chunks])


def decode_frame(frame: Buffer) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Parse one frame (any bytes-like object) into its scalar fields and
    its arrays.

    Every structural check runs before any array is allocated; see the
    module docstring for the layout and the checks.  The arrays are copies:
    nothing returned refers into ``frame``, so its buffer may be reused.
    """
    if len(frame) < _FRAME_PREFIX.size:
        raise WireFormatError(
            f"frame of {len(frame)} bytes is shorter than its "
            f"{_FRAME_PREFIX.size}-byte prefix"
        )
    magic, header_length = _FRAME_PREFIX.unpack_from(frame)
    if magic != FRAME_MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}, expected {FRAME_MAGIC!r}")
    start = _FRAME_PREFIX.size + header_length
    if start > len(frame):
        raise WireFormatError(
            f"frame header of {header_length} bytes runs past the end of "
            f"a {len(frame)}-byte frame"
        )
    try:
        header = json.loads(str(frame[_FRAME_PREFIX.size:start], "utf-8"))
    except (ValueError, RecursionError) as error:  # bad UTF-8, JSON, nesting
        raise WireFormatError(f"frame header is not valid JSON: {error}") from None
    if not isinstance(header, dict):
        raise WireFormatError("frame header must be a JSON object")
    table = header.pop("arrays", None)
    if not isinstance(table, dict):
        raise WireFormatError("frame header must carry an 'arrays' object")
    layout = []
    for name, spec in table.items():
        field = f"arrays.{name}"
        if not isinstance(spec, dict):
            raise WireFormatError(f"{field} must be an object, got {spec!r}")
        dtype = _wire_dtype(spec.get("dtype"), f"{field}.dtype")
        shape, elements = _checked_shape(spec.get("shape"), f"{field}.shape")
        offset = spec.get("offset")
        if not _is_count(offset):
            raise WireFormatError(
                f"{field}.offset must be a non-negative int, got {offset!r}"
            )
        layout.append((offset, elements * dtype.itemsize, name, dtype, shape))
    layout.sort(key=lambda entry: (entry[0], entry[1]))
    size = len(frame) - start
    cursor = 0
    for offset, nbytes, name, _, _ in layout:
        if offset != cursor:
            problem = "overlaps an earlier array" if offset < cursor \
                else "leaves a gap before it"
            raise WireFormatError(
                f"array {name!r} at data offset {offset} {problem} "
                f"(expected offset {cursor})"
            )
        cursor += nbytes
        if cursor > size:
            raise WireFormatError(
                f"array {name!r} needs data bytes {offset}..{cursor} but the "
                f"frame carries {size}"
            )
    if cursor != size:
        raise WireFormatError(
            f"frame carries {size - cursor} trailing bytes after its arrays"
        )
    arrays = {
        name: _native_copy(np.frombuffer(
            frame, dtype=dtype, count=nbytes // dtype.itemsize,
            offset=start + offset,
        ).reshape(shape))
        for offset, nbytes, name, dtype, shape in layout
    }
    return header, arrays
