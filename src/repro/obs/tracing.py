"""Per-request ids threaded across every transport of the serving stack.

A request id is a short opaque token that travels with one logical
request through every hop — client, HTTP edge, scheduler lane, cluster
pipe protocol, worker — so a single grep over structured logs
reconstructs its path.  Clients may mint their own (any string matching
the grammar below); anything that receives a request without one assigns
a fresh server-side id via :func:`ensure_request_id`.

Over HTTP the id rides in the ``X-Request-Id`` header (echoed on every
response); over the in-process and cluster transports it rides in the
``request_id`` field of the typed request/result dataclasses.
"""

from __future__ import annotations

import re
import uuid
from typing import Optional

#: HTTP header carrying the request id (request and response).
REQUEST_ID_HEADER = "X-Request-Id"

# Conservative grammar: printable, header-safe, bounded.  First character
# alphanumeric so ids never look like header-continuation whitespace.
_REQUEST_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:\-]{0,127}$")


def new_request_id() -> str:
    """Mint a fresh server-assigned request id (32 hex chars)."""
    return uuid.uuid4().hex


def valid_request_id(value: object) -> bool:
    """True when ``value`` is a string matching the request-id grammar."""
    return isinstance(value, str) and _REQUEST_ID.match(value) is not None


def ensure_request_id(value: Optional[str]) -> str:
    """Return ``value`` when it is a valid id, else mint a fresh one.

    Invalid ids are replaced rather than rejected: tracing is telemetry,
    not validation, and must never fail a request.
    """
    if value is not None and valid_request_id(value):
        return value
    return new_request_id()
