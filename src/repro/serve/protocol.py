"""The gateway wire format: JSON lines over TCP.

One request or response per line, UTF-8 JSON, ``\\n``-terminated.  The
framing is deliberately primitive — any language with a socket and a
JSON parser is a client — and mirrors the paper's stance that the gate
interface must be simple enough to check at the boundary.

Client verbs:

``hello``
    ``{"verb": "hello", "user": NAME, "ring": N}`` — authenticate the
    session and bind it to a ring.  Must precede any ``call``.
``call``
    ``{"verb": "call", "id": ID, "program": NAME, "args": {...}}`` —
    execute one named gate call (see :mod:`repro.serve.catalog`) on a
    worker machine, in the session's ring, as the session's user.
``stats``
    gateway counters, merged metrics, and per-worker snapshots.
``bye``
    close the session cleanly.

Responses echo the request ``id`` when one was given and carry
``"ok": true`` plus verb-specific fields, or ``"ok": false`` with an
``error`` code from :class:`ErrorCode`.  Backpressure rejections
(``rate_limited``, ``queue_full``, ``shutting_down``) additionally carry
``retry_after`` (seconds): the client is expected to honour it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..errors import ReproError

#: hard cap on one request line; longer lines are a protocol error
MAX_LINE_BYTES = 1 << 16


class GatewayProtocolError(ReproError):
    """A request line could not be parsed as a protocol message."""


class ErrorCode:
    """Error codes a response's ``error`` field may carry."""

    BAD_REQUEST = "bad_request"
    AUTH_REQUIRED = "auth_required"
    UNKNOWN_PROGRAM = "unknown_program"
    RATE_LIMITED = "rate_limited"
    QUEUE_FULL = "queue_full"
    TIMEOUT = "timeout"
    MACHINE_FAULT = "machine_fault"
    SHUTTING_DOWN = "shutting_down"
    #: the worker failed in a way no request can cause (a bug, or a
    #: dead pool that stayed dead across every retry)
    INTERNAL = "internal"

    #: the rejection codes that promise a ``retry_after`` hint
    RETRYABLE = (RATE_LIMITED, QUEUE_FULL, SHUTTING_DOWN)


def encode(message: Dict[str, Any]) -> bytes:
    """One message as a JSON line, ready for the socket."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict.

    Raises :class:`GatewayProtocolError` for anything that is not a
    single JSON object — the gateway answers those with ``bad_request``
    rather than dying.
    """
    if len(line) > MAX_LINE_BYTES:
        raise GatewayProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise GatewayProtocolError(f"malformed JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise GatewayProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def ok_response(request_id: Optional[Any] = None, **fields: Any) -> Dict[str, Any]:
    """A success response, echoing the request id when present."""
    response: Dict[str, Any] = {"ok": True}
    if request_id is not None:
        response["id"] = request_id
    response.update(fields)
    return response


def error_response(
    code: str, request_id: Optional[Any] = None, **fields: Any
) -> Dict[str, Any]:
    """A failure response carrying an :class:`ErrorCode` code."""
    response: Dict[str, Any] = {"ok": False, "error": code}
    if request_id is not None:
        response["id"] = request_id
    response.update(fields)
    return response
