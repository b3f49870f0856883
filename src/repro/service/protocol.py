"""Newline-delimited JSON wire protocol of the allocation service.

One request per line, one response line per request, strictly in
request order per connection.  Requests are JSON objects carrying an
``op`` and an optional client-chosen ``id`` that is echoed verbatim in
the response — the full vocabulary, with examples, is documented in
``docs/SERVICE.md``.

The same operation documents double as WAL entries and as the in-
process API's wire format, so validation lives here, once:
:func:`validate_request` rejects malformed documents *before* they are
enqueued or logged (an invalid document must never reach the WAL, where
replay would trip over it).
"""

from __future__ import annotations

import json
from math import inf, nan
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.core.resources import Resource
from repro.service.shards import MUTATING_OPS, OP_RECORD, OP_RETRY

__all__ = [
    "ProtocolError",
    "ADMIN_OPS",
    "MAX_LINE_BYTES",
    "MAX_KEY_BYTES",
    "ERROR_CODES",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_OP",
    "ERR_TOO_LARGE",
    "ERR_TIMEOUT",
    "ERR_OVERLOADED",
    "ERR_SHUTTING_DOWN",
    "ERR_STORAGE",
    "ERR_INTERNAL",
    "RETRYABLE_CODES",
    "parse_line",
    "validate_request",
    "validate_batch",
    "encode",
    "ok_response",
    "error_response",
]

#: One encoder for every line: ``json.dumps`` with non-default options
#: builds a fresh one per call.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode

#: Read-only / control operations the server answers without touching a
#: shard queue.
ADMIN_OPS = ("ping", "stats", "health", "snapshot", "shutdown")

#: Everything the front end accepts.
REQUEST_OPS = MUTATING_OPS + ("allocate_batch",) + ADMIN_OPS

#: Ceiling on one request line; protects the server from an unframed
#: client streaming garbage into memory.
MAX_LINE_BYTES = 1 << 20

#: Ceiling on a client idempotency key (it is WAL-logged and snapshot-
#: carried; an unbounded key would bloat the durability layer).
MAX_KEY_BYTES = 256

# Typed error codes.  Remote clients only ever see a code plus a safe
# message; internal exception detail is logged server-side (never
# leaked to the wire).  Clients key their retry policy off the code.
ERR_BAD_REQUEST = "bad_request"  # malformed document; retrying is futile
ERR_UNKNOWN_OP = "unknown_op"  # unrecognized request type
ERR_TOO_LARGE = "too_large"  # request line over MAX_LINE_BYTES; disconnected
ERR_TIMEOUT = "timeout"  # per-connection read deadline expired; disconnected
ERR_OVERLOADED = "overloaded"  # connection/in-flight bound hit; honor retry_after
ERR_SHUTTING_DOWN = "shutting_down"  # daemon is draining; reconnect later
ERR_STORAGE = "storage_unavailable"  # disk refusing writes; honor retry_after
ERR_INTERNAL = "internal"  # unexpected server error; detail logged server-side

ERROR_CODES = (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_OP,
    ERR_TOO_LARGE,
    ERR_TIMEOUT,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_STORAGE,
    ERR_INTERNAL,
)

#: Error codes a client may safely retry after (with backoff, and an
#: idempotency key for mutating operations).  ``storage_unavailable`` is
#: retryable even *without* a key: the refused batch rolled back before
#: anything was applied, so the retry is not ambiguous.
RETRYABLE_CODES = (ERR_OVERLOADED, ERR_TIMEOUT, ERR_SHUTTING_DOWN, ERR_STORAGE)


class ProtocolError(ValueError):
    """A request document is malformed; the connection stays usable.

    Carries the typed wire code (default ``bad_request``) so the server
    can answer with machine-readable errors without string matching.
    """

    def __init__(self, message: str, code: str = ERR_BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code


def parse_line(line: bytes) -> Dict[str, Any]:
    """Decode one request line into a document, or raise ProtocolError."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes", code=ERR_TOO_LARGE
        )
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("request must be a JSON object")
    return doc


def _require_str(doc: Mapping[str, Any], key: str) -> None:
    if not isinstance(doc.get(key), str) or not doc[key]:
        raise ProtocolError(f"{doc.get('op')}: {key!r} must be a non-empty string")


def _require_int(doc: Mapping[str, Any], key: str) -> None:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{doc.get('op')}: {key!r} must be an integer")
    # JSON integers are unbounded; the record store keeps int64.
    if not -(2**63) <= value < 2**63:
        raise ProtocolError(f"{doc.get('op')}: {key!r} must fit a signed 64-bit integer")


def _as_float(number: float) -> float:
    """``number`` as the float the allocator will use; NaN when it has none.

    json.loads accepts NaN/Infinity and unbounded integers: an int past
    float range compares below ``inf`` exactly, then fails to convert in
    the allocator, after the op took a seq and reached the WAL.  NaN
    fails every chained range check the callers make.
    """
    try:
        return float(number)
    except OverflowError:
        return nan


def _require_vector(
    doc: Mapping[str, Any], key: str, resources: Sequence[Resource]
) -> None:
    value = doc.get(key)
    if not isinstance(value, dict) or not value:
        raise ProtocolError(
            f"{doc.get('op')}: {key!r} must be a non-empty "
            "{resource: value} object"
        )
    managed = {res.key for res in resources}
    for res_key, magnitude in value.items():
        if res_key not in managed:
            raise ProtocolError(
                f"{doc.get('op')}: {key!r} names unmanaged resource {res_key!r} "
                f"(managed: {sorted(managed)})"
            )
        if isinstance(magnitude, bool) or not isinstance(magnitude, (int, float)):
            raise ProtocolError(
                f"{doc.get('op')}: {key!r}[{res_key!r}] must be a number"
            )
        if not 0 <= _as_float(magnitude) < inf:
            raise ProtocolError(
                f"{doc.get('op')}: {key!r}[{res_key!r}] must be finite and >= 0"
            )


def validate_request(doc: Mapping[str, Any], resources: Sequence[Resource]) -> None:
    """Schema-check one request document (a batch's nested requests too)."""
    op = doc.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(REQUEST_OPS)}",
            code=ERR_UNKNOWN_OP,
        )
    if op in ADMIN_OPS:
        return
    key = doc.get("key")
    if key is not None:
        if not isinstance(key, str) or not key:
            raise ProtocolError(
                f"{op}: 'key' must be a non-empty string when given"
            )
        if len(key.encode("utf-8")) > MAX_KEY_BYTES:
            raise ProtocolError(
                f"{op}: idempotency key exceeds {MAX_KEY_BYTES} bytes"
            )
    if op == "allocate_batch":
        validate_batch(doc.get("requests"), resources)
        return
    _require_str(doc, "category")
    _require_int(doc, "task_id")
    if op == OP_RETRY:
        _require_vector(doc, "previous", resources)
        _require_vector(doc, "observed", resources)
        exhausted = doc.get("exhausted")
        if not isinstance(exhausted, list) or not exhausted:
            raise ProtocolError(
                "allocate_retry: 'exhausted' must be a non-empty list of resource keys"
            )
        managed = {res.key for res in resources}
        for key in exhausted:
            if key not in managed:
                raise ProtocolError(
                    f"allocate_retry: exhausted resource {key!r} is not managed "
                    f"(managed: {sorted(managed)})"
                )
    elif op == OP_RECORD:
        _require_vector(doc, "peaks", resources)
        significance = doc.get("significance")
        if significance is not None and (
            isinstance(significance, bool)
            or not isinstance(significance, (int, float))
            or not 0 < _as_float(significance) < inf
        ):
            raise ProtocolError(
                "record: 'significance' must be a finite number > 0 when given"
            )


def validate_batch(requests: Any, resources: Sequence[Resource]) -> None:
    """Schema-check a batch: a non-empty list, then each request in order.

    The one check of a batch, whichever entry point it came through:
    each nested request must be an object holding a mutating op (so a
    batch never nests) with a valid body.
    """
    if not isinstance(requests, list) or not requests:
        raise ProtocolError("allocate_batch: 'requests' must be a non-empty list")
    for sub in requests:
        if not isinstance(sub, dict):
            raise ProtocolError("allocate_batch: every request must be an object")
        if sub.get("op") not in MUTATING_OPS:
            raise ProtocolError(
                f"allocate_batch: nested op must be one of {sorted(MUTATING_OPS)}"
            )
        validate_request(sub, resources)


def encode(doc: Mapping[str, Any]) -> bytes:
    """One response/request document as a compact JSON line."""
    return (_compact_json(doc) + "\n").encode("utf-8")


def ok_response(request_id: Optional[Any], result: Mapping[str, Any]) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"ok": True, "result": dict(result)}
    if request_id is not None:
        doc["id"] = request_id
    return doc


def error_response(
    request_id: Optional[Any],
    code: str,
    message: str,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    """A typed error document: ``{"ok": false, "error": {code, message}}``.

    ``retry_after`` (seconds) is attached for overload shedding so
    well-behaved clients back off by at least that much before retrying.
    """
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    doc: Dict[str, Any] = {"ok": False, "error": error}
    if request_id is not None:
        doc["id"] = request_id
    return doc
