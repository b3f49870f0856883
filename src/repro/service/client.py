"""Client SDKs for the allocation service: one session, two transports.

Everything ``docs/SERVICE.md`` asks of a client is decided once, in
:class:`_Session`, which performs no I/O:

* request ``id`` s, and client-generated **idempotency keys**
  (``"<client_id>/<n>"``) on every mutating operation by default, so a
  resend after an *ambiguous* failure — the connection died after the
  request was sent, before a response arrived — is answered
  exactly-once by the server's dedup window rather than double-applied;
* which response line answers the request, and what the answer means;
* when to resend.  A **typed retryable error** (``RETRYABLE_CODES``:
  ``overloaded``, ``timeout``, ``shutting_down``) means the server
  *refused* the request before dispatching it: always safe, key or no
  key, after **exponential backoff + jitter** from the session's own
  seeded :class:`random.Random` (never the module-level generator, so
  the delays replay from ``RetryPolicy.seed``), floored by
  ``retry_after``.  A **transport failure after send** is ambiguous: a
  keyed request is resent byte for byte on a fresh connection, an
  un-keyed mutating one raises :class:`ServiceUnavailable` instead of
  risking a double-apply.

The session asks, a transport performs: :meth:`_Session.request` yields
connect / exchange these bytes for one line / close / sleep and is told
the outcome.  :class:`ServiceClient` performs them on a blocking socket,
:class:`AsyncServiceClient` on asyncio streams, both with a **timeout**
on every wire interaction.  Request pipelining (several ids outstanding:
the matching loop in ``request``) and an in-memory transport for the
simulator (a third set of the four operations) plug in here, unbuilt.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
import uuid
from collections.abc import Awaitable, Callable, Generator, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, TypeVar, Union

from repro.core.resources import Resource, ResourceVector
from repro.service._aio import within
from repro.service.protocol import (
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    MAX_LINE_BYTES,
    RETRYABLE_CODES,
    encode,
)
from repro.service.shards import MUTATING_OPS, OP_ALLOCATE, OP_RECORD, OP_RETRY

__all__ = [
    "RetryPolicy",
    "ServiceError",
    "ServiceUnavailable",
    "ServiceClient",
    "AsyncServiceClient",
]

#: Unmatched response lines tolerated while hunting for a request's
#: ``id`` echo before the stream is declared corrupt.
MAX_SKIPPED_LINES = 64


class ServiceError(RuntimeError):
    """The server answered with a non-retryable typed error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code

    @property
    def message(self) -> str:
        return str(self).split(": ", 1)[1]


class ServiceUnavailable(RuntimeError):
    """Retries exhausted, or an ambiguous failure that is unsafe to retry."""


class _SessionRefused(Exception):
    """A no-``id`` error line: the server refused before dispatch."""

    def __init__(self, code: str, retry_after: Optional[float]) -> None:
        super().__init__(code)
        self.code = code
        self.retry_after = retry_after


class _StreamCorrupt(Exception):
    """The response stream stopped being parseable NDJSON."""


#: What a transport operation may fail with: the wire refused, reset,
#: closed or missed its deadline, or it stopped framing lines.
_TRANSPORT_FAILURES = (OSError, TimeoutError, _StreamCorrupt)

T = TypeVar("T")

#: What a typed helper returns: the value from the blocking client, an
#: awaitable of it from the asyncio client.
_Reply = Union[T, Awaitable[T]]

#: Each retry waits this many times longer than the one before it.
BACKOFF_FACTOR = 2.0
#: A delay is jittered down by up to this fraction of itself.
JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """How a client reconnects and retries.

    ``backoff_base * BACKOFF_FACTOR**attempt`` seconds, capped at
    ``backoff_max``, jittered down by up to ``JITTER`` of itself from a
    :class:`random.Random` seeded with ``seed`` — two clients with the
    same policy and seed sleep the same schedule, which is what makes
    chaos tests replayable.
    """

    max_attempts: int = 6
    connect_timeout: float = 5.0
    read_timeout: float = 5.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(
        self, attempt: int, rng: random.Random, retry_after: Optional[float] = None
    ) -> float:
        """The sleep before retry number ``attempt`` (0-based)."""
        base = min(self.backoff_max, self.backoff_base * BACKOFF_FACTOR**attempt)
        jittered = base * (1.0 - JITTER * rng.random())
        if retry_after is not None:
            jittered = max(jittered, float(retry_after))
        return jittered


class _Session:
    """Sans-IO half of a client: ids, keys, matching, the retry rules.

    A subclass adds the transport operations :meth:`request` yields —
    ``connect()``, ``_exchange(data)``, ``close()``, ``_sleep(seconds)``
    — a ``call`` that performs them, and ``_call_then(doc, decode)`` =
    ``decode(call(doc))``; the typed helpers are blocking or awaitable
    as that ``call`` is.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        retry: Optional[RetryPolicy] = None,
        auto_key: bool = True,
        client_id: Optional[str] = None,
    ) -> None:
        if socket_path is None and not port:
            raise ValueError("give a UNIX socket path or a TCP port")
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self.auto_key = auto_key
        #: Stable prefix of generated idempotency keys.  Injectable so
        #: tests (and deterministic replays) control the key stream;
        #: defaults to a fresh UUID per client instance.
        # reprolint: disable=F3  # client identity is wire metadata, injectable for deterministic replays
        self.client_id = client_id if client_id is not None else uuid.uuid4().hex
        self._rng = random.Random(self.retry.seed)
        self._next_id = 0
        self._next_key = 0
        #: Wire attempts, including the first try of each call.
        self.attempts = 0
        #: Re-dials after a dropped/declared-dead connection.
        self.reconnects = 0
        #: Requests resent after a retryable error or ambiguous failure.
        self.retries = 0
        #: Unmatched response lines skipped while matching ids.
        self.skipped_lines = 0

    # -- document building -----------------------------------------------------

    def _prepare(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        payload = dict(doc)
        if "id" not in payload:
            self._next_id += 1
            payload["id"] = f"{self.client_id}#{self._next_id}"
        if (
            self.auto_key
            and payload.get("op") in MUTATING_OPS
            and "key" not in payload
        ):
            payload["key"] = self.new_key()
        return payload

    def new_key(self) -> str:
        """A fresh idempotency key: ``"<client_id>/<n>"``."""
        self._next_key += 1
        return f"{self.client_id}/{self._next_key}"

    @staticmethod
    def _safe_to_resend(payload: Dict[str, Any]) -> bool:
        """Is a resend after an *ambiguous* failure safe?

        Non-mutating requests always are; mutating ones only with an
        idempotency key (the server's dedup window absorbs the copy).
        A batch is safe only if every nested request carries a key.
        """
        op = payload.get("op")
        if op == "allocate_batch":
            return all(
                isinstance(sub, dict) and sub.get("key")
                for sub in payload.get("requests", [])
            )
        if op in MUTATING_OPS:
            return bool(payload.get("key"))
        return True

    @staticmethod
    def _parse_response(line: bytes) -> Dict[str, Any]:
        try:
            doc = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _StreamCorrupt("response line is not valid JSON") from None
        if not isinstance(doc, dict):
            raise _StreamCorrupt("response line is not a JSON object")
        return doc

    def _match(
        self, doc: Dict[str, Any], request_id: Any, skipped: int
    ) -> Optional[Dict[str, Any]]:
        """One parsed line: the answer, a refusal, or noise to skip."""
        if doc.get("id") == request_id:
            return doc
        if "id" not in doc and doc.get("ok") is False:
            error = doc.get("error") or {}
            raise _SessionRefused(
                str(error.get("code", "unknown")), error.get("retry_after")
            )
        self.skipped_lines += 1
        if skipped + 1 > MAX_SKIPPED_LINES:
            raise _StreamCorrupt(
                f"no response matching id {request_id!r} within "
                f"{MAX_SKIPPED_LINES} lines"
            )
        return None

    def _classify(self, response: Dict[str, Any]) -> Dict[str, Any]:
        """Raise for error responses; return the result payload."""
        if response.get("ok"):
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        error = response.get("error") or {}
        code = str(error.get("code", "unknown"))
        message = str(error.get("message", ""))
        if code in RETRYABLE_CODES:
            raise _SessionRefused(code, error.get("retry_after"))
        raise ServiceError(code, message)

    def stats(self) -> Dict[str, int]:
        return {
            "attempts": self.attempts,
            "reconnects": self.reconnects,
            "retries": self.retries,
            "skipped_lines": self.skipped_lines,
        }

    # -- the request loop ------------------------------------------------------

    def request(self, doc: Dict[str, Any]) -> Generator[Callable[[], Any], Any, Dict[str, Any]]:
        """One request document, as transport operations for ``call`` to perform.

        Each operation's result (an exchange's: the response line) is
        sent back in, its failure — a ``_TRANSPORT_FAILURES`` — thrown in.
        """
        payload = self._prepare(doc)
        data = encode(payload)
        last: Optional[BaseException] = None
        for attempt in range(self.retry.max_attempts):
            self.attempts += 1
            if attempt:
                self.retries += 1
            sent = False
            try:
                yield self.connect
                sent = True
                line = yield partial(self._exchange, data)
                skipped = 0
                while True:
                    response = self._parse_response(line)
                    matched = self._match(response, payload["id"], skipped)
                    if matched is not None:
                        return self._classify(matched)
                    skipped += 1
                    line = yield partial(self._exchange, b"")
            except _SessionRefused as exc:
                # Typed refusal: never dispatched, always safe to retry.
                last = ServiceUnavailable(f"server refused: {exc.code}")
                retry_after = exc.retry_after
                if exc.code in (ERR_TIMEOUT, ERR_SHUTTING_DOWN):
                    self.reconnects += 1
                    yield self.close  # that session is done; dial fresh
            except _TRANSPORT_FAILURES as exc:
                self.reconnects += 1
                yield self.close
                if sent and not self._safe_to_resend(payload):
                    raise ServiceUnavailable(
                        "connection failed after an un-keyed mutating request "
                        "was sent; outcome unknown, refusing to double-apply"
                    ) from exc
                last, retry_after = exc, None
            if attempt + 1 < self.retry.max_attempts:  # else nothing to wait for
                yield partial(self._sleep, self.retry.delay(attempt, self._rng, retry_after))
        raise ServiceUnavailable(
            f"{self.retry.max_attempts} attempts exhausted"
        ) from last

    # -- typed helpers ---------------------------------------------------------

    def ping(self) -> _Reply[bool]:
        return self._call_then({"op": "ping"}, lambda result: bool(result.get("pong")))

    def server_stats(self) -> _Reply[Dict[str, Any]]:
        return self.call({"op": "stats"})

    def health(self) -> _Reply[Dict[str, Any]]:
        return self.call({"op": "health"})

    def shutdown(self) -> _Reply[bool]:
        return self._call_then({"op": "shutdown"}, lambda result: bool(result.get("shutting_down")))

    def snapshot(self) -> _Reply[str]:
        """Force a snapshot cut; returns the written envelope path."""
        return self._call_then({"op": "snapshot"}, lambda result: str(result["path"]))

    @staticmethod
    def _batch_doc(requests: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        return {"op": "allocate_batch", "requests": [dict(sub) for sub in requests]}

    @staticmethod
    def _batch_responses(result: Dict[str, Any]) -> List[Dict[str, Any]]:
        responses = result["responses"]
        return list(responses) if isinstance(responses, list) else []

    @staticmethod
    def _allocation(result: Dict[str, Any]) -> ResourceVector:
        return ResourceVector.from_state(result["allocation"])

    def allocate_batch(self, requests: Sequence[Dict[str, Any]]) -> _Reply[List[Dict[str, Any]]]:
        """Submit mutating sub-requests in one round trip.

        Each entry is a mutating request document (``allocate`` /
        ``allocate_retry`` / ``record``, no nesting); the server answers
        with one response document per entry, in request order.
        """
        return self._call_then(self._batch_doc(requests), self._batch_responses)

    def allocate(
        self, category: str, task_id: int, key: Optional[str] = None
    ) -> _Reply[ResourceVector]:
        doc: Dict[str, Any] = {
            "op": OP_ALLOCATE,
            "category": category,
            "task_id": task_id,
        }
        if key is not None:
            doc["key"] = key
        return self._call_then(doc, self._allocation)

    def allocate_retry(
        self,
        category: str,
        task_id: int,
        previous: ResourceVector,
        observed: ResourceVector,
        exhausted: Sequence[Union[Resource, str]],
        key: Optional[str] = None,
    ) -> _Reply[ResourceVector]:
        doc: Dict[str, Any] = {
            "op": OP_RETRY,
            "category": category,
            "task_id": task_id,
            "previous": previous.state_dict(),
            "observed": observed.state_dict(),
            "exhausted": [str(res) for res in exhausted],
        }
        if key is not None:
            doc["key"] = key
        return self._call_then(doc, self._allocation)

    def record(
        self,
        category: str,
        peaks: ResourceVector,
        task_id: int,
        significance: Optional[float] = None,
        key: Optional[str] = None,
    ) -> _Reply[int]:
        doc: Dict[str, Any] = {
            "op": OP_RECORD,
            "category": category,
            "task_id": task_id,
            "peaks": peaks.state_dict(),
        }
        if significance is not None:
            doc["significance"] = significance
        if key is not None:
            doc["key"] = key
        return self._call_then(doc, lambda result: int(result["records_count"]))


class ServiceClient(_Session):
    """Blocking client over a UNIX socket path or a ``(host, port)`` pair.

    Usable as a context manager; safe to call from one thread at a time.
    """

    _sock: Optional[socket.socket] = None
    _buffer = b""

    def connect(self) -> None:
        if self._sock is not None:
            return
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.retry.connect_timeout)
            sock.connect(self._socket_path)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self.retry.connect_timeout
            )
        sock.settimeout(self.retry.read_timeout)
        self._sock = sock
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._buffer = b""

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, data: bytes) -> bytes:
        """Send ``data``, read one line; ``settimeout`` bounds each wire call."""
        assert self._sock is not None
        if data:
            self._sock.sendall(data)
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise _StreamCorrupt("unterminated response line over protocol cap")
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    _sleep = staticmethod(time.sleep)

    def call(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request document; returns the result payload.

        Retries per :class:`RetryPolicy`; raises :class:`ServiceError`
        on a non-retryable server error and
        :class:`ServiceUnavailable` when retries are exhausted or an
        ambiguous failure cannot safely be retried.
        """
        operations = self.request(doc)
        try:
            operation = next(operations)
            while True:
                try:
                    outcome = operation()
                except _TRANSPORT_FAILURES as exc:
                    operation = operations.throw(exc)
                else:
                    operation = operations.send(outcome)
        except StopIteration as done:
            return done.value

    def _call_then(self, doc: Dict[str, Any], decode: Callable[[Dict[str, Any]], T]) -> T:
        return decode(self.call(doc))


class AsyncServiceClient(_Session):
    """asyncio client: the same session over a stream reader/writer pair."""

    _reader: Optional[asyncio.StreamReader] = None
    _writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        if self._writer is not None:
            return
        if self._socket_path is not None:
            opening = asyncio.open_unix_connection(
                self._socket_path, limit=MAX_LINE_BYTES + 1024
            )
        else:
            opening = asyncio.open_connection(
                self._host, self._port, limit=MAX_LINE_BYTES + 1024
            )
        self._reader, self._writer = await asyncio.wait_for(
            opening, timeout=self.retry.connect_timeout
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                if self._writer.transport.get_write_buffer_size():
                    # Unsent bytes mean the peer stopped reading: a polite
                    # close would wait for them to drain, with no deadline.
                    self._writer.transport.abort()
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _exchange(self, data: bytes) -> Awaitable[bytes]:
        """Send ``data``, read one line: both under the one read deadline."""
        return within(self.retry.read_timeout, self._send_and_read(data))

    async def _send_and_read(self, data: bytes) -> bytes:
        assert self._reader is not None and self._writer is not None
        if data:
            self._writer.write(data)
            await self._writer.drain()
        try:
            line = await self._reader.readline()
        except ValueError:  # StreamReader's word for a line over its limit
            raise _StreamCorrupt("unterminated response line over protocol cap") from None
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    _sleep = staticmethod(asyncio.sleep)

    async def call(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Async twin of :meth:`ServiceClient.call` (same semantics)."""
        operations = self.request(doc)
        try:
            operation = next(operations)
            while True:
                try:
                    outcome = await operation()
                except asyncio.TimeoutError:  # the builtin only from Python 3.11 on
                    operation = operations.throw(TimeoutError("wire deadline passed"))
                except _TRANSPORT_FAILURES as exc:
                    operation = operations.throw(exc)
                else:
                    operation = operations.send(outcome)
        except StopIteration as done:
            return done.value

    async def _call_then(self, doc: Dict[str, Any], decode: Callable[[Dict[str, Any]], T]) -> T:
        return decode(await self.call(doc))

    async def allocate_batch(self, requests: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """:meth:`_Session.allocate_batch`, awaiting ``call`` directly."""
        return self._batch_responses(await self.call(self._batch_doc(requests)))
