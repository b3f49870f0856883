"""NDJSON front end: the allocation service over TCP or a UNIX socket.

One connection, one line-oriented session: the server reads requests
sequentially per connection and answers in order, so a client that
awaits each response before sending the next gets the same per-client
ordering guarantee the in-process API provides.  Malformed lines get a
typed ``ok: false`` error and the connection stays usable; only
transport errors, oversized lines, and read-deadline expiries close it.

Hardening (the bounds come from :class:`~repro.service.config.ServiceConfig`,
apart from the in-flight bound):

* at most ``max_connections`` concurrent sessions — the excess
  connection is answered with one ``overloaded`` error (carrying
  ``retry_after``) and closed cleanly, never silently dropped;
* at most :data:`MAX_INFLIGHT_REQUESTS` requests in flight across all
  sessions — excess requests are answered ``overloaded`` without ever
  touching a shard queue;
* a per-connection ``read_timeout``: a client idle (or slow-loris
  dribbling) past the deadline mid-request gets a ``timeout`` error and
  a clean disconnect;
* a request line over the 1 MiB protocol cap gets a ``too_large`` error
  and a clean disconnect (the stream reader's limit is raised to match,
  so the cap is enforced by the protocol layer, not a raw
  ``LimitOverrunError`` traceback);
* unexpected server errors answer with code ``internal`` only — the
  exception detail goes to the ``repro.service`` logger, never to the
  wire.

:func:`run_daemon` is the long-lived entry point behind
``repro-experiments serve``: it starts the service (recovering from
``data_dir`` when present), binds the socket, announces readiness with
one JSON line on stdout, and converts SIGTERM/SIGINT into a clean
drain + snapshot + exit(128+signum) — the kill/resume golden test
SIGTERMs it mid-ingest and asserts the resumed response stream is
bit-identical.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal as _signal
import sys
from typing import Any, Dict, Optional

from repro.service._aio import within
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_STORAGE,
    ERR_TIMEOUT,
    ERR_TOO_LARGE,
    MAX_LINE_BYTES,
    ProtocolError,
    encode,
    error_response,
    ok_response,
    parse_line,
    validate_request,
)
from repro.service.service import AllocationService
from repro.service.shards import StorageUnavailable

__all__ = ["AllocationServer", "run_daemon"]

logger = logging.getLogger("repro.service")

#: Backoff hint (seconds) attached to ``overloaded`` responses.
RETRY_AFTER_S = 0.05

#: Requests in flight across all connections; the excess is answered
#: ``overloaded`` without touching a shard — the service's overload
#: protection.
MAX_INFLIGHT_REQUESTS = 1024


class AllocationServer:
    """Bind an :class:`AllocationService` to a TCP or UNIX socket."""

    def __init__(
        self,
        service: AllocationService,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if socket_path is not None and port:
            raise ValueError("give either a UNIX socket path or a TCP port, not both")
        self._service = service
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections = 0
        self._inflight = 0
        #: Sessions refused at the connection bound (introspection).
        self.rejected_connections = 0
        #: Requests refused at the in-flight bound (introspection).
        self.rejected_requests = 0
        self.shutdown_requested: asyncio.Event = asyncio.Event()

    @property
    def service(self) -> AllocationService:
        return self._service

    @property
    def connections(self) -> int:
        """Sessions currently accepted (inside the connection bound)."""
        return self._connections

    @property
    def endpoint(self) -> str:
        """Human-readable bound endpoint (valid after :meth:`start`)."""
        if self._socket_path is not None:
            return f"unix:{self._socket_path}"
        assert self._server is not None
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return f"tcp:{host}:{port}"

    async def start(self) -> None:
        # limit must exceed the protocol line cap so an oversized line
        # surfaces as a catchable ValueError from readline() (handled as
        # too_large below) instead of silently truncating valid lines.
        if self._socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self._socket_path,
                limit=MAX_LINE_BYTES + 1024,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self._host,
                port=self._port,
                limit=MAX_LINE_BYTES + 1024,
            )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- per-connection session ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        config = self._service.config
        if self._connections >= config.max_connections:
            self.rejected_connections += 1
            await self._refuse(
                writer,
                error_response(
                    None,
                    ERR_OVERLOADED,
                    f"connection limit ({config.max_connections}) reached",
                    retry_after=RETRY_AFTER_S,
                ),
            )
            return
        self._connections += 1
        try:
            await self._session(reader, writer)
        finally:
            self._connections -= 1

    async def _refuse(
        self, writer: asyncio.StreamWriter, response: Dict[str, Any]
    ) -> None:
        """Answer one error line and close — used for refused sessions."""
        try:
            writer.write(encode(response))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                asyncio.CancelledError,
            ):
                pass

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        read_timeout = self._service.config.read_timeout
        try:
            while True:
                try:
                    if read_timeout is not None:
                        line = await within(read_timeout, reader.readline())
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    writer.write(
                        encode(
                            error_response(
                                None,
                                ERR_TIMEOUT,
                                f"no complete request within {read_timeout}s",
                            )
                        )
                    )
                    await writer.drain()
                    break
                except ValueError:
                    # readline() overran the stream limit: the line is
                    # over the protocol cap.  Typed error, clean close —
                    # the rest of the oversized line is undelimited
                    # garbage, so the session cannot continue.
                    writer.write(
                        encode(
                            error_response(
                                None,
                                ERR_TOO_LARGE,
                                f"request line exceeds {MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._respond(line)
                writer.write(encode(response))
                await writer.drain()
                if response.get("result", {}).get("shutting_down"):
                    break
                if not response.get("ok", False) and response.get("error", {}).get(
                    "code"
                ) in (ERR_TOO_LARGE,):
                    break
        except asyncio.CancelledError:
            # Daemon shutdown cancels in-flight sessions; close quietly
            # rather than re-raising into the event loop's logger.
            pass
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Mid-response transport failure (chaos proxy tears the
            # connection down): the session is gone, nothing to answer.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                asyncio.CancelledError,
            ):
                pass

    async def _respond(self, line: bytes) -> Dict[str, Any]:
        request_id: Optional[Any] = None
        try:
            doc = parse_line(line)
            request_id = doc.get("id")
            if self.shutdown_requested.is_set() and doc.get("op") != "shutdown":
                return error_response(
                    request_id, ERR_SHUTTING_DOWN, "daemon is draining"
                )
            if self._inflight >= MAX_INFLIGHT_REQUESTS:
                self.rejected_requests += 1
                return error_response(
                    request_id,
                    ERR_OVERLOADED,
                    f"in-flight limit ({MAX_INFLIGHT_REQUESTS}) reached",
                    retry_after=RETRY_AFTER_S,
                )
            if doc.get("op") != "allocate_batch":
                # A batch is validated once, whole, by the service's submit.
                validate_request(doc, self._service.resources)
            self._inflight += 1
            try:
                return ok_response(request_id, await self._dispatch(doc))
            finally:
                self._inflight -= 1
        except ProtocolError as exc:
            return error_response(request_id, exc.code, str(exc))
        except StorageUnavailable as exc:
            # Degraded mode: the disk is refusing writes.  The operation
            # definitely did not apply (the shard rolled the batch
            # back), so the client may retry verbatim after the hint —
            # every refused batch also ticks the shard's recovery probe.
            return error_response(
                request_id, ERR_STORAGE, str(exc), retry_after=exc.retry_after
            )
        except Exception:  # unexpected; keep the session alive
            # Never leak internal exception text to a remote client —
            # the detail goes to the server log only.
            logger.exception("internal error handling request id=%r", request_id)
            return error_response(
                request_id, ERR_INTERNAL, "internal server error (logged)"
            )

    async def _dispatch(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        op = doc["op"]
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            return self._service.stats()
        if op == "health":
            health = self._service.health()
            health["connections"] = self._connections
            health["rejected_connections"] = self.rejected_connections
            health["rejected_requests"] = self.rejected_requests
            return health
        if op == "snapshot":
            return {"path": await self._service.snapshot()}
        if op == "shutdown":
            self.shutdown_requested.set()
            return {"shutting_down": True}
        return await self._service.submit(doc)


async def run_daemon(
    config: ServiceConfig,
    socket_path: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    install_signals: bool = True,
    announce: bool = True,
) -> int:
    """Serve until ``shutdown`` (wire op) or SIGTERM/SIGINT; return exit code.

    On a signal the server stops accepting, every shard drains, a final
    consistent snapshot is written, and the exit code is
    ``128 + signum`` — the same convention the grid checkpointing uses.
    """
    service = AllocationService(config)
    await service.start()
    server = AllocationServer(service, socket_path=socket_path, host=host, port=port)
    await server.start()

    received_signal: Dict[str, int] = {}
    if install_signals:
        loop = asyncio.get_running_loop()

        def _on_signal(signum: int) -> None:
            received_signal["signum"] = signum
            server.shutdown_requested.set()

        for signum in (_signal.SIGINT, _signal.SIGTERM):
            loop.add_signal_handler(signum, _on_signal, signum)

    if announce:
        sys.stdout.write(
            json.dumps({"ready": True, "endpoint": server.endpoint}) + "\n"
        )
        sys.stdout.flush()

    try:
        await server.shutdown_requested.wait()
    finally:
        await server.stop()
        await service.stop(snapshot=True)
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (_signal.SIGINT, _signal.SIGTERM):
                loop.remove_signal_handler(signum)

    signum = received_signal.get("signum")
    return 0 if signum is None else 128 + signum
