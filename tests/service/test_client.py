"""The resilient client SDKs: retry policy, idempotency keys, typed
errors, and the hardened server edge they talk to.

The exactly-once crash matrix lives in ``test_exactly_once.py``.  Here
the retry taxonomy is scripted: one fake transport answers a list of
"return this line" / "raise this" steps under *both* clients, which must
send the same bytes, sleep the same schedule, count the same and end the
same way.  Then both clients face a *live* server (bounded connections,
read deadlines, oversized lines, a peer that never reads).
"""

import asyncio
import inspect
import json
import os
import random

import pytest

from repro.core.allocator import AllocatorConfig
from repro.core.resources import ResourceVector
from repro.service import (
    AllocationServer,
    AllocationService,
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.client import MAX_SKIPPED_LINES
from repro.service.protocol import MAX_LINE_BYTES, encode, error_response, ok_response

BOTH_CLIENTS = pytest.mark.parametrize(
    "client_cls", [ServiceClient, AsyncServiceClient], ids=["sync", "async"]
)


def _config(**overrides):
    defaults = dict(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=11,
            min_records=3,
        ),
        n_shards=3,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _serve(tmpdir: str, **overrides):
    sock = os.path.join(tmpdir, "svc.sock")
    service = AllocationService(_config(**overrides))
    await service.start()
    server = AllocationServer(service, socket_path=sock)
    await server.start()
    return sock, service, server


async def _do(client, method, *args, **kwargs):
    """Call a client method from inside the event loop, whichever client it is."""
    bound = getattr(client, method)
    if isinstance(client, AsyncServiceClient):
        return await bound(*args, **kwargs)
    return await asyncio.to_thread(bound, *args, **kwargs)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


def test_retry_policy_delay_is_seeded_and_bounded():
    policy = RetryPolicy(backoff_base=0.1, backoff_max=0.5, seed=9)
    first = [policy.delay(i, random.Random(9)) for i in range(6)]
    second = [policy.delay(i, random.Random(9)) for i in range(6)]
    assert first == second  # same seed, same jittered schedule
    for i, delay in enumerate(first):
        base = min(0.5, 0.1 * 2.0**i)
        assert base * 0.5 <= delay <= base  # jitter=0.5 shrinks, never grows


def test_retry_policy_honors_retry_after_floor():
    policy = RetryPolicy(backoff_base=0.001)
    assert policy.delay(0, random.Random(0), retry_after=0.75) >= 0.75


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------------
# The session, against a scripted transport, under both clients
# ---------------------------------------------------------------------------


class DialFails:
    """Script step: the next ``connect`` raises ``exc`` instead of dialling."""

    def __init__(self, exc):
        self.exc = exc


class _ScriptedWire:
    """The four transport operations, answered from a script.

    A step is a response line (``bytes``) for the next exchange to
    return, an exception for it to raise, or :class:`DialFails`.  ``log``
    records everything the session asked for, in order.
    """

    def __init__(self, script, **kwargs):
        super().__init__(socket_path="unused", client_id="c", **kwargs)
        self.script = list(script)
        self.log = []
        self.connected = False

    def _dial(self):
        if self.connected:
            return
        if self.script and isinstance(self.script[0], DialFails):
            raise self.script.pop(0).exc
        self.connected = True
        self.log.append("connect")

    def _answer(self, data):
        assert self.connected
        if data:
            self.log.append(("send", data))
        step = self.script.pop(0)
        if isinstance(step, BaseException):
            raise step
        return step

    def _hang_up(self):
        self.connected = False
        self.log.append("close")

    def _wait(self, seconds):
        self.log.append(("sleep", seconds))


class ScriptedSyncClient(_ScriptedWire, ServiceClient):
    def connect(self):
        self._dial()

    def _exchange(self, data):
        return self._answer(data)

    def close(self):
        self._hang_up()

    def _sleep(self, seconds):
        self._wait(seconds)


class ScriptedAsyncClient(_ScriptedWire, AsyncServiceClient):
    async def connect(self):
        self._dial()

    async def _exchange(self, data):
        return self._answer(data)

    async def close(self):
        self._hang_up()

    async def _sleep(self, seconds):
        self._wait(seconds)


class Run:
    """What one scripted run did, reduced to what both clients must share."""

    def __init__(self, client, outcome):
        self.outcome = outcome
        self.log = client.log
        self.stats = client.stats()
        self.unused_script = len(client.script)
        self.sent = [entry[1] for entry in client.log if entry[0] == "send"]
        self.sleeps = [entry[1] for entry in client.log if entry[0] == "sleep"]

    def __eq__(self, other):
        def failure(exc):
            return type(exc), str(exc), type(exc.__cause__), str(exc.__cause__)

        mine, theirs = self.outcome, other.outcome
        if isinstance(mine, BaseException) and isinstance(theirs, BaseException):
            mine, theirs = failure(mine), failure(theirs)
        return (mine, self.log, self.stats, self.unused_script) == (
            theirs,
            other.log,
            other.stats,
            other.unused_script,
        )


def run_both(script, invoke, **client_kwargs) -> Run:
    """Run ``invoke(client)`` over ``script`` under both clients; they must agree."""
    client_kwargs.setdefault("retry", RetryPolicy(seed=5))
    runs = []
    for cls in (ScriptedSyncClient, ScriptedAsyncClient):
        client = cls(script, **client_kwargs)
        try:
            outcome = invoke(client)
            if inspect.iscoroutine(outcome):
                outcome = asyncio.run(outcome)
        except (ServiceError, ServiceUnavailable, ValueError) as exc:
            outcome = exc
        runs.append(Run(client, outcome))
    assert runs[0] == runs[1]
    return runs[0]


def ok(request_id, **result):
    return encode(ok_response(request_id, result))


def refusal(request_id, code, retry_after=None):
    return encode(error_response(request_id, code, "scripted", retry_after))


ALLOCATE = {"op": "allocate", "category": "a", "task_id": 1}
PING = {"op": "ping"}


def calling(*docs):
    """An ``invoke`` for :func:`run_both`: ``call`` each document in turn."""

    def invoke(client):
        if isinstance(client, AsyncServiceClient):

            async def chain():
                return [await client.call(doc) for doc in docs]

            return chain()
        return [client.call(doc) for doc in docs]

    return invoke


def test_auto_key_stamps_mutating_ops_only():
    explicit = {"op": "record", "category": "a", "task_id": 1, "key": "mine"}
    script = [ok("c#1"), ok("c#2", pong=True), ok("c#3")]
    run = run_both(script, calling(ALLOCATE, PING, explicit))
    allocate, ping, record = (json.loads(data) for data in run.sent)
    assert allocate["id"] == "c#1" and allocate["key"] == "c/1"
    assert "key" not in ping
    assert record["key"] == "mine"  # caller keys are never overwritten
    assert run.stats == {"attempts": 3, "reconnects": 0, "retries": 0, "skipped_lines": 0}


def test_auto_key_off_leaves_ops_bare():
    run = run_both([ok("c#1")], lambda client: client.call(ALLOCATE), auto_key=False)
    assert "key" not in json.loads(run.sent[0])


def test_new_key_and_typed_helpers_share_the_key_stream():
    def record(client):
        client.new_key()  # "c/1", taken by the caller
        return client.record("a", ResourceVector({"cores": 1.0}), 7, significance=2.0)

    run = run_both([ok("c#1", records_count=4)], record)
    assert run.outcome == 4
    sent = json.loads(run.sent[0])
    assert sent["key"] == "c/2" and sent["significance"] == 2.0 and sent["task_id"] == 7


def test_typed_refusal_is_retried_on_the_same_connection_after_the_floor():
    for request_id in ("c#1", None):  # an id-echoing refusal, and a session-level one
        run = run_both(
            [refusal(request_id, "overloaded", retry_after=0.75), ok("c#1", pong=True)],
            lambda client: client.ping(),
        )
        assert run.outcome is True
        assert run.log == ["connect", ("send", run.sent[0]), ("sleep", 0.75), ("send", run.sent[0])]
        assert run.stats == {"attempts": 2, "reconnects": 0, "retries": 1, "skipped_lines": 0}


def test_typed_refusal_needs_no_key():
    script = [refusal("c#1", "overloaded"), ok("c#1")]
    run = run_both(script, lambda client: client.call(ALLOCATE), auto_key=False)
    assert run.outcome == {} and len(run.sent) == 2


@pytest.mark.parametrize("code", ["timeout", "shutting_down"])
def test_timeout_and_shutting_down_refusals_drop_and_redial(code):
    run = run_both([refusal(None, code), ok("c#1", pong=True)], lambda client: client.ping())
    kinds = [entry if isinstance(entry, str) else entry[0] for entry in run.log]
    assert kinds == ["connect", "send", "close", "sleep", "connect", "send"]
    assert run.stats["reconnects"] == 1 and run.stats["retries"] == 1


def test_ambiguous_failure_resends_a_keyed_request_byte_for_byte():
    script = [ConnectionResetError("scripted"), TimeoutError("scripted"), ok("c#1")]
    run = run_both(script, lambda client: client.call(ALLOCATE))
    assert run.outcome == {}
    assert len(run.sent) == 3 and len(set(run.sent)) == 1  # same id, same key
    assert json.loads(run.sent[0])["key"] == "c/1"
    assert run.stats == {"attempts": 3, "reconnects": 2, "retries": 2, "skipped_lines": 0}
    # The seeded schedule, not a fresh draw per client.
    rng = random.Random(5)
    assert run.sleeps == [RetryPolicy(seed=5).delay(i, rng) for i in range(2)]


def test_safe_to_resend_rules():
    def after_one_reset(doc, **kwargs):
        script = [ConnectionResetError("scripted"), ok("c#1")]
        return run_both(script, lambda client: client.call(doc), **kwargs)

    unkeyed_batch = {
        "op": "allocate_batch",
        "requests": [dict(ALLOCATE, key="k"), dict(ALLOCATE, task_id=2)],
    }
    keyed_batch = {"op": "allocate_batch", "requests": [dict(ALLOCATE, key="k")]}
    for doc in (PING, {"op": "stats"}, dict(ALLOCATE, key="k"), keyed_batch):
        run = after_one_reset(doc, auto_key=False)
        assert run.outcome == {} and len(run.sent) == 2
    for doc in (ALLOCATE, {"op": "record", "category": "a", "task_id": 1}, unkeyed_batch):
        run = after_one_reset(doc, auto_key=False)
        assert isinstance(run.outcome, ServiceUnavailable)
        assert "refusing to double-apply" in str(run.outcome)
        assert isinstance(run.outcome.__cause__, ConnectionResetError)
        # Dropped, nothing resent, no backoff slept, the answer never read.
        assert run.log == ["connect", ("send", run.sent[0]), "close"]
        assert run.unused_script == 1


def test_failed_dial_is_not_ambiguous():
    script = [DialFails(ConnectionRefusedError("scripted")), ok("c#1")]
    run = run_both(script, lambda client: client.call(ALLOCATE), auto_key=False)
    assert run.outcome == {}  # nothing was sent, so even an un-keyed op is retried
    assert run.log[0] == "close" and len(run.sent) == 1
    assert run.stats["reconnects"] == 1


def test_stale_lines_are_skipped_up_to_the_cap_then_the_stream_is_corrupt():
    stale = [ok("someone-else#9")] * MAX_SKIPPED_LINES
    run = run_both(stale + [ok("c#1", pong=True)], lambda client: client.ping())
    assert run.outcome is True
    assert run.stats["skipped_lines"] == MAX_SKIPPED_LINES and run.stats["retries"] == 0
    assert len(run.sent) == 1  # kept reading, sent nothing more

    script = stale + [ok("someone-else#9"), ok("c#1", pong=True)]
    run = run_both(script, lambda client: client.ping())
    assert run.outcome is True
    assert run.stats["skipped_lines"] == MAX_SKIPPED_LINES + 1
    assert run.stats["reconnects"] == 1 and len(run.sent) == 2


@pytest.mark.parametrize("line", [b"\x00not json", b"\xff\xfe", b"[1, 2]", b'"ok"'])
def test_unparseable_line_drops_the_connection(line):
    run = run_both([line, ok("c#1", pong=True)], lambda client: client.ping())
    assert run.outcome is True
    assert run.stats["reconnects"] == 1 and run.stats["retries"] == 1
    unsafe = run_both([line], lambda client: client.call(ALLOCATE), auto_key=False)
    assert isinstance(unsafe.outcome, ServiceUnavailable) and len(unsafe.sent) == 1


def test_exhaustion_chains_the_last_cause_and_skips_the_final_sleep():
    script = [ConnectionResetError("first"), refusal(None, "overloaded"), BrokenPipeError("last")]
    run = run_both(script, lambda client: client.ping(), retry=RetryPolicy(max_attempts=3, seed=2))
    assert isinstance(run.outcome, ServiceUnavailable)
    assert str(run.outcome) == "3 attempts exhausted"
    assert isinstance(run.outcome.__cause__, BrokenPipeError)
    assert len(run.sent) == 3 and len(run.sleeps) == 2
    assert run.log[-1] == "close"  # dropped after the last failure, then no sleep
    assert run.stats == {"attempts": 3, "reconnects": 2, "retries": 2, "skipped_lines": 0}

    refused = run_both([refusal("c#1", "overloaded")] * 2, lambda client: client.ping(),
                       retry=RetryPolicy(max_attempts=2))
    assert str(refused.outcome.__cause__) == "server refused: overloaded"
    assert len(refused.sleeps) == 1


def test_permanent_error_raises_service_error_without_retry():
    run = run_both([refusal("c#1", "bad_request")], lambda client: client.call(ALLOCATE))
    assert isinstance(run.outcome, ServiceError) and run.outcome.code == "bad_request"
    assert run.outcome.message == "scripted"
    assert run.stats["attempts"] == 1 and run.sleeps == []


def test_unencodable_document_raises_at_once_from_both_clients():
    """An ``encode`` failure is the caller's bug, not a transport failure."""
    requests = []
    requests.append({"op": "allocate", "category": "a", "task_id": 1, "self": requests})
    run = run_both([], lambda client: client.allocate_batch(requests))
    assert isinstance(run.outcome, ValueError)
    assert run.log == [] and run.stats["retries"] == 0 and run.stats["reconnects"] == 0


# ---------------------------------------------------------------------------
# Live round trips
# ---------------------------------------------------------------------------


def _round_trip(client_cls, tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path), data_dir=str(tmp_path / "state"))
        client = client_cls(socket_path=sock, client_id="live")
        vector = await _do(client, "allocate", "proc", 1)
        assert isinstance(vector, ResourceVector)
        assert await _do(client, "record", "proc", vector, 1) == 1
        retried = await _do(
            client, "allocate_retry", "proc", 2,
            previous=vector, observed=vector, exhausted=["memory"],
        )
        assert isinstance(retried, ResourceVector)
        batch = await _do(
            client, "allocate_batch", [{"op": "allocate", "category": "proc", "task_id": 3}]
        )
        assert len(batch) == 1 and "allocation" in batch[0]
        assert await _do(client, "ping")
        health = await _do(client, "health")
        assert health["ok"] is True and health["connections"] == 1
        assert (await _do(client, "server_stats"))["ops"] == 4
        assert os.path.exists(await _do(client, "snapshot"))
        stats = client.stats()
        assert stats["attempts"] == 8 and stats["retries"] == 0 and stats["reconnects"] == 0
        await _do(client, "close")
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_sync_client_round_trip(tmp_path):
    _round_trip(ServiceClient, tmp_path)


def test_async_client_round_trip(tmp_path):
    _round_trip(AsyncServiceClient, tmp_path)


@BOTH_CLIENTS
def test_context_manager_closes_the_connection(client_cls, tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        if client_cls is AsyncServiceClient:
            async with client_cls(socket_path=sock) as client:
                assert await client.ping()
            assert client._writer is None
        else:

            def drive():
                with client_cls(socket_path=sock) as client:
                    assert client.ping()
                return client

            assert (await asyncio.to_thread(drive))._sock is None
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_bad_request_raises_service_error_without_retry(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        for client_cls in (ServiceClient, AsyncServiceClient):
            client = client_cls(socket_path=sock, client_id="bad")
            with pytest.raises(ServiceError) as excinfo:
                await _do(client, "call", {"op": "allocate", "category": "proc"})  # no task_id
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServiceError) as unknown:
                await _do(client, "call", {"op": "frobnicate"})
            assert unknown.value.code == "unknown_op"
            # Malformed requests are never retried (they cannot succeed).
            assert client.retries == 0
            await _do(client, "close")
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_internal_error_detail_never_reaches_the_wire(tmp_path):
    """Satellite: a server-side exception yields code 'internal' only."""

    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        # Sabotage one shard so dispatch raises something with a juicy
        # internal message.
        secret = "secret-internal-detail-12345"

        def explode(*args, **kwargs):
            raise RuntimeError(secret)

        for shard in service.shards:
            shard.allocator.allocate = explode
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(
            json.dumps(
                {"id": 1, "op": "allocate", "category": "proc", "task_id": 1}
            ).encode()
            + b"\n"
        )
        await writer.drain()
        response = json.loads(await reader.readline())
        writer.close()
        await server.stop()
        await service.stop()
        return response, secret

    response, secret = asyncio.run(scenario())
    assert response["ok"] is False
    assert response["error"]["code"] == "internal"
    assert secret not in json.dumps(response)


def test_connection_limit_sheds_with_retry_after(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path), max_connections=1)
        holder_reader, holder_writer = await asyncio.open_unix_connection(sock)
        # Second connection is answered with one typed overloaded error
        # and closed.
        reader, writer = await asyncio.open_unix_connection(sock)
        refusal = json.loads(await reader.readline())
        assert refusal["ok"] is False
        assert refusal["error"]["code"] == "overloaded"
        assert refusal["error"]["retry_after"] > 0
        assert await reader.read() == b""  # server closed it cleanly
        writer.close()
        assert server.rejected_connections == 1
        for client_cls in (ServiceClient, AsyncServiceClient):
            # The resilient client is shed too; once the holder leaves it
            # gets in by backing off and reconnecting on its own.
            shed_before = server.rejected_connections
            client = client_cls(
                socket_path=sock,
                client_id="patient",
                retry=RetryPolicy(max_attempts=50, backoff_base=0.01, backoff_max=0.05),
            )
            pinging = asyncio.ensure_future(_do(client, "ping"))
            while server.rejected_connections == shed_before:
                await asyncio.sleep(0.005)
            holder_writer.close()
            await holder_writer.wait_closed()
            assert await pinging
            assert client.retries >= 1 and client.reconnects >= 1
            await _do(client, "close")
            while server.connections:
                await asyncio.sleep(0.005)
            holder_reader, holder_writer = await asyncio.open_unix_connection(sock)
        holder_writer.close()
        await holder_writer.wait_closed()
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_read_deadline_disconnects_slow_loris(tmp_path):
    async def scenario():
        sock, service, server = await _serve(str(tmp_path), read_timeout=0.2)
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b'{"op": "pi')  # dribble a partial request, then stall
        await writer.drain()
        response = json.loads(await asyncio.wait_for(reader.readline(), timeout=5.0))
        assert response["ok"] is False
        assert response["error"]["code"] == "timeout"
        assert await reader.read() == b""  # then a clean disconnect
        writer.close()
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_oversized_line_gets_typed_error_and_clean_close(tmp_path):
    """Satellite: no LimitOverrunError traceback, a typed error instead."""

    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b'{"op": "ping", "pad": "' + b"x" * (MAX_LINE_BYTES + 2048))
        await writer.drain()
        response = json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0))
        assert response["ok"] is False
        assert response["error"]["code"] == "too_large"
        assert await reader.read() == b""
        writer.close()
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def _reconnects_after_server_restart(client_cls, tmp_path):
    """Kill the server between calls; the SDK redials transparently."""

    async def scenario():
        sock, service, server = await _serve(str(tmp_path))
        client = client_cls(
            socket_path=sock,
            client_id="redial",
            retry=RetryPolicy(backoff_base=0.01, backoff_max=0.05),
        )
        assert await _do(client, "ping")
        # The shutdown response closes this session server-side, so the
        # next call finds a dead socket and must redial.
        assert await _do(client, "shutdown")
        await server.stop()
        await service.stop()
        # Same socket path, fresh daemon.
        service = AllocationService(_config())
        await service.start()
        os.unlink(sock)
        server = AllocationServer(service, socket_path=sock)
        await server.start()
        assert await _do(client, "ping")
        assert client.stats()["reconnects"] >= 1
        await _do(client, "close")
        await server.stop()
        await service.stop()

    asyncio.run(scenario())


def test_sync_client_reconnects_after_server_restart(tmp_path):
    _reconnects_after_server_restart(ServiceClient, tmp_path)


def test_async_client_reconnects_after_server_restart(tmp_path):
    _reconnects_after_server_restart(AsyncServiceClient, tmp_path)


async def _raw_server(sock, on_connect):
    """A bare UNIX-socket peer; ``on_connect(reader, writer)`` is its whole protocol."""
    held = []

    async def handle(reader, writer):
        held.append(writer)
        await on_connect(reader, writer)

    return await asyncio.start_unix_server(handle, path=sock, limit=MAX_LINE_BYTES + 1024), held


@BOTH_CLIENTS
def test_send_to_a_peer_that_never_reads_times_out(client_cls, tmp_path):
    """The deadline covers the send: a ~512 KiB batch into a full socket
    buffer ends in ``ServiceUnavailable`` instead of hanging in ``drain``."""

    async def scenario():
        sock = os.path.join(str(tmp_path), "deaf.sock")
        never = asyncio.Event()

        async def deaf(reader, writer):
            writer.transport.pause_reading()  # accept, then leave it all in the kernel
            await never.wait()

        server, held = await _raw_server(sock, deaf)
        entry = {"op": "record", "category": "proc", "task_id": 1,
                 "peaks": {"cores": 1.0}, "pad": "x" * 400}
        batch = [entry] * 1100
        client = client_cls(
            socket_path=sock, retry=RetryPolicy(read_timeout=0.3, max_attempts=2, backoff_base=0.01)
        )
        with pytest.raises(ServiceUnavailable, match="refusing to double-apply"):
            await asyncio.wait_for(_do(client, "allocate_batch", batch), timeout=20.0)
        assert client.stats() == {"attempts": 1, "reconnects": 1, "retries": 0, "skipped_lines": 0}
        never.set()
        for writer in held:
            writer.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


@BOTH_CLIENTS
def test_response_line_over_the_cap_is_a_corrupt_stream(client_cls, tmp_path):
    """Both transports call an unterminated over-cap line the same thing."""

    async def scenario():
        sock = os.path.join(str(tmp_path), "babble.sock")

        async def babble(reader, writer):
            await reader.readline()
            writer.write(b"x" * (MAX_LINE_BYTES + 4096))
            await writer.drain()

        server, held = await _raw_server(sock, babble)
        client = client_cls(
            socket_path=sock, auto_key=False, retry=RetryPolicy(backoff_base=0.01, max_attempts=2)
        )
        with pytest.raises(ServiceUnavailable) as keyed:
            await _do(client, "ping")
        assert "protocol cap" in str(keyed.value.__cause__)
        assert client.stats()["attempts"] == 2
        with pytest.raises(ServiceUnavailable, match="refusing to double-apply"):
            await _do(client, "allocate", "proc", 1)
        await _do(client, "close")
        for writer in held:
            writer.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())
