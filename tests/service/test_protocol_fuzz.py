"""Hypothesis fuzz of the service wire edge.

Property under test: a hostile peer — arbitrary bytes, truncated NDJSON
frames, garbage interleaved with real requests, colliding ``id``s — can
never crash the server, never elicit anything but a well-formed typed
error or a clean disconnect, and never smuggle an invalid document into
the WAL.
"""

import asyncio
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import read_jsonl
from repro.core.allocator import AllocatorConfig
from repro.service import AllocationServer, AllocationService, ServiceConfig
from repro.service.protocol import (
    ERROR_CODES,
    ProtocolError,
    parse_line,
    validate_request,
)

pytestmark = pytest.mark.service

RESOURCES = AllocatorConfig().resources

# Live-socket examples pay a server start/stop per case; keep the count
# small and let the pure-function properties carry the example volume.
LIVE = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PURE = settings(max_examples=300, deadline=None)


def _config(data_dir=None):
    return ServiceConfig(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=11,
            min_records=3,
        ),
        n_shards=2,
        data_dir=data_dir,
    )


def _valid_request(i: int) -> bytes:
    doc = {"id": f"ok-{i}", "op": "allocate", "category": "proc", "task_id": i}
    return json.dumps(doc).encode() + b"\n"


# ---------------------------------------------------------------------------
# Pure protocol properties (no sockets, high example volume)
# ---------------------------------------------------------------------------


@PURE
@given(st.binary(max_size=512))
def test_parse_line_raises_protocol_error_only(payload):
    try:
        doc = parse_line(payload)
    except ProtocolError as exc:
        assert exc.code in ERROR_CODES
    else:
        assert isinstance(doc, dict)


@PURE
@given(st.data())
def test_truncated_request_never_escapes_protocol_error(data):
    line = _valid_request(data.draw(st.integers(0, 99)))
    cut = data.draw(st.integers(0, len(line) - 1))
    try:
        parse_line(line[:cut])
    except ProtocolError as exc:
        assert exc.code in ERROR_CODES


JSONISH = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10,
)


@PURE
@given(
    st.dictionaries(
        st.sampled_from(
            ["op", "id", "key", "category", "task_id", "peaks", "requests", "x"]
        ),
        JSONISH,
        max_size=6,
    )
)
def test_validate_request_raises_protocol_error_only(doc):
    try:
        validate_request(doc, RESOURCES)
    except ProtocolError as exc:
        assert exc.code in ERROR_CODES


# ---------------------------------------------------------------------------
# Live server under fire
# ---------------------------------------------------------------------------


async def _fuzz_session(tmpdir, lines, data_dir=None):
    """Feed raw lines to a live server; return (responses, post-fuzz ping)."""
    sock = os.path.join(tmpdir, "fuzz.sock")
    service = AllocationService(_config(data_dir=data_dir))
    await service.start()
    server = AllocationServer(service, socket_path=sock)
    await server.start()
    responses = []
    try:
        reader, writer = await asyncio.open_unix_connection(sock)
        try:
            for line in lines:
                writer.write(line)
                await writer.drain()
                answer = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if not answer:  # server hung up (its right under hostility)
                    break
                responses.append(json.loads(answer))
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            writer.close()
        # The server must still be alive and coherent for the next peer.
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b'{"op": "ping", "id": "post"}\n')
        await writer.drain()
        ping = json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0))
        writer.close()
    finally:
        await server.stop()
        # snapshot=False keeps the WAL on disk for post-fuzz inspection
        # (a graceful stop otherwise snapshots and truncates it).
        await service.stop(snapshot=False)
    return responses, ping


def _check_well_formed(responses):
    for response in responses:
        assert isinstance(response, dict)
        assert response["ok"] in (True, False)
        if not response["ok"]:
            assert response["error"]["code"] in ERROR_CODES
            # Typed code + message only; never a traceback on the wire.
            assert "Traceback" not in response["error"]["message"]


@LIVE
@given(
    st.lists(
        st.binary(min_size=1, max_size=200).map(
            lambda b: b.replace(b"\n", b"\x00") + b"\n"
        ),
        min_size=1,
        max_size=8,
    )
)
def test_arbitrary_byte_lines_never_crash_server(tmp_path_factory, lines):
    tmpdir = str(tmp_path_factory.mktemp("fuzz"))
    responses, ping = asyncio.run(_fuzz_session(tmpdir, lines))
    _check_well_formed(responses)
    assert ping == {"ok": True, "result": {"pong": True}, "id": "post"}


@LIVE
@given(st.data())
def test_garbage_interleaved_with_real_requests(tmp_path_factory, data):
    tmpdir = str(tmp_path_factory.mktemp("fuzz"))
    garbage = st.binary(min_size=1, max_size=80).map(
        lambda b: b.replace(b"\n", b" ") + b"\n"
    )
    lines, expected_ids = [], []
    for i in range(data.draw(st.integers(2, 6))):
        if data.draw(st.booleans()):
            lines.append(data.draw(garbage))
        else:
            lines.append(_valid_request(i))
            expected_ids.append(f"ok-{i}")
    responses, ping = asyncio.run(_fuzz_session(tmpdir, lines))
    _check_well_formed(responses)
    assert ping["ok"] is True
    # Every valid request the server got to answer succeeded, in order.
    answered = [r["id"] for r in responses if r["ok"]]
    assert answered == expected_ids[: len(answered)]


@LIVE
@given(
    st.lists(st.sampled_from(["dup", "dup", "other"]), min_size=2, max_size=6),
)
def test_duplicate_ids_never_crash_server(tmp_path_factory, ids):
    tmpdir = str(tmp_path_factory.mktemp("fuzz"))
    lines = [
        json.dumps(
            {"id": rid, "op": "allocate", "category": "proc", "task_id": i}
        ).encode()
        + b"\n"
        for i, rid in enumerate(ids)
    ]
    responses, ping = asyncio.run(_fuzz_session(tmpdir, lines))
    _check_well_formed(responses)
    assert ping["ok"] is True
    # ids are echoed verbatim, one response per request, in order.
    assert [r["id"] for r in responses] == ids
    assert all(r["ok"] for r in responses)


@LIVE
@given(
    st.lists(
        st.binary(min_size=1, max_size=120).map(
            lambda b: b.replace(b"\n", b"\x01") + b"\n"
        ),
        min_size=1,
        max_size=5,
    )
)
def test_nothing_invalid_reaches_the_wal(tmp_path_factory, garbage_lines):
    """Satellite guarantee: the WAL only ever holds validated documents."""
    tmpdir = str(tmp_path_factory.mktemp("fuzz"))
    data_dir = os.path.join(tmpdir, "state")
    lines = []
    for i, garbage in enumerate(garbage_lines):
        lines.append(garbage)
        lines.append(_valid_request(i))
    responses, ping = asyncio.run(_fuzz_session(tmpdir, lines, data_dir=data_dir))
    _check_well_formed(responses)
    assert ping["ok"] is True
    entries = []
    for name in sorted(os.listdir(data_dir)):
        if name.endswith(".wal"):
            entries.extend(read_jsonl(os.path.join(data_dir, name)))
    applied = sum(1 for r in responses if r["ok"])
    assert len(entries) == applied  # one WAL entry per applied op, no more
    for entry in entries:
        validate_request(entry["op"], RESOURCES)  # must not raise
