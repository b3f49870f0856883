"""Exactly-once allocation across crashes: the acceptance proof.

A client that retries the same idempotency key across a mid-WAL-append
crash and a daemon restart must observe **one** applied allocation and
bit-identical responses; the dedup window must survive both WAL-replay
and snapshot recovery.  The crash matrix arms every registered crash
site in turn and asserts the per-shard state digests match a fault-free
reference exactly — gap-free seqs, no double-applied op.
"""

import asyncio
import json
import os
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core.allocator import AllocatorConfig
from repro.service import (
    AllocationService,
    CRASH_POINTS,
    CrashPointFired,
    ServiceConfig,
)

CATEGORIES = ["proc", "merge", "fit", "plot", "scan"]


@pytest.fixture(autouse=True)
def _clean_crash_points():
    CRASH_POINTS.reset()
    yield
    CRASH_POINTS.reset()


def _config(data_dir: Optional[str] = None, dedup_window: int = 256) -> ServiceConfig:
    return ServiceConfig(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=11,
            min_records=3,
        ),
        n_shards=3,
        data_dir=data_dir,
        dedup_window=dedup_window,
    )


def _script(n: int = 24) -> List[Dict[str, Any]]:
    """A keyed allocate/record mix touching every shard."""
    ops: List[Dict[str, Any]] = []
    for i in range(n):
        category = CATEGORIES[i % len(CATEGORIES)]
        ops.append(
            {
                "op": "allocate",
                "category": category,
                "task_id": i,
                "key": f"once/a{i}",
            }
        )
        ops.append(
            {
                "op": "record",
                "category": category,
                "task_id": i,
                "peaks": {"cores": 1, "memory": 300.0 + 37.0 * (i % 11), "disk": 9.0},
                "key": f"once/r{i}",
            }
        )
    return ops


async def _reference() -> Tuple[List[str], List[Dict[str, Any]], int]:
    """Fault-free digests, responses, and total seq of the script."""
    service = AllocationService(_config())
    await service.start()
    responses = [await service.submit(dict(op)) for op in _script()]
    digests = service.shard_digests()
    total_seq = sum(shard.seq for shard in service.shards)
    await service.stop()
    return digests, responses, total_seq


# ---------------------------------------------------------------------------
# The crash matrix: every registered site, restart + keyed retry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("at_hit", [1, 7])
@pytest.mark.parametrize(
    "site",
    [
        "shard.wal-append.before",
        "shard.wal-append.after",
        "shard.apply.before",
        "shard.apply.after",
    ],
)
def test_crash_matrix_is_exactly_once(tmp_path, site, at_hit):
    reference_digests, reference_responses, reference_seq = asyncio.run(_reference())
    config = _config(str(tmp_path / "state"))

    async def scenario():
        service = AllocationService(config)
        await service.start()
        CRASH_POINTS.arm(site, at_hit=at_hit, mode="raise")
        responses: List[Dict[str, Any]] = []
        crashes = 0
        for op in _script():
            while True:
                try:
                    responses.append(await service.submit(dict(op)))
                    break
                except CrashPointFired:
                    crashes += 1
                    service.abort()
                    service = AllocationService(config)
                    await service.start()
        digests = service.shard_digests()
        total_seq = sum(shard.seq for shard in service.shards)
        await service.stop()
        return responses, digests, total_seq, crashes

    responses, digests, total_seq, crashes = asyncio.run(scenario())
    assert crashes == 1  # the armed site actually fired
    # Bit-identical responses: the retried op answered exactly as the
    # uninterrupted run answered it.
    assert responses == reference_responses
    # Bit-identical state, gap-free seqs, no double-applied op.
    assert digests == reference_digests
    assert total_seq == reference_seq


@pytest.mark.parametrize("site", ["service.snapshot.before", "service.snapshot.after"])
def test_crash_during_snapshot_is_exactly_once(tmp_path, site):
    reference_digests, reference_responses, reference_seq = asyncio.run(_reference())
    config = _config(str(tmp_path / "state"))
    ops = _script()

    async def scenario():
        service = AllocationService(config)
        await service.start()
        responses: List[Dict[str, Any]] = []
        crashes = 0
        for position, op in enumerate(ops):
            if position == len(ops) // 2:
                CRASH_POINTS.arm(site, at_hit=1, mode="raise")
                try:
                    await service.snapshot()
                except CrashPointFired:
                    crashes += 1
                    service.abort()
                    service = AllocationService(config)
                    await service.start()
            responses.append(await service.submit(dict(op)))
        digests = service.shard_digests()
        total_seq = sum(shard.seq for shard in service.shards)
        await service.stop()
        return responses, digests, total_seq, crashes

    responses, digests, total_seq, crashes = asyncio.run(scenario())
    assert crashes == 1
    assert responses == reference_responses
    assert digests == reference_digests
    assert total_seq == reference_seq


def test_crash_kills_queued_work_with_ambiguous_error(tmp_path):
    """Concurrent submitters behind the crash see CrashPointFired too."""

    async def scenario():
        service = AllocationService(_config(str(tmp_path / "state")))
        await service.start()
        CRASH_POINTS.arm("shard.apply.before", at_hit=1, mode="raise")
        ops = [
            {"op": "allocate", "category": "proc", "task_id": i, "key": f"q/{i}"}
            for i in range(6)
        ]
        results = await asyncio.gather(
            *(service.submit(dict(op)) for op in ops), return_exceptions=True
        )
        health = service.health()
        service.abort()
        return results, health

    results, health = asyncio.run(scenario())
    assert all(isinstance(r, CrashPointFired) for r in results)
    assert health["ok"] is False  # the crashed shard shows up in health


# ---------------------------------------------------------------------------
# Dedup-window durability
# ---------------------------------------------------------------------------


def test_dedup_survives_wal_replay(tmp_path):
    config = _config(str(tmp_path / "state"))

    async def scenario():
        service = AllocationService(config)
        await service.start()
        first = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        service.abort()  # crash before any snapshot covers the op
        service = AllocationService(config)
        await service.start()
        again = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        hits = sum(shard.dedup_hits for shard in service.shards)
        await service.stop()
        return first, again, hits

    first, again, hits = asyncio.run(scenario())
    assert again == first  # response rebuilt from WAL replay, verbatim
    assert hits == 1


def test_dedup_survives_snapshot_recovery(tmp_path):
    config = _config(str(tmp_path / "state"))

    async def scenario():
        service = AllocationService(config)
        await service.start()
        first = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        await service.snapshot()  # dedup window rides the envelope
        service.abort()
        service = AllocationService(config)
        await service.start()
        again = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        hits = sum(shard.dedup_hits for shard in service.shards)
        await service.stop()
        return first, again, hits

    first, again, hits = asyncio.run(scenario())
    assert again == first
    assert hits == 1


def test_dedup_window_evicts_oldest(tmp_path):
    async def scenario():
        service = AllocationService(_config(dedup_window=2))
        await service.start()
        shard = service.shards[service.shard_for("proc")]
        first = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 2, "key": "k2"}
        )
        await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 3, "key": "k3"}
        )
        # k1 evicted: the same key now applies *again* (new seq).
        replayed = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        hits = shard.dedup_hits
        await service.stop()
        return first, replayed, hits

    first, replayed, hits = asyncio.run(scenario())
    assert hits == 0
    assert replayed["seq"] > first["seq"]


def test_dedup_disabled_with_zero_window():
    async def scenario():
        service = AllocationService(_config(dedup_window=0))
        await service.start()
        first = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        second = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        await service.stop()
        return first, second

    first, second = asyncio.run(scenario())
    assert second["seq"] > first["seq"]  # both applied; dedup is off


def test_dedup_hit_returns_stored_response_not_reapplied():
    async def scenario():
        service = AllocationService(_config())
        await service.start()
        shard = service.shards[service.shard_for("proc")]
        first = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        seq_before = shard.seq
        duplicate = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "k1"}
        )
        await service.stop()
        return first, duplicate, seq_before, shard.seq, shard.dedup_hits

    first, duplicate, seq_before, seq_after, hits = asyncio.run(scenario())
    assert duplicate == first  # verbatim, including the original seq
    assert seq_after == seq_before  # no new sequence number
    assert hits == 1


def test_batch_with_duplicate_keys_is_exactly_once():
    """A batch repeating an already-applied key coalesces to one apply."""

    async def scenario():
        service = AllocationService(_config())
        await service.start()
        first = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 1, "key": "dup"}
        )
        batch = await service.submit_batch(
            [
                {"op": "allocate", "category": "proc", "task_id": 1, "key": "dup"},
                {"op": "allocate", "category": "proc", "task_id": 2, "key": "new"},
            ]
        )
        await service.stop()
        return first, batch

    first, batch = asyncio.run(scenario())
    assert batch[0] == first
    assert batch[1]["seq"] == first["seq"] + 1  # only the new key consumed a seq


# ---------------------------------------------------------------------------
# The daemon: hard os._exit at a crash site, restart, keyed retry
# ---------------------------------------------------------------------------


def _spawn_daemon(
    socket_path: str, data_dir: str, chaos_crash: Optional[str] = None
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--socket",
        socket_path,
        "--checkpoint-dir",
        data_dir,
        "--shards",
        "2",
        "--service-algorithm",
        "greedy_bucketing",
        "--service-seed",
        "3",
    ]
    if chaos_crash is not None:
        argv += ["--chaos-crash", chaos_crash]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=str(Path(__file__).resolve().parent.parent.parent),
    )
    ready = json.loads(proc.stdout.readline())
    assert ready["ready"] is True
    return proc


@pytest.mark.service
def test_daemon_hard_exit_at_crash_point_then_exactly_once(tmp_path):
    """The full acceptance scenario, over the real wire.

    The daemon hard-exits (os._exit, no snapshot, no drain) at the
    WAL-append boundary mid-session; a restarted daemon answers the
    retried keys with the *same* responses the first daemon gave, and
    the retried tail continues exactly where the crash interrupted.
    """
    from repro.service import RetryPolicy, ServiceClient

    socket_path = str(tmp_path / "daemon.sock")
    data_dir = str(tmp_path / "state")
    ops = [
        {"op": "allocate", "category": CATEGORIES[i % 3], "task_id": i, "key": f"d/{i}"}
        for i in range(12)
    ]

    crash_site = "shard.wal-append.after:5"
    proc = _spawn_daemon(socket_path, data_dir, chaos_crash=crash_site)
    first_responses: List[Dict[str, Any]] = []
    crashed_at: Optional[int] = None
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(socket_path)
            stream = sock.makefile("rwb")
            for position, doc in enumerate(ops):
                try:
                    stream.write(json.dumps(doc).encode() + b"\n")
                    stream.flush()
                    line = stream.readline()
                    if not line:
                        crashed_at = position
                        break
                    first_responses.append(json.loads(line))
                except (BrokenPipeError, ConnectionResetError, OSError):
                    crashed_at = position
                    break
        assert proc.wait(timeout=30.0) == 70  # CrashPoints.EXIT_CODE
        assert crashed_at is not None and crashed_at < len(ops)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # Restart cleanly (no chaos) and replay the WHOLE keyed script with
    # the resilient client: already-applied prefix must come back
    # verbatim from the dedup window, the tail applies fresh.
    os.unlink(socket_path)
    proc = _spawn_daemon(socket_path, data_dir)
    try:
        client = ServiceClient(
            socket_path=socket_path,
            auto_key=False,
            client_id="daemon-retry",
            retry=RetryPolicy(backoff_base=0.01, backoff_max=0.1),
        )
        retried = [client.call(dict(doc)) for doc in ops]
        health = client.health()
        client.shutdown()
        client.close()
        assert proc.wait(timeout=30.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # Every response the first daemon DID give is reproduced verbatim.
    for position, response in enumerate(first_responses):
        assert response["ok"] is True
        assert retried[position] == response["result"]
    # The retried prefix was answered from the dedup window, not
    # re-applied: per-shard seqs are gap-free and total exactly len(ops).
    assert sum(s["seq"] for s in health["shards"]) == len(ops)
    assert health["dedup_hits"] >= len(first_responses)


@pytest.mark.service
def test_daemon_sigkill_then_keyed_retry_is_exactly_once(tmp_path):
    """SIGKILL (no crash point, no cleanup) — same exactly-once outcome."""
    from repro.service import RetryPolicy, ServiceClient

    socket_path = str(tmp_path / "daemon.sock")
    data_dir = str(tmp_path / "state")
    ops = [
        {"op": "allocate", "category": CATEGORIES[i % 3], "task_id": i, "key": f"s/{i}"}
        for i in range(10)
    ]
    proc = _spawn_daemon(socket_path, data_dir)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(socket_path)
            stream = sock.makefile("rwb")
            for doc in ops[:6]:
                stream.write(json.dumps(doc).encode() + b"\n")
                stream.flush()
                assert json.loads(stream.readline())["ok"] is True
        proc.kill()
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    os.unlink(socket_path)
    proc = _spawn_daemon(socket_path, data_dir)
    try:
        client = ServiceClient(
            socket_path=socket_path,
            auto_key=False,
            client_id="sigkill-retry",
            retry=RetryPolicy(backoff_base=0.01, backoff_max=0.1),
        )
        for doc in ops:  # full replay: prefix dedups, tail applies
            assert "allocation" in client.call(dict(doc))
        health = client.health()
        client.shutdown()
        client.close()
        assert proc.wait(timeout=30.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert sum(s["seq"] for s in health["shards"]) == len(ops)
    assert health["dedup_hits"] == 6
