"""Storage fault injection and degraded mode: the disk fails, state holds.

Covers the faultfs injector mechanics (determinism, one-shot plans,
short-write debris, fsyncgate handle poisoning), the shard-level
degraded mode it drives (typed ``StorageUnavailable`` refusals, seq
rollback, the count-based recovery probe), and the wire mapping
(``storage_unavailable`` + ``retry_after``).  Bit-rot recovery and
generation fallback live in ``test_generations.py``; the full
corruption × crash-site sweep is E-X9 in
``repro.experiments.service_chaos``.
"""

import asyncio
import json
import os

import pytest

from repro.checkpoint import (
    JournalWriter,
    read_jsonl,
    repair_journal_tail,
)
from repro.core.allocator import AllocatorConfig
from repro.faultfs import (
    FS_FAULTS,
    STORAGE_FAULT_KINDS,
    FsFaultPlan,
    StorageFault,
    seeded_fault_plan,
)
from repro.service.config import ServiceConfig
from repro.service.fsck import run_fsck
from repro.service.server import AllocationServer
from repro.service.service import AllocationService
from repro.service.shards import StorageUnavailable


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _clean_injector():
    FS_FAULTS.reset()
    yield
    FS_FAULTS.reset()


def _config(data_dir, **overrides):
    defaults = dict(
        allocator=AllocatorConfig(algorithm="greedy_bucketing", seed=11),
        n_shards=2,
        data_dir=str(data_dir),
        durability="op",
        degraded_probe_interval=2,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _op(i):
    return {"op": "allocate", "category": f"cat-{i % 3}", "task_id": i, "key": f"k{i}"}


# ---------------------------------------------------------------------------
# Injector mechanics
# ---------------------------------------------------------------------------


def test_injector_fires_once_at_the_armed_hit(tmp_path):
    path = str(tmp_path / "shard-00.wal")
    FS_FAULTS.arm(FsFaultPlan("eio", at_hit=2, path_substring=".wal"))
    writer = JournalWriter(path, sync="op")
    writer.append({"seq": 1})  # hit 1: passes
    with pytest.raises(OSError) as excinfo:
        writer.append({"seq": 2})  # hit 2: fires
    assert isinstance(excinfo.value, StorageFault)
    assert excinfo.value.kind == "eio"
    # One-shot: the plan auto-disarmed, the next write goes through.
    writer2 = JournalWriter(path, sync="op")
    writer2.append({"seq": 2})
    writer2.close()
    assert FS_FAULTS.fired == [("eio", "write", path, 2)]
    assert read_jsonl(path) == [{"seq": 1}, {"seq": 2}]


def test_unmatched_paths_are_untouched(tmp_path):
    FS_FAULTS.arm(FsFaultPlan("enospc", at_hit=1, path_substring=".wal"))
    other = str(tmp_path / "results.jsonl")
    writer = JournalWriter(other, sync="op")
    writer.append({"ok": True})
    writer.close()
    assert FS_FAULTS.fired == []
    assert read_jsonl(other) == [{"ok": True}]


def test_short_write_leaves_repairable_debris(tmp_path):
    path = str(tmp_path / "shard-00.wal")
    writer = JournalWriter(path, sync="op")
    writer.append({"seq": 1})
    FS_FAULTS.arm(FsFaultPlan("short-write", at_hit=1, path_substring=".wal"))
    with pytest.raises(OSError):
        writer.append({"seq": 2})
    # A torn half-frame landed in the file; the reader forgives it and
    # the repair truncates it so appends resume on a line boundary.
    assert read_jsonl(path) == [{"seq": 1}]
    dropped = repair_journal_tail(path)
    assert dropped > 0
    writer2 = JournalWriter(path, sync="op")
    writer2.append({"seq": 2})
    writer2.close()
    assert read_jsonl(path) == [{"seq": 1}, {"seq": 2}]


def test_fsyncgate_retry_on_poisoned_handle_raises(tmp_path):
    path = str(tmp_path / "shard-00.wal")
    writer = JournalWriter(path, sync="op")
    FS_FAULTS.arm(FsFaultPlan("fsync-fail", at_hit=1, path_substring=".wal"))
    with pytest.raises(OSError) as excinfo:
        writer.append({"seq": 1})
    assert isinstance(excinfo.value, StorageFault)
    assert excinfo.value.op == "fsync"
    # Retrying any fsync through the SAME handle is the fsyncgate bug:
    # the dirty pages may already be gone, so "success" would lie.
    with pytest.raises(RuntimeError, match="fsyncgate"):
        writer.append({"seq": 1})
    # The legal move: reopen (fresh handle) and rewrite.  The failed
    # attempts may have left whole duplicate records behind — exactly
    # why WAL replay filters by sequence number — but never debris the
    # repair cannot clear, and the reopened writer commits cleanly.
    repair_journal_tail(path)
    writer2 = JournalWriter(path, sync="op")
    writer2.append({"seq": 2})
    writer2.close()
    docs = read_jsonl(path)
    assert docs[-1] == {"seq": 2}
    assert all(doc == {"seq": 1} for doc in docs[:-1])


def test_seeded_fault_plans_are_reproducible():
    plans = {seed: seeded_fault_plan(seed) for seed in range(20)}
    for seed, plan in plans.items():
        assert plan == seeded_fault_plan(seed)
        assert plan.kind in STORAGE_FAULT_KINDS
        assert plan.at_hit >= 1
    assert len({(p.kind, p.at_hit) for p in plans.values()}) > 1


# ---------------------------------------------------------------------------
# Shard degraded mode
# ---------------------------------------------------------------------------


def test_wal_fault_degrades_then_probe_heals(tmp_path):
    async def scenario():
        service = AllocationService(_config(tmp_path / "state"))
        await service.start()
        FS_FAULTS.arm(FsFaultPlan("eio", at_hit=1, path_substring=".wal"))
        with pytest.raises(StorageUnavailable) as excinfo:
            await service.submit(_op(0))
        assert excinfo.value.retry_after > 0
        assert service.health()["degraded"] is True
        # The refusal is non-ambiguous — the batch rolled back — so the
        # caller retries verbatim; every second refusal runs the probe
        # (degraded_probe_interval=2), which repairs and reopens.
        refused = 0
        while True:
            try:
                await service.submit(_op(0))
                break
            except StorageUnavailable:
                refused += 1
                assert refused < 10
        assert refused > 0
        assert service.health()["degraded"] is False
        for i in range(1, 6):
            await service.submit(_op(i))
        degraded_digests = service.shard_digests()
        stats = service.stats()
        await service.stop()

        # Fault-free twin over the same ops must match bit-for-bit.
        twin = AllocationService(_config(tmp_path / "twin"))
        await twin.start()
        for i in range(6):
            await twin.submit(_op(i))
        twin_digests = twin.shard_digests()
        await twin.stop()
        assert degraded_digests == twin_digests
        assert any(s["storage_failures"] > 0 for s in stats["shards"])

    run(scenario())


def test_degraded_rollback_leaves_no_replay_gap(tmp_path):
    """The refused batch's seq must be rolled back, or restart refuses."""

    async def scenario():
        config = _config(tmp_path / "state")
        service = AllocationService(config)
        await service.start()
        for i in range(4):
            await service.submit(_op(i))
        FS_FAULTS.arm(FsFaultPlan("enospc", at_hit=1, path_substring=".wal"))
        with pytest.raises(StorageUnavailable):
            await service.submit(_op(4))
        FS_FAULTS.reset()
        # Heal by retrying (the probe reopens the WAL), finish the work.
        while True:
            try:
                await service.submit(_op(4))
                break
            except StorageUnavailable:
                pass
        live_digests = service.shard_digests()
        service.abort()  # crash without a final snapshot: WAL is truth

        resumed = AllocationService(config)
        await resumed.start()
        assert resumed.shard_digests() == live_digests
        await resumed.stop()

    run(scenario())


@pytest.mark.parametrize("stray", [b"7\n", b"{}\n"])
def test_unchecksummed_wal_line_is_corruption_not_a_startup_crash(tmp_path, stray):
    """A line without a frame used to reach ``replay`` as a bare ``7``."""
    data_dir = tmp_path / "state"
    config = _config(data_dir)
    wal = data_dir / "shard-00.wal"

    async def scenario():
        service = AllocationService(config)
        await service.start()
        for i in range(8):  # eight categories: both shards get traffic
            await service.submit({**_op(i), "category": f"cat-{i}"})
        live_digests = service.shard_digests()
        service.abort()  # crash without a final snapshot: WAL is truth
        assert wal.stat().st_size > 0
        with open(wal, "ab") as handle:
            handle.write(stray)

        findings = [f for f in run_fsck(str(data_dir)).findings if f.path == wal.name]

        resumed = AllocationService(config)
        await resumed.start()
        events = list(resumed.recovery_events)
        digests = resumed.shard_digests()
        await resumed.submit(_op(100))  # live and serving
        await resumed.stop()
        return live_digests, digests, events, findings

    live_digests, digests, events, findings = run(scenario())
    # Every framed record before the stray line was replayed.
    assert digests == live_digests
    assert [e["kind"] for e in events] == ["journal-corrupt"]
    assert events[0]["path"] == str(wal)
    assert os.listdir(str(wal) + ".corrupt") == ["0001-shard-00.wal"]
    # fsck, run before the restart, saw the same thing the same way.
    assert [f.severity for f in findings] == ["error"]
    assert "mid-stream corruption" in findings[0].problem


def test_snapshot_write_fault_is_typed_and_retryable(tmp_path):
    async def scenario():
        service = AllocationService(_config(tmp_path / "state"))
        await service.start()
        for i in range(3):
            await service.submit(_op(i))
        FS_FAULTS.arm(FsFaultPlan("enospc", at_hit=1, path_substring="service.snapshot"))
        with pytest.raises(StorageUnavailable):
            await service.snapshot()
        # A refused snapshot does not degrade ingest; the retry lands.
        await service.submit(_op(3))
        path = await service.snapshot()
        assert os.path.exists(path)
        await service.stop()

    run(scenario())


# ---------------------------------------------------------------------------
# Wire + health surface
# ---------------------------------------------------------------------------


def test_wire_maps_degraded_shard_to_storage_unavailable(tmp_path):
    async def scenario():
        service = AllocationService(_config(tmp_path / "state"))
        await service.start()
        server = AllocationServer(service, port=0)
        FS_FAULTS.arm(FsFaultPlan("eio", at_hit=1, path_substring=".wal"))
        request = dict(_op(0), id=7)
        response = await server._respond(json.dumps(request).encode() + b"\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "storage_unavailable"
        assert response["error"]["retry_after"] > 0
        assert response["id"] == 7
        FS_FAULTS.reset()
        health = await server._respond(
            json.dumps({"op": "health", "id": 8}).encode() + b"\n"
        )
        assert health["ok"] is True
        assert health["result"]["degraded"] is True
        await service.stop()

    run(scenario())


def test_health_reports_storage_surface(tmp_path):
    async def scenario():
        service = AllocationService(_config(tmp_path / "state"))
        await service.start()
        for i in range(5):
            await service.submit(_op(i))
        await service.snapshot()
        health = service.health()
        assert health["degraded"] is False
        assert health["generation"] >= 1
        assert len(health["last_snapshot_seq"]) == 2
        assert isinstance(health["wal_bytes"], int)
        stats = service.stats()
        for shard in stats["shards"]:
            assert shard["degraded"] is False
            assert shard["last_durable_seq"] == shard["seq"]
            assert shard["wal_bytes"] >= 0
        await service.stop()

    run(scenario())
