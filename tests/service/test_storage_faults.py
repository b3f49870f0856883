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
from repro.service.service import CURRENT_FILENAME, AllocationService
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
        durability="batch",
        degraded_probe_interval=2,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _op(i):
    return {"op": "allocate", "category": f"cat-{i % 3}", "task_id": i, "key": f"k{i}"}


def _record(task_id, memory):
    peaks = {"cores": 1, "memory": memory, "disk": 10.0}
    return {"op": "record", "category": "cat-0", "task_id": task_id, "peaks": peaks}


async def _heal(service, op):
    """Retry ``op`` through typed refusals until the probe heals the shard."""
    for _ in range(16):
        try:
            return await service.submit(op)
        except StorageUnavailable:
            pass
    raise AssertionError("the recovery probe never healed the shard")


# ---------------------------------------------------------------------------
# Injector mechanics
# ---------------------------------------------------------------------------


def test_injector_fires_once_at_the_armed_hit(tmp_path):
    path = str(tmp_path / "shard-00.wal")
    FS_FAULTS.arm(FsFaultPlan("eio", at_hit=2, path_substring=".wal"))
    writer = JournalWriter(path, sync="batch")
    writer.append({"seq": 1})  # hit 1: passes
    with pytest.raises(OSError) as excinfo:
        writer.append({"seq": 2})  # hit 2: fires
    assert isinstance(excinfo.value, StorageFault)
    assert excinfo.value.kind == "eio"
    # One-shot: the plan auto-disarmed, the next write goes through.
    writer2 = JournalWriter(path, sync="batch")
    writer2.append({"seq": 2})
    writer2.close()
    assert FS_FAULTS.fired == [("eio", "write", path, 2)]
    assert read_jsonl(path) == [{"seq": 1}, {"seq": 2}]


def test_unmatched_paths_are_untouched(tmp_path):
    FS_FAULTS.arm(FsFaultPlan("enospc", at_hit=1, path_substring=".wal"))
    other = str(tmp_path / "results.jsonl")
    writer = JournalWriter(other, sync="batch")
    writer.append({"ok": True})
    writer.close()
    assert FS_FAULTS.fired == []
    assert read_jsonl(other) == [{"ok": True}]


def test_short_write_leaves_repairable_debris(tmp_path):
    path = str(tmp_path / "shard-00.wal")
    writer = JournalWriter(path, sync="batch")
    writer.append({"seq": 1})
    FS_FAULTS.arm(FsFaultPlan("short-write", at_hit=1, path_substring=".wal"))
    with pytest.raises(OSError):
        writer.append({"seq": 2})
    # A torn half-frame landed in the file; the reader forgives it and
    # the repair truncates it so appends resume on a line boundary.
    assert read_jsonl(path) == [{"seq": 1}]
    dropped = repair_journal_tail(path, writer.committed_bytes)
    assert dropped > 0
    writer2 = JournalWriter(path, sync="batch")
    writer2.append({"seq": 2})
    writer2.close()
    assert read_jsonl(path) == [{"seq": 1}, {"seq": 2}]


def test_fsyncgate_retry_on_poisoned_handle_raises(tmp_path):
    path = str(tmp_path / "shard-00.wal")
    writer = JournalWriter(path, sync="batch")
    FS_FAULTS.arm(FsFaultPlan("fsync-fail", at_hit=1, path_substring=".wal"))
    with pytest.raises(OSError) as excinfo:
        writer.append({"seq": 1})
    assert isinstance(excinfo.value, StorageFault)
    assert excinfo.value.op == "fsync"
    # Retrying any fsync through the SAME handle is the fsyncgate bug:
    # the dirty pages may already be gone, so "success" would lie.
    with pytest.raises(RuntimeError, match="fsyncgate"):
        writer.append({"seq": 1})
    # The legal move: cut back to the last committed length, reopen
    # (fresh handle) and rewrite.  The failed attempts left whole,
    # never-durable records behind; the cut drops them with any debris,
    # and the reopened writer commits cleanly.
    assert read_jsonl(path)
    assert repair_journal_tail(path, writer.committed_bytes) > 0
    writer2 = JournalWriter(path, sync="batch")
    writer2.append({"seq": 2})
    writer2.close()
    assert read_jsonl(path) == [{"seq": 2}]


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


@pytest.mark.parametrize("kind", STORAGE_FAULT_KINDS)
def test_degraded_rollback_leaves_no_replay_gap(tmp_path, kind):
    """A refused batch leaves neither a seq gap nor frames in the WAL.

    The heal reuses the refused seqs for other operations, so a refused
    frame still in the file (written before a failed fsync, or whole
    ahead of a short write's torn half) would replay in their place.
    """

    async def scenario():
        config = _config(tmp_path / "state")
        service = AllocationService(config)
        await service.start()
        for i in range(12):
            await service.submit(_record(i, 500.0 + i))
        # A short write tears the middle of its text: three frames put
        # the first one whole in the file ahead of the debris.
        refused = [_record(100 + j, 99999.0) for j in range(3 if kind == "short-write" else 1)]
        FS_FAULTS.arm(FsFaultPlan(kind, at_hit=1, path_substring=".wal"))
        with pytest.raises(StorageUnavailable):
            await service.submit_batch(refused)
        FS_FAULTS.reset()
        healed = await _heal(service, _record(12, 700.0))
        assert healed["seq"] == 13
        live_digests = service.shard_digests()
        service.abort()  # crash without a final snapshot: WAL is truth

        resumed = AllocationService(config)
        await resumed.start()
        assert resumed.shard_digests() == live_digests
        await resumed.stop()

    run(scenario())


def test_snapshot_of_a_degraded_shard_archives_no_refused_frame(tmp_path):
    """The segment a degraded shard archives stops at its last commit."""

    async def scenario():
        data_dir = tmp_path / "state"
        service = AllocationService(_config(data_dir))
        await service.start()
        for i in range(5):
            await service.submit(_record(i, 500.0 + i))
        FS_FAULTS.arm(FsFaultPlan("fsync-fail", at_hit=1, path_substring=".wal"))
        with pytest.raises(StorageUnavailable):
            await service.submit(_record(100, 99999.0))
        FS_FAULTS.reset()
        shard = service.shards[service.shard_for("cat-0")]
        assert shard.state == "degraded"
        await service.snapshot()
        segment = data_dir / f"shard-{shard.index:02d}.wal.g{service.generation:06d}"
        assert [doc["seq"] for doc in read_jsonl(str(segment))] == [1, 2, 3, 4, 5]
        assert (await _heal(service, _record(5, 700.0)))["seq"] == 6
        await service.stop()

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


@pytest.mark.parametrize(
    "plan",
    [
        FsFaultPlan("enospc", at_hit=2, path_substring="service.snapshot.0"),
        FsFaultPlan("eio", at_hit=3, path_substring="service.snapshot.0"),
        FsFaultPlan("short-write", at_hit=2, path_substring="service.snapshot.0"),
        FsFaultPlan("fsync-fail", at_hit=1, path_substring="service.snapshot.0"),
    ],
    ids=lambda plan: plan.kind,
)
def test_storage_fault_mid_cut_leaves_the_chain_intact(tmp_path, plan):
    """The cut writes one piece per algorithm, so a fault can land after
    part of the generation file is down: the refusal must leave no temp
    file, the old CURRENT, and a chain that recovers the same state."""
    data_dir = tmp_path / "state"
    current = data_dir / CURRENT_FILENAME

    async def scenario():
        service = AllocationService(_config(data_dir))
        await service.start()
        for i in range(12):
            await service.submit(_op(i))
            await service.submit(_record(100 + i, 500.0 + 100.0 * i))
        before = current.read_bytes()
        FS_FAULTS.arm(plan)
        with pytest.raises(StorageUnavailable):
            await service.snapshot()
        assert [fired[:2] for fired in FS_FAULTS.fired] == [(plan.kind, plan.op)]
        assert "service.snapshot.0" in FS_FAULTS.fired[0][2]
        assert not [name for name in os.listdir(data_dir) if name.endswith(".tmp")]
        assert current.read_bytes() == before
        path = await service.snapshot()
        assert os.path.exists(path)
        digests = service.shard_digests()
        await service.stop()
        FS_FAULTS.reset()
        restarted = AllocationService(_config(data_dir))
        await restarted.start()
        assert restarted.shard_digests() == digests
        await restarted.stop()

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
