"""Generational snapshots: chain, retention, fallback, quarantine.

Each snapshot cut writes ``service.snapshot.<gen>.json``, flips the
digest-checked CURRENT pointer, and archives the live WALs as that
generation's replay segments.  Recovery walks the chain newest-first
and falls back over quarantined generations; these tests corrupt each
link in turn and assert recovery lands on the right state (or refuses
loudly when nothing is left).
"""

import asyncio
import json
import os
import stat

import pytest

from repro.checkpoint import CheckpointError, file_digest, load_checkpoint, save_checkpoint
from repro.core.allocator import AllocatorConfig
from repro.faultfs import flip_bit
from repro.service.config import ServiceConfig
from repro.service.fsck import run_fsck
from repro.service.service import (
    CURRENT_FILENAME,
    PRE_GENERATIONAL_FILENAME,
    AllocationService,
    parse_generation,
    parse_segment,
    read_current,
    segment_filename,
    snapshot_filename,
    write_current,
)


def run(coro):
    return asyncio.run(coro)


def _config(data_dir, **overrides):
    defaults = dict(
        allocator=AllocatorConfig(algorithm="greedy_bucketing", seed=11),
        n_shards=2,
        data_dir=str(data_dir),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _op(i):
    return {"op": "allocate", "category": f"cat-{i % 3}", "task_id": i, "key": f"k{i}"}


def _read_current(data_dir):
    with open(os.path.join(str(data_dir), CURRENT_FILENAME), encoding="utf-8") as f:
        return json.load(f)


def _gen_files(data_dir):
    return sorted(
        name
        for name in os.listdir(str(data_dir))
        if parse_generation(name) is not None
    )


async def _seed_service(config, n_ops=6, cuts=0):
    """Start a service, apply ops, cut ``cuts`` mid-stream snapshots."""
    service = AllocationService(config)
    await service.start()
    for i in range(n_ops):
        await service.submit(_op(i))
        if cuts and i % max(1, n_ops // (cuts + 1)) == max(1, n_ops // (cuts + 1)) - 1:
            await service.snapshot()
    return service


def test_filename_helpers_round_trip():
    assert parse_generation(snapshot_filename(17)) == 17
    assert parse_generation(PRE_GENERATIONAL_FILENAME) is None
    assert parse_segment(segment_filename(3, 17)) == (3, 17)
    assert parse_generation("service.snapshot.CURRENT") is None
    assert parse_segment("shard-00.wal") is None


def test_chain_grows_newest_first_with_digests(tmp_path):
    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=6, cuts=2)
        await service.stop()

    run(scenario())
    doc = _read_current(tmp_path)
    gens = [entry["gen"] for entry in doc["entries"]]
    assert gens == sorted(gens, reverse=True)
    for entry in doc["entries"]:
        path = tmp_path / snapshot_filename(entry["gen"])
        assert path.exists()
        assert entry["digest"] == file_digest(str(path))


def test_retention_prunes_generations_and_segments(tmp_path):
    async def scenario():
        config = _config(tmp_path, snapshot_retention=2)
        service = await _seed_service(config, n_ops=4)
        for i in range(4, 10):
            await service.submit(_op(i))
            await service.snapshot()
        await service.stop()

    run(scenario())
    doc = _read_current(tmp_path)
    assert len(doc["entries"]) == 2
    kept = {entry["gen"] for entry in doc["entries"]}
    on_disk = {parse_generation(name) for name in _gen_files(tmp_path)}
    assert on_disk == kept
    floor = min(kept)
    for name in os.listdir(tmp_path):
        segment = parse_segment(name)
        if segment is not None:
            assert segment[1] > floor


def test_fallback_to_previous_generation_on_digest_mismatch(tmp_path):
    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=8, cuts=2)
        digests = service.shard_digests()
        await service.stop()
        return digests

    expected = run(scenario())
    newest = _read_current(tmp_path)["entries"][0]
    flip_bit(str(tmp_path / snapshot_filename(newest["gen"])), byte_offset=40)

    async def recover():
        service = AllocationService(_config(tmp_path))
        await service.start()
        digests = service.shard_digests()
        events = list(service.recovery_events)
        await service.stop()
        return digests, events

    digests, events = run(recover())
    # The flipped generation was quarantined; the previous generation
    # plus its archived segments reconstructed the exact same state.
    assert digests == expected
    assert any(e["kind"] == "snapshot-digest" for e in events)
    corrupt_dir = str(tmp_path / snapshot_filename(newest["gen"])) + ".corrupt"
    assert os.path.isdir(corrupt_dir) and os.listdir(corrupt_dir)


def test_non_utf8_generation_is_quarantined_not_a_crash(tmp_path):
    """Without CURRENT there is no digest to catch a flipped high bit:
    the envelope read must turn the undecodable byte into typed
    corruption and fall back, not raise ``UnicodeDecodeError``."""

    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=8, cuts=2)
        digests = service.shard_digests()
        await service.stop()
        return digests

    expected = run(scenario())
    newest = _read_current(tmp_path)["entries"][0]
    os.remove(tmp_path / CURRENT_FILENAME)
    flip_bit(str(tmp_path / snapshot_filename(newest["gen"])), byte_offset=40, bit=7)

    async def recover():
        service = AllocationService(_config(tmp_path))
        await service.start()
        digests = service.shard_digests()
        events = list(service.recovery_events)
        await service.stop()
        return digests, events

    digests, events = run(recover())
    assert digests == expected
    assert [e["kind"] for e in events] == ["snapshot-envelope"]
    corrupt_dir = str(tmp_path / snapshot_filename(newest["gen"])) + ".corrupt"
    assert os.path.isdir(corrupt_dir) and os.listdir(corrupt_dir)


def test_corrupt_current_pointer_is_quarantined_and_rebuilt(tmp_path):
    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=6, cuts=1)
        digests = service.shard_digests()
        await service.stop()
        return digests

    expected = run(scenario())
    current = tmp_path / CURRENT_FILENAME
    current.write_text("not json {")

    async def recover():
        service = AllocationService(_config(tmp_path))
        await service.start()
        digests = service.shard_digests()
        events = list(service.recovery_events)
        await service.stop()
        return digests, events

    digests, events = run(recover())
    assert digests == expected
    assert any(e["kind"] == "current-pointer" for e in events)
    # The rebuilt pointer is valid again and covers the new generation.
    doc = _read_current(tmp_path)
    assert doc["entries"][0]["digest"] is not None


@pytest.mark.parametrize(
    "text",
    [
        "not json {",
        "[]",
        "7",
        '{"magic": "something-else", "entries": []}',
        '{"magic": "repro-snapshot-current"}',
        '{"magic": "repro-snapshot-current", "entries": [7]}',
        '{"magic": "repro-snapshot-current", "entries": [{"gen": "x"}]}',
    ],
)
def test_malformed_current_is_one_typed_error_for_startup_and_fsck(tmp_path, text):
    (tmp_path / CURRENT_FILENAME).write_text(text)
    with pytest.raises(ValueError):
        read_current(str(tmp_path))
    assert [f.path for f in run_fsck(str(tmp_path)).errors] == [CURRENT_FILENAME]

    async def recover():
        service = AllocationService(_config(tmp_path))
        await service.start()
        events = list(service.recovery_events)
        await service.stop()
        return events

    assert [e["kind"] for e in run(recover())] == ["current-pointer"]


def test_all_generations_corrupt_is_failure_stop(tmp_path):
    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=6, cuts=1)
        await service.stop()

    run(scenario())
    for name in _gen_files(tmp_path):
        flip_bit(str(tmp_path / name), byte_offset=25)

    async def recover():
        service = AllocationService(_config(tmp_path))
        await service.start()

    with pytest.raises(CheckpointError, match="snapshot-import"):
        run(recover())


def test_config_change_is_refused_not_quarantined(tmp_path):
    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=4)
        await service.stop()

    run(scenario())

    async def recover():
        service = AllocationService(
            _config(tmp_path, allocator=AllocatorConfig(algorithm="exhaustive_bucketing", seed=11))
        )
        await service.start()

    with pytest.raises(CheckpointError, match="different.*configuration"):
        run(recover())
    # Refused loudly, but the bytes are fine: nothing was quarantined.
    assert not any(name.endswith(".corrupt") for name in os.listdir(tmp_path))


def test_shard_state_missing_dedup_is_refused(tmp_path):
    """A digest-valid generation whose shard state lacks the dedup window
    is another format: refused by name, not started with an empty window
    (which would re-execute every keyed op still in flight)."""

    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=6)
        await service.stop()

    run(scenario())
    chain = read_current(str(tmp_path))
    path = str(tmp_path / snapshot_filename(chain[0]["gen"]))
    kind, payload = load_checkpoint(path)
    index = max(range(len(payload["shards"])), key=lambda i: len(payload["shards"][i]["dedup"]))
    assert payload["shards"][index]["dedup"]  # keyed responses were in the window
    del payload["shards"][index]["dedup"]
    chain[0]["digest"] = save_checkpoint(path, kind, payload)
    write_current(str(tmp_path), chain)

    async def recover():
        service = AllocationService(_config(tmp_path))
        await service.start()

    with pytest.raises(CheckpointError, match=f"shard {index} .*'dedup'"):
        run(recover())
    # Refused, not corrupt: the bytes verified, nothing was quarantined.
    assert not any(name.endswith(".corrupt") for name in os.listdir(tmp_path))


def test_pre_generational_snapshot_is_refused_not_ignored(tmp_path):
    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=6)
        await service.stop()

    run(scenario())
    # Rewind the directory to the pre-generational layout: one
    # service.snapshot.json, no CURRENT, no generations, no segments.
    newest = _read_current(tmp_path)["entries"][0]
    os.replace(
        tmp_path / snapshot_filename(newest["gen"]),
        tmp_path / PRE_GENERATIONAL_FILENAME,
    )
    for name in os.listdir(tmp_path):
        if (
            parse_generation(name) is not None
            or parse_segment(name) is not None
            or name == CURRENT_FILENAME
        ):
            os.remove(tmp_path / name)
    before = sorted(os.listdir(tmp_path))

    async def recover():
        service = AllocationService(_config(tmp_path))
        await service.start()

    # Starting empty beside the only copy of the state would be silent
    # data loss; the refusal names the file and the way out.
    with pytest.raises(CheckpointError, match="snapshot-retention 1") as excinfo:
        run(recover())
    assert PRE_GENERATIONAL_FILENAME in str(excinfo.value)
    assert sorted(os.listdir(tmp_path)) == before  # nothing written or moved
    report = run_fsck(str(tmp_path))
    assert [f.path for f in report.errors] == [PRE_GENERATIONAL_FILENAME]
    assert "snapshot-retention 1" in report.errors[0].problem


def test_corrupt_live_wal_is_quarantined_with_prefix_kept(tmp_path):
    async def scenario():
        config = _config(tmp_path)
        service = await _seed_service(config, n_ops=8)
        service.abort()  # crash: live WAL is the only record of the ops

        wals = [n for n in os.listdir(tmp_path) if n.endswith(".wal")]
        victim = max(
            wals, key=lambda n: os.path.getsize(os.path.join(str(tmp_path), n))
        )
        victim_path = os.path.join(str(tmp_path), victim)
        flip_bit(victim_path, byte_offset=os.path.getsize(victim_path) // 3)

        resumed = AllocationService(config)
        await resumed.start()
        events = list(resumed.recovery_events)
        # The shard is live and serving despite the corrupt journal.
        await resumed.submit(_op(100))
        await resumed.stop()
        return victim_path, events

    victim_path, events = run(scenario())
    assert any(e["kind"] == "journal-corrupt" for e in events)
    assert os.path.isdir(victim_path + ".corrupt")


def record_renames_and_fsyncs(monkeypatch):
    """Log every ``os.replace`` (target name) and ``os.fsync`` (file or dir).

    Directories are told apart by ``fstat`` on the fsynced fd, so the
    log shows whether a rename was followed by an fsync of its parent.
    """
    events = []
    real_replace, real_fsync = os.replace, os.fsync

    def replace(src, dst):
        real_replace(src, dst)
        events.append(("rename", os.path.basename(dst)))

    def fsync(fd):
        real_fsync(fd)
        kind = "fsync-dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync-file"
        events.append((kind, None))

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    return events


def assert_each_rename_dir_fsynced(events):
    for i, (kind, name) in enumerate(events):
        if kind == "rename":
            assert events[i + 1 : i + 2] == [("fsync-dir", None)], (name, events)


def test_snapshot_renames_are_each_followed_by_a_directory_fsync(tmp_path, monkeypatch):
    """Generation file, CURRENT pointer, WAL archive: a power loss must
    not keep a later rename and lose an earlier one (recovery would
    skip the archived segment and drop acknowledged ops), so each
    rename is made durable by fsyncing its directory before the next."""

    async def scenario():
        service = await _seed_service(_config(tmp_path), n_ops=6)
        events = record_renames_and_fsyncs(monkeypatch)
        await service.snapshot()
        monkeypatch.undo()
        gen = service.generation
        await service.stop(snapshot=False)
        return gen, events

    gen, events = run(scenario())
    renamed = [name for kind, name in events if kind == "rename"]
    assert renamed[:2] == [snapshot_filename(gen), CURRENT_FILENAME]
    assert renamed[2:] and all(
        parse_segment(name) is not None and parse_segment(name)[1] == gen
        for name in renamed[2:]
    )
    assert_each_rename_dir_fsynced(events)
