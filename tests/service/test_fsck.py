"""Offline fsck + backup tooling against real service data dirs.

Every corruption class the durability layer defends against must be
*visible* to the offline auditor: mid-stream WAL damage, snapshot
digest drift, a missing referenced generation, a mangled CURRENT
pointer, sequence gaps.  Torn tails and quarantine directories are
notes, not errors — they are evidence of survived failures, not live
ones.  The backup path must refuse bit-rotted or hostile archives.
"""

import asyncio
import io
import json
import os
import tarfile

import pytest

from repro.checkpoint import JournalWriter, file_digest
from repro.cli import main as cli_main
from repro.core.allocator import AllocatorConfig
from repro.faultfs import flip_bit
from repro.service.config import ServiceConfig
from repro.service.fsck import (
    BACKUP_KIND,
    BACKUP_VERSION,
    FSCK_ERRORS,
    FSCK_FAILED,
    FSCK_OK,
    MANIFEST_NAME,
    export_backup,
    import_backup,
    render_report,
    run_fsck,
)
from repro.service.service import (
    CURRENT_FILENAME,
    AllocationService,
    snapshot_filename,
)


def run(coro):
    return asyncio.run(coro)


def _config(data_dir):
    return ServiceConfig(
        allocator=AllocatorConfig(algorithm="greedy_bucketing", seed=11),
        n_shards=2,
        data_dir=str(data_dir),
        durability="batch",
    )


def _op(i):
    return {"op": "allocate", "category": f"cat-{i % 3}", "task_id": i, "key": f"k{i}"}


def _populate(data_dir, n_ops=8, snapshot_mid=True):
    """Build a real data dir: ops, a mid-stream cut, live WAL tail."""

    async def scenario():
        service = AllocationService(_config(data_dir))
        await service.start()
        for i in range(n_ops):
            await service.submit(_op(i))
            if snapshot_mid and i == n_ops // 2:
                await service.snapshot()
        digests = service.shard_digests()
        service.abort()  # leave a live WAL tail for fsck to chew on
        return digests

    return run(scenario())


def _newest_gen_path(data_dir):
    with open(os.path.join(str(data_dir), CURRENT_FILENAME), encoding="utf-8") as f:
        doc = json.load(f)
    return os.path.join(str(data_dir), snapshot_filename(doc["entries"][0]["gen"]))


# ---------------------------------------------------------------------------
# run_fsck
# ---------------------------------------------------------------------------


def test_clean_data_dir_is_clean(tmp_path):
    _populate(tmp_path)
    report = run_fsck(str(tmp_path))
    assert report.ok
    assert report.exit_code == FSCK_OK
    assert report.errors == []
    assert report.checked_files >= 4  # CURRENT + snapshot(s) + 2 WALs
    assert "clean" in render_report(report)


def test_fsck_rejects_missing_directory(tmp_path):
    with pytest.raises(ValueError):
        run_fsck(str(tmp_path / "nope"))


def test_mid_stream_wal_corruption_is_an_error(tmp_path):
    _populate(tmp_path)
    wals = [n for n in os.listdir(tmp_path) if n.endswith(".wal")]
    victim = os.path.join(str(tmp_path), max(
        wals, key=lambda n: os.path.getsize(os.path.join(str(tmp_path), n))
    ))
    flip_bit(victim, byte_offset=os.path.getsize(victim) // 3)
    report = run_fsck(str(tmp_path))
    assert not report.ok
    assert report.exit_code == FSCK_ERRORS
    assert any("corruption" in f.problem for f in report.errors)
    assert "CORRUPTION DETECTED" in render_report(report)


def test_snapshot_digest_drift_is_an_error(tmp_path):
    _populate(tmp_path)
    flip_bit(_newest_gen_path(tmp_path), byte_offset=50)
    report = run_fsck(str(tmp_path))
    assert any("digest mismatch" in f.problem for f in report.errors)


def test_missing_referenced_generation_is_an_error(tmp_path):
    _populate(tmp_path)
    os.remove(_newest_gen_path(tmp_path))
    report = run_fsck(str(tmp_path))
    assert any("referenced by CURRENT" in f.problem for f in report.errors)


def test_mangled_current_pointer_is_an_error(tmp_path):
    _populate(tmp_path)
    (tmp_path / CURRENT_FILENAME).write_text("{]")
    report = run_fsck(str(tmp_path))
    assert any(f.path == CURRENT_FILENAME for f in report.errors)


def test_sequence_gap_is_an_error(tmp_path):
    writer = JournalWriter(str(tmp_path / "shard-00.wal"), sync="batch")
    writer.append({"seq": 1, "op": "allocate"})
    writer.append({"seq": 3, "op": "allocate"})  # 2 went missing
    writer.close()
    report = run_fsck(str(tmp_path))
    assert any("sequence gap" in f.problem for f in report.errors)


def test_torn_tail_and_quarantine_are_notes_not_errors(tmp_path):
    _populate(tmp_path)
    wal = os.path.join(str(tmp_path), "shard-00.wal")
    with open(wal, "ab") as handle:
        handle.write(b"F1 999 deadbe")  # crashed mid-append, no newline
    quarantine = tmp_path / "shard-01.wal.corrupt"
    quarantine.mkdir()
    (quarantine / "0001-shard-01.wal").write_text("old damage\n")
    report = run_fsck(str(tmp_path))
    assert report.ok  # notes never fail the check
    assert any("torn final line" in f.problem for f in report.notes)
    assert any("quarantine" in f.problem for f in report.notes)


# ---------------------------------------------------------------------------
# Backup export / import
# ---------------------------------------------------------------------------


def test_backup_round_trip_restores_identical_state(tmp_path):
    source = tmp_path / "source"
    expected = _populate(source)
    archive = tmp_path / "backup.tar.gz"
    manifest = export_backup(str(source), str(archive))
    assert manifest["kind"] == BACKUP_KIND
    assert manifest["files"]

    target = tmp_path / "restored"
    restored = import_backup(str(archive), str(target))
    assert restored["files"] == manifest["files"]
    for name, digest in manifest["files"].items():
        assert file_digest(os.path.join(str(target), name)) == digest
    assert run_fsck(str(target)).ok

    async def boot():
        service = AllocationService(_config(target))
        await service.start()
        digests = service.shard_digests()
        await service.stop()
        return digests

    assert run(boot()) == expected


def test_import_refuses_occupied_dir_unless_forced(tmp_path):
    source = tmp_path / "source"
    _populate(source)
    archive = tmp_path / "backup.tar.gz"
    export_backup(str(source), str(archive))
    with pytest.raises(ValueError, match="--force"):
        import_backup(str(archive), str(source))
    import_backup(str(archive), str(source), force=True)
    assert run_fsck(str(source)).ok


def _write_archive(path, manifest, members):
    with tarfile.open(path, "w:gz") as tar:
        blob = json.dumps(manifest).encode("utf-8")
        info = tarfile.TarInfo(MANIFEST_NAME)
        info.size = len(blob)
        tar.addfile(info, io.BytesIO(blob))
        for name, data in members.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))


def test_import_refuses_bit_rotted_member(tmp_path):
    manifest = {
        "kind": BACKUP_KIND,
        "version": BACKUP_VERSION,
        "files": {"shard-00.wal": "0" * 64},  # will not match the bytes
    }
    archive = tmp_path / "rotten.tar.gz"
    _write_archive(str(archive), manifest, {"shard-00.wal": b"data\n"})
    target = tmp_path / "restored"
    with pytest.raises(ValueError, match="corrupt"):
        import_backup(str(archive), str(target))
    # Nothing half-restored: the staged file was rolled back.
    assert not [n for n in os.listdir(target) if not n.endswith(".import")]


def test_import_refuses_unsafe_member_names(tmp_path):
    manifest = {
        "kind": BACKUP_KIND,
        "version": BACKUP_VERSION,
        "files": {os.path.join("..", "escape.wal"): "0" * 64},
    }
    archive = tmp_path / "hostile.tar.gz"
    _write_archive(str(archive), manifest, {})
    with pytest.raises(ValueError, match="unsafe"):
        import_backup(str(archive), str(tmp_path / "restored"))


def test_import_refuses_foreign_archives(tmp_path):
    archive = tmp_path / "foreign.tar.gz"
    _write_archive(str(archive), {"kind": "something-else"}, {})
    with pytest.raises(ValueError, match=BACKUP_KIND):
        import_backup(str(archive), str(tmp_path / "restored"))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_fsck_exit_codes_and_json(tmp_path, capsys):
    _populate(tmp_path)
    assert cli_main(["fsck", "--data-dir", str(tmp_path)]) == FSCK_OK
    capsys.readouterr()
    assert cli_main(["fsck", "--data-dir", str(tmp_path), "--json"]) == FSCK_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True

    flip_bit(_newest_gen_path(tmp_path), byte_offset=60)
    assert cli_main(["fsck", "--data-dir", str(tmp_path)]) == FSCK_ERRORS
    assert cli_main(["fsck"]) == FSCK_FAILED  # no --data-dir
    assert cli_main(["fsck", "--data-dir", str(tmp_path / "nope")]) == FSCK_FAILED


def test_cli_backup_round_trip(tmp_path, capsys):
    source = tmp_path / "source"
    _populate(source)
    archive = str(tmp_path / "backup.tar.gz")
    assert cli_main(["snapshot-export", "--data-dir", str(source)]) == FSCK_FAILED
    assert (
        cli_main(["snapshot-export", "--data-dir", str(source), "--archive", archive])
        == 0
    )
    target = str(tmp_path / "restored")
    assert (
        cli_main(["snapshot-import", "--data-dir", target, "--archive", archive]) == 0
    )
    capsys.readouterr()
    assert cli_main(["fsck", "--data-dir", target]) == FSCK_OK
    # Occupied target without --force fails; with it, succeeds.
    assert (
        cli_main(["snapshot-import", "--data-dir", target, "--archive", archive])
        == FSCK_FAILED
    )
    assert (
        cli_main(
            ["snapshot-import", "--data-dir", target, "--archive", archive, "--force"]
        )
        == 0
    )
