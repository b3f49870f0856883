"""Kill/resume bit-identity of the allocation service.

A seeded, scripted operation stream is the contract: however the
service is interrupted — in-process crash (writer tasks cancelled, no
drain, no final snapshot) or a SIGTERM'd daemon subprocess — a service
resumed from the write-ahead logs answers the *remaining* operations
bit-identically to an uninterrupted run.

The uninterrupted response stream is pinned as a golden file::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/service/test_kill_resume.py

so any drift in allocation semantics, seeding, WAL replay, or response
shape shows up as a byte diff against ``tests/golden/service_stream.jsonl``.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.service import AllocationService, ServiceConfig

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "service_stream.jsonl"

CATEGORIES = ["proc", "merge", "fit", "plot", "scan"]


def _script(n: int = 30) -> List[Dict[str, Any]]:
    """The pinned operation stream (allocate/record/retry mix)."""
    ops: List[Dict[str, Any]] = []
    for i in range(n):
        category = CATEGORIES[i % len(CATEGORIES)]
        ops.append({"op": "allocate", "category": category, "task_id": i})
        ops.append(
            {
                "op": "record",
                "category": category,
                "task_id": i,
                "peaks": {
                    "cores": 1,
                    "memory": 250.0 + 41.0 * (i % 13),
                    "disk": 12.0 + 2.0 * (i % 7),
                },
            }
        )
        if i % 6 == 2:
            previous = {"cores": 1, "memory": 180.0 + 9.0 * i, "disk": 11.0}
            ops.append(
                {
                    "op": "allocate_retry",
                    "category": category,
                    "task_id": i,
                    "previous": previous,
                    "observed": previous,
                    "exhausted": ["memory"],
                }
            )
    return ops


def _config(data_dir: Optional[str] = None) -> ServiceConfig:
    return ServiceConfig(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=11,
            exploratory=ExploratoryConfig(min_records=4),
        ),
        n_shards=3,
        data_dir=data_dir,
        durability="batch",
    )


def _canonical(position: int, response: Dict[str, Any]) -> str:
    return json.dumps({"i": position, "response": response}, sort_keys=True)


async def _run_stream(
    config: ServiceConfig,
    ops: List[Dict[str, Any]],
    crash_after: Optional[int] = None,
    snapshot_at: Optional[int] = None,
) -> List[str]:
    """Run the script, optionally crashing (abort) after ``crash_after`` ops."""
    lines: List[str] = []
    service = AllocationService(config)
    await service.start()
    for position, op in enumerate(ops):
        if crash_after is not None and position == crash_after:
            service.abort()
            service = AllocationService(config)
            await service.start()
        if snapshot_at is not None and position == snapshot_at:
            await service.snapshot()
        lines.append(_canonical(position, await service.submit(op)))
    await service.stop()
    return lines


def _golden_lines() -> List[str]:
    return asyncio.run(_run_stream(_config(), _script()))


def test_uninterrupted_stream_matches_golden():
    lines = _golden_lines()
    if os.environ.get("REGEN_GOLDEN"):
        from repro.checkpoint import write_text_atomic

        write_text_atomic(str(GOLDEN_PATH), "\n".join(lines) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; run with REGEN_GOLDEN=1 to create it"
    )
    assert "\n".join(lines) + "\n" == GOLDEN_PATH.read_text(), (
        "uninterrupted service stream diverged from the golden file; "
        "if the change is intentional, regenerate with REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("crash_after", [1, 13, 37, 60])
def test_crash_resume_stream_is_bit_identical(tmp_path, crash_after):
    """Crash mid-stream, resume from the WAL, finish identically."""
    golden = _golden_lines()
    data_dir = str(tmp_path / "state")
    resumed = asyncio.run(
        _run_stream(_config(data_dir), _script(), crash_after=crash_after)
    )
    assert resumed == golden


def test_double_crash_with_online_snapshot(tmp_path):
    """Snapshot mid-traffic, crash after it, crash again — still identical."""
    golden = _golden_lines()
    data_dir = str(tmp_path / "state")
    ops = _script()

    async def scenario() -> List[str]:
        lines: List[str] = []
        service = AllocationService(_config(data_dir))
        await service.start()
        for position, op in enumerate(ops):
            if position == 20:
                await service.snapshot()  # WALs truncate here
            if position in (31, 52):
                service.abort()
                service = AllocationService(_config(data_dir))
                await service.start()
            lines.append(_canonical(position, await service.submit(op)))
        await service.stop()
        return lines

    assert asyncio.run(scenario()) == golden


def test_resume_tolerates_torn_wal_tail(tmp_path):
    """A partial final WAL line (torn write) is dropped, not fatal."""
    data_dir = str(tmp_path / "state")
    ops = _script()
    config = _config(data_dir)

    async def first_leg() -> None:
        service = AllocationService(config)
        await service.start()
        for op in ops[:15]:
            await service.submit(op)
        service.abort()

    asyncio.run(first_leg())
    # Simulate a crash mid-append: garbage half-line at one WAL's tail.
    torn = False
    for name in sorted(os.listdir(data_dir)):
        if name.endswith(".wal") and os.path.getsize(os.path.join(data_dir, name)):
            with open(os.path.join(data_dir, name), "a", encoding="utf-8") as fh:
                fh.write('{"seq": 9999, "op": {"op": "allo')
            torn = True
            break
    assert torn

    async def second_leg() -> int:
        service = AllocationService(config)
        await service.start()
        recovered = service.recovered_ops
        await service.stop()
        return recovered

    assert asyncio.run(second_leg()) == 15


# ---------------------------------------------------------------------------
# The daemon: SIGTERM mid-ingest, restart, continue
# ---------------------------------------------------------------------------


def _spawn_daemon(socket_path: str, data_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
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
            "--durability",
            "batch",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=str(Path(__file__).resolve().parent.parent.parent),
    )
    ready = json.loads(proc.stdout.readline())
    assert ready["ready"] is True
    assert ready["endpoint"] == f"unix:{socket_path}"
    return proc


def _session(socket_path: str, ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One awaits-each-response client session over the UNIX socket."""
    responses = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(socket_path)
        stream = sock.makefile("rwb")
        for doc in ops:
            stream.write(json.dumps(doc).encode("utf-8") + b"\n")
            stream.flush()
            responses.append(json.loads(stream.readline()))
    return responses


def _daemon_ops() -> List[Dict[str, Any]]:
    ops: List[Dict[str, Any]] = []
    for i in range(16):
        category = CATEGORIES[i % 3]
        ops.append({"id": 2 * i, "op": "allocate", "category": category, "task_id": i})
        ops.append(
            {
                "id": 2 * i + 1,
                "op": "record",
                "category": category,
                "task_id": i,
                "peaks": {"cores": 1, "memory": 300.0 + 20.0 * i, "disk": 10.0},
            }
        )
    return ops


@pytest.mark.service
def test_daemon_sigterm_resume_stream_is_bit_identical(tmp_path):
    ops = _daemon_ops()
    kill_at = 11

    # Reference: one uninterrupted daemon.
    ref_socket = str(tmp_path / "ref.sock")
    ref_dir = str(tmp_path / "ref-state")
    proc = _spawn_daemon(ref_socket, ref_dir)
    try:
        reference = _session(ref_socket, ops)
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM

    # Interrupted: SIGTERM after kill_at acknowledged ops, restart on the
    # same state directory, continue the stream.
    data_dir = str(tmp_path / "state")
    sock_a = str(tmp_path / "a.sock")
    proc = _spawn_daemon(sock_a, data_dir)
    first = _session(sock_a, ops[:kill_at])
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    stderr = proc.stderr.read().decode("utf-8", "replace")
    assert "Traceback" not in stderr, stderr

    sock_b = str(tmp_path / "b.sock")
    proc = _spawn_daemon(sock_b, data_dir)
    try:
        rest = _session(sock_b, ops[kill_at:])
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM

    assert first + rest == reference
