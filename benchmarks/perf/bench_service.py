"""Allocation-service stress benchmark -> BENCH_service.json.

Drives an in-process :class:`repro.service.AllocationService` the way a
workflow manager would under load: many concurrent clients, thousands
of task categories, seeded Poisson dispatch failures forcing
``allocate_retry`` escalations, and a feedback ``record`` for every
completed task.  Everything is seeded, so two runs issue the identical
operation population; only the timings differ.

Measured families:

* **sustained request throughput** — saturated concurrent clients
  awaiting one operation at a time (the worst case for the coalescing
  writer: every queue drain is small).  Reported as
  ``service_throughput_kops_x`` (thousand operations per second,
  higher is better) so the regression gate treats drops as failures.
* **allocation latency** — per-``allocate`` wall latency percentiles
  across the sustained run: ``service_alloc_p50_s`` / ``p95_s`` /
  ``p99_s``.
* **batched throughput** — the same population submitted through
  ``allocate_batch`` in fixed-size chunks; one queue item per chunk,
  one WAL group commit per drain.
* **durable throughput** (full runs only) — the sustained scenario with
  the write-ahead log on (one fsync per group commit), the deployment
  configuration of the daemon.
* **wire overhead** — the same operation stream round-tripped over a
  UNIX socket, once through a raw NDJSON connection
  (``service_raw_socket_kops_x``) and once through the resilient
  client SDK with auto-keying on (``service_sdk_kops_x``), so the
  regression gate prices the SDK's idempotency/retry bookkeeping
  against the bare wire.

Usage::

    python benchmarks/perf/bench_service.py [--quick] [--out PATH] [--repeats N]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.core.allocator import AllocatorConfig  # noqa: E402
from repro.service import AllocationService, ServiceConfig  # noqa: E402

#: Bump when metric names or semantics change incompatibly.
SCHEMA_VERSION = 1

#: Mean dispatch failures per task (Poisson): each failure costs one
#: ``allocate_retry`` round trip before the task completes.
DISPATCH_FAILURE_RATE = 0.08


def _service_config(n_shards: int, data_dir: Optional[str] = None) -> ServiceConfig:
    return ServiceConfig(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=5,
            min_records=5,
        ),
        n_shards=n_shards,
        data_dir=data_dir,
    )


def make_task_stream(
    n_tasks: int, n_categories: int, seed: int = 0
) -> List[List[Dict[str, Any]]]:
    """Per-task operation programs: allocate, Poisson retries, record.

    Categories are drawn from a Zipf-flavoured distribution (a few hot
    categories, a long tail) over ``n_categories`` names; peaks follow
    the paper's running N(8 GB, 2 GB) example.  Seeded: the same
    ``(n_tasks, n_categories, seed)`` produce the identical stream.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_categories + 1) ** 0.9
    weights /= weights.sum()
    cats = rng.choice(n_categories, size=n_tasks, p=weights)
    retries = rng.poisson(DISPATCH_FAILURE_RATE, size=n_tasks)
    peaks = np.clip(rng.normal(8000.0, 2000.0, n_tasks), 50.0, None)
    programs: List[List[Dict[str, Any]]] = []
    for task_id in range(n_tasks):
        category = f"category-{cats[task_id]:05d}"
        program: List[Dict[str, Any]] = [
            {"op": "allocate", "category": category, "task_id": task_id}
        ]
        previous = {"cores": 1.0, "memory": 1000.0, "disk": 1000.0}
        for _ in range(int(retries[task_id])):
            program.append(
                {
                    "op": "allocate_retry",
                    "category": category,
                    "task_id": task_id,
                    "previous": previous,
                    "observed": previous,
                    "exhausted": ["memory"],
                }
            )
        program.append(
            {
                "op": "record",
                "category": category,
                "task_id": task_id,
                "peaks": {
                    "cores": 1,
                    "memory": float(peaks[task_id]),
                    "disk": float(peaks[task_id]) / 16.0,
                },
            }
        )
        programs.append(program)
    return programs


async def _drive_sustained(
    service: AllocationService,
    programs: List[List[Dict[str, Any]]],
    n_clients: int,
) -> Tuple[float, np.ndarray, int]:
    """Saturated clients, one awaited op at a time.

    Returns (wall seconds, per-allocate latencies, total ops applied).
    """
    alloc_latencies: List[float] = []
    total_ops = 0

    async def client(worker: int) -> None:
        nonlocal total_ops
        for index in range(worker, len(programs), n_clients):
            for op in programs[index]:
                start = time.perf_counter()
                await service.submit(op)
                if op["op"] == "allocate":
                    alloc_latencies.append(time.perf_counter() - start)
                total_ops += 1

    start = time.perf_counter()
    await asyncio.gather(*(client(w) for w in range(n_clients)))
    wall = time.perf_counter() - start
    return wall, np.asarray(alloc_latencies), total_ops


async def _drive_batched(
    service: AllocationService,
    programs: List[List[Dict[str, Any]]],
    chunk: int,
) -> Tuple[float, int]:
    """The same population as one flat stream of fixed-size batches."""
    flat = [op for program in programs for op in program]
    start = time.perf_counter()
    for begin in range(0, len(flat), chunk):
        await service.submit_batch(flat[begin : begin + chunk])
    return time.perf_counter() - start, len(flat)


def bench_sustained(
    programs: List[List[Dict[str, Any]]],
    n_shards: int,
    n_clients: int,
    repeats: int,
    data_dir: Optional[str] = None,
) -> Tuple[float, np.ndarray]:
    """(best kops, latencies from the best repeat) for the client mode."""
    best_kops = 0.0
    best_latencies = np.asarray([0.0])

    async def one_run() -> Tuple[float, np.ndarray]:
        service = AllocationService(_service_config(n_shards, data_dir))
        await service.start()
        wall, latencies, ops = await _drive_sustained(service, programs, n_clients)
        await service.stop()
        return ops / wall / 1000.0, latencies

    for rep in range(repeats):
        if data_dir is not None:
            # Fresh state per repeat: recovery is not what is measured.
            for name in os.listdir(data_dir):
                os.unlink(os.path.join(data_dir, name))
        kops, latencies = asyncio.run(one_run())
        if kops > best_kops:
            best_kops, best_latencies = kops, latencies
    return best_kops, best_latencies


def bench_batched(
    programs: List[List[Dict[str, Any]]],
    n_shards: int,
    chunk: int,
    repeats: int,
) -> float:
    async def one_run() -> float:
        service = AllocationService(_service_config(n_shards))
        await service.start()
        wall, ops = await _drive_batched(service, programs, chunk)
        await service.stop()
        return ops / wall / 1000.0

    return max(asyncio.run(one_run()) for _ in range(repeats))


async def _drive_raw_socket(socket_path: str, flat: List[Dict[str, Any]]) -> float:
    """Sequential NDJSON round trips on one bare connection."""
    reader, writer = await asyncio.open_unix_connection(socket_path)
    start = time.perf_counter()
    for op in flat:
        writer.write(json.dumps(op).encode() + b"\n")
        await writer.drain()
        await reader.readline()
    wall = time.perf_counter() - start
    writer.close()
    return wall


async def _drive_sdk(socket_path: str, flat: List[Dict[str, Any]]) -> float:
    """The same round trips through AsyncServiceClient (auto-keyed)."""
    from repro.service import AsyncServiceClient

    client = AsyncServiceClient(socket_path=socket_path, client_id="bench")
    start = time.perf_counter()
    for op in flat:
        await client.call(dict(op))
    wall = time.perf_counter() - start
    await client.close()
    return wall


def bench_wire(
    programs: List[List[Dict[str, Any]]],
    n_shards: int,
    n_wire_ops: int,
    repeats: int,
) -> Tuple[float, float]:
    """(raw-socket kops, SDK kops) over a UNIX socket, best of repeats."""
    from repro.service import AllocationServer

    flat = [op for program in programs for op in program][:n_wire_ops]

    async def one_run() -> Tuple[float, float]:
        with tempfile.TemporaryDirectory(prefix="bench-service-wire-") as workdir:
            socket_path = os.path.join(workdir, "bench.sock")
            service = AllocationService(_service_config(n_shards))
            await service.start()
            server = AllocationServer(service, socket_path=socket_path)
            await server.start()
            try:
                raw_wall = await _drive_raw_socket(socket_path, flat)
                sdk_wall = await _drive_sdk(socket_path, flat)
            finally:
                await server.stop()
                await service.stop()
        return len(flat) / raw_wall / 1000.0, len(flat) / sdk_wall / 1000.0

    best_raw = best_sdk = 0.0
    for _ in range(repeats):
        raw_kops, sdk_kops = asyncio.run(one_run())
        best_raw = max(best_raw, raw_kops)
        best_sdk = max(best_sdk, sdk_kops)
    return best_raw, best_sdk


def run_suite(quick: bool = False, repeats: Optional[int] = None) -> Dict[str, object]:
    """Execute the stress scenarios; return the BENCH_service.json document."""
    repeats = repeats if repeats is not None else (1 if quick else 3)
    n_tasks = 2_000 if quick else 20_000
    n_categories = 400 if quick else 4_000
    n_shards = 8
    n_clients = 32

    programs = make_task_stream(n_tasks, n_categories, seed=0)
    n_ops = sum(len(p) for p in programs)

    metrics: Dict[str, float] = {}

    kops, latencies = bench_sustained(programs, n_shards, n_clients, repeats)
    metrics["service_throughput_kops_x"] = kops
    metrics["service_alloc_p50_s"] = float(np.percentile(latencies, 50))
    metrics["service_alloc_p95_s"] = float(np.percentile(latencies, 95))
    metrics["service_alloc_p99_s"] = float(np.percentile(latencies, 99))

    metrics["service_batch_throughput_kops_x"] = bench_batched(
        programs, n_shards, chunk=64, repeats=repeats
    )

    n_wire_ops = 2_000 if quick else 6_000
    raw_kops, sdk_kops = bench_wire(programs, n_shards, n_wire_ops, repeats)
    metrics["service_raw_socket_kops_x"] = raw_kops
    metrics["service_sdk_kops_x"] = sdk_kops

    if not quick:
        with tempfile.TemporaryDirectory(prefix="bench-service-") as data_dir:
            wal_kops, _ = bench_sustained(
                programs, n_shards, n_clients, repeats, data_dir=data_dir
            )
        metrics["service_wal_throughput_kops_x"] = wal_kops

    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "repeats": repeats,
        "n_tasks": n_tasks,
        "n_categories": n_categories,
        "n_ops": n_ops,
        "n_shards": n_shards,
        "n_clients": n_clients,
        "dispatch_failure_rate": DISPATCH_FAILURE_RATE,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(_REPO_ROOT, "BENCH_service.json"),
        help="output JSON path (default: BENCH_service.json at the repo root)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-scale smoke pass (CI): smaller population, one repeat",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    args = parser.parse_args(argv)

    doc = run_suite(quick=args.quick, repeats=args.repeats)
    from repro.checkpoint import write_text_atomic

    write_text_atomic(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    width = max(len(k) for k in doc["metrics"])
    for key in sorted(doc["metrics"]):
        value = doc["metrics"][key]
        unit = "kops/s" if key.endswith("_x") else "s"
        print(f"{key:<{width}}  {value:12.6f} {unit}")
    print(f"\nwrote {args.out}")

    throughput = doc["metrics"]["service_throughput_kops_x"]
    print(f"sustained allocation service throughput: {throughput * 1000:,.0f} ops/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
