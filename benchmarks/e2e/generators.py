"""Seeded input generators of the end-to-end benchmark.

Every workload's operation population is a pure function of
``(seed, scale)``: the program under test only ever sees the generated
documents.  Sizes are for the 2-core reference box at ``scale == 1``
(one timed repetition of roughly five seconds); ``scale`` multiplies
every *count* by one common factor and leaves the distributions alone,
so a ``--quick`` run exercises the same code paths on fewer operations.

The generators deliberately do not import ``benchmarks/perf`` — the
benchmark is self-contained, and its inputs must not move when that
suite is edited.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

import numpy as np

Op = Dict[str, Any]
Program = List[Op]

#: Mean dispatch failures per task (Poisson); each costs one
#: ``allocate_retry`` round trip before the task's ``record``.
RETRY_RATE = 0.08

#: The allocation a first-attempt retry escalates from (the allocator's
#: exploratory vector): retries in the open-loop programs carry it as
#: both ``previous`` and ``observed``.
EXPLORATORY = {"cores": 1.0, "memory": 1000.0, "disk": 1000.0}

#: Operations of every service workload replayed untimed before the
#: first timed one (lazy imports, allocator construction for the hot
#: categories, socket buffers).
WARMUP_OPS = 1000

# Reference sizes (scale == 1).
WIRE_TASKS = 7000
WIRE_CATEGORIES = 1600
WIRE_POST_TASKS = 900  # untimed, between the snapshot and the crash
BATCH_CYCLES = 600
BATCH_CATEGORIES = 400
BATCH_RECORDS = 64  # record ops per allocate_batch
BATCH_ALLOCATES = 8  # single allocate calls per cycle
HOT_CATEGORIES = 4  # not scaled: one per default shard-ish, all hot
HOT_SEED_RECORDS = 5000  # per category, not scaled: the depth IS the workload
HOT_TASKS = 1300
SIM_TASKS = 1000  # make_workflow("topeft") scale: 1000 -> the published 4,569


def scaled(count: int, scale: float, floor: int = 1) -> int:
    """``count`` times the common scale factor, never below ``floor``."""
    return max(floor, int(round(count * scale)))


def zipf_weights(n: int, exponent: float = 0.9) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def ops_hash(programs: Sequence[Any]) -> str:
    """sha256 of the canonical JSON form (the seed-determinism handle)."""
    blob = json.dumps(programs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record(category: str, task_id: int, cores: float, memory: float, disk: float) -> Op:
    return {
        "op": "record",
        "category": category,
        "task_id": task_id,
        "peaks": {"cores": cores, "memory": memory, "disk": disk},
    }


def _program(category: str, task_id: int, n_retries: int, peaks: Sequence[float]) -> Program:
    """One task: ``allocate``, ``n_retries`` escalations, ``record`` of its peaks."""
    program: Program = [{"op": "allocate", "category": category, "task_id": task_id}]
    for _ in range(n_retries):
        program.append(
            {
                "op": "allocate_retry",
                "category": category,
                "task_id": task_id,
                "previous": EXPLORATORY,
                "observed": EXPLORATORY,
                "exhausted": ["memory"],
            }
        )
    program.append(_record(category, task_id, *(float(peak) for peak in peaks)))
    return program


def task_programs(rng: np.random.Generator, n_tasks: int, n_categories: int) -> List[Program]:
    """Per-task programs: ``allocate``, Poisson retries, ``record``.

    Categories are Zipf(0.9) over ``n_categories`` names.  Each category
    has its own memory level (log-normal across categories, 10 % noise
    within one) so the bucketing has something to learn; all peaks stay
    well inside the 16-core / 64 GB worker.
    """
    cats = rng.choice(n_categories, size=n_tasks, p=zipf_weights(n_categories))
    retries = rng.poisson(RETRY_RATE, size=n_tasks)
    level = np.clip(rng.lognormal(np.log(4000.0), 0.6, n_categories), 200.0, 40000.0)
    memory = np.clip(level[cats] * rng.normal(1.0, 0.1, n_tasks), 50.0, 60000.0)
    cores = rng.integers(1, 5, size=n_tasks)
    disk = np.clip(rng.exponential(2000.0, n_tasks), 10.0, 60000.0)
    return [
        _program(f"category-{cats[i]:05d}", i, int(retries[i]), (cores[i], memory[i], disk[i]))
        for i in range(n_tasks)
    ]


def wire_durable_inputs(seed: int, scale: float) -> Dict[str, List[Program]]:
    """``svc-wire-durable``: warm-up, timed and post-snapshot programs."""
    rng = np.random.default_rng([seed, 1])
    n_categories = scaled(WIRE_CATEGORIES, scale, floor=16)
    n_timed = scaled(WIRE_TASKS, scale, floor=64)
    n_post = scaled(WIRE_POST_TASKS, scale, floor=32)
    n_warm = WARMUP_OPS // 2
    programs = task_programs(rng, n_warm + n_timed + n_post, n_categories)
    return {
        "warmup": programs[:n_warm],
        "timed": programs[n_warm : n_warm + n_timed],
        "post": programs[n_warm + n_timed :],
    }


def batch_ingest_inputs(seed: int, scale: float) -> Dict[str, List[Dict[str, List[Op]]]]:
    """``svc-batch-ingest``: cycles of one 64-record batch + 8 allocates."""
    rng = np.random.default_rng([seed, 2])
    n_warm = max(1, WARMUP_OPS // (BATCH_RECORDS + BATCH_ALLOCATES))
    n_cycles = n_warm + scaled(BATCH_CYCLES, scale, floor=8)
    n_ops = n_cycles * BATCH_RECORDS
    weights = zipf_weights(BATCH_CATEGORIES)
    rec_cats = rng.choice(BATCH_CATEGORIES, size=n_ops, p=weights)
    alloc_cats = rng.choice(BATCH_CATEGORIES, size=n_cycles * BATCH_ALLOCATES, p=weights)
    level = np.clip(rng.lognormal(np.log(4000.0), 0.6, BATCH_CATEGORIES), 200.0, 40000.0)
    memory = np.clip(level[rec_cats] * rng.normal(1.0, 0.1, n_ops), 50.0, 60000.0)
    cores = rng.integers(1, 5, size=n_ops)
    disk = np.clip(rng.exponential(2000.0, n_ops), 10.0, 60000.0)
    cycles: List[Dict[str, List[Op]]] = []
    task_id = 0
    for c in range(n_cycles):
        batch: List[Op] = []
        for j in range(c * BATCH_RECORDS, (c + 1) * BATCH_RECORDS):
            batch.append(
                _record(
                    f"category-{rec_cats[j]:05d}",
                    task_id,
                    float(cores[j]),
                    float(memory[j]),
                    float(disk[j]),
                )
            )
            task_id += 1
        allocs: List[Op] = []
        for j in range(c * BATCH_ALLOCATES, (c + 1) * BATCH_ALLOCATES):
            allocs.append(
                {"op": "allocate", "category": f"category-{alloc_cats[j]:05d}", "task_id": task_id}
            )
            task_id += 1
        cycles.append({"batch": batch, "allocates": allocs})
    return {"warmup": cycles[:n_warm], "timed": cycles[n_warm:]}


def hot_greedy_inputs(seed: int, scale: float) -> Dict[str, Any]:
    """``core-hot-greedy``: deep seed records for 4 categories, then tasks.

    Bimodal memory, log-normal cores, exponential disk — three shapes so
    the greedy partition search sees separated, skewed and heavy-tailed
    value lists at depth 5,000-6,000.
    """
    rng = np.random.default_rng([seed, 3])
    names = [f"hot-{c}" for c in range(HOT_CATEGORIES)]

    def peaks(n: int) -> np.ndarray:
        high = rng.random(n) < 0.3
        memory = np.where(high, rng.normal(24000.0, 2000.0, n), rng.normal(6000.0, 800.0, n))
        cores = rng.lognormal(np.log(2.0), 0.5, n)
        disk = rng.exponential(3000.0, n)
        return np.column_stack(
            [
                np.clip(cores, 0.1, 16.0),
                np.clip(memory, 100.0, 60000.0),
                np.clip(disk, 10.0, 60000.0),
            ]
        )

    seed_batches: List[List[Op]] = []
    task_id = 0
    for name in names:
        batch = []
        for row in peaks(HOT_SEED_RECORDS):
            batch.append(_record(name, task_id, *(float(peak) for peak in row)))
            task_id += 1
        seed_batches.append(batch)

    n_warm = WARMUP_OPS // 50  # a decision costs ~2 ms here: 20 tasks, not 500
    n_tasks = n_warm + scaled(HOT_TASKS, scale, floor=16)
    cats = rng.integers(0, HOT_CATEGORIES, size=n_tasks)
    retries = rng.poisson(RETRY_RATE, size=n_tasks)
    values = peaks(n_tasks)
    programs = [
        _program(names[cats[i]], task_id + i, int(retries[i]), values[i]) for i in range(n_tasks)
    ]
    return {"seed": seed_batches, "warmup": programs[:n_warm], "timed": programs[n_warm:]}


def sim_topeft_tasks(scale: float) -> int:
    """``n_tasks`` handed to ``make_workflow("topeft")`` (1000 = published size)."""
    return scaled(SIM_TASKS, scale, floor=40)
