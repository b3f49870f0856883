"""``allocate_batch`` is bit-identical to a sequential loop.

The service's batch path coalesces a request list into per-shard
contiguous runs; the contract is that the responses — allocations,
modes, record counts, and the resulting allocator state — are exactly
what a client awaiting each request one at a time would have seen.

The sweep covers every registered algorithm (the paper's seven) and
Greedy Bucketing under a bucket cap,
because the bucketing algorithms are the ones with RNG- and
order-sensitive internals where coalescing bugs would hide.
"""

import asyncio
from dataclasses import replace
from typing import Any, Dict, List

import pytest

from repro.core.allocator import AllocatorConfig, ExploratoryConfig
from repro.core.base import ALGORITHM_REGISTRY
from repro.core.resources import ResourceVector
from repro.service import AllocationService, ServiceConfig

# Every registered algorithm, plus the greedy search's capped path.
VARIANTS = [(name, {}) for name in sorted(ALGORITHM_REGISTRY)] + [
    ("greedy_bucketing", {"max_buckets": 4}),
]

CATEGORIES = ["proc", "merge", "fit", "plot"]


def _script(n: int = 48) -> List[Dict[str, Any]]:
    """A deterministic mixed op stream touching every shard."""
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
                    "memory": 300.0 + 53.0 * (i % 17),
                    "disk": 20.0 + 3.0 * (i % 5),
                },
            }
        )
        if i % 7 == 3:
            previous = {"cores": 1, "memory": 200.0 + 10.0 * i, "disk": 15.0}
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


def _config(algorithm: str, kwargs: Dict[str, Any], **overrides) -> ServiceConfig:
    defaults = dict(
        allocator=AllocatorConfig(
            algorithm=algorithm,
            algorithm_kwargs=kwargs,
            seed=7,
            exploratory=ExploratoryConfig(min_records=4),
        ),
        n_shards=3,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _sequential(config: ServiceConfig, ops) -> tuple:
    service = AllocationService(config)
    await service.start()
    responses = [await service.submit(op) for op in ops]
    digests = service.shard_digests()
    await service.stop()
    return responses, digests


async def _batched(config: ServiceConfig, ops, chunk: int) -> tuple:
    service = AllocationService(config)
    await service.start()
    responses: List[Dict[str, Any]] = []
    for start in range(0, len(ops), chunk):
        responses.extend(await service.submit_batch(ops[start : start + chunk]))
    digests = service.shard_digests()
    await service.stop()
    return responses, digests


@pytest.mark.parametrize(
    "algorithm,kwargs",
    VARIANTS,
    ids=[
        name + "".join(f"[{key}={value}]" for key, value in kw.items())
        for name, kw in VARIANTS
    ],
)
def test_batch_matches_sequential(algorithm, kwargs):
    async def scenario():
        ops = _script()
        seq_responses, seq_digests = await _sequential(_config(algorithm, kwargs), ops)
        for chunk in (1, 5, len(ops)):
            batch_responses, batch_digests = await _batched(
                _config(algorithm, kwargs), ops, chunk
            )
            assert batch_responses == seq_responses, (
                f"{algorithm}: batch chunk={chunk} diverges from the "
                "sequential loop"
            )
            assert batch_digests == seq_digests

    asyncio.run(scenario())


def test_batch_matches_sequential_with_capacity_clamp():
    """The retry doubling path hits the capacity ceiling identically."""

    async def scenario():
        ceiling = ResourceVector.of(cores=4, memory=900.0, disk=400.0)
        ops = _script()
        base = _config("greedy_bucketing", {})
        config = replace(base, allocator=replace(base.allocator, machine_capacity=ceiling))
        seq_responses, seq_digests = await _sequential(config, ops)
        clamped = [
            r
            for r in seq_responses
            if r.get("mode") == "retry" and r["allocation"]["memory"] == 900.0
        ]
        assert clamped, "script must exercise the capacity clamp"
        batch_responses, batch_digests = await _batched(config, ops, 7)
        assert batch_responses == seq_responses
        assert batch_digests == seq_digests

    asyncio.run(scenario())


def test_concurrent_batches_preserve_internal_order():
    """Interleaved batches stay contiguous per shard.

    Two batches submitted concurrently may interleave *with each other*
    at shard granularity, but each batch's own operations must be
    applied as one contiguous run per shard — their seqs are
    consecutive.
    """

    async def scenario():
        service = AllocationService(_config("greedy_bucketing", {}))
        await service.start()
        batch_a = [
            {"op": "allocate", "category": "proc", "task_id": i} for i in range(6)
        ]
        batch_b = [
            {"op": "allocate", "category": "proc", "task_id": 100 + i}
            for i in range(6)
        ]
        responses_a, responses_b = await asyncio.gather(
            service.submit_batch(batch_a), service.submit_batch(batch_b)
        )
        for responses in (responses_a, responses_b):
            seqs = [r["seq"] for r in responses]
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        await service.stop()

    asyncio.run(scenario())
