"""Linearizability of the sharded allocation service.

Hypothesis generates concurrent client schedules — several clients, each
issuing a program of allocate/record/retry/batch operations with
explicit ``asyncio.sleep(0)`` yield points so the event loop interleaves
them differently per schedule — and runs them against a live
:class:`AllocationService`.  Every response is stamped with the shard
and the shard's applied-sequence number, which is the service's *claim*
about the total order it linearized the operations into.

The harness then replays that claimed order, per shard, against a fresh
single-threaded :class:`TaskOrientedAllocator` built from the same
derived seed, through the very same :func:`apply_op` the live writer
uses.  The service is linearizable iff:

* the claimed order is a real order — per-shard seqs are exactly
  ``1..N`` with no gaps or duplicates;
* it respects program order — each client's operations on a shard carry
  strictly increasing seqs;
* every live response is bit-identical to the reference replay at the
  claimed position;
* the final shard digests match the reference allocators' digests.

Everything is seeded and wall-clock free: the only nondeterminism is
the hypothesis-chosen schedule, which is exactly what shrinks on
failure.
"""

import asyncio
from typing import Any, Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator import AllocatorConfig, ExploratoryConfig, TaskOrientedAllocator
from repro.service import AllocationService, ServiceConfig, apply_op

N_SHARDS = 2
CATEGORIES = ["proc", "merge", "fit", "plot", "scan", "calib"]

# One client step: (kind, category index, yields before submitting,
# magnitude driving the record/retry vectors).
_step = st.tuples(
    st.sampled_from(["allocate", "record", "record", "retry", "batch"]),
    st.integers(min_value=0, max_value=len(CATEGORIES) - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=100, max_value=4000),
)

# A schedule: 2-4 concurrent clients, each a program of 1-8 steps.
_schedule = st.lists(
    st.lists(_step, min_size=1, max_size=8), min_size=2, max_size=4
)


def _service_config(**overrides) -> ServiceConfig:
    defaults = dict(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=42,
            exploratory=ExploratoryConfig(min_records=2),
        ),
        n_shards=N_SHARDS,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _docs_for_step(client: int, position: int, step: Tuple) -> List[Dict[str, Any]]:
    """Expand one schedule step into its operation documents."""
    kind, cat_idx, _yields, magnitude = step
    category = CATEGORIES[cat_idx]
    task_id = client * 1000 + position
    if kind == "allocate":
        return [{"op": "allocate", "category": category, "task_id": task_id}]
    if kind == "record":
        peaks = {"cores": 1, "memory": float(magnitude), "disk": float(magnitude) / 8}
        return [
            {"op": "record", "category": category, "task_id": task_id, "peaks": peaks}
        ]
    if kind == "retry":
        previous = {"cores": 1, "memory": float(magnitude), "disk": 10.0}
        return [
            {
                "op": "allocate_retry",
                "category": category,
                "task_id": task_id,
                "previous": previous,
                "observed": previous,
                "exhausted": ["memory"],
            }
        ]
    # A batch rides the queue as one contiguous unit: allocate on this
    # category plus a record on the neighbouring one.
    neighbour = CATEGORIES[(cat_idx + 1) % len(CATEGORIES)]
    return [
        {"op": "allocate", "category": category, "task_id": task_id},
        {
            "op": "record",
            "category": neighbour,
            "task_id": task_id,
            "peaks": {"cores": 1, "memory": float(magnitude), "disk": 5.0},
        },
    ]


async def _run_schedule(
    service: AllocationService, schedule: List[List[Tuple]]
) -> List[List[Tuple[Dict[str, Any], Dict[str, Any]]]]:
    """Run every client program concurrently; returns (doc, response) logs."""

    async def client(index: int, program: List[Tuple]):
        log: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        for position, step in enumerate(program):
            for _ in range(step[2]):
                await asyncio.sleep(0)
            docs = _docs_for_step(index, position, step)
            if step[0] == "batch":
                responses = await service.submit_batch(docs)
                log.extend(zip(docs, responses))
            else:
                log.append((docs[0], await service.submit(docs[0])))
        return log

    return await asyncio.gather(
        *(client(index, program) for index, program in enumerate(schedule))
    )


def _strip(response: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in response.items() if k not in ("shard", "seq")}


def _check_linearizable(
    config: ServiceConfig,
    logs: List[List[Tuple[Dict[str, Any], Dict[str, Any]]]],
    digests: List[str],
) -> None:
    """Replay each shard's claimed order against a reference allocator."""
    per_shard: Dict[int, List[Tuple[int, Dict[str, Any], Dict[str, Any]]]] = {
        i: [] for i in range(config.n_shards)
    }
    for log in logs:
        for doc, response in log:
            per_shard[response["shard"]].append((response["seq"], doc, response))

    # Program order: within one client, seqs on a shard strictly increase.
    for log in logs:
        last_seq: Dict[int, int] = {}
        for _, response in log:
            shard = response["shard"]
            assert response["seq"] > last_seq.get(shard, 0), (
                "client observed its own operations out of order on "
                f"shard {shard}"
            )
            last_seq[shard] = response["seq"]

    for index in range(config.n_shards):
        claimed = sorted(per_shard[index])
        # The claimed order is a real total order: seqs are 1..N exactly.
        assert [seq for seq, _, _ in claimed] == list(
            range(1, len(claimed) + 1)
        ), f"shard {index} seqs have gaps or duplicates"
        reference = TaskOrientedAllocator(config.shard_allocator_config(index))
        for seq, doc, response in claimed:
            expected = apply_op(reference, doc)
            assert _strip(response) == expected, (
                f"shard {index} seq {seq}: live response diverges from the "
                "single-threaded replay of the claimed order"
            )
        assert digests[index] == reference.digest(), (
            f"shard {index}: final allocator state diverges from the replay"
        )


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=_schedule)
def test_concurrent_schedules_linearize(schedule):
    async def scenario():
        config = _service_config()
        service = AllocationService(config)
        await service.start()
        logs = await _run_schedule(service, schedule)
        digests = service.shard_digests()
        await service.stop()
        _check_linearizable(config, logs, digests)

    asyncio.run(scenario())


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=_schedule, n_dup_clients=st.integers(min_value=2, max_value=4))
def test_duplicate_keyed_submissions_linearize_exactly_once(
    schedule, n_dup_clients
):
    """Exactly-once under concurrency: N clients race the SAME keyed ops.

    Several clients concurrently submit an identical keyed program (as
    retrying peers would after an ambiguous failure).  Linearizability
    plus the dedup window demands: each key applies exactly once (per-
    shard seqs are gap-free over the *distinct* ops), every duplicate
    response is bit-identical to the first, and the final digests match
    a single-threaded replay of just the distinct operations.
    """
    program = schedule[0]  # one program, raced by every client

    async def scenario():
        config = _service_config(dedup_window=256)
        service = AllocationService(config)
        await service.start()

        async def racer(offset: int):
            log = []
            for position, step in enumerate(program):
                for _ in range((step[2] + offset) % 4):
                    await asyncio.sleep(0)
                # Same client index (0) for every racer: identical docs.
                docs = _docs_for_step(0, position, step)
                for order, doc in enumerate(docs):
                    doc["key"] = f"lin/{position}/{order}"
                if step[0] == "batch":
                    responses = await service.submit_batch(docs)
                    log.extend(zip(docs, responses))
                else:
                    log.append((docs[0], await service.submit(docs[0])))
            return log

        logs = await asyncio.gather(*(racer(i) for i in range(n_dup_clients)))
        digests = service.shard_digests()
        dedup_hits = sum(shard.dedup_hits for shard in service.shards)
        await service.stop()
        return logs, digests, dedup_hits

    logs, digests, dedup_hits = asyncio.run(scenario())

    # Every racer saw bit-identical responses for every keyed op.
    by_key: Dict[str, Dict[str, Any]] = {}
    n_ops = 0
    for log in logs:
        for doc, response in log:
            n_ops += 1
            first = by_key.setdefault(doc["key"], response)
            assert response == first, (
                f"duplicate submissions of key {doc['key']!r} got "
                "diverging responses"
            )
    distinct = len(by_key)
    # n_dup_clients racers, one applied copy each: the rest were dedup
    # hits (answered from the window, no allocator touch).
    assert dedup_hits == n_ops - distinct

    # Each key applied once: seqs over the distinct ops are gap-free,
    # and the claimed order replays to the same digests.
    config = _service_config(dedup_window=256)
    per_shard: Dict[int, List[Tuple[int, Dict[str, Any], Dict[str, Any]]]] = {
        i: [] for i in range(config.n_shards)
    }
    for log in logs:
        for doc, response in log:
            if by_key[doc["key"]] is response or response == by_key[doc["key"]]:
                per_shard[response["shard"]].append((response["seq"], doc, response))
    for index in range(config.n_shards):
        claimed = sorted({seq for seq, _, _ in per_shard[index]})
        assert claimed == list(range(1, len(claimed) + 1)), (
            f"shard {index}: duplicate submissions consumed extra seqs"
        )
        reference = TaskOrientedAllocator(config.shard_allocator_config(index))
        seen: set = set()
        for seq, doc, response in sorted(per_shard[index]):
            if seq in seen:
                continue
            seen.add(seq)
            expected = apply_op(reference, doc)
            assert _strip(response) == expected
        assert digests[index] == reference.digest(), (
            f"shard {index}: state diverged — some key applied twice"
        )

