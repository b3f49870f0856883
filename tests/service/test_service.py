"""Unit tests for the allocation service: sharding, API, overload,
durability plumbing, layering, and the protocol validators.

The concurrency-heavy properties live in ``test_linearizability.py``;
batch semantics in ``test_batch_equivalence.py``; crash recovery in
``test_kill_resume.py``.  Everything here is seeded and wall-clock
free.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator
from repro.core.resources import MEMORY, ResourceVector
import repro
from repro.checkpoint import CheckpointError, JournalWriter, iter_json
from repro.service import (
    AllocationServer,
    AllocationService,
    AllocationShard,
    AsyncServiceClient,
    ProtocolError,
    ServiceConfig,
    apply_op,
    shard_of,
    shard_seed,
)
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_OVERLOADED,
    encode,
    parse_line,
    validate_request,
)
from repro.service import server as server_module
from repro.service.server import RETRY_AFTER_S


def run(coro):
    return asyncio.run(coro)


def _config(**overrides):
    defaults = dict(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=11,
            min_records=3,
        ),
        n_shards=3,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ---------------------------------------------------------------------------
# Shard mapping and seeds
# ---------------------------------------------------------------------------


def test_shard_of_is_stable_and_covers_all_shards():
    # Stability: the mapping is part of the durability contract (a WAL
    # written yesterday must route to the same shards today).
    assert shard_of("proc", 4) == shard_of("proc", 4)
    seen = {shard_of(f"category-{i}", 4) for i in range(200)}
    assert seen == {0, 1, 2, 3}


def test_shard_of_single_shard():
    assert shard_of("anything", 1) == 0


def test_shard_seed_deterministic_and_distinct():
    assert shard_seed(0, 0) == shard_seed(0, 0)
    seeds = {shard_seed(7, i) for i in range(16)}
    assert len(seeds) == 16
    assert shard_seed(7, 0) != shard_seed(8, 0)


def test_shard_allocator_config_derives_seed():
    config = _config()
    cfg0 = config.shard_allocator_config(0)
    cfg1 = config.shard_allocator_config(1)
    assert cfg0.seed == shard_seed(11, 0)
    assert cfg1.seed == shard_seed(11, 1)
    assert cfg0.algorithm == "greedy_bucketing"


def test_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(n_shards=0)
    # A NaN deadline used to pass and time out every request at once.
    for timeout in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="read_timeout must be finite and > 0"):
            ServiceConfig(read_timeout=timeout)
    assert ServiceConfig(read_timeout=0.5).read_timeout == 0.5
    # Shard seeds derive from it; numpy refused a negative one mid-start.
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        ServiceConfig(allocator=AllocatorConfig(seed=-1))


@pytest.mark.parametrize("algorithm", ["greedy_bucketing", "exhaustive_bucketing"])
def test_config_refuses_bad_algorithm_kwargs_before_serving(algorithm):
    """A daemon configured this way must not start and fail at a category's first build."""
    with pytest.raises(ValueError, match="capacity"):
        ServiceConfig(
            allocator=AllocatorConfig(algorithm=algorithm, algorithm_kwargs={"record_capacity": 0})
        )
    with pytest.raises(TypeError, match="max_bucket"):
        ServiceConfig(
            allocator=AllocatorConfig(algorithm=algorithm, algorithm_kwargs={"max_bucket": 4})
        )


# ---------------------------------------------------------------------------
# The four-call API vs a single-threaded reference
# ---------------------------------------------------------------------------


def test_allocate_record_matches_reference_replay():
    async def scenario():
        config = _config()
        service = AllocationService(config)
        await service.start()
        reference = {
            i: TaskOrientedAllocator(config.shard_allocator_config(i))
            for i in range(config.n_shards)
        }
        categories = ["proc", "merge", "fit", "plot", "scan"]
        for task_id in range(40):
            category = categories[task_id % len(categories)]
            got = await service.allocate(category, task_id)
            ref = reference[shard_of(category, config.n_shards)]
            expected = ref.allocate(category, task_id)
            assert got == expected
            peaks = ResourceVector.of(
                cores=1, memory=400.0 + 37.0 * task_id, disk=25.0
            )
            await service.record(category, peaks, task_id)
            ref.observe(category, peaks, task_id)
        assert service.shard_digests() == [
            reference[i].digest() for i in range(config.n_shards)
        ]
        await service.stop()

    run(scenario())


def test_allocate_retry_matches_reference():
    async def scenario():
        config = _config(n_shards=1)
        service = AllocationService(config)
        await service.start()
        reference = TaskOrientedAllocator(config.shard_allocator_config(0))
        previous = await service.allocate("proc", 0)
        reference.allocate("proc", 0)
        observed = previous.replace(MEMORY, previous[MEMORY])
        got = await service.allocate_retry(
            "proc", 0, previous=previous, observed=observed, exhausted=[MEMORY]
        )
        expected = reference.allocate_retry(
            "proc", 0, previous=previous, observed=observed, exhausted=(MEMORY,)
        )
        assert got == expected
        assert got[MEMORY] > previous[MEMORY]
        await service.stop()

    run(scenario())


def test_capacity_ceiling_clamps_retry_growth():
    async def scenario():
        ceiling = ResourceVector.of(cores=2, memory=1500.0, disk=500.0)
        config = _config(
            n_shards=1,
            allocator=AllocatorConfig(
                algorithm="greedy_bucketing", seed=11, machine_capacity=ceiling
            ),
        )
        service = AllocationService(config)
        await service.start()
        previous = ResourceVector.of(cores=1, memory=1400.0, disk=100.0)
        grown = await service.allocate_retry(
            "proc", 0, previous=previous, observed=previous, exhausted=[MEMORY]
        )
        # Doubling would ask for 2800 MB; no machine can host it.
        assert grown[MEMORY] == 1500.0
        assert service.shards[0].allocator.capacity_clamps_total == 0
        # Pinned at the ceiling, a further retry cannot grow at all: the
        # static clamp stopped it, and the allocator counts that.
        pinned = await service.allocate_retry(
            "proc", 0, previous=grown, observed=grown, exhausted=[MEMORY]
        )
        assert pinned[MEMORY] == 1500.0
        assert service.shards[0].allocator.capacity_clamps_total == 1
        await service.stop()

    run(scenario())


def test_exploration_mode_reported_then_predicted():
    async def scenario():
        config = _config(n_shards=1)
        service = AllocationService(config)
        await service.start()
        first = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 0}
        )
        assert first["mode"] == "exploratory"
        for task_id in range(3):
            await service.record(
                "proc", ResourceVector.of(cores=1, memory=700.0, disk=10.0), task_id
            )
        later = await service.submit(
            {"op": "allocate", "category": "proc", "task_id": 99}
        )
        assert later["mode"] == "predicted"
        assert later["seq"] == 5
        await service.stop()

    run(scenario())


def test_sequence_numbers_are_per_shard_and_contiguous():
    async def scenario():
        config = _config(n_shards=2)
        service = AllocationService(config)
        await service.start()
        per_shard = {0: 0, 1: 0}
        for task_id in range(30):
            result = await service.submit(
                {"op": "allocate", "category": f"cat-{task_id}", "task_id": task_id}
            )
            per_shard[result["shard"]] += 1
            assert result["seq"] == per_shard[result["shard"]]
        assert sum(per_shard.values()) == 30
        await service.stop()

    run(scenario())


def test_stats_shape():
    async def scenario():
        service = AllocationService(_config())
        await service.start()
        await service.allocate("proc", 0)
        stats = service.stats()
        assert stats["n_shards"] == 3
        assert stats["ops"] == 1
        # The service sheds nothing; the key stays for stats readers.
        assert stats["shed"] == 0
        assert len(stats["shards"]) == 3
        for shard_stats in stats["shards"]:
            assert {"index", "seq", "queue_depth", "categories"} <= set(shard_stats)
            assert not {"shed", "breaker"} & set(shard_stats)
        await service.stop()

    run(scenario())


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------


def test_submit_rejects_malformed_requests():
    async def scenario():
        service = AllocationService(_config())
        await service.start()
        bad = [
            {"op": "explode"},
            {"op": "allocate", "category": "", "task_id": 0},
            {"op": "allocate", "category": "proc"},
            {"op": "allocate", "category": "proc", "task_id": True},
            {"op": "record", "category": "proc", "task_id": 0, "peaks": {}},
            {"op": "record", "category": "proc", "task_id": 0, "peaks": {"gpus": 1}},
            {
                "op": "record",
                "category": "proc",
                "task_id": 0,
                "peaks": {"memory": -5.0},
            },
            {
                "op": "allocate_retry",
                "category": "proc",
                "task_id": 0,
                "previous": {"memory": 1.0},
                "observed": {"memory": 1.0},
                "exhausted": [],
            },
            {
                "op": "allocate_retry",
                "category": "proc",
                "task_id": 0,
                "previous": {"memory": 1.0},
                "observed": {"memory": 1.0},
                "exhausted": ["gpus"],
            },
            {"op": "stats"},  # admin ops are front-end-only
        ]
        for doc in bad:
            with pytest.raises(ProtocolError):
                await service.submit(doc)
        # Nothing reached a shard.
        assert service.stats()["ops"] == 0
        await service.stop()

    run(scenario())


def test_parse_line_and_nested_batch_validation():
    with pytest.raises(ProtocolError):
        parse_line(b"not json\n")
    with pytest.raises(ProtocolError):
        parse_line(b"[1, 2]\n")
    resources = AllocatorConfig().resources
    with pytest.raises(ProtocolError):
        validate_request(
            {"op": "allocate_batch", "requests": [{"op": "allocate_batch"}]},
            resources,
        )
    with pytest.raises(ProtocolError):
        validate_request({"op": "allocate_batch", "requests": []}, resources)


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_validate_request_refuses_non_finite_numbers(literal):
    # json.loads (hence parse_line) accepts all three literals.
    resources = AllocatorConfig().resources
    vector = '{"cores":1,"memory":%s,"disk":5}'
    fine = vector % "100"
    for line in (
        '{"op":"record","category":"c","task_id":1,"peaks":%s}' % (vector % literal),
        '{"op":"record","category":"c","task_id":1,"peaks":%s,"significance":%s}'
        % (fine, literal),
        '{"op":"allocate_retry","category":"c","task_id":1,"previous":%s,'
        '"observed":%s,"exhausted":["memory"]}' % (vector % literal, fine),
        '{"op":"allocate_retry","category":"c","task_id":1,"previous":%s,'
        '"observed":%s,"exhausted":["memory"]}' % (fine, vector % literal),
    ):
        with pytest.raises(ProtocolError) as refused:
            validate_request(parse_line(line.encode() + b"\n"), resources)
        assert refused.value.code == ERR_BAD_REQUEST


@pytest.mark.parametrize("significance", [0, -1, 0.0])
def test_validate_request_refuses_non_positive_significance(significance):
    # RecordList.add refuses it, and by then the op would be in the WAL.
    doc = {
        "op": "record",
        "category": "c",
        "task_id": 1,
        "peaks": {"memory": 1.0},
        "significance": significance,
    }
    with pytest.raises(ProtocolError):
        validate_request(doc, AllocatorConfig().resources)


def _assert_refused_before_the_wal(tmp_path, bodies):
    """Each ``bodies`` entry (a request line less its ``id``) is answered
    ``bad_request`` with shard ``seq``, WAL bytes and digests unmoved, and
    the category keeps allocating from the five records it holds."""

    async def scenario():
        data_dir = str(tmp_path / "data")
        config = _config(data_dir=data_dir, n_shards=1)
        service = AllocationService(config)
        await service.start()
        sock = str(tmp_path / "svc.sock")
        server = AllocationServer(service, socket_path=sock)
        await server.start()
        client = AsyncServiceClient(socket_path=sock)
        for task_id in range(1, 6):
            peaks = ResourceVector.of(cores=1, memory=100.0 * task_id, disk=10.0)
            await client.record("c", peaks, task_id=task_id)
        shard = service.shards[0]
        wal = os.path.join(data_dir, "shard-00.wal")
        seq, wal_bytes, digest = shard.seq, os.path.getsize(wal), service.shard_digests()

        reader, writer = await asyncio.open_unix_connection(sock)
        for body in bodies:
            writer.write(b'{"id":"bad",%s}\n' % body.encode())
            refused = json.loads(await reader.readline())
            assert refused["ok"] is False and refused["id"] == "bad"
            assert refused["error"]["code"] == ERR_BAD_REQUEST
        assert shard.seq == seq and os.path.getsize(wal) == wal_bytes
        assert service.shard_digests() == digest

        writer.write(encode({"id": "next", "op": "allocate", "category": "c", "task_id": 7}))
        accepted = json.loads(await reader.readline())
        assert accepted["ok"] is True and accepted["result"]["seq"] == seq + 1
        assert accepted["result"]["mode"] == "predicted"
        assert accepted["result"]["allocation"]["memory"] <= 500.0
        writer.close()
        await client.close()
        await server.stop()
        await service.stop()

    run(scenario())


def test_infinite_record_is_refused_before_the_wal_and_poisons_nothing(tmp_path):
    """``{"peaks": {"memory": Infinity}}`` used to be WAL-logged and
    answered ``recorded``; every later allocate of its category then
    failed, across restarts.  It is a ``bad_request`` that moves nothing."""
    _assert_refused_before_the_wal(
        tmp_path,
        [
            '"op":"record","category":"c","task_id":6,'
            '"peaks":{"cores":1,"memory":Infinity,"disk":10}',
            '"op":"record","category":"c","task_id":6,'
            '"peaks":{"cores":1,"memory":5,"disk":10},"significance":Infinity',
        ],
    )


@pytest.mark.parametrize("task_id", [2**63, -(2**63) - 1, 1180591620717411303424])
def test_task_id_outside_int64_is_refused_before_the_wal(tmp_path, task_id):
    """Such a ``record`` used to be WAL-logged and then fail half-way
    through the insert, leaving the category's store corrupted across
    restarts.  All three ops validate ``task_id`` the same way."""
    vector = '{"cores":1,"memory":5,"disk":10}'
    _assert_refused_before_the_wal(
        tmp_path,
        [
            '"op":"record","category":"c","task_id":%d,"peaks":%s' % (task_id, vector),
            '"op":"allocate","category":"c","task_id":%d' % task_id,
            '"op":"allocate_retry","category":"c","task_id":%d,"previous":%s,'
            '"observed":%s,"exhausted":["memory"]' % (task_id, vector, vector),
        ],
    )
    # The int64 bounds themselves are valid.
    for edge in (2**63 - 1, -(2**63)):
        validate_request(
            {"op": "allocate", "category": "c", "task_id": edge}, AllocatorConfig().resources
        )


#: A JSON integer past float range: it compares below ``inf`` exactly,
#: then ``float()`` raises ``OverflowError``.
_HUGE = 10**400


def _huge_field_ops():
    """One op per number field, each holding ``_HUGE`` in that field."""
    fine = {"cores": 1, "memory": 5, "disk": 10}
    huge = {"cores": 1, "memory": _HUGE, "disk": 10}
    record = {"op": "record", "category": "c", "task_id": 6}
    retry = {"op": "allocate_retry", "category": "c", "task_id": 6, "exhausted": ["memory"]}
    return [
        {**record, "peaks": huge},
        {**record, "peaks": fine, "significance": _HUGE},
        {**retry, "previous": huge, "observed": fine},
        {**retry, "previous": fine, "observed": huge},
    ]


def test_integer_past_float_range_is_refused_before_the_wal(tmp_path):
    """Such a number used to pass validation, take a seq, reach the WAL
    and then fail in ``apply_op`` — and every restart with it."""
    bodies = [json.dumps(op)[1:-1] for op in _huge_field_ops()]
    _assert_refused_before_the_wal(tmp_path, bodies)


def test_integer_past_float_range_is_refused_by_submit(tmp_path):
    async def scenario():
        service = AllocationService(_config(data_dir=str(tmp_path / "data"), n_shards=1))
        await service.start()
        for op in _huge_field_ops():
            with pytest.raises(ProtocolError) as refused:
                await service.submit(op)
            assert refused.value.code == ERR_BAD_REQUEST
        assert service.shards[0].seq == 0
        service.abort()
        restarted = AllocationService(_config(data_dir=str(tmp_path / "data"), n_shards=1))
        await restarted.start()
        assert restarted.recovered_ops == 0
        await restarted.stop()

    run(scenario())


def test_replay_treats_an_entry_that_fails_to_apply_as_the_live_commit_did(tmp_path):
    """A WAL written before validation refused ``_HUGE`` holds ops that
    fail in ``apply_op``.  The live commit kept their seqs, counted them
    in ``failed_ops`` and remembered no response; recovery must do the
    same, not raise on every restart."""

    async def scenario():
        data_dir = str(tmp_path / "data")
        config = _config(data_dir=data_dir, n_shards=1)
        service = AllocationService(config)
        await service.start()
        shard = service.shards[0]
        for op in _records(4):
            await service.submit(op)
        # The shard's own entry skips the front end's validation, as an
        # older build's did for these numbers.
        # A vector field fails in ``ResourceVector`` as ``ValueError``; the
        # significance goes through a bare ``float()``.
        raised = (ValueError, OverflowError, ValueError, ValueError)
        for n, (op, error) in enumerate(zip(_huge_field_ops(), raised)):
            with pytest.raises(error):
                await shard.submit({**op, "key": f"huge-{n}"})
        for op in _records(3):
            await service.submit({**op, "task_id": op["task_id"] + 10, "key": f"s{op['key']}"})
        live = (service.shard_digests(), shard.seq, shard.failed_ops, dict(shard._dedup))
        assert live[1] == 4 + 4 + 3 and live[2] == 4
        service.abort()

        recovered = AllocationService(config)
        await recovered.start()
        again = recovered.shards[0]
        assert recovered.recovered_ops == live[1]
        assert (recovered.shard_digests(), again.seq, again.failed_ops, dict(again._dedup)) == live
        assert not any(key.startswith("huge-") for key in again._dedup)
        await recovered.stop()

    run(scenario())


# ---------------------------------------------------------------------------
# Overload
# ---------------------------------------------------------------------------


def test_inflight_limit_answers_overloaded_without_touching_a_shard(tmp_path, monkeypatch):
    """``MAX_INFLIGHT_REQUESTS``: with one request held in a parked shard's
    queue, the next is refused at the edge — typed, with a backoff hint,
    counted, and never enqueued — and both sessions carry on afterwards."""
    monkeypatch.setattr(server_module, "MAX_INFLIGHT_REQUESTS", 1)

    async def scenario():
        service = AllocationService(_config())
        await service.start()
        sock = str(tmp_path / "svc.sock")
        server = AllocationServer(service, socket_path=sock)
        await server.start()
        shard = service.shards[service.shard_for("held")]
        barrier = shard.quiesce()
        await barrier.parked.wait()

        first = AsyncServiceClient(socket_path=sock, client_id="first")
        pending = asyncio.ensure_future(first.allocate("held", task_id=0))
        while shard.queue_depth < 1:  # the one permitted request is in flight
            await asyncio.sleep(0.001)
        seq = shard.seq

        reader, writer = await asyncio.open_unix_connection(sock)
        second = encode({"id": "second", "op": "allocate", "category": "held", "task_id": 1})
        writer.write(second)
        refused = json.loads(await reader.readline())
        assert refused["ok"] is False and refused["id"] == "second"
        assert refused["error"]["code"] == ERR_OVERLOADED
        assert refused["error"]["retry_after"] == RETRY_AFTER_S
        assert server.rejected_requests == 1
        assert shard.seq == seq and shard.queue_depth == 1 and not pending.done()

        barrier.release.set()
        await pending
        assert shard.seq == seq + 1
        # Both sessions are still usable, and nothing more was refused.
        writer.write(second)
        accepted = json.loads(await reader.readline())
        assert accepted["ok"] is True and accepted["result"]["seq"] == seq + 2
        assert await first.ping()
        assert (await first.health())["rejected_requests"] == 1

        writer.close()
        await first.close()
        await server.stop()
        await service.stop()

    run(scenario())


# ---------------------------------------------------------------------------
# Durability plumbing
# ---------------------------------------------------------------------------


def test_wal_files_and_snapshot_envelope(tmp_path):
    async def scenario():
        data_dir = str(tmp_path / "data")
        config = _config(data_dir=data_dir)
        service = AllocationService(config)
        await service.start()
        for i in range(10):
            await service.allocate(f"cat-{i}", i)
        path = await service.snapshot()
        # Generation 1 was the recovery snapshot at start(); this online
        # cut is generation 2, and the CURRENT pointer tracks it.
        assert os.path.basename(path) == "service.snapshot.000002.json"
        current = json.loads((tmp_path / "data" / "service.snapshot.CURRENT").read_text())
        assert current["entries"][0]["gen"] == 2
        from repro.checkpoint import SERVICE_KIND, file_digest, load_checkpoint

        assert current["entries"][0]["digest"] == file_digest(path)
        _, payload = load_checkpoint(path, kind=SERVICE_KIND)
        assert len(payload["shards"]) == config.n_shards
        assert payload["fingerprint"]["algorithm"] == "greedy_bucketing"
        assert [s["seq"] for s in payload["shards"]] == [
            shard.seq for shard in service.shards
        ]
        await service.stop()

    run(scenario())


def test_resume_refuses_mismatched_fingerprint(tmp_path):
    async def scenario():
        data_dir = str(tmp_path / "data")
        service = AllocationService(_config(data_dir=data_dir))
        await service.start()
        await service.allocate("proc", 0)
        await service.stop()

        from repro.checkpoint import CheckpointError

        other = AllocationService(_config(n_shards=2, data_dir=data_dir))
        with pytest.raises(CheckpointError):
            await other.start()

    run(scenario())


def _records(n):
    return [
        {
            "op": "record",
            "category": "proc",
            "task_id": i,
            "peaks": {"cores": 1, "memory": 300.0 + 40.0 * i, "disk": 10.0},
            "key": f"r{i}",
        }
        for i in range(n)
    ]


def test_older_shard_state_with_breaker_keys_restores_to_the_same_digest():
    """States written while the shard still had a breaker carry
    ``shed_count`` and ``breaker``; they restore, keys ignored."""

    async def scenario():
        service = AllocationService(_config(n_shards=1))
        await service.start()
        for op in _records(6):
            await service.submit(op)
        state = json.loads("".join(iter_json(service.shards[0].snapshot_state())))
        digests = service.shard_digests()
        await service.stop()
        return state, digests

    state, digests = run(scenario())
    assert not {"shed_count", "breaker"} & set(state)
    older = json.loads(json.dumps(dict(state, shed_count=0, breaker=None)))
    config = _config(n_shards=1)
    shard = AllocationShard(
        0, TaskOrientedAllocator(config.shard_allocator_config(0)), dedup_window=1024
    )
    shard.restore(older)
    assert shard.allocator.digest() == digests[0]
    assert shard.seq == state["seq"]
    assert json.loads("".join(iter_json(shard.snapshot_state()))) == state


def test_replay_refuses_a_shed_wal_entry(tmp_path):
    """A ``shed`` entry answered with a whole machine and left the
    allocator untouched; replay must not apply it as an allocation."""

    async def scenario():
        data_dir = str(tmp_path / "data")
        config = _config(data_dir=data_dir, n_shards=1)
        service = AllocationService(config)
        await service.start()
        for op in _records(3):
            await service.submit(op)
        await service.stop()
        with JournalWriter(os.path.join(data_dir, "shard-00.wal")) as wal:
            op = {"op": "allocate", "category": "proc", "task_id": 9}
            wal.append({"seq": 4, "op": op, "shed": True})
        with pytest.raises(CheckpointError, match="shard 0 WAL entry seq 4"):
            await AllocationService(config).start()

    run(scenario())


def test_apply_op_is_the_single_semantics_point():
    # The WAL replayer, the live writer, and the reference replays all
    # route through apply_op; spot-check its contract directly.
    allocator = TaskOrientedAllocator(AllocatorConfig(seed=1))
    result = apply_op(allocator, {"op": "allocate", "category": "c", "task_id": 0})
    assert result["mode"] == "exploratory"
    with pytest.raises(ValueError):
        apply_op(allocator, {"op": "nope", "category": "c"})


def test_apply_op_allocates_after_a_vanishing_significance_record():
    # A record whose significance rounds away in the prefix sums must
    # not turn every later allocate for its category into a failed op.
    allocator = TaskOrientedAllocator(AllocatorConfig(seed=1))
    for task_id in range(21):
        last = task_id == 20
        peaks = ResourceVector.of(
            cores=1, memory=9000.0 if last else 400.0 + 10.0 * task_id, disk=25.0
        )
        result = apply_op(
            allocator,
            {
                "op": "record",
                "category": "c",
                "task_id": task_id,
                "peaks": peaks.state_dict(),
                "significance": 1e-300 if last else 1e18,
            },
        )
        assert result["recorded"]
    result = apply_op(allocator, {"op": "allocate", "category": "c", "task_id": 21})
    assert result["mode"] == "predicted"
    assert result["allocation"]["memory"] in {400.0 + 10.0 * i for i in range(20)} | {9000.0}


# ---------------------------------------------------------------------------
# Layering
# ---------------------------------------------------------------------------


def test_service_stack_does_not_import_the_simulator():
    code = (
        "import sys\n"
        "import repro.service, repro.service.server, repro.service.client, "
        "repro.service.fsck\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'sim']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
