"""A batch's nested requests are validated once, with the same answers.

The front end and the service both check what reaches them; a batch's
envelope and nested bodies go through one helper
(``protocol.validate_batch``), run once whichever entry point the batch
came through.  Every single-fault batch below is refused with the code
and message the two-check version gave over the wire, and nothing
reaches a shard; an empty request list is refused in process too.
"""

import asyncio

import pytest

from repro.core.allocator import AllocatorConfig
from repro.service import protocol, server, service
from repro.service.config import ServiceConfig
from repro.service.protocol import ProtocolError, encode
from repro.service.server import AllocationServer
from repro.service.service import AllocationService

GOOD = {"op": "allocate", "category": "proc", "task_id": 1}
VECTOR = {"memory": 1.0}
RETRY = {
    "op": "allocate_retry",
    "category": "proc",
    "task_id": 0,
    "previous": VECTOR,
    "observed": VECTOR,
    "exhausted": ["memory"],
}
RECORD = {"op": "record", "category": "proc", "task_id": 0, "peaks": VECTOR}
NESTED_OP = "allocate_batch: nested op must be one of ['allocate', 'allocate_retry', 'record']"
MANAGED = "(managed: ['cores', 'disk', 'memory'])"


def _with(base, **changes):
    doc = {**base, **changes}
    return {key: value for key, value in doc.items() if value is not _DROP}


_DROP = object()

#: name -> (nested request, expected error code, expected message)
NESTED_FAULTS = {
    "not-an-object": (5, "bad_request", "allocate_batch: every request must be an object"),
    "admin-op": ({"op": "ping"}, "bad_request", NESTED_OP),
    "nested-batch": ({"op": "allocate_batch", "requests": [GOOD]}, "bad_request", NESTED_OP),
    "unknown-op": ({"op": "explode"}, "bad_request", NESTED_OP),
    "missing-op": ({"category": "proc", "task_id": 0}, "bad_request", NESTED_OP),
    "empty-key": (
        _with(GOOD, key=""),
        "bad_request",
        "allocate: 'key' must be a non-empty string when given",
    ),
    "long-key": (
        _with(GOOD, key="k" * 1000),
        "bad_request",
        "allocate: idempotency key exceeds 256 bytes",
    ),
    "empty-category": (
        _with(GOOD, category=""),
        "bad_request",
        "allocate: 'category' must be a non-empty string",
    ),
    "missing-task-id": (
        _with(GOOD, task_id=_DROP),
        "bad_request",
        "allocate: 'task_id' must be an integer",
    ),
    "bool-task-id": (
        _with(GOOD, task_id=True),
        "bad_request",
        "allocate: 'task_id' must be an integer",
    ),
    "huge-task-id": (
        _with(GOOD, task_id=2**63),
        "bad_request",
        "allocate: 'task_id' must fit a signed 64-bit integer",
    ),
    "retry-bad-previous": (
        _with(RETRY, previous={}),
        "bad_request",
        "allocate_retry: 'previous' must be a non-empty {resource: value} object",
    ),
    "retry-unmanaged-observed": (
        _with(RETRY, observed={"gpus": 1}),
        "bad_request",
        f"allocate_retry: 'observed' names unmanaged resource 'gpus' {MANAGED}",
    ),
    "retry-empty-exhausted": (
        _with(RETRY, exhausted=[]),
        "bad_request",
        "allocate_retry: 'exhausted' must be a non-empty list of resource keys",
    ),
    "retry-unmanaged-exhausted": (
        _with(RETRY, exhausted=["gpus"]),
        "bad_request",
        f"allocate_retry: exhausted resource 'gpus' is not managed {MANAGED}",
    ),
    "record-negative-peak": (
        _with(RECORD, peaks={"memory": -5.0}),
        "bad_request",
        "record: 'peaks'['memory'] must be finite and >= 0",
    ),
    "record-string-peak": (
        _with(RECORD, peaks={"memory": "5"}),
        "bad_request",
        "record: 'peaks'['memory'] must be a number",
    ),
    "record-huge-peak": (
        _with(RECORD, peaks={"memory": 10**400}),
        "bad_request",
        "record: 'peaks'['memory'] must be finite and >= 0",
    ),
    "record-zero-significance": (
        _with(RECORD, significance=0),
        "bad_request",
        "record: 'significance' must be a finite number > 0 when given",
    ),
}

#: Faults of the batch document itself: (batch, code, message).
ENVELOPE_FAULTS = {
    "empty-requests": (
        {"op": "allocate_batch", "requests": []},
        "bad_request",
        "allocate_batch: 'requests' must be a non-empty list",
    ),
    "requests-not-a-list": (
        {"op": "allocate_batch", "requests": GOOD},
        "bad_request",
        "allocate_batch: 'requests' must be a non-empty list",
    ),
    "empty-batch-key": (
        {"op": "allocate_batch", "key": "", "requests": [GOOD]},
        "bad_request",
        "allocate_batch: 'key' must be a non-empty string when given",
    ),
}


def _service():
    return AllocationService(
        ServiceConfig(
            allocator=AllocatorConfig(algorithm="greedy_bucketing", seed=11, min_records=3),
            n_shards=3,
        )
    )


async def _refusals(batch):
    """(code, message) of ``batch`` over the wire, via submit, via submit_batch."""
    svc = _service()
    await svc.start()
    front = AllocationServer(svc)
    answers = []
    wire = await front._respond(encode({**batch, "id": 7}))
    assert wire["ok"] is False and wire["id"] == 7
    answers.append((wire["error"]["code"], wire["error"]["message"]))
    with pytest.raises(ProtocolError) as refused:
        await svc.submit(batch)
    answers.append((refused.value.code, str(refused.value)))
    # An empty list included: submit_batch([]) once returned [].
    if isinstance(batch.get("requests"), list) and "key" not in batch:
        with pytest.raises(ProtocolError) as refused:
            await svc.submit_batch(batch["requests"])
        answers.append((refused.value.code, str(refused.value)))
    # Refused before anything took a sequence number.
    assert svc.stats()["ops"] == 0
    await svc.stop()
    return answers


@pytest.mark.parametrize("name", sorted(NESTED_FAULTS))
def test_a_nested_fault_gets_one_answer_on_every_path(name):
    nested, code, message = NESTED_FAULTS[name]
    batch = {"op": "allocate_batch", "requests": [GOOD, nested, GOOD]}
    assert asyncio.run(_refusals(batch)) == [(code, message)] * 3


@pytest.mark.parametrize("name", sorted(ENVELOPE_FAULTS))
def test_a_batch_envelope_fault_keeps_its_answer(name):
    batch, code, message = ENVELOPE_FAULTS[name]
    assert set(asyncio.run(_refusals(batch))) == {(code, message)}


def test_each_nested_body_is_validated_once(monkeypatch):
    """Over the wire a batch of n costs n + 1 checks, a single op still 2."""
    calls = []
    original = protocol.validate_request

    def counting(doc, resources):
        calls.append(doc.get("op"))
        return original(doc, resources)

    # The module global serves validate_batch's calls; the server and
    # the service hold their own imported references.
    for module in (protocol, server, service):
        monkeypatch.setattr(module, "validate_request", counting)

    async def scenario():
        svc = _service()
        await svc.start()
        front = AllocationServer(svc)
        nested = [{"op": "allocate", "category": f"c{i}", "task_id": i} for i in range(5)]
        reply = await front._respond(encode({"op": "allocate_batch", "requests": nested}))
        assert reply["ok"] is True and len(reply["result"]["responses"]) == 5
        batch_calls = list(calls)
        calls.clear()
        reply = await front._respond(encode({"op": "allocate", "category": "c", "task_id": 9}))
        assert reply["ok"] is True
        single_calls = list(calls)
        calls.clear()
        await svc.submit_batch(nested)
        direct_calls = list(calls)
        await svc.stop()
        return batch_calls, single_calls, direct_calls

    batch_calls, single_calls, direct_calls = asyncio.run(scenario())
    assert batch_calls == ["allocate_batch"] + ["allocate"] * 5
    assert single_calls == ["allocate", "allocate"]
    assert direct_calls == ["allocate"] * 5
