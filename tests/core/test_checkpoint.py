"""Tests for the checkpoint primitives and durable allocator state.

Covers the JSON-safe building blocks in :mod:`repro.checkpoint` (atomic
writes, WAL journals, envelopes, RNG capture) plus the ``state_dict`` /
``load_state`` round-trips they enable: a restored RecordList or
allocator must be *bit-identical* to the original — not just numerically
close — because service recovery and the snapshot chain hash the state
and compare digests.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    GracefulShutdown,
    append_jsonl,
    canonical_json,
    encode_frame,
    generator_state,
    load_checkpoint,
    read_jsonl,
    restore_generator,
    save_checkpoint,
    state_digest,
    write_json_atomic,
    write_text_atomic,
)
from repro.core.allocator import AllocatorConfig, ExploratoryConfig, TaskOrientedAllocator
from repro.core.base import ALGORITHM_REGISTRY
from repro.core.records import RecordList
from repro.core.resources import ResourceVector

# -- atomic IO ----------------------------------------------------------------


def test_write_text_atomic_creates_parents_and_leaves_no_tmp(tmp_path):
    target = tmp_path / "deep" / "nested" / "report.txt"
    write_text_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    # No stray temp files: everything in the directory is the target.
    assert os.listdir(target.parent) == ["report.txt"]


def test_write_text_atomic_replaces_existing(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(str(target), "old")
    write_text_atomic(str(target), "new")
    assert target.read_text() == "new"


def test_write_json_atomic_round_trips_floats_exactly(tmp_path):
    # repr-based shortest encoding: every float64 survives JSON exactly.
    values = [0.1, 1 / 3, 1e-300, 123456789.123456789, float(np.nextafter(1.0, 2.0))]
    target = tmp_path / "doc.json"
    write_json_atomic(str(target), {"values": values})
    loaded = json.loads(target.read_text())
    assert loaded["values"] == values  # exact equality, not approx


# -- WAL journal --------------------------------------------------------------


def test_read_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    docs = [{"i": 0}, {"i": 1, "x": [1.5, 2.5]}, "bare-string"]
    for doc in docs:
        append_jsonl(path, doc)
    assert read_jsonl(path) == docs


def test_read_jsonl_drops_torn_tail(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    append_jsonl(path, {"i": 0})
    append_jsonl(path, {"i": 1})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"i": 2, "tr')  # crash mid-append
    assert read_jsonl(path) == [{"i": 0}, {"i": 1}]


def test_read_jsonl_rejects_mid_file_corruption(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{encode_frame({"i": 0})}\nnot a frame\n{encode_frame({"i": 2})}\n')
    with pytest.raises(CheckpointError, match="malformed line 2"):
        read_jsonl(path)


# -- envelope -----------------------------------------------------------------


def test_checkpoint_envelope_round_trip(tmp_path):
    path = str(tmp_path / "snap.json")
    save_checkpoint(path, "simulation", {"events": 42, "now": 13.5})
    kind, payload = load_checkpoint(path)
    assert kind == "simulation"
    assert payload == {"events": 42, "now": 13.5}
    # Expected-kind check passes and fails as appropriate.
    load_checkpoint(path, kind="simulation")
    with pytest.raises(CheckpointError, match="holds a 'simulation' snapshot"):
        load_checkpoint(path, kind="grid")


def test_load_checkpoint_rejects_wrong_magic_version_and_garbage(tmp_path):
    path = str(tmp_path / "bad.json")
    write_json_atomic(path, {"magic": "something-else", "version": 1})
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        load_checkpoint(path)
    write_json_atomic(
        path,
        {
            "magic": "repro-checkpoint",
            "version": FORMAT_VERSION + 1,
            "kind": "simulation",
            "payload": {},
        },
    )
    with pytest.raises(CheckpointError, match="format version"):
        load_checkpoint(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{ torn")
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(str(tmp_path / "missing.json"))


# -- canonical hashing & RNG state --------------------------------------------


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert state_digest({"b": 1, "a": 2}) == state_digest({"a": 2, "b": 1})
    assert state_digest({"a": 1}) != state_digest({"a": 2})


def test_generator_state_round_trip():
    rng = np.random.default_rng(99)
    rng.normal(size=17)  # advance into an arbitrary mid-stream position
    saved = generator_state(rng)
    expected = rng.normal(size=8).tolist()

    fresh = np.random.default_rng(0)
    restore_generator(fresh, saved)
    assert fresh.normal(size=8).tolist() == expected


def test_generator_state_is_json_safe():
    state = generator_state(np.random.default_rng(3))
    json.dumps(state)  # no numpy scalars may remain


def test_restore_generator_rejects_kind_mismatch():
    rng = np.random.default_rng(0)
    state = generator_state(rng)
    state["bit_generator"] = "MT19937"
    with pytest.raises(CheckpointError, match="RNG kind mismatch"):
        restore_generator(np.random.default_rng(0), state)


# -- GracefulShutdown ---------------------------------------------------------


def test_graceful_shutdown_trip_semantics():
    shutdown = GracefulShutdown(install=False)
    with shutdown:
        assert not shutdown.triggered
        shutdown.trip(15)
        assert shutdown.triggered
        assert shutdown.signum == 15


# -- RecordList round-trip (property-based) -----------------------------------

record_triples = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False),
        st.floats(min_value=1e-2, max_value=1e4, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=80,
)


def _build(pairs):
    records = RecordList()
    for task_id, (value, sig) in enumerate(pairs):
        records.add(float(value), significance=float(sig), task_id=task_id)
    return records


@given(record_triples)
@settings(max_examples=60, deadline=None)
def test_record_list_state_round_trip_is_bit_exact(pairs):
    original = _build(pairs)
    state = original.state_dict()
    # The state must survive an actual JSON round trip, as on disk.
    restored = RecordList.from_state(json.loads(json.dumps(state)))
    assert state_digest(restored.state_dict()) == state_digest(state)
    # Prefix buffers are stored verbatim, never recomputed: byte-compare.
    n = len(original)
    assert restored.sig_prefix.tobytes() == original.sig_prefix.tobytes()
    assert restored.sigval_prefix.tobytes() == original.sigval_prefix.tobytes()
    assert restored.values.tobytes() == original.values.tobytes()
    assert len(restored) == n


@given(record_triples)
@settings(max_examples=30, deadline=None)
def test_restored_record_list_continues_identically(pairs):
    """Adding the same record to original and restored diverges nowhere."""
    original = _build(pairs)
    restored = RecordList.from_state(original.state_dict())
    for records in (original, restored):
        records.add(3333.25, significance=7.5, task_id=10_000)
    assert state_digest(original.state_dict()) == state_digest(restored.state_dict())


def test_record_list_from_state_rejects_inconsistent_lengths():
    state = _build([(1.0, 1.0), (2.0, 1.0)]).state_dict()
    state["sig_prefix"] = state["sig_prefix"][:-1]
    with pytest.raises(ValueError, match="lengths differ"):
        RecordList.from_state(state)


# -- allocator round-trip, every registered algorithm -------------------------


def _exercise(alloc, offset=0):
    """A fixed observe/allocate workload; returns the allocations made."""
    rng = np.random.default_rng(2024)
    out = []
    for task_id in range(offset, offset + 12):
        out.append(alloc.allocate("proc", task_id))
        peak = ResourceVector.of(
            cores=1 + (task_id % 3),
            memory=float(np.clip(rng.normal(8000, 2000), 50, None)),
            disk=100.0 + 10.0 * task_id,
        )
        alloc.observe("proc", peak, task_id=task_id)
    out.append(alloc.allocate("merge", offset + 100))
    return out


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_REGISTRY))
def test_allocator_state_round_trip(algorithm):
    config = AllocatorConfig(
        algorithm=algorithm, seed=7, exploratory=ExploratoryConfig(min_records=3)
    )
    original = TaskOrientedAllocator(config)
    _exercise(original)
    state = json.loads(json.dumps(original.state_dict()))  # via-disk round trip

    restored = TaskOrientedAllocator(config)
    restored.load_state(state)
    assert state_digest(restored.state_dict()) == state_digest(state)

    # The restored allocator's *future* must match, not just its past:
    # same predictions, same RNG stream continuation.
    assert _exercise(restored, offset=50) == _exercise(original, offset=50)
    assert state_digest(restored.state_dict()) == state_digest(original.state_dict())


def test_allocator_load_state_refuses_config_mismatch():
    donor = TaskOrientedAllocator(AllocatorConfig(algorithm="max_seen", seed=1))
    _exercise(donor)
    state = donor.state_dict()
    other = TaskOrientedAllocator(AllocatorConfig(algorithm="greedy_bucketing", seed=1))
    with pytest.raises(CheckpointError, match="snapshot is for algorithm"):
        other.load_state(state)
