"""The streamed state encoding is the materialised one, byte for byte.

:func:`repro.checkpoint.iter_json` lets digests and snapshots encode a
*deferred* state tree — each algorithm's ``state_dict`` a callable the
stream resolves only when it reaches it.  Everything durable hangs on
the bytes staying exactly ``json.dumps``'s: shard digests compare
against single-threaded replays, snapshot files against the sha256 in
the CURRENT pointer, and data dirs written before the stream must still
recover.  ``canonical_json`` stays the definition the digests are
checked against, and the writer below is the snapshot oracle.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    canonical_json,
    iter_json,
    save_checkpoint,
    state_digest,
)
from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator
from repro.core.base import ALGORITHM_REGISTRY
from repro.core.resources import ResourceVector

# -- the encoder equals json.dumps ---------------------------------------------

_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "é", "日本", " ", "🦀", ""]),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 0.1]),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=8)
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=30,
)


def _resolve(obj):
    """``obj`` with every callable replaced by its result (the materialised twin)."""
    if callable(obj):
        return obj()
    if isinstance(obj, dict):
        return {key: _resolve(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_resolve(value) for value in obj]
    return obj


def _defer(tree, data):
    """``tree`` with randomly chosen subtrees replaced by callables returning them."""
    if data.draw(st.integers(0, 3)) == 0:
        return lambda: tree
    if isinstance(tree, dict):
        return {key: _defer(value, data) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_defer(value, data) for value in tree]
    return tree


@settings(max_examples=300, deadline=None)
@given(tree=_TREES, data=st.data(), sort_keys=st.booleans())
def test_stream_is_json_dumps_with_callables_at_any_depth(tree, data, sort_keys):
    deferred = _defer(tree, data)
    expected = json.dumps(tree, sort_keys=sort_keys, separators=(",", ":"))
    assert "".join(iter_json(deferred, sort_keys=sort_keys)) == expected
    assert "".join(iter_json(tree, sort_keys=sort_keys)) == expected
    assert _resolve(deferred) == tree
    if sort_keys:
        assert state_digest(deferred) == hashlib.sha256(
            canonical_json(tree).encode("utf-8")
        ).hexdigest()


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_non_str_key_raises_type_error(key, sort_keys):
    for doc in ({key: 1}, {"a": [{"b": {key: 1}}]}, {"a": lambda: [], "b": {key: 1}}):
        with pytest.raises(TypeError):
            "".join(iter_json(doc, sort_keys=sort_keys))


def test_each_callable_is_called_once_per_stream():
    calls = []

    def state():
        calls.append(1)
        return {"values": [0.5, -0.0], "n": 2}

    text = "".join(iter_json({"b": state, "a": [state, {"c": state}]}, sort_keys=True))
    assert len(calls) == 3
    value = state()
    assert text == canonical_json({"b": value, "a": [value, {"c": value}]})


# -- allocator digests ------------------------------------------------------------


def _seeded_allocator(algorithm, n_tasks=40, seed=5):
    """An allocator after a seeded observe/allocate stream over three categories."""
    alloc = TaskOrientedAllocator(
        AllocatorConfig(algorithm=algorithm, seed=seed, min_records=3)
    )
    rng = np.random.default_rng(seed)
    for task_id in range(n_tasks):
        category = f"cat-{task_id % 3}"
        alloc.allocate(category, task_id)
        alloc.observe(
            category,
            ResourceVector.of(
                cores=float(rng.integers(1, 9)),
                memory=float(rng.uniform(50.0, 16000.0)),
                disk=float(rng.uniform(10.0, 8000.0)),
            ),
            task_id=task_id,
        )
    return alloc


def _oracle_digest(alloc):
    """The digest as defined: sha256 of the materialised canonical JSON."""
    return hashlib.sha256(canonical_json(alloc.state_dict()).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_REGISTRY))
def test_streamed_digest_is_the_canonical_json_digest(algorithm):
    alloc = _seeded_allocator(algorithm)
    assert alloc.digest() == _oracle_digest(alloc)
    assert _resolve(alloc.state_dict(deferred=True)) == alloc.state_dict()


# -- snapshot files ---------------------------------------------------------------


def _materialising_save(path, kind, payload):
    """The snapshot writer before it streamed: one ``json.dumps`` of the whole."""
    text = json.dumps(
        {"magic": MAGIC, "version": FORMAT_VERSION, "kind": kind, "payload": payload},
        indent=None,
        separators=(",", ":"),
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_REGISTRY))
def test_streamed_snapshot_file_is_the_materialised_bytes(algorithm, tmp_path):
    alloc = _seeded_allocator(algorithm)
    # A shard-shaped payload: the deferred allocator tree beside a
    # dedup window, as the service writes it.
    dedup = [[f"k{i}", {"allocation": {"cores": 2.0}, "seq": i}] for i in range(5)]
    shard = {"seq": 7, "allocator": alloc.state_dict(deferred=True), "dedup": dedup}
    deferred = {"shards": [shard]}
    streamed = tmp_path / "streamed.json"
    oracle = tmp_path / "oracle.json"
    digest = save_checkpoint(str(streamed), "service", deferred)
    expected = _materialising_save(str(oracle), "service", _resolve(deferred))
    assert streamed.read_bytes() == oracle.read_bytes()
    assert digest == expected


# -- memory ----------------------------------------------------------------------


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _greedy_24k():
    """24,000 greedy records over eight categories (24 algorithms)."""
    alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="greedy_bucketing", seed=0))
    rng = np.random.default_rng(0)
    for task_id in range(24_000):
        alloc.observe(
            f"cat-{task_id % 8}",
            ResourceVector.of(
                cores=float(rng.integers(1, 9)),
                memory=float(rng.uniform(100.0, 9000.0)),
                disk=float(rng.uniform(10.0, 5000.0)),
            ),
            task_id=task_id,
        )
    return alloc


def test_digest_holds_one_algorithm_at_a_time():
    """The streamed digest's transient stays below a third of the
    materialising one's (the whole state as float lists plus its JSON
    string)."""
    alloc = _greedy_24k()
    streamed, streamed_peak = _traced_peak(alloc.digest)
    oracle, oracle_peak = _traced_peak(lambda: _oracle_digest(alloc))
    assert streamed == oracle
    assert streamed_peak < oracle_peak / 3, (streamed_peak, oracle_peak)


def test_snapshot_write_holds_one_algorithm_at_a_time(tmp_path):
    """Each piece goes to the temp file and the sha256 as the stream
    yields it: the writer's transient stays below the file it writes.
    (0.53x the file measured; 3.0x when the pieces were joined into one
    string before the write.)"""
    alloc = _greedy_24k()
    shard = {"seq": 24_000, "allocator": alloc.state_dict(deferred=True), "dedup": []}
    payload = {"generation": 1, "shards": [shard]}
    path = tmp_path / "service.snapshot.000001.json"
    digest, peak = _traced_peak(lambda: save_checkpoint(str(path), "service", payload))
    size = path.stat().st_size
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < size, (peak, size)


def test_a_category_costs_what_it_holds():
    """500 Exhaustive Bucketing categories of 3 records each, the shape
    of a service's long tail (most never leave exploration), cost at
    most 3 KB each, also after a digest: record blocks sized to their
    records and holding no row views, generators not built (nor seeded
    for a snapshot) before a draw, no partition engine before a query.
    (2.5 KB measured; 4.2 KB live and 4.6 KB after a digest with row
    views, eager engines and seeded snapshot states; 10.5 KB with
    32-column blocks and eager generators.)"""
    config = AllocatorConfig(seed=0)
    rng = np.random.default_rng(0)
    peaks = [
        ResourceVector.of(
            cores=float(rng.integers(1, 9)),
            memory=float(rng.uniform(100.0, 9000.0)),
            disk=float(rng.uniform(10.0, 5000.0)),
        )
        for _ in range(3)
    ]

    def populate(alloc, n_categories):
        for category in range(n_categories):
            for task_id, peak in enumerate(peaks, start=1):
                alloc.observe(f"cat-{category}", peak, task_id=task_id)
            alloc.allocate(f"cat-{category}", task_id=4)

    populate(TaskOrientedAllocator(config), 2)  # warm one-off caches
    alloc = TaskOrientedAllocator(config)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        populate(alloc, 500)
        after, _ = tracemalloc.get_traced_memory()
        alloc.digest()
        digested, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alloc.in_exploration("cat-0") and alloc.records_count("cat-499") == 3
    for total in (after, digested):
        per_category = (total - before) / 500
        assert per_category <= 3 * 1024, per_category
