"""Incremental partition engines vs the full searches they shadow.

Both engines claim *identity* with the from-scratch search:
:class:`IncrementalExhaustivePartition` with
:func:`exhaustive_break_indices`, :class:`GreedySplitMemo` with
:func:`greedy_break_indices`.  The hypothesis suites here are the
acceptance proof at the engine protocol (``observe`` / ``break_indices``
/ ``consume_stats``); the greedy search is further held to the bits of
the implementation it replaced in ``test_greedy_differential.py``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import partition_stats
from repro.core import exhaustive as exhaustive_module
from repro.core.exhaustive import (
    ExhaustiveBucketing,
    IncrementalExhaustivePartition,
    evenly_spaced_break_indices,
    exhaustive_break_indices,
)
from repro.core.greedy import (
    GreedyBucketing,
    GreedySplitMemo,
    greedy_break_indices,
)
from repro.core.records import RecordList

# -- strategies ---------------------------------------------------------------

streams = st.lists(
    st.tuples(
        st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.01, max_value=1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=50,
)


def feed(records, engine, value, significance=1.0, task_id=-1):
    """One streamed arrival, wired exactly as BucketingAlgorithm.update."""
    before = len(records)
    pos = records.add(value, significance=significance, task_id=task_id)
    # The whole protocol: None exactly when the store compacted.
    assert (pos is None) == (len(records) <= before)
    engine.observe(value, pos)
    return pos


# -- exhaustive engine: identity with the full search -------------------------


@given(streams)
@settings(deadline=None)
def test_incremental_equals_full_search_unbounded(pairs):
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    for task_id, (value, sig) in enumerate(pairs):
        feed(records, engine, value, sig, task_id)
        assert engine.break_indices() == exhaustive_break_indices(records)


@given(streams)
@settings(deadline=None)
def test_incremental_equals_full_search_bounded(pairs):
    """Compactions never break identity."""
    records = RecordList(capacity=7)
    engine = IncrementalExhaustivePartition(records)
    for task_id, (value, sig) in enumerate(pairs):
        feed(records, engine, value, sig, task_id)
        assert engine.break_indices() == exhaustive_break_indices(records)


@given(streams, st.integers(min_value=1, max_value=10))
@settings(deadline=None)
def test_incremental_equals_full_search_any_bucket_cap(pairs, max_buckets):
    records = RecordList()
    engine = IncrementalExhaustivePartition(records, max_buckets=max_buckets)
    for task_id, (value, sig) in enumerate(pairs):
        feed(records, engine, value, sig, task_id)
        assert engine.break_indices() == exhaustive_break_indices(
            records, max_buckets=max_buckets
        )


@given(streams)
@settings(deadline=None)
def test_incremental_equals_full_search_interleaved_queries(pairs):
    """Querying only sometimes (batched completions) changes nothing."""
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    for task_id, (value, sig) in enumerate(pairs):
        feed(records, engine, value, sig, task_id)
        if task_id % 3 == 0:
            assert engine.break_indices() == exhaustive_break_indices(records)
    assert engine.break_indices() == exhaustive_break_indices(records)


@pytest.mark.parametrize("capacity", [7, 9, 25, 64])
@pytest.mark.parametrize(
    "engine_cls, reference",
    [
        (IncrementalExhaustivePartition, exhaustive_break_indices),
        (GreedySplitMemo, greedy_break_indices),
    ],
)
def test_engines_equal_reference_through_every_compaction(engine_cls, reference, capacity):
    """600 inserts, dozens of compactions — one victim at 7 and 9, a
    slack batch at 25 and 64 — and the reference search after each."""
    rng = np.random.default_rng(capacity)
    records = RecordList(capacity=capacity)
    engine = engine_cls(records)
    compactions = 0
    for task_id in range(600):
        # Few distinct values (duplicates, repeated maxima) and keys.
        repeat, tie = rng.random() < 0.4, rng.random() < 0.3
        value = float(rng.choice([0.0, 2.5, 40.0, 1e3]) if repeat else rng.exponential(300.0))
        significance = float(rng.integers(1, 12) if tie else task_id + 1)
        compactions += feed(records, engine, value, significance, task_id) is None
        assert engine.break_indices() == reference(records)
    assert compactions >= 600 // capacity


# One arrival of the shallow-history differential: its value is built
# from the records already held, so the stream hits what a short
# history is made of — duplicates, repeated new maxima, zeros, and
# values an ulp either side of a candidate v_max * i / k, where the
# strict ``value < candidate`` comparison decides the mapping.
arrivals = st.one_of(
    st.tuples(st.just("value"), st.floats(min_value=0.0, max_value=1e6)),
    st.tuples(st.just("zero"), st.none()),
    st.tuples(st.just("duplicate"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("new_max"), st.floats(min_value=1.0, max_value=4.0)),
    st.tuples(
        st.just("candidate"),
        st.tuples(
            st.integers(min_value=2, max_value=10),  # k
            st.floats(min_value=0.0, max_value=1.0),  # picks i in 1..k-1
            st.integers(min_value=-1, max_value=1),  # ulps off the candidate
        ),
    ),
)


def arrival_value(records, kind, arg):
    if kind == "value":
        return arg
    if kind == "zero" or not len(records):
        return 0.0
    values = records.values
    v_max = float(values[len(records) - 1])
    if kind == "duplicate":
        return float(values[min(int(arg * len(records)), len(records) - 1)])
    if kind == "new_max":
        return v_max * arg
    k, pick, ulps = arg
    value = (v_max * (1 + min(int(pick * (k - 1)), k - 2))) / k
    if ulps:
        value = math.nextafter(value, math.inf if ulps > 0 else 0.0)
    return value


@pytest.mark.parametrize("capacity", [None, 9])
@given(
    st.lists(
        st.tuples(arrivals, st.floats(min_value=0.01, max_value=1e3)),
        min_size=1,
        max_size=80,
    )
)
@settings(deadline=None)
def test_engine_equals_reference_after_every_shallow_mutation(capacity, stream):
    """1..80 records: the depths the engine used to hand to the full search.

    After *every* mutation — compactions included — the engine's breaks
    and winner stats are those of the paper-literal reference.
    """
    records = RecordList(capacity=capacity)
    engine = IncrementalExhaustivePartition(records)
    for task_id, ((kind, arg), sig) in enumerate(stream):
        feed(records, engine, arrival_value(records, kind, arg), sig, task_id)
        breaks = engine.break_indices()
        assert breaks == exhaustive_break_indices(records)
        assert engine.consume_stats(breaks) == partition_stats(records, breaks)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
def test_overflowing_candidates_are_dropped_like_the_reference():
    """Near the float ceiling ``v_max * i`` overflows: the candidate is
    ``inf``, every record lies below it, and it maps onto the last
    record — which both searches must drop, not repeat."""
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    for i, value in enumerate([1e300, 3e307, 5.0, 3e307, 1e307]):
        feed(records, engine, value, significance=1e-6, task_id=i)
        assert engine.break_indices() == exhaustive_break_indices(records)
        # The winner alone would hide a repeated last index (an empty
        # bucket scores nothing): compare every configuration.
        assert engine._configurations()[0] == [
            evenly_spaced_break_indices(records, k) for k in range(1, 11)
        ]


def test_exhaustive_bucketing_never_runs_the_reference_search(monkeypatch):
    """One search at every depth: n = 1, 2, 44 and 45 all use the engine."""

    def forbidden(*args, **kwargs):
        raise AssertionError("ExhaustiveBucketing entered the reference search")

    monkeypatch.setattr(exhaustive_module, "exhaustive_break_indices", forbidden)
    monkeypatch.setattr(exhaustive_module, "evenly_spaced_break_indices", forbidden)
    algo = ExhaustiveBucketing(rng=np.random.default_rng(0))
    values = np.random.default_rng(4).lognormal(mean=6.0, sigma=1.0, size=45)
    for i, value in enumerate(values):
        algo.update(float(value), significance=float(i + 1), task_id=i)
        assert algo.predict() is not None
        assert algo.partition_engine.queries == algo.recomputations == i + 1


def test_engines_of_one_bucket_cap_share_a_read_only_layout():
    a = IncrementalExhaustivePartition(RecordList())
    b = ExhaustiveBucketing().partition_engine
    assert a._layout is b._layout
    assert a._layout is not IncrementalExhaustivePartition(RecordList(), 4)._layout
    for array in a._layout:
        assert array.size == a.n_candidates == 45
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_shift_cache_path_stays_exact_without_resync():
    """Inserts below every candidate ride the O(1) shift cache, exactly."""
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    for i, value in enumerate([5000.0, 8000.0, 12000.0, 20000.0]):
        feed(records, engine, value, significance=float(i + 1), task_id=i)
    assert engine.break_indices() == exhaustive_break_indices(records)
    assert engine.resyncs == 1
    # min candidate is v_max / 10 = 2000; everything below it takes the
    # base/shift fast path and must reuse the cached configurations.
    for i, value in enumerate([3.0, 170.0, 42.0, 999.0, 1500.0, 0.5] * 5):
        feed(records, engine, value, significance=1.0, task_id=100 + i)
        assert engine.break_indices() == exhaustive_break_indices(records)
    assert engine.resyncs == 1  # never fell back to a full remap


def test_new_maximum_desyncs_then_resyncs_exactly():
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    for i, value in enumerate([100.0, 200.0, 300.0]):
        feed(records, engine, value, task_id=i)
    assert engine.break_indices() == exhaustive_break_indices(records)
    assert engine.synced
    feed(records, engine, 10_000.0, task_id=3)  # moves every candidate
    assert not engine.synced
    assert engine.break_indices() == exhaustive_break_indices(records)
    assert engine.synced and engine.resyncs == 2


def test_single_bucket_engine_has_no_candidates():
    records = RecordList()
    engine = IncrementalExhaustivePartition(records, max_buckets=1)
    assert engine.n_candidates == 0
    # No candidates means one gap: every non-maximum insert is a pure
    # shift of the single [last] configuration, served from the cache.
    for i, value in enumerate([10.0, 4.0, 10.0, 7.0]):
        feed(records, engine, value, task_id=i)
        assert engine.break_indices() == [i]
        assert engine.break_indices() == exhaustive_break_indices(records, max_buckets=1)
    assert engine.resyncs == 1


def test_break_indices_empty_records_returns_none():
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    assert engine.break_indices() is None


# -- exhaustive engine: the all-collapsed shortcut ----------------------------

#: Streams whose candidates all map below record 0 or onto the last
#: record for a while: tight clusters, all-equal values, then a new
#: maximum that spreads them again.
collapsing_streams = st.lists(
    st.tuples(
        st.sampled_from(("cluster", "equal", "new_max", "below")),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


def _collapsing_value(records, kind, u):
    top = records.values[-1] if len(records) else 1000.0
    if kind == "cluster":
        return top * (1.0 - 1e-4 * u)
    if kind == "equal":
        return top
    if kind == "new_max":
        return top * (2.0 + 8.0 * u)
    return top * 0.1 * u + 0.001


def _assert_stream_exact(stream, monkeypatch):
    """Feed ``stream``; after every insert the engine must equal the full
    search, and skip the scorer exactly when every candidate collapsed.
    Returns how many searches collapsed."""
    scored = []
    score = exhaustive_module._score_and_select
    monkeypatch.setattr(
        exhaustive_module, "_score_and_select", lambda *args: scored.append(1) or score(*args)
    )
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    collapsed = 0
    for i, (kind, u, significance) in enumerate(stream):
        feed(records, engine, _collapsing_value(records, kind, u), significance, i)
        before = len(scored)
        breaks = engine.break_indices()
        configurations, _ = engine._configurations()
        all_collapsed = all(config == [len(records) - 1] for config in configurations)
        collapsed += all_collapsed
        assert len(scored) == before + (not all_collapsed)
        assert breaks == exhaustive_break_indices(records)
        reps, probs, estimates = engine.consume_stats(breaks)
        assert (reps, probs, estimates) == partition_stats(records, breaks)
    return collapsed


def test_collapsed_search_equals_full_search_on_a_fixed_stream(monkeypatch):
    stream = (
        [("equal", 0.0, 1.0)] * 5
        + [("cluster", u / 7, 2.0) for u in range(7)]
        + [("new_max", 0.3, 5.0)]
        + [("below", u / 5, 1.5) for u in range(5)]
        + [("equal", 0.0, 3.0)] * 3
        + [("new_max", 0.9, 1.0)]
        + [("cluster", 0.5, 4.0)] * 4
    )
    assert _assert_stream_exact(stream, monkeypatch) >= 12


@settings(max_examples=60, deadline=None)
@given(collapsing_streams)
def test_collapsed_search_equals_full_search(stream):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_stream_exact(stream, monkeypatch)


# -- exhaustive engine: consume_stats contract --------------------------------


def test_consume_stats_matches_partition_stats_bit_exactly():
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    for i, value in enumerate([100.0, 250.0, 400.0, 900.0, 1500.0, 2500.0]):
        feed(records, engine, value, significance=float(i + 1), task_id=i)
    breaks = engine.break_indices()
    stats = engine.consume_stats(breaks)
    assert stats is not None
    reps, probs, estimates = stats
    ref_reps, ref_probs, ref_estimates = partition_stats(records, breaks)
    assert reps == ref_reps  # exact float equality, not approx
    assert probs == ref_probs
    assert estimates == ref_estimates


def test_consume_stats_is_one_shot_and_identity_keyed():
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    for i, value in enumerate([10.0, 500.0, 900.0, 1300.0]):
        feed(records, engine, value, task_id=i)
    breaks = engine.break_indices()
    # An equal-but-distinct list is refused: the stats belong to the
    # exact object the engine just scored.
    assert engine.consume_stats(list(breaks)) is None
    assert engine.consume_stats(breaks) is not None
    assert engine.consume_stats(breaks) is None  # cleared on use


# -- exhaustive engine: checkpoint contract (rebuilt on load) -----------------


def test_exhaustive_cache_state_rebuilds_on_load():
    records = RecordList()
    engine = IncrementalExhaustivePartition(records)
    for i, value in enumerate([50.0, 600.0, 1200.0, 4000.0]):
        feed(records, engine, value, task_id=i)
    expected = engine.break_indices()
    # Nothing is serialized: a load builds a fresh engine over the
    # restored records.
    restored = IncrementalExhaustivePartition(records)
    assert not restored.synced
    assert restored.break_indices() == expected  # resynced from the records


def test_exhaustive_bucketing_state_roundtrip_mid_stream():
    """Kill/resume the whole algorithm mid-stream: identical continuations."""
    rng = np.random.default_rng(3)
    values = rng.lognormal(mean=6.0, sigma=1.0, size=60).tolist()

    def fresh():
        return ExhaustiveBucketing(rng=np.random.default_rng(17), record_capacity=25)

    original = fresh()
    for i, value in enumerate(values[:30]):
        original.update(value, significance=float(i + 1), task_id=i)
        original.predict()
    # JSON round-trip, as the checkpoint file would.
    snapshot = json.loads(json.dumps(original.state_dict()))
    resumed = fresh()
    resumed.load_state(snapshot)

    for i, value in enumerate(values[30:], start=30):
        original.update(value, significance=float(i + 1), task_id=i)
        resumed.update(value, significance=float(i + 1), task_id=i)
        assert resumed.predict() == original.predict()
    assert resumed.records.values.tolist() == original.records.values.tolist()
    assert [b.hi for b in resumed.state.buckets] == [
        b.hi for b in original.state.buckets
    ]


@pytest.mark.parametrize("algo_cls", [GreedyBucketing, ExhaustiveBucketing])
def test_old_format_snapshot_restores_and_continues_identically(algo_cls):
    """Snapshots written while ``rebucket_interval`` existed carry four
    keys nothing reads any more; they load, and the run continues as one
    that was never interrupted."""
    rng = np.random.default_rng(8)
    values = rng.lognormal(mean=6.0, sigma=1.0, size=60).tolist()

    def fresh():
        return algo_cls(rng=np.random.default_rng(17))

    original = fresh()
    for i, value in enumerate(values[:30]):
        original.update(value, significance=float(i + 1), task_id=i)
        original.predict()
    original.update(values[30], significance=31.0, task_id=30)  # left dirty
    old_format = json.loads(json.dumps(original.state_dict()))
    old_format["state"].update(
        reanchors=20,
        updates_since_recompute=1,
        cached_break_values=[b.rep for b in original._state.buckets],
        partition_cache=None,
    )
    resumed = fresh()
    resumed.load_state(old_format)

    for i, value in enumerate(values[31:], start=31):
        original.update(value, significance=float(i + 1), task_id=i)
        resumed.update(value, significance=float(i + 1), task_id=i)
        assert resumed.predict() == original.predict()
    assert resumed.state_dict() == original.state_dict()


# -- greedy engine: the split memo ---------------------------------------------


@given(streams)
@settings(deadline=None)
def test_greedy_repair_yields_valid_unsplittable_tiling(pairs):
    """After every query: the from-scratch tiling, every bucket a fixpoint."""
    records = RecordList()
    engine = GreedySplitMemo(records)
    for task_id, (value, sig) in enumerate(pairs):
        feed(records, engine, value, sig, task_id)
        breaks = engine.break_indices()
        assert breaks == greedy_break_indices(records)
        n = len(records)
        assert breaks[-1] == n - 1
        assert all(b2 > b1 for b1, b2 in zip(breaks, breaks[1:]))
        assert breaks[0] >= 0
        # Locality fixpoint: the greedy rule declines to split any bucket.
        lo = 0
        for hi in breaks:
            assert greedy_break_indices(records, lo, hi) == [hi]
            lo = hi + 1


@given(streams, st.sampled_from([None, 1, 2, 3, 5]))
@settings(deadline=None)
def test_greedy_engine_equals_full_search_bounded(pairs, max_buckets):
    """Compactions and a bucket cap: still the from-scratch search, query or not."""
    records = RecordList(capacity=7)
    engine = GreedySplitMemo(records, max_buckets=max_buckets)
    for task_id, (value, sig) in enumerate(pairs):
        feed(records, engine, value, sig, task_id)
        if task_id % 3 != 1:  # leave several mutations between some queries
            assert engine.break_indices() == greedy_break_indices(
                records, max_buckets=max_buckets
            )


def test_greedy_engine_desyncs_on_eviction():
    records = RecordList(capacity=5)
    engine = GreedySplitMemo(records)
    for i, value in enumerate([10.0, 20.0, 3000.0, 4000.0, 5000.0]):
        feed(records, engine, value, significance=float(i + 1), task_id=i)
    engine.break_indices()
    assert engine.pending == () and engine._memo
    assert feed(records, engine, 7000.0, significance=10.0, task_id=9) is None  # evicts
    # Every index may have moved and the prefix sums were rebuilt:
    # nothing is reusable.
    assert engine.pending == () and not engine._memo
    assert engine.break_indices() == greedy_break_indices(records)


def test_greedy_engine_tracks_pending_inserts():
    records = RecordList()
    engine = GreedySplitMemo(records)
    for i, value in enumerate([10.0, 20.0, 3000.0, 4000.0, 9000.0]):
        feed(records, engine, value, significance=float(i + 1), task_id=i)
    assert engine.pending == ()  # nothing to map back before a search
    engine.break_indices()
    assert feed(records, engine, 9500.0, task_id=5) == 5
    assert feed(records, engine, 3500.0, task_id=6) == 3
    assert feed(records, engine, 3600.0, task_id=7) == 4
    assert engine.pending == (5, 3, 4)  # in arrival order, each in its own index space
    assert engine.exact
    assert engine.break_indices() == greedy_break_indices(records)
    assert engine.pending == ()
    feed(records, engine, 50.0, significance=0.5, task_id=8)
    assert not engine.exact  # until a compaction drops the 0.5


def test_greedy_cache_roundtrip_is_bit_identical():
    """Nothing is serialized; a checkpoint of the retired local-repair
    engine (a ``partition_cache`` entry) still loads and continues as
    the uninterrupted exact run does."""
    rng = np.random.default_rng(5)
    values = rng.lognormal(mean=6.0, sigma=1.0, size=60).tolist()

    def fresh():
        return GreedyBucketing(rng=np.random.default_rng(17))

    original = fresh()
    for i, value in enumerate(values[:30]):
        original.update(value, significance=float(i + 1), task_id=i)
        original.predict()
    # Leave an insert the memo has not seen a search for.
    original.update(values[30], significance=31.0, task_id=30)
    snapshot = json.loads(json.dumps(original.state_dict()))
    assert "partition_cache" not in snapshot["state"]
    legacy = json.loads(json.dumps(snapshot))
    legacy["state"]["partition_cache"] = {
        "breaks": [3, 17, 30],
        "dirty": [1],
        "full_count": 3,
    }

    resumed, from_legacy = fresh(), fresh()
    resumed.load_state(snapshot)
    from_legacy.load_state(legacy)
    for i, value in enumerate(values[31:], start=31):
        for algo in (original, resumed, from_legacy):
            algo.update(value, significance=float(i + 1), task_id=i)
        expected = original.predict()
        assert resumed.predict() == expected
        assert from_legacy.predict() == expected
    assert resumed.state_dict() == original.state_dict() == from_legacy.state_dict()


@pytest.mark.parametrize(
    "bad",
    [
        "garbage",
        {"breaks": []},
        {"breaks": [0, 2], "dirty": [5], "full_count": 1},  # dirty out of range
        {"breaks": [0, 2], "dirty": [], "full_count": 0},
        {"breaks": [0, "x"], "dirty": [], "full_count": 1},
    ],
)
def test_greedy_restore_rejects_malformed_state(bad):
    """Whatever an old checkpoint carries is dropped, never trusted."""
    algo = GreedyBucketing(rng=np.random.default_rng(17))
    for i, value in enumerate([10.0, 20.0, 30.0]):
        algo.update(value, task_id=i)
    algo.predict()
    snapshot = json.loads(json.dumps(algo.state_dict()))
    snapshot["state"]["partition_cache"] = bad
    restored = GreedyBucketing(rng=np.random.default_rng(0))
    restored.load_state(snapshot)
    assert restored.partition_engine.pending == () and not restored.partition_engine._memo
    restored.update(15.0, task_id=3)
    assert [b.hi for b in restored.state.buckets] == greedy_break_indices(
        restored.records
    )


def test_greedy_engine_is_default_and_kept_under_bucket_cap():
    assert isinstance(GreedyBucketing().partition_engine, GreedySplitMemo)
    # The memo stores argmins, which the cap does not change.
    assert isinstance(GreedyBucketing(max_buckets=4).partition_engine, GreedySplitMemo)
    with pytest.raises(TypeError):
        GreedyBucketing(incremental=True)  # the opt-in knob is gone


def test_greedy_bucketing_incremental_stream_matches_engine_fixpoint():
    """The wired-up algorithm produces the from-scratch tiling per decision."""
    algo = GreedyBucketing(rng=np.random.default_rng(0))
    rng = np.random.default_rng(12)
    for i, value in enumerate(rng.normal(800.0, 200.0, size=80)):
        algo.update(max(float(value), 1.0), significance=float(i + 1), task_id=i)
        assert algo.predict() is not None
        assert [b.hi for b in algo.state.buckets] == greedy_break_indices(algo.records)
    breaks = [b.hi for b in algo.state.buckets]
    records = algo.records
    assert breaks[-1] == len(records) - 1
    lo = 0
    for hi in breaks:
        assert greedy_break_indices(records, lo, hi) == [hi]
        lo = hi + 1
