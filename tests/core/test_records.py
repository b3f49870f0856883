"""Tests for ResourceRecord / RecordList."""

import json

import numpy as np
import pytest

from repro.core.exhaustive import ExhaustiveBucketing
from repro.core.greedy import GreedyBucketing
from repro.core.records import DECAY_SLACK, RecordList, ResourceRecord


class TestResourceRecord:
    def test_basic_construction(self):
        r = ResourceRecord(value=100.0, significance=2.0, task_id=7)
        assert r.value == 100.0 and r.significance == 2.0 and r.task_id == 7

    def test_orders_by_value(self):
        assert ResourceRecord(1.0) < ResourceRecord(2.0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord(-1.0)

    def test_nonpositive_significance_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord(1.0, significance=0.0)
        with pytest.raises(ValueError):
            ResourceRecord(1.0, significance=-2.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_value_or_significance_rejected(self, bad):
        # An infinite value or significance makes every later prefix
        # sum of its list infinite: no bucket can be scored again.
        with pytest.raises(ValueError, match="finite and non-negative"):
            ResourceRecord(bad)
        with pytest.raises(ValueError, match="finite and positive"):
            ResourceRecord(1.0, significance=bad)
        rl = RecordList([ResourceRecord(3.0)])
        with pytest.raises(ValueError, match="finite and non-negative"):
            rl.add(bad)
        with pytest.raises(ValueError, match="finite and positive"):
            rl.add(1.0, significance=bad)
        assert len(rl) == 1 and rl.total_significance() == 1.0


class TestRecordList:
    def test_append_keeps_sorted(self):
        rl = RecordList()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            rl.add(v)
        assert list(rl.values) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_len_iter_getitem_bool(self):
        rl = RecordList([ResourceRecord(2.0), ResourceRecord(1.0)])
        assert len(rl) == 2
        assert [r.value for r in rl] == [1.0, 2.0]
        assert rl[0].value == 1.0
        assert bool(rl)
        assert not RecordList()

    def test_prefix_sums(self):
        rl = RecordList()
        rl.add(10.0, significance=1.0)
        rl.add(20.0, significance=2.0)
        rl.add(30.0, significance=3.0)
        assert list(rl.sig_prefix) == [1.0, 3.0, 6.0]
        assert list(rl.sigval_prefix) == [10.0, 50.0, 140.0]

    def test_sig_sum_ranges(self):
        rl = RecordList()
        for i, v in enumerate([10.0, 20.0, 30.0, 40.0]):
            rl.add(v, significance=float(i + 1))
        assert rl.sig_sum(0, 3) == 10.0
        assert rl.sig_sum(1, 2) == 5.0
        assert rl.sig_sum(2, 2) == 3.0

    def test_weighted_mean_matches_direct_computation(self):
        rl = RecordList()
        values = [10.0, 20.0, 30.0]
        sigs = [1.0, 5.0, 2.0]
        for v, s in zip(values, sigs):
            rl.add(v, significance=s)
        expected = sum(v * s for v, s in zip(values, sigs)) / sum(sigs)
        assert rl.weighted_mean(0, 2) == pytest.approx(expected)

    def test_weighted_mean_subrange(self):
        rl = RecordList()
        for v, s in [(10.0, 1.0), (20.0, 3.0), (30.0, 1.0)]:
            rl.add(v, significance=s)
        assert rl.weighted_mean(1, 2) == pytest.approx((20 * 3 + 30) / 4)

    def test_max_value(self):
        rl = RecordList()
        for v in [5.0, 1.0, 9.0]:
            rl.add(v)
        assert rl.max_value(0, 2) == 9.0
        assert rl.max_value(0, 1) == 5.0

    def test_range_bounds_checked(self):
        rl = RecordList([ResourceRecord(1.0)])
        with pytest.raises(IndexError):
            rl.sig_sum(0, 1)
        with pytest.raises(IndexError):
            rl.weighted_mean(-1, 0)

    def test_index_below(self):
        rl = RecordList()
        for v in [10.0, 20.0, 30.0]:
            rl.add(v)
        assert rl.index_below(15.0) == 0
        assert rl.index_below(30.0) == 1   # strictly below
        assert rl.index_below(31.0) == 2
        assert rl.index_below(10.0) is None
        assert rl.index_below(5.0) is None

    def test_views_invalidate_on_append(self):
        rl = RecordList()
        rl.add(1.0)
        _ = rl.values
        rl.add(2.0)
        assert list(rl.values) == [1.0, 2.0]
        assert list(rl.sig_prefix) == [1.0, 2.0]

    def test_views_are_read_only(self):
        rl = RecordList([ResourceRecord(1.0)])
        with pytest.raises(ValueError):
            rl.values[0] = 5.0

    def test_capacity_evicts_lowest_significance(self):
        rl = RecordList(capacity=3)
        for i, v in enumerate([10.0, 20.0, 30.0, 40.0]):
            rl.add(v, significance=float(i + 1))
        assert len(rl) == 3
        # The significance-1 record (value 10) was evicted.
        assert list(rl.values) == [20.0, 30.0, 40.0]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            RecordList(capacity=0)

    @pytest.mark.parametrize("bad", [2.5, 0.5, 3.0, True, False, "4", -1])
    def test_non_integer_capacity_is_refused_at_construction(self, bad):
        """Not at the first compaction (a float slice index), and never
        silently as 1 (``True``, ``0.5``)."""
        with pytest.raises(ValueError, match="integer >= 1"):
            RecordList(capacity=bad)
        with pytest.raises(ValueError, match="integer >= 1"):
            RecordList.from_arrays(np.arange(1.0, 6.0), capacity=bad)
        state = RecordList(capacity=4).state_dict()
        state["capacity"] = bad
        with pytest.raises(ValueError, match="integer >= 1"):
            RecordList.from_state(state)
        for algo_cls in (GreedyBucketing, ExhaustiveBucketing):
            with pytest.raises(ValueError, match="integer >= 1"):
                algo_cls(record_capacity=bad)

    def test_integral_capacity_of_any_int_type_is_an_int(self):
        store = RecordList(capacity=np.int64(3))
        assert type(store.capacity) is int and store.capacity == 3
        for i in range(5):
            store.add(float(i), significance=float(i + 1))
        assert len(store) <= 3

    def test_total_significance(self):
        rl = RecordList()
        assert rl.total_significance() == 0.0
        rl.add(1.0, significance=2.0)
        rl.add(2.0, significance=3.0)
        assert rl.total_significance() == 5.0

    def test_snapshot_is_immutable_copy(self):
        rl = RecordList([ResourceRecord(1.0)])
        snap = rl.snapshot()
        rl.add(2.0)
        assert len(snap) == 1


class TestBoundedStores:
    """Capacity-bounded stores: one compaction rule, no selection."""

    def test_unknown_compaction_policy_rejected(self):
        # There is no policy to name: the keyword itself is unknown, at
        # the store and at the algorithms that own one.
        with pytest.raises(TypeError):
            RecordList(compaction="lru")
        with pytest.raises(TypeError):
            RecordList(capacity=4, seed=1)
        for algo_cls in (GreedyBucketing, ExhaustiveBucketing):
            with pytest.raises(TypeError):
                algo_cls(record_capacity=4, record_compaction="decay")

    def test_add_returns_none_when_own_record_evicted(self):
        rl = RecordList(capacity=2)
        rl.add(10.0, significance=5.0)
        rl.add(20.0, significance=9.0)
        # The arrival itself is the lowest-significance record.
        assert rl.add(15.0, significance=1.0) is None
        assert list(rl.values) == [10.0, 20.0]

    def test_add_returns_none_whenever_it_compacted(self):
        rl = RecordList(capacity=2)
        assert rl.add(10.0, significance=1.0) == 0
        assert rl.add(30.0, significance=9.0) == 1
        # The arrival survives at index 0, but indices moved under it.
        assert rl.add(20.0, significance=7.0) is None
        assert list(rl.values) == [20.0, 30.0]

    def test_decay_compacts_in_batch_with_slack(self):
        capacity = 20
        rl = RecordList(capacity=capacity)
        for i in range(capacity):
            assert rl.add(float(100 + i), significance=float(i + 1)) == i
        assert rl.add(500.0, significance=100.0) is None
        # One batch cleared a slack fraction, not a single victim.
        expected = max(1, capacity - int(capacity * DECAY_SLACK))
        assert len(rl) == expected == 18
        # Lowest-significance (oldest) records went first.
        assert list(rl.significances) == [float(s) for s in range(4, 21)] + [100.0]
        assert list(rl.sig_prefix) == list(np.cumsum(rl.significances))

    def test_decay_amortizes_next_inserts_without_evicting(self):
        rl = RecordList(capacity=20)
        for i in range(21):
            rl.add(float(i + 1), significance=float(i + 1))
        n_after_batch = len(rl)
        assert rl.add(999.0, significance=99.0) == n_after_batch  # slack absorbed it
        assert len(rl) == n_after_batch + 1


class TestBatchEvictionEquivalence:
    """_compact's vectorized batch vs one victim at a time."""

    @staticmethod
    def _populated(n, seed):
        rng = np.random.default_rng(seed)
        rl = RecordList()
        for i in range(n):
            rl.add(
                float(rng.uniform(1.0, 1000.0)),
                significance=float(rng.uniform(0.1, 50.0)),
                task_id=i,
            )
        return rl

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("target", [1, 7, 23])
    def test_batch_eviction_equals_repeated_single_eviction(self, seed, target):
        batch = self._populated(30, seed)
        legacy = self._populated(30, seed)
        batch._compact(target)
        while len(legacy) > target:
            legacy._compact(len(legacy) - 1)
        assert list(batch.values) == list(legacy.values)
        assert list(batch.significances) == list(legacy.significances)
        assert list(batch.task_ids) == list(legacy.task_ids)
        assert list(batch.sig_prefix) == list(legacy.sig_prefix)


class TestBoundedFromArraysAndState:
    def test_from_arrays_with_capacity_matches_streaming(self):
        values = np.array([5.0, 1.0, 9.0, 3.0, 7.0, 2.0])
        sigs = np.array([1.0, 6.0, 2.0, 5.0, 4.0, 3.0])
        bulk = RecordList.from_arrays(values, sigs, capacity=4)
        streamed = RecordList(capacity=4)
        # Streaming evicts as it goes; bulk evicts once at the end — at a
        # capacity too small for any slack both keep exactly the
        # top-significance records.
        for v, s in zip(values, sigs):
            streamed.add(float(v), significance=float(s))
        assert list(bulk.values) == list(streamed.values)
        assert list(bulk.significances) == list(streamed.significances)

    def test_from_arrays_trims_an_over_full_load_to_capacity_exactly(self):
        # No slack on a bulk load: 30 records into 20 keep the top 20.
        bulk = RecordList.from_arrays(
            np.arange(1.0, 31.0), np.arange(1.0, 31.0), capacity=20
        )
        assert list(bulk.significances) == [float(s) for s in range(11, 31)]

    def test_bounded_state_roundtrip_continues_identically(self):
        stream = [(float(v % 17 + 1), float(v + 1)) for v in range(60)]
        original = RecordList(capacity=12)
        for v, s in stream[:25]:
            original.add(v, significance=s)
        state = json.loads(json.dumps(original.state_dict()))
        assert sorted(state) == ["capacity", "rows"]
        restored = RecordList.from_state(state)
        assert restored.capacity == 12
        for v, s in stream[25:]:
            assert original.add(v, significance=s) == restored.add(v, significance=s)
        assert restored.state_dict() == original.state_dict()


class TestParentFormatStates:
    """States written while the store still had three selectable policies."""

    @staticmethod
    def _parent_state(store, compaction, rng=None):
        return {
            **store.state_dict(),
            "compaction": compaction,
            "seen": 1000,
            "rng": rng,
        }

    @pytest.mark.parametrize("compaction", ["evict_min", "decay", "reservoir"])
    def test_unbounded_state_loads_and_reserializes_without_the_policy_keys(
        self, compaction
    ):
        store = RecordList()
        for i in range(40):
            store.add(float(i % 7), significance=float(i + 1), task_id=i)
        restored = RecordList.from_state(
            json.loads(json.dumps(self._parent_state(store, compaction)))
        )
        assert restored.state_dict() == store.state_dict()
        assert not {"compaction", "seen", "rng"} & set(restored.state_dict())

    def test_bounded_decay_state_continues_to_the_same_bytes(self):
        rng = np.random.default_rng(21)
        stream = [
            (float(rng.integers(0, 40)), float(rng.integers(1, 30)), i)
            for i in range(260)
        ]
        never_serialized = RecordList(capacity=20)
        for value, sig, task_id in stream[:60]:
            never_serialized.add(value, sig, task_id)
        restored = RecordList.from_state(
            json.loads(json.dumps(self._parent_state(never_serialized, "decay")))
        )
        for value, sig, task_id in stream[60:]:  # 200 further inserts
            assert never_serialized.add(value, sig, task_id) == restored.add(
                value, sig, task_id
            )
            assert len(restored) == len(never_serialized)
            n = len(restored)
            assert restored._block[:, :n].tobytes() == never_serialized._block[:, :n].tobytes()

    @pytest.mark.parametrize("compaction", ["evict_min", "reservoir"])
    def test_bounded_state_of_a_removed_policy_is_refused_by_name(self, compaction):
        store = RecordList(capacity=8)
        for i in range(5):
            store.add(float(i), significance=float(i + 1), task_id=i)
        rng = {"bit_generator": "PCG64"} if compaction == "reservoir" else None
        with pytest.raises(ValueError, match=compaction):
            RecordList.from_state(self._parent_state(store, compaction, rng))


class TestRefusedAddLeavesTheStoreUntouched:
    @pytest.mark.parametrize("task_id", [2**63, -(2**63) - 1, 1180591620717411303424])
    @pytest.mark.parametrize("capacity", [None, 12])
    def test_task_id_outside_int64_is_refused_before_any_write(self, capacity, task_id):
        store = RecordList(capacity=capacity)
        for i in range(12):
            store.add(float(i + 1), significance=float(i + 1), task_id=i)
        cached = store.values
        before = [row.tobytes() for row in store._block]
        with pytest.raises(ValueError, match="int64"):
            store.add(2.5, significance=3.0, task_id=task_id)
        assert [row.tobytes() for row in store._block] == before
        assert len(store) == 12 and store.values is cached
        # The int64 bounds themselves are storable.
        store = RecordList()
        store.add(1.0, task_id=2**63 - 1)
        store.add(2.0, task_id=-(2**63))
        assert store.task_ids.tolist() == [2**63 - 1, -(2**63)]
