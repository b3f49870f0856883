"""Tests for ResourceRecord / RecordList."""

import pytest

from repro.core.records import RecordList, ResourceRecord


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
        assert len(rl) == 1 and rl.seen == 1 and rl.total_significance() == 1.0


class TestRecordList:
    def test_append_keeps_sorted(self):
        rl = RecordList()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            rl.add(v)
        assert list(rl.values) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_extend(self):
        rl = RecordList()
        rl.extend(ResourceRecord(v) for v in [3.0, 1.0, 2.0])
        assert list(rl.values) == [1.0, 2.0, 3.0]

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
    """Capacity-bounded stores: the three compaction policies."""

    def test_unknown_compaction_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown compaction policy"):
            RecordList(compaction="lru")

    def test_evict_min_reports_victim_index_and_value(self):
        rl = RecordList(capacity=2)
        rl.add(10.0, significance=5.0)
        rl.add(20.0, significance=9.0)
        rl.add(30.0, significance=7.0)
        assert rl.last_eviction == (0, 10.0)
        assert list(rl.values) == [20.0, 30.0]

    def test_add_position_accounts_for_eviction_shift(self):
        rl = RecordList(capacity=2)
        rl.add(10.0, significance=1.0)
        rl.add(30.0, significance=9.0)
        # Lands at index 1, then the index-0 victim shifts it to 0.
        assert rl.add(20.0, significance=7.0) == 0
        assert list(rl.values) == [20.0, 30.0]

    def test_add_returns_none_when_own_record_evicted(self):
        rl = RecordList(capacity=2)
        rl.add(10.0, significance=5.0)
        rl.add(20.0, significance=9.0)
        # The arrival itself is the lowest-significance record.
        assert rl.add(15.0, significance=1.0) is None
        assert list(rl.values) == [10.0, 20.0]

    def test_decay_compacts_in_batch_with_slack(self):
        from repro.core.records import BATCH_EVICTION, DECAY_SLACK

        capacity = 20
        rl = RecordList(capacity=capacity, compaction="decay")
        for i in range(capacity):
            rl.add(float(100 + i), significance=float(i + 1))
        assert rl.last_eviction is None
        rl.add(500.0, significance=100.0)
        # One batch cleared a slack fraction, not a single victim.
        assert rl.last_eviction == BATCH_EVICTION
        expected = max(1, capacity - int(capacity * DECAY_SLACK))
        assert len(rl) == expected
        # Lowest-significance (oldest) records went first.
        assert float(rl.significances.min()) > 1.0

    def test_decay_amortizes_next_inserts_without_evicting(self):
        rl = RecordList(capacity=20, compaction="decay")
        for i in range(21):
            rl.add(float(i + 1), significance=float(i + 1))
        n_after_batch = len(rl)
        rl.add(999.0, significance=99.0)
        assert rl.last_eviction is None  # slack absorbed it
        assert len(rl) == n_after_batch + 1

    def test_reservoir_is_seeded_and_deterministic(self):
        stream = [(float(v), float(s)) for v, s in zip(range(50), range(1, 51))]
        lists = []
        for _ in range(2):
            rl = RecordList(capacity=8, compaction="reservoir", seed=42)
            for v, s in stream:
                rl.add(v + 0.5, significance=s)
            lists.append(rl)
        assert len(lists[0]) == 8
        assert list(lists[0].values) == list(lists[1].values)
        assert list(lists[0].significances) == list(lists[1].significances)

    def test_reservoir_rejection_reports_no_mutation(self):
        rl = RecordList(capacity=4, compaction="reservoir", seed=0)
        rejected = retained = 0
        for i in range(200):
            pos = rl.add(float(i + 1), significance=1.0)
            if i < 4:
                # Fill phase: plain inserts, no sampling yet.
                assert pos is not None and rl.last_eviction is None
            elif pos is None:
                assert rl.last_eviction is None  # nothing was swapped out
                rejected += 1
            else:
                assert rl.last_eviction is not None  # replacement swap
                retained += 1
        assert len(rl) == 4
        assert rejected > 0 and retained > 0
        assert rl.seen == 200

    def test_seen_counts_compacted_away_records(self):
        rl = RecordList(capacity=3)
        for i in range(10):
            rl.add(float(i + 1), significance=float(i + 1))
        assert rl.seen == 10
        assert len(rl) == 3


class TestBatchEvictionEquivalence:
    """_evict_to_capacity's vectorized batch vs the one-at-a-time path."""

    @staticmethod
    def _populated(n, seed):
        import numpy as np

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
        from repro.core.records import BATCH_EVICTION

        batch = self._populated(30, seed)
        legacy = self._populated(30, seed)
        batch._evict_to_capacity(target)
        assert batch.last_eviction == BATCH_EVICTION
        while len(legacy) > target:
            legacy._evict_to_capacity(len(legacy) - 1)
        assert list(batch.values) == list(legacy.values)
        assert list(batch.significances) == list(legacy.significances)
        assert list(batch.task_ids) == list(legacy.task_ids)
        assert list(batch.sig_prefix) == list(legacy.sig_prefix)

    def test_over_by_one_delegates_to_single_eviction(self):
        rl = self._populated(10, seed=9)
        victim = rl._evict_to_capacity(9)
        assert victim is not None
        assert rl.last_eviction == (victim, pytest.approx(rl.last_eviction[1]))
        assert len(rl) == 9


class TestBoundedFromArraysAndState:
    def test_from_arrays_with_capacity_matches_streaming(self):
        import numpy as np

        values = np.array([5.0, 1.0, 9.0, 3.0, 7.0, 2.0])
        sigs = np.array([1.0, 6.0, 2.0, 5.0, 4.0, 3.0])
        bulk = RecordList.from_arrays(values, sigs, capacity=4)
        streamed = RecordList(capacity=4)
        # Streaming evicts as it goes; bulk evicts once at the end — for
        # evict_min both keep exactly the top-significance records.
        for v, s in zip(values, sigs):
            streamed.add(float(v), significance=float(s))
        assert list(bulk.values) == list(streamed.values)
        assert list(bulk.significances) == list(streamed.significances)

    def test_from_arrays_reservoir_replays_stream(self):
        import numpy as np

        values = np.arange(1.0, 41.0)
        bulk = RecordList.from_arrays(values, capacity=6, compaction="reservoir", seed=3)
        streamed = RecordList(capacity=6, compaction="reservoir", seed=3)
        for v in values:
            streamed.add(float(v))
        assert list(bulk.values) == list(streamed.values)

    def test_bounded_state_roundtrip_continues_identically(self):
        stream = [(float(v % 17 + 1), float(v + 1)) for v in range(40)]
        original = RecordList(capacity=9, compaction="reservoir", seed=5)
        for v, s in stream[:25]:
            original.add(v, significance=s)
        import json

        restored = RecordList.from_state(json.loads(json.dumps(original.state_dict())))
        assert restored.capacity == 9
        assert restored.compaction == "reservoir"
        assert restored.seen == original.seen
        for v, s in stream[25:]:
            assert original.add(v, significance=s) == restored.add(v, significance=s)
        assert list(original.values) == list(restored.values)
        assert list(original.sig_prefix) == list(restored.sig_prefix)
