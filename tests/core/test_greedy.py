"""Tests for Greedy Bucketing (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.greedy import (
    GreedyBucketing,
    greedy_break_indices,
    greedy_break_indices_literal,
)
from repro.core.records import RecordList


def make_records(values, sigs=None):
    rl = RecordList()
    sigs = sigs or [1.0] * len(values)
    for task_id, (v, s) in enumerate(zip(values, sigs)):
        rl.add(v, significance=s, task_id=task_id)
    return rl


class TestGreedyBreakIndices:
    def test_single_record(self):
        rl = make_records([5.0])
        assert greedy_break_indices(rl) == [0]

    def test_identical_values_one_bucket(self):
        rl = make_records([10.0] * 20)
        assert greedy_break_indices(rl) == [19]

    def test_separated_clusters_split(self, bimodal_records):
        breaks = greedy_break_indices(bimodal_records)
        assert len(breaks) >= 2
        assert breaks[-1] == len(bimodal_records) - 1
        # The split isolates the low cluster from the high one: some
        # break must fall between value 300 and 900.
        values = bimodal_records.values
        assert any(300 < values[b] < 900 or values[b] <= 300 for b in breaks[:-1])

    def test_breaks_sorted_and_terminal(self, normal_records):
        breaks = greedy_break_indices(normal_records)
        assert breaks == sorted(set(breaks))
        assert breaks[-1] == len(normal_records) - 1

    def test_paper_two_record_split_rule(self):
        # Equal significance: split iff v1 < v2 / 2 (derived from the
        # four-case cost; see test_cost.py).
        assert greedy_break_indices(make_records([2.0, 10.0])) == [0, 1]
        assert greedy_break_indices(make_records([6.0, 10.0])) == [1]

    def test_matches_literal_implementation(self, bimodal_records):
        fast = greedy_break_indices(bimodal_records)
        literal = greedy_break_indices_literal(bimodal_records)
        assert fast == literal

    def test_matches_literal_on_normal(self, normal_records):
        assert greedy_break_indices(normal_records) == greedy_break_indices_literal(
            normal_records
        )

    def test_max_buckets_cap(self, bimodal_records):
        capped = greedy_break_indices(bimodal_records, max_buckets=1)
        assert capped == [len(bimodal_records) - 1]

    def test_max_buckets_cap_is_spent_depth_first_on_the_lowest_values(self):
        # Three modes; the top one is the widest segment (8 of 14
        # records) and splits when left alone.  The stack pops the left
        # child first, so under a cap of 3 the root's low half uses the
        # last split and the widest segment stays whole.
        low, mid = [100.0] * 3, [1000.0] * 3
        top = [10000.0 * 1.2**i for i in range(8)]
        rl = make_records(low + mid + top)
        assert greedy_break_indices(rl) == [2, 5, 11, 13]
        assert greedy_break_indices(rl, lo=6) == [11, 13]
        assert greedy_break_indices(rl, max_buckets=2) == [5, 13]
        assert greedy_break_indices(rl, max_buckets=3) == [2, 5, 13]  # not [5, 11, 13]
        capped = GreedyBucketing(rng=np.random.default_rng(0), max_buckets=3)
        for task_id, value in enumerate(low + mid + top):
            capped.update(value, task_id=task_id)
        assert [b.hi for b in capped.state.buckets] == [2, 5, 13]

    def test_invalid_max_buckets(self, normal_records):
        with pytest.raises(ValueError):
            greedy_break_indices(normal_records, max_buckets=0)

    def test_invalid_segment(self, normal_records):
        with pytest.raises(IndexError):
            greedy_break_indices(normal_records, lo=5, hi=len(normal_records))

    def test_deep_recursion_uses_explicit_stack(self):
        # A geometric sequence keeps splitting; must not hit Python's
        # recursion limit.
        values = [2.0**i for i in range(400)]
        rl = make_records(values)
        breaks = greedy_break_indices(rl)
        assert breaks[-1] == 399


class TestGreedyBucketingAlgorithm:
    def test_registry_name(self):
        assert GreedyBucketing.name == "greedy_bucketing"
        assert GreedyBucketing.conservative_exploration is True
        assert GreedyBucketing.deterministic_predictions is False

    @pytest.mark.parametrize("cap", [0, -3, 2.5, True, "4"])
    def test_bad_cap_is_refused_at_construction(self, cap):
        """Not at the first decision after exploration, mid-service."""
        with pytest.raises(ValueError, match="max_buckets"):
            GreedyBucketing(max_buckets=cap)

    def test_integer_cap_is_kept_as_int(self):
        assert GreedyBucketing(max_buckets=np.int64(3))._max_buckets == 3

    def test_no_records_no_prediction(self):
        gb = GreedyBucketing(rng=np.random.default_rng(0))
        assert gb.predict() is None
        assert gb.predict_retry(10.0, 12.0) is None
        assert gb.state is None

    def test_predict_returns_bucket_rep(self, bimodal_records):
        gb = GreedyBucketing(rng=np.random.default_rng(0))
        for r in bimodal_records:
            gb.update(r.value, r.significance, r.task_id)
        reps = {b.rep for b in gb.state.buckets}
        for _ in range(20):
            assert gb.predict() in reps

    def test_retry_climbs(self, bimodal_records):
        gb = GreedyBucketing(rng=np.random.default_rng(0))
        for r in bimodal_records:
            gb.update(r.value, r.significance, r.task_id)
        low_rep = min(b.rep for b in gb.state.buckets)
        retry = gb.predict_retry(low_rep, low_rep)
        assert retry is not None and retry > low_rep

    def test_retry_above_max_returns_none(self, bimodal_records):
        gb = GreedyBucketing(rng=np.random.default_rng(0))
        for r in bimodal_records:
            gb.update(r.value, r.significance, r.task_id)
        top = max(b.rep for b in gb.state.buckets)
        assert gb.predict_retry(top, top) is None

    def test_lazy_recompute_batches_updates(self, bimodal_records):
        gb = GreedyBucketing(rng=np.random.default_rng(0))
        for r in bimodal_records:
            gb.update(r.value, r.significance, r.task_id)
        assert gb.recomputations == 0
        gb.predict()
        assert gb.recomputations == 1
        gb.predict()
        gb.predict_retry(1.0, 1.0)
        assert gb.recomputations == 1  # no new records, no recompute
        gb.update(500.0, 1.0, 999)
        gb.predict()
        assert gb.recomputations == 2

    def test_reset(self, bimodal_records):
        gb = GreedyBucketing(rng=np.random.default_rng(0))
        for r in bimodal_records:
            gb.update(r.value, r.significance, r.task_id)
        gb.predict()
        gb.reset()
        assert gb.n_records == 0
        assert gb.predict() is None

    def test_state_validates(self, normal_records):
        gb = GreedyBucketing(rng=np.random.default_rng(0))
        for r in normal_records:
            gb.update(r.value, r.significance, r.task_id)
        gb.state.validate()

    def test_retired_keyword_rejected(self):
        with pytest.raises(TypeError):
            GreedyBucketing(rebucket_interval=2)
