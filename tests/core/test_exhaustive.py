"""Tests for Exhaustive Bucketing (Algorithm 2)."""


import numpy as np
import pytest

from repro.core.buckets import BucketState
from repro.core.cost import exhaustive_cost
from repro.core.exhaustive import (
    PAPER_MAX_BUCKETS,
    ExhaustiveBucketing,
    evenly_spaced_break_indices,
    exhaustive_break_indices,
)
from repro.core.records import RecordList


def make_records(values, sigs=None):
    rl = RecordList()
    sigs = sigs or [1.0] * len(values)
    for task_id, (v, s) in enumerate(zip(values, sigs)):
        rl.add(v, significance=s, task_id=task_id)
    return rl


class TestEvenlySpacedBreaks:
    def test_k1_is_single_bucket(self):
        rl = make_records([1.0, 2.0, 3.0])
        assert evenly_spaced_break_indices(rl, 1) == [2]

    def test_k2_breaks_at_half_vmax(self):
        rl = make_records([10.0, 40.0, 60.0, 100.0])
        # candidate value 50 -> nearest record strictly below = 40 (idx 1)
        assert evenly_spaced_break_indices(rl, 2) == [1, 3]

    def test_candidates_map_strictly_below(self):
        rl = make_records([25.0, 50.0, 100.0])
        # k=2: candidate 50 -> record strictly below 50 is 25 (idx 0).
        assert evenly_spaced_break_indices(rl, 2) == [0, 2]

    def test_duplicate_mappings_removed(self):
        # All candidates collapse onto the same record.
        rl = make_records([1.0, 100.0])
        breaks = evenly_spaced_break_indices(rl, 5)
        assert breaks == [0, 1]

    def test_empty_mappings_dropped(self):
        # Candidates below the smallest record map to nothing.
        rl = make_records([90.0, 95.0, 100.0])
        breaks = evenly_spaced_break_indices(rl, 4)
        assert breaks[-1] == 2
        assert breaks == sorted(set(breaks))

    def test_invalid_k(self):
        rl = make_records([1.0])
        with pytest.raises(ValueError):
            evenly_spaced_break_indices(rl, 0)

    def test_single_record(self):
        rl = make_records([5.0])
        for k in range(1, 5):
            assert evenly_spaced_break_indices(rl, k) == [0]


class TestExhaustiveBreakIndices:
    def test_picks_minimum_cost_configuration(self, bimodal_records):
        breaks = exhaustive_break_indices(bimodal_records)
        chosen = BucketState(bimodal_records, breaks)
        chosen_cost = exhaustive_cost(chosen.reps, chosen.probs, chosen.estimates)
        # Every evenly spaced candidate configuration must cost >= chosen.
        for k in range(1, PAPER_MAX_BUCKETS + 1):
            candidate = evenly_spaced_break_indices(bimodal_records, k)
            state = BucketState(bimodal_records, candidate)
            cost = exhaustive_cost(state.reps, state.probs, state.estimates)
            assert chosen_cost <= cost + 1e-9

    def test_separated_clusters_split(self, bimodal_records):
        breaks = exhaustive_break_indices(bimodal_records)
        assert len(breaks) >= 2

    def test_identical_values_single_bucket(self):
        rl = make_records([306.0] * 50)
        assert exhaustive_break_indices(rl) == [49]

    def test_bucket_count_respects_cap(self, normal_records):
        for cap in (1, 2, 3):
            breaks = exhaustive_break_indices(normal_records, max_buckets=cap)
            assert len(breaks) <= cap

    def test_invalid_cap(self, normal_records):
        with pytest.raises(ValueError):
            exhaustive_break_indices(normal_records, max_buckets=0)


class TestExhaustiveBucketingAlgorithm:
    def test_registry_and_flags(self):
        assert ExhaustiveBucketing.name == "exhaustive_bucketing"
        assert ExhaustiveBucketing.conservative_exploration is True
        assert ExhaustiveBucketing.deterministic_predictions is False

    def test_paper_default_cap(self):
        eb = ExhaustiveBucketing()
        assert eb.max_buckets == PAPER_MAX_BUCKETS == 10

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            ExhaustiveBucketing(max_buckets=0)

    @pytest.mark.parametrize("cap", [0, -3, 2.5, True, "4"])
    def test_bad_cap_is_refused_like_greedys(self, cap):
        with pytest.raises(ValueError, match="max_buckets"):
            ExhaustiveBucketing(max_buckets=cap)

    def test_no_records_no_prediction(self):
        eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
        assert eb.predict() is None
        assert eb.state is None

    def test_predictions_are_reps(self, bimodal_records):
        eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
        for r in bimodal_records:
            eb.update(r.value, r.significance, r.task_id)
        reps = {b.rep for b in eb.state.buckets}
        for _ in range(20):
            assert eb.predict() in reps

    def test_retry_ladder_terminates(self, bimodal_records):
        """Climbing from any start reaches the top in <= n_buckets steps."""
        eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
        for r in bimodal_records:
            eb.update(r.value, r.significance, r.task_id)
        allocation = eb.predict()
        steps = 0
        while True:
            nxt = eb.predict_retry(allocation, allocation)
            if nxt is None:
                break
            assert nxt > allocation
            allocation = nxt
            steps += 1
            assert steps <= len(eb.state)

    def test_state_validates(self, normal_records):
        eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
        for r in normal_records:
            eb.update(r.value, r.significance, r.task_id)
        eb.state.validate()

    def test_bucket_count_stays_small(self, normal_records):
        # The paper observes bucket counts rarely exceed 10; with the
        # cap they never do.
        eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
        for r in normal_records:
            eb.update(r.value, r.significance, r.task_id)
        assert 1 <= len(eb.state) <= 10

    def test_breaks_equal_direct_search(self):
        """The engine serves every depth with the reference search's breaks."""
        eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
        reference = RecordList()
        stream = np.clip(np.random.default_rng(0).normal(8000.0, 2000.0, 120), 50.0, None)
        for task_id, value in enumerate(stream):
            sig = float(task_id + 1)
            eb.update(float(value), significance=sig, task_id=task_id)
            reference.add(float(value), significance=sig, task_id=task_id)
            assert [b.hi for b in eb.state.buckets] == exhaustive_break_indices(reference)

    def test_one_recomputation_per_dirty_read(self, bimodal_records):
        eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
        for r in bimodal_records:
            eb.update(r.value, r.significance, r.task_id)
        assert eb.recomputations == 0  # a burst of completions: no search yet
        for n_searches in range(1, 51):
            eb.update(500.0 + n_searches, 1.0, 1000 + n_searches)
            eb.predict()
            eb.predict_retry(1.0, 1.0)
            _ = eb.state
            assert eb.recomputations == n_searches

    @pytest.mark.parametrize("retired", [{"rebucket_interval": 2}, {"incremental": False}])
    def test_retired_keywords_rejected(self, retired):
        with pytest.raises(TypeError):
            ExhaustiveBucketing(**retired)
