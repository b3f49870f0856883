"""Tests for the expected-waste cost kernels."""

import numpy as np
import pytest

from repro.core.buckets import BucketState
from repro.core.cost import (
    exhaustive_cost,
    exhaustive_cost_reference,
    expected_waste_table,
    greedy_split_costs,
)
from repro.core.records import RecordList
from tests.core.greedy_reference import greedy_split_cost_reference


def make_records(pairs):
    rl = RecordList()
    for task_id, (value, sig) in enumerate(pairs):
        rl.add(value, significance=sig, task_id=task_id)
    return rl


class TestGreedyCost:
    def test_vectorized_matches_reference(self, normal_records):
        hi = len(normal_records) - 1
        costs = greedy_split_costs(normal_records, 0, hi)
        for i in range(0, hi + 1, 7):
            assert costs[i] == pytest.approx(
                greedy_split_cost_reference(normal_records, 0, i, hi), rel=1e-9
            )

    def test_vectorized_matches_reference_on_subsegment(self, normal_records):
        lo, hi = 20, 120
        costs = greedy_split_costs(normal_records, lo, hi)
        for i in range(lo, hi + 1, 11):
            assert costs[i - lo] == pytest.approx(
                greedy_split_cost_reference(normal_records, lo, i, hi), rel=1e-9
            )

    def test_one_bucket_cost_is_rep_minus_mean(self):
        rl = make_records([(10.0, 1.0), (20.0, 1.0), (30.0, 1.0)])
        costs = greedy_split_costs(rl, 0, 2)
        assert costs[-1] == pytest.approx(30.0 - 20.0)

    def test_two_identical_values_prefer_single_bucket(self):
        rl = make_records([(10.0, 1.0), (10.0, 1.0)])
        costs = greedy_split_costs(rl, 0, 1)
        # Splitting equal values can only add retry risk.
        assert costs[-1] <= costs[0] + 1e-12

    def test_paper_two_record_example(self):
        # v1=2, v2=10, equal significance: split wins iff v1 < v2/2.
        rl = make_records([(2.0, 1.0), (10.0, 1.0)])
        costs = greedy_split_costs(rl, 0, 1)
        # Split cost: p1*p2*v2 = 0.25*10 = 2.5; one bucket: 10 - 6 = 4.
        assert costs[0] == pytest.approx(2.5)
        assert costs[1] == pytest.approx(4.0)
        assert costs[0] < costs[1]

    def test_costs_non_negative(self, normal_records):
        costs = greedy_split_costs(normal_records, 0, len(normal_records) - 1)
        assert (costs >= -1e-9).all()

    def test_invalid_segment_raises(self, normal_records):
        with pytest.raises(IndexError):
            greedy_split_costs(normal_records, 0, len(normal_records))
        with pytest.raises(IndexError):
            greedy_split_cost_reference(normal_records, 5, 3, 10)

    def test_single_record_segment(self):
        rl = make_records([(5.0, 1.0)])
        costs = greedy_split_costs(rl, 0, 0)
        assert costs[0] == pytest.approx(0.0)


class TestExhaustiveCost:
    def test_matches_reference_small(self):
        reps = [10.0, 20.0, 40.0]
        probs = [0.3, 0.5, 0.2]
        estimates = [8.0, 15.0, 35.0]
        fast = exhaustive_cost(np.array(reps), np.array(probs), np.array(estimates))
        slow = exhaustive_cost_reference(reps, probs, estimates)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_matches_reference_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            reps = np.sort(rng.uniform(1, 100, n))
            probs = rng.dirichlet(np.ones(n))
            estimates = reps * rng.uniform(0.5, 1.0, n)
            fast = exhaustive_cost(reps, probs, estimates)
            slow = exhaustive_cost_reference(list(reps), list(probs), list(estimates))
            assert fast == pytest.approx(slow, rel=1e-9)

    def test_single_bucket_cost(self):
        # One bucket: W = rep - estimate.
        assert exhaustive_cost(
            np.array([10.0]), np.array([1.0]), np.array([7.0])
        ) == pytest.approx(3.0)

    def test_table_upper_triangle_is_fragmentation(self):
        reps = np.array([10.0, 20.0])
        probs = np.array([0.5, 0.5])
        estimates = np.array([8.0, 18.0])
        table = expected_waste_table(reps, probs, estimates)
        assert table[0, 0] == pytest.approx(2.0)   # rep0 - est0
        assert table[0, 1] == pytest.approx(12.0)  # rep1 - est0
        assert table[1, 1] == pytest.approx(2.0)   # rep1 - est1

    def test_table_failure_chains(self):
        # Task in bucket 1, chose bucket 0: waste = rep0 + T[1][1]
        # (only one higher bucket to re-draw from).
        reps = np.array([10.0, 20.0])
        probs = np.array([0.5, 0.5])
        estimates = np.array([8.0, 18.0])
        table = expected_waste_table(reps, probs, estimates)
        assert table[1, 0] == pytest.approx(10.0 + 2.0)

    def test_three_bucket_chain_renormalizes(self):
        reps = np.array([10.0, 20.0, 30.0])
        probs = np.array([0.2, 0.3, 0.5])
        estimates = np.array([9.0, 19.0, 29.0])
        table = expected_waste_table(reps, probs, estimates)
        # Task in bucket 2, chose bucket 0: rep0 + renormalized
        # expectation over buckets 1 and 2.
        p1, p2 = 0.3 / 0.8, 0.5 / 0.8
        expected = 10.0 + p1 * table[2, 1] + p2 * table[2, 2]
        assert table[2, 0] == pytest.approx(expected)

    def test_cost_non_negative(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 6))
            reps = np.sort(rng.uniform(1, 100, n))
            probs = rng.dirichlet(np.ones(n))
            estimates = reps * rng.uniform(0.3, 1.0, n)
            assert exhaustive_cost(reps, probs, estimates) >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expected_waste_table(np.array([1.0]), np.array([0.5, 0.5]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expected_waste_table(np.array([]), np.array([]), np.array([]))


class TestCostAgainstBucketState:
    def test_state_arrays_feed_cost(self, bimodal_records):
        state = BucketState(bimodal_records, [59, 119])
        two = exhaustive_cost(state.reps, state.probs, state.estimates)
        single = BucketState.single(bimodal_records)
        one = exhaustive_cost(single.reps, single.probs, single.estimates)
        # Clearly separated clusters: two buckets waste less in
        # expectation than one.
        assert two < one
