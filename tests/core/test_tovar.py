"""Tests for the Tovar et al. job-sizing strategies."""

import numpy as np
import pytest

from repro.core.tovar import MaxThroughput, MinWaste


def feed(algo, values):
    for task_id, v in enumerate(values):
        algo.update(float(v), task_id=task_id)
    return algo


class TestMinWaste:
    def test_registry_and_flags(self):
        assert MinWaste.name == "min_waste"
        assert MinWaste.conservative_exploration is False

    def test_no_records_no_prediction(self):
        assert MinWaste().predict() is None

    def test_single_record_predicts_it(self):
        assert feed(MinWaste(), [500.0]).predict() == 500.0

    def test_prediction_is_an_observed_value(self, rng):
        values = np.clip(rng.normal(8000, 2000, 300), 50, None)
        mw = feed(MinWaste(), values)
        assert mw.predict() in set(values)

    def test_identical_values(self):
        mw = feed(MinWaste(), [306.0] * 40)
        assert mw.predict() == 306.0

    def test_objective_is_actually_minimized(self, rng):
        """Brute-force the expected waste over candidates and compare."""
        values = np.sort(np.clip(rng.normal(100, 30, 60), 1, None))
        mw = feed(MinWaste(), values)
        pick = mw.predict()
        max_seen = values.max()

        def expected_waste(a):
            total = 0.0
            for v in values:
                if v <= a:
                    total += a - v
                else:
                    total += a + (max_seen - v)
            return total / len(values)

        best = min(set(values), key=expected_waste)
        assert expected_waste(pick) == pytest.approx(expected_waste(best))

    def test_retry_goes_to_max_seen(self, rng):
        values = np.clip(rng.normal(100, 30, 50), 1, None)
        mw = feed(MinWaste(), values)
        pick = mw.predict()
        if pick < values.max():
            assert mw.predict_retry(pick, pick) == values.max()

    def test_retry_beyond_max_returns_none(self):
        mw = feed(MinWaste(), [10.0, 20.0])
        assert mw.predict_retry(20.0, 25.0) is None

    def test_lazy_recompute(self):
        mw = feed(MinWaste(), [10.0, 20.0, 30.0])
        first = mw.predict()
        assert mw.predict() == first  # cached
        mw.update(100.0)
        assert mw.predict() is not None  # recomputed without error


class TestMaxThroughput:
    def test_registry(self):
        assert MaxThroughput.name == "max_throughput"

    def test_maximizes_success_per_resource(self, rng):
        values = np.sort(np.clip(rng.normal(100, 30, 60), 1, None))
        mt = feed(MaxThroughput(), values)
        pick = mt.predict()

        def inverse_throughput(a):
            f = np.mean(values <= a)
            return a / f

        best = min(set(values), key=inverse_throughput)
        assert inverse_throughput(pick) == pytest.approx(inverse_throughput(best))

    def test_picks_at_most_min_waste_on_heavy_tail(self, rng):
        """Max Throughput under-allocates relative to Min Waste.

        Throughput ignores the cost of retries, so on a heavy-tailed
        distribution it must not pick a larger first allocation than
        Min Waste does.
        """
        values = np.clip(500 + rng.exponential(3000, 400), 1, None)
        mw = feed(MinWaste(), values)
        mt = feed(MaxThroughput(), values)
        assert mt.predict() <= mw.predict()

    def test_objectives_differ_from_min_waste(self, rng):
        """The two strategies pick different values on a bimodal mix.

        (A regression guard: an earlier formulation made the objectives
        differ by a constant, collapsing them to the same argmin.)
        """
        rng = np.random.default_rng(7)
        low = rng.normal(100, 5, 300)
        high = rng.normal(1000, 30, 100)
        values = np.clip(np.concatenate([low, high]), 1, None)
        mw = feed(MinWaste(), values)
        mt = feed(MaxThroughput(), values)
        assert mt.predict() != mw.predict()

    def test_single_record(self):
        assert feed(MaxThroughput(), [42.0]).predict() == 42.0

    def test_retry_to_max(self):
        mt = feed(MaxThroughput(), [10.0, 50.0, 100.0])
        pick = mt.predict()
        assert pick < 100.0
        assert mt.predict_retry(pick, pick) == 100.0
