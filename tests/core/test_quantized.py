"""Tests for Quantized Bucketing."""

import numpy as np
import pytest

from repro.core.quantized import QuantizedBucketing


def feed(algo, values):
    for task_id, v in enumerate(values):
        algo.update(float(v), task_id=task_id)
    return algo


class TestQuantizedBucketing:
    def test_registry_and_flags(self):
        assert QuantizedBucketing.name == "quantized_bucketing"
        assert QuantizedBucketing.conservative_exploration is False

    def test_default_splits_at_median(self):
        qb = feed(QuantizedBucketing(), [10.0, 20.0, 30.0, 40.0])
        assert qb.bucket_reps() == (20.0, 40.0)
        assert qb.predict() == 20.0

    def test_odd_count_median(self):
        qb = feed(QuantizedBucketing(), [10.0, 20.0, 30.0])
        assert qb.predict() == 20.0

    def test_no_records(self):
        qb = QuantizedBucketing()
        assert qb.predict() is None
        assert qb.predict_retry(1.0, 1.0) is None
        assert qb.bucket_reps() is None

    def test_retry_climbs_ladder(self):
        qb = feed(QuantizedBucketing(), [10.0, 20.0, 30.0, 40.0])
        assert qb.predict_retry(20.0, 20.0) == 40.0
        assert qb.predict_retry(40.0, 40.0) is None

    def test_retry_respects_observed_peak(self):
        qb = feed(QuantizedBucketing(), [10.0, 20.0, 30.0, 40.0])
        # Observed peak already above the max rep: nothing to offer.
        assert qb.predict_retry(20.0, 45.0) is None

    def test_duplicate_reps_collapsed(self):
        qb = feed(QuantizedBucketing(), [306.0] * 30)
        assert qb.bucket_reps() == (306.0,)
        assert qb.predict() == 306.0
        assert qb.predict_retry(306.0, 306.0) is None

    def test_quantile_validation(self):
        """The split is the paper's median, not a setting."""
        with pytest.raises(TypeError):
            QuantizedBucketing(quantiles=(0.5,))

    def test_reps_are_observed_values(self, rng):
        values = np.clip(rng.normal(500, 100, 99), 1, None)
        qb = feed(QuantizedBucketing(), values)
        observed = set(values)
        for rep in qb.bucket_reps():
            assert rep in observed

    def test_significance_ignored(self):
        qb = QuantizedBucketing()
        qb.update(10.0, significance=1000.0, task_id=0)
        qb.update(20.0, significance=0.1, task_id=1)
        qb.update(30.0, significance=0.1, task_id=2)
        qb.update(40.0, significance=0.1, task_id=3)
        # Count-based median, not significance-weighted.
        assert qb.predict() == 20.0

