"""Tests for Whole Machine and Max Seen."""

import pytest

from repro.core.baselines import MaxSeen, WholeMachine


class TestWholeMachine:
    def test_registry_and_flags(self):
        assert WholeMachine.name == "whole_machine"
        assert WholeMachine.conservative_exploration is False

    def test_always_predicts_capacity(self):
        wm = WholeMachine(capacity=64000.0)
        assert wm.predict() == 64000.0
        wm.update(100.0)
        assert wm.predict() == 64000.0

    def test_zero_capacity_predicts_none(self):
        assert WholeMachine(capacity=0.0).predict() is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            WholeMachine(capacity=-1.0)

    def test_retry_above_capacity_gives_up(self):
        wm = WholeMachine(capacity=100.0)
        assert wm.predict_retry(100.0, 100.0) is None
        assert wm.predict_retry(50.0, 60.0) == 100.0

    def test_record_counting(self):
        wm = WholeMachine(capacity=10.0)
        wm.update(1.0)
        wm.update(2.0)
        assert wm.n_records == 2


class TestMaxSeen:
    def test_registry_and_flags(self):
        assert MaxSeen.name == "max_seen"
        assert MaxSeen.conservative_exploration is False

    def test_no_records_no_prediction(self):
        assert MaxSeen().predict() is None

    def test_tracks_maximum(self):
        ms = MaxSeen(granularity=0.0)
        for v in [100.0, 500.0, 300.0]:
            ms.update(v)
        assert ms.max_seen == 500.0
        assert ms.predict() == 500.0

    def test_histogram_rounding_paper_example(self):
        # Section V-C: 306 MB consumption -> 500 MB allocation with the
        # 250-wide histogram.
        ms = MaxSeen(granularity=250.0)
        ms.update(306.0)
        assert ms.predict() == 500.0

    def test_exact_multiple_not_rounded_up(self):
        ms = MaxSeen(granularity=250.0)
        ms.update(500.0)
        assert ms.predict() == 500.0

    def test_zero_granularity_is_exact(self):
        ms = MaxSeen(granularity=0.0)
        ms.update(306.0)
        assert ms.predict() == 306.0

    def test_negative_granularity_rejected(self):
        with pytest.raises(ValueError):
            MaxSeen(granularity=-1.0)

    def test_default_retry_uses_new_max(self):
        ms = MaxSeen(granularity=0.0)
        ms.update(100.0)
        # The failed task observed more than everything recorded: the
        # default retry has no better answer than None (doubling).
        assert ms.predict_retry(100.0, 150.0) is None
        ms.update(400.0)
        assert ms.predict_retry(100.0, 150.0) == 400.0

    def test_significance_ignored(self):
        ms = MaxSeen(granularity=0.0)
        ms.update(10.0, significance=100.0)
        ms.update(50.0, significance=0.5)
        assert ms.predict() == 50.0

