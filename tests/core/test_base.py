"""Tests for the algorithm base contract and registry."""

import numpy as np
import pytest

from repro.core.base import (
    ALGORITHM_REGISTRY,
    AllocationAlgorithm,
    make_algorithm,
    register_algorithm,
)


class _Stub(AllocationAlgorithm):
    """Minimal concrete algorithm for contract tests (not registered)."""

    name = "stub_for_tests"

    def __init__(self, prediction=None, rng=None):
        super().__init__(rng=rng)
        self._prediction = prediction
        self._count = 0

    def update(self, value, significance=1.0, task_id=-1):
        self._count += 1

    def predict(self):
        return self._prediction

    @property
    def n_records(self):
        return self._count

    def reset(self):
        self._count = 0


class TestRegistry:
    def test_paper_algorithms_registered(self):
        expected = {
            "whole_machine",
            "max_seen",
            "min_waste",
            "max_throughput",
            "quantized_bucketing",
            "greedy_bucketing",
            "exhaustive_bucketing",
        }
        assert expected <= set(ALGORITHM_REGISTRY)

    def test_make_algorithm(self):
        algo = make_algorithm("max_seen", granularity=100.0)
        assert algo.granularity == 100.0

    def test_make_unknown_rejected(self):
        with pytest.raises(KeyError, match="registered"):
            make_algorithm("gradient_descent")

    def test_register_requires_name(self):
        class Nameless(_Stub):
            name = ""

        with pytest.raises(ValueError, match="non-empty"):
            register_algorithm(Nameless)

    def test_register_rejects_duplicate_name(self):
        class Impostor(_Stub):
            name = "max_seen"

        with pytest.raises(ValueError, match="already registered"):
            register_algorithm(Impostor)

    def test_reregistering_same_class_is_idempotent(self):
        cls = ALGORITHM_REGISTRY["max_seen"]
        assert register_algorithm(cls) is cls


class TestDefaultRetryContract:
    def test_default_retry_uses_predict_when_it_grows(self):
        algo = _Stub(prediction=100.0)
        assert algo.predict_retry(50.0, 60.0) == 100.0

    def test_default_retry_declines_when_prediction_too_small(self):
        algo = _Stub(prediction=100.0)
        assert algo.predict_retry(100.0, 90.0) is None
        assert algo.predict_retry(80.0, 120.0) is None

    def test_default_retry_declines_without_prediction(self):
        assert _Stub(prediction=None).predict_retry(1.0, 1.0) is None

    def test_default_flags(self):
        assert _Stub.conservative_exploration is False
        assert _Stub.deterministic_predictions is True

    def test_repr_mentions_records(self):
        algo = _Stub()
        algo.update(1.0)
        assert "records=1" in repr(algo)


class TestBucketingContract:
    @pytest.mark.parametrize("name", ["greedy_bucketing", "exhaustive_bucketing"])
    def test_vanishing_significance_record_does_not_poison_predictions(self, name):
        """A bucket whose significance rounds to exactly 0.0 in the prefix
        sums has probability 0 and its representative as estimate."""
        algo = make_algorithm(name, rng=np.random.default_rng(0))
        for task_id in range(20):
            algo.update(100.0 + 10.0 * task_id, significance=1e18, task_id=task_id)
        algo.update(1000.0, significance=1e-300, task_id=20)  # the largest value
        allocation = algo.predict()
        buckets = algo.state.buckets
        top = buckets[-1]
        assert (top.lo, top.rep, top.prob, top.estimate) == (20, 1000.0, 0.0, 1000.0)
        assert allocation in {b.rep for b in buckets[:-1]}
        assert algo.predict_retry(allocation, allocation) is not None
