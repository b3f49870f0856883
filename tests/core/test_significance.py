"""Tests for significance policies."""

import pytest

from repro.core.significance import (
    SIGNIFICANCE,
    exponential_decay_significance,
    task_id_significance,
    uniform_significance,
)


class TestRegistry:
    def test_all_policies_registered(self):
        assert SIGNIFICANCE == {
            "task_id": task_id_significance,
            "uniform": uniform_significance,
            "exponential_decay": exponential_decay_significance,
        }

    def test_unknown_policy(self):
        """``window`` was a policy once; the config refuses it by name."""
        from repro.core.allocator import AllocatorConfig

        with pytest.raises(KeyError, match="window"):
            AllocatorConfig(significance="window")


class TestTaskIdSignificance:
    def test_paper_rule(self):
        """Task with ID 1 has significance... IDs count from 0 here, so
        significance = ID + 1 (the paper counts from 1)."""
        assert task_id_significance(0) == 1.0
        assert task_id_significance(41) == 42.0

    def test_negative_ids_clamped(self):
        assert task_id_significance(-5) == 1.0


class TestUniformSignificance:
    def test_constant(self):
        assert uniform_significance(0) == uniform_significance(10**6) == 1.0


class TestExponentialDecaySignificance:
    def test_ratio_matches_decay(self):
        ratio = exponential_decay_significance(10) / exponential_decay_significance(11)
        assert ratio == pytest.approx(0.95)

    def test_monotone_increasing(self):
        values = [exponential_decay_significance(i) for i in range(50)]
        assert values == sorted(values)

    def test_stays_finite_for_huge_ids(self):
        assert exponential_decay_significance(10**7) < float("inf")
        assert exponential_decay_significance(10**7) > 0

    @pytest.mark.parametrize(
        "task_id,weight",
        [
            (0, "0x1.0000000000000p+0"),
            (1, "0x1.0d79435e50d79p+0"),
            (10, "0x1.ab9115bcfe59ap+0"),
            (500, "0x1.000d352b3361ap+37"),
            (11697, "0x1.7ff5019451d51p+865"),
            (11698, "0x1.88a122d234b39p+865"),
            (10**7, "0x1.88a122d234b39p+865"),
        ],
    )
    def test_weights_are_pinned_bit_for_bit(self, task_id, weight):
        """The weights the policy class with ``decay=0.95`` gave, to the
        bit; from task ID 11,698 on the clamped exponent makes them equal."""
        assert exponential_decay_significance(task_id) == float.fromhex(weight)


class TestPolicyInAllocator:
    def test_allocator_uses_configured_policy(self):
        from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator
        from repro.core.resources import MEMORY, ResourceVector

        alloc = TaskOrientedAllocator(
            AllocatorConfig(
                algorithm="greedy_bucketing", significance="uniform", seed=0
            )
        )
        alloc.observe("p", ResourceVector.of(cores=1, memory=100, disk=10), task_id=5)
        assert alloc.algorithm("p", MEMORY).records[0].significance == 1.0

    def test_unknown_policy_name_rejected(self):
        from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator

        with pytest.raises(KeyError):
            TaskOrientedAllocator(AllocatorConfig(significance="bogus"))
