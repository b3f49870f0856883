"""Tests for the TaskOrientedAllocator."""

import pytest

from repro.core.allocator import AllocatorConfig, TaskOrientedAllocator
from repro.core.resources import (
    CORES,
    DISK,
    MEMORY,
    PAPER_EXPLORATORY_ALLOCATION,
    PAPER_WORKER_CAPACITY,
    ResourceVector,
)


def bootstrap(alloc, category="proc", n=10, peaks=None):
    """Feed n completed records so the category leaves exploration."""
    peaks = peaks or ResourceVector.of(cores=2, memory=8000, disk=500)
    for task_id in range(n):
        alloc.observe(category, peaks, task_id=task_id)
    return alloc


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = AllocatorConfig()
        assert cfg.min_records == 10
        assert cfg.significance == "task_id"
        assert PAPER_EXPLORATORY_ALLOCATION[MEMORY] == 1000
        assert cfg.machine_capacity == PAPER_WORKER_CAPACITY

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            AllocatorConfig(algorithm="nope")

    @pytest.mark.parametrize("algorithm", ["greedy_bucketing", "exhaustive_bucketing"])
    def test_bad_algorithm_kwargs_are_refused_by_the_config(self, algorithm):
        """Not when a category's first allocator is built, mid-service."""
        with pytest.raises(ValueError, match="capacity"):
            AllocatorConfig(algorithm=algorithm, algorithm_kwargs={"record_capacity": 0})
        with pytest.raises(TypeError, match="max_bucket"):
            AllocatorConfig(algorithm=algorithm, algorithm_kwargs={"max_bucket": 4})
        with pytest.raises(ValueError, match="capacity"):
            AllocatorConfig().with_algorithm(algorithm, record_capacity=0)

    @pytest.mark.parametrize("algorithm", ["greedy_bucketing", "exhaustive_bucketing"])
    @pytest.mark.parametrize("capacity", [2.5, 0.5, True])
    def test_non_integer_record_capacity_is_refused_by_the_config(self, algorithm, capacity):
        """Not at the first compaction, and never silently as a bound of 1."""
        with pytest.raises(ValueError, match="capacity"):
            AllocatorConfig(algorithm=algorithm, algorithm_kwargs={"record_capacity": capacity})
        cfg = AllocatorConfig(algorithm=algorithm, algorithm_kwargs={"record_capacity": 3})
        alloc = bootstrap(TaskOrientedAllocator(cfg), n=12)
        assert alloc.algorithm("proc", MEMORY).n_records <= 3

    @pytest.mark.parametrize("seed", [-1, True, 2.0, "7"])
    def test_bad_seed_is_refused_by_the_config(self, seed):
        """numpy takes it at construction and raises at the first
        generator built from it, mid-run."""
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            AllocatorConfig(seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, 2**64 + 5])
    def test_good_seed_is_taken(self, seed):
        assert TaskOrientedAllocator(AllocatorConfig(seed=seed)).allocate("c", 0)[CORES] == 1.0

    def test_with_algorithm(self):
        cfg = AllocatorConfig().with_algorithm("max_seen")
        assert cfg.algorithm == "max_seen"

    @pytest.mark.parametrize(
        "field,bad,error",
        [
            pytest.param(field, bad, error, id=f"{field}={bad}")
            for field, bad, error in [
                ("min_records", -1, ValueError),
                ("min_records", 2.5, ValueError),
                ("min_records", True, ValueError),
                ("min_records", float("nan"), ValueError),
                ("significance", "bogus", KeyError),
                ("significance", "window", KeyError),
            ]
        ],
    )
    def test_bad_value_is_refused_by_the_config(self, field, bad, error):
        """At construction: a NaN ``min_records`` would otherwise skip
        exploration silently (``count < nan`` is always false), and an
        unknown policy would raise only when an allocator is built — in
        the service at start, in the parallel grid inside a worker."""
        with pytest.raises(error, match=field):
            AllocatorConfig(**{field: bad})


class TestExploratoryMode:
    def test_bucketing_gets_conservative_bootstrap(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="greedy_bucketing", seed=0))
        assert alloc.conservative_exploration
        first = alloc.allocate("proc", 0)
        assert first == ResourceVector.of(cores=1, memory=1000, disk=1000)

    def test_alternatives_get_whole_machine(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="max_seen", seed=0))
        assert not alloc.conservative_exploration
        first = alloc.allocate("proc", 0)
        assert first == PAPER_WORKER_CAPACITY

    def test_exploration_ends_after_min_records(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="exhaustive_bucketing", seed=0))
        assert alloc.in_exploration("proc")
        bootstrap(alloc, n=9)
        assert alloc.in_exploration("proc")
        alloc.observe("proc", ResourceVector.of(cores=2, memory=8000, disk=500), task_id=9)
        assert not alloc.in_exploration("proc")

    def test_exploration_is_per_category(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="exhaustive_bucketing", seed=0))
        bootstrap(alloc, category="a", n=10)
        assert not alloc.in_exploration("a")
        assert alloc.in_exploration("b")

    def test_version_counter(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="max_seen", seed=0))
        assert alloc.version("proc") == 0
        alloc.observe("proc", ResourceVector.of(cores=1, memory=10, disk=10), task_id=0)
        assert alloc.version("proc") == 1


class TestSteadyState:
    def test_predictions_after_exploration(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="exhaustive_bucketing", seed=0))
        bootstrap(alloc)
        steady = alloc.allocate("proc", 10)
        # All records identical: the bucket rep equals the peak.
        assert steady == ResourceVector.of(cores=2, memory=8000, disk=500)

    def test_max_seen_granularity_wiring(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="max_seen", seed=0))
        bootstrap(alloc, peaks=ResourceVector.of(cores=0.9, memory=306, disk=306))
        steady = alloc.allocate("proc", 10)
        # Memory/disk round up to the 250 histogram; cores to 1.
        assert steady[MEMORY] == 500
        assert steady[DISK] == 500
        assert steady[CORES] == 1.0

    def test_whole_machine_capacity_wiring(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="whole_machine", seed=0))
        bootstrap(alloc)
        assert alloc.allocate("proc", 10) == PAPER_WORKER_CAPACITY

    def test_predictions_clamped_to_capacity(self):
        small = ResourceVector.of(cores=2, memory=4000, disk=4000)
        alloc = TaskOrientedAllocator(
            AllocatorConfig(algorithm="max_seen", machine_capacity=small, seed=0)
        )
        bootstrap(alloc, peaks=ResourceVector.of(cores=1, memory=3900, disk=100))
        # max_seen rounds 3900 -> 4000, already at capacity.
        assert alloc.allocate("proc", 10)[MEMORY] <= 4000

    def test_deterministic_predictions_cached(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="max_seen", seed=0))
        bootstrap(alloc)
        a = alloc.allocate("proc", 10)
        b = alloc.allocate("proc", 11)
        assert a == b  # a pure function of the records: unchanged state, same vector
        alloc.observe("proc", ResourceVector.of(cores=4, memory=9000, disk=500), task_id=12)
        c = alloc.allocate("proc", 13)
        assert c != a


class TestRetries:
    def test_retry_grows_only_exhausted_resources(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="exhaustive_bucketing", seed=0))
        bootstrap(alloc)
        previous = ResourceVector.of(cores=2, memory=4000, disk=500)
        observed = ResourceVector.of(cores=1, memory=4000, disk=100)
        retry = alloc.allocate_retry(
            "proc", 20, previous=previous, observed=observed, exhausted=(MEMORY,)
        )
        assert retry[MEMORY] > 4000
        assert retry[CORES] == 2
        assert retry[DISK] == 500

    def test_retry_from_bucket_ladder(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="exhaustive_bucketing", seed=0))
        # Two clusters of records -> two buckets in memory.
        for task_id in range(10):
            peaks = ResourceVector.of(cores=1, memory=200 if task_id % 2 else 1000, disk=100)
            alloc.observe("proc", peaks, task_id=task_id)
        previous = ResourceVector.of(cores=1, memory=200, disk=100)
        observed = ResourceVector.of(cores=1, memory=200, disk=50)
        retry = alloc.allocate_retry(
            "proc", 20, previous=previous, observed=observed, exhausted=(MEMORY,)
        )
        assert retry[MEMORY] == 1000  # the higher bucket's rep

    def test_retry_doubles_when_no_higher_bucket(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="exhaustive_bucketing", seed=0))
        bootstrap(alloc)  # all records at memory=8000
        previous = ResourceVector.of(cores=2, memory=8000, disk=500)
        observed = ResourceVector.of(cores=2, memory=8000, disk=200)
        retry = alloc.allocate_retry(
            "proc", 20, previous=previous, observed=observed, exhausted=(MEMORY,)
        )
        assert retry[MEMORY] == 16000

    def test_exploratory_retry_doubles(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="greedy_bucketing", seed=0))
        previous = ResourceVector.of(cores=1, memory=1000, disk=1000)
        observed = ResourceVector.of(cores=0.5, memory=1000, disk=100)
        retry = alloc.allocate_retry(
            "proc", 0, previous=previous, observed=observed, exhausted=(MEMORY,)
        )
        assert retry[MEMORY] == 2000
        assert retry[CORES] == 1

    def test_retry_clamps_to_capacity(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="greedy_bucketing", seed=0))
        previous = ResourceVector.of(cores=1, memory=40000, disk=1000)
        observed = ResourceVector.of(cores=1, memory=40000, disk=100)
        retry = alloc.allocate_retry(
            "proc", 0, previous=previous, observed=observed, exhausted=(MEMORY,)
        )
        assert retry[MEMORY] == 64000  # capped at the worker

    def test_retry_requires_exhausted(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(seed=0))
        with pytest.raises(ValueError):
            alloc.allocate_retry(
                "proc", 0,
                previous=ResourceVector.of(cores=1),
                observed=ResourceVector.of(cores=1),
                exhausted=(),
            )

    def test_retry_unmanaged_resource_rejected(self):
        from repro.core.resources import TIME

        alloc = TaskOrientedAllocator(AllocatorConfig(seed=0))
        with pytest.raises(KeyError):
            alloc.allocate_retry(
                "proc", 0,
                previous=ResourceVector.of(cores=1, memory=1, disk=1),
                observed=ResourceVector.of(cores=1, memory=1, disk=1),
                exhausted=(TIME,),
            )


class TestReentrancyGuard:
    def test_hook_calling_back_is_refused_and_the_guard_released(self):
        alloc = TaskOrientedAllocator(
            AllocatorConfig(seed=0, min_records=0)
        )
        hooked = alloc.algorithm("proc", MEMORY)
        hooked.predict_retry = lambda *args: alloc.allocate("proc", 1)
        previous = ResourceVector.of(cores=1, memory=1000, disk=1000)
        retry = dict(previous=previous, observed=previous, exhausted=(MEMORY,))
        with pytest.raises(RuntimeError, match=r"re-entrant TaskOrientedAllocator\.allocate\(\)"):
            alloc.allocate_retry("proc", 0, **retry)
        # The failed call released the guard on its way out: every
        # mutating entry point is open again.
        del hooked.predict_retry
        assert alloc.allocate_retry("proc", 0, **retry)[MEMORY] == 2000
        assert alloc.allocate("proc", 1)[MEMORY] == 1000
        alloc.observe("proc", previous, task_id=1)
        alloc.load_state(alloc.state_dict())
        assert alloc.records_count("proc") == 1


class TestObserve:
    def test_default_significance_is_task_id_plus_one(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="greedy_bucketing", seed=0))
        alloc.observe("proc", ResourceVector.of(cores=1, memory=100, disk=100), task_id=0)
        algo = alloc.algorithm("proc", MEMORY)
        assert algo.records[0].significance == 1.0

    def test_explicit_significance(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(algorithm="greedy_bucketing", seed=0))
        alloc.observe(
            "proc",
            ResourceVector.of(cores=1, memory=100, disk=100),
            task_id=0,
            significance=42.0,
        )
        assert alloc.algorithm("proc", MEMORY).records[0].significance == 42.0

    def test_records_count(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(seed=0))
        assert alloc.records_count("proc") == 0
        bootstrap(alloc, n=4)
        assert alloc.records_count("proc") == 4

    def test_categories(self):
        alloc = TaskOrientedAllocator(AllocatorConfig(seed=0))
        assert alloc.categories() == ()
        alloc.allocate("a", 0)
        alloc.allocate("b", 1)
        assert set(alloc.categories()) == {"a", "b"}

    def test_overrides_via_kwargs(self):
        alloc = TaskOrientedAllocator(algorithm="max_seen", seed=3)
        assert alloc.algorithm_name == "max_seen"
