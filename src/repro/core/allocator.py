"""The task-oriented adaptive resource allocator.

This module implements the ``Allocator`` sketched in Section IV-D: one
algorithm instance per (task category, resource) pair — categories are
allocated *independently* because "different categories don't
necessarily show a correlation in resource consumption" (Section
III-B) — plus the two policies the algorithms themselves leave open:

* **Exploratory mode** (Section V-A): until a category has produced
  ``min_records`` (10) completed records, tasks get a predefined
  allocation.  Bucketing algorithms use the conservative
  1 core / 1 GB memory / 1 GB disk bootstrap with doubling retries; the
  alternative algorithms allocate a whole machine (Section V-C).
* **Doubling fallback** (Section IV-A): when a retry exhausts the
  algorithm's guidance (no bucket representative above the failed
  allocation), the task's allocation is doubled from its previous peak
  until it succeeds.

The allocator is deliberately free of any workflow- or simulator-
specific coupling: callers drive it with three calls —
:meth:`TaskOrientedAllocator.allocate`,
:meth:`TaskOrientedAllocator.allocate_retry`, and
:meth:`TaskOrientedAllocator.observe` — which is exactly the bucketing
manager's interface in Figure 3a.

**Concurrency contract.**  An allocator instance is a *single-writer*
object: the three Figure-3a calls (plus :meth:`load_state` and
:meth:`reset`) mutate shared state — lazy per-category construction
draws child seeds from the master RNG, predictions consume the
per-instance generators, and ``observe`` rewrites the record stores —
with no internal locking.  Callers that serve concurrent traffic must
serialize all mutating calls through one writer (the
``repro.service`` shards put each allocator behind a single-writer
asyncio queue).  The calls are also *non-re-entrant*: a
an algorithm hook must never call back
into the same allocator mid-operation, and a cheap guard raises
``RuntimeError`` if one tries, rather than corrupting state silently.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.checkpoint import (
    CheckpointError,
    generator_state,
    restore_generator,
    state_digest,
)
from repro.core.base import ALGORITHM_REGISTRY, AllocationAlgorithm, check_seed
from repro.core.resources import (
    CORES,
    DISK,
    EVALUATED_RESOURCES,
    MEMORY,
    PAPER_EXPLORATORY_ALLOCATION,
    PAPER_WORKER_CAPACITY,
    TIME,
    Resource,
    ResourceVector,
)
from repro.core.significance import SignificancePolicy, make_significance_policy

__all__ = [
    "ExploratoryConfig",
    "AllocatorConfig",
    "TaskOrientedAllocator",
    "DEFAULT_MAX_SEEN_GRANULARITY",
]

#: Histogram granularity the Max Seen implementation uses per resource
#: (Section V-C names 250 for the MB-denominated resources; a whole core
#: for cores; exact values for time).
DEFAULT_MAX_SEEN_GRANULARITY: Mapping[Resource, float] = {
    CORES: 1.0,
    MEMORY: 250.0,
    DISK: 250.0,
    TIME: 0.0,
}

#: Exploratory fallbacks for resources that have neither an exploratory
#: component nor a machine capacity.  Wall time is the canonical case:
#: workers do not have a "time capacity", so both lookups come back
#: zero, and a zero-second allowance would kill every bootstrap task on
#: arrival.  One hour matches common batch-system defaults.
DEFAULT_EXPLORATORY_FALLBACKS: Mapping[Resource, float] = {
    TIME: 3600.0,
}


@lru_cache(maxsize=None)
def _init_parameters(cls: type) -> Mapping[str, inspect.Parameter]:
    """Constructor parameters per algorithm class.

    ``inspect.signature`` costs tens of microseconds; a fresh category
    builds one algorithm per resource, so under many-category workloads
    (the allocation service routinely sees thousands) the lookup is hot.
    """
    return inspect.signature(cls.__init__).parameters


def _build_algorithm(
    cfg: AllocatorConfig, res: Resource, rng: np.random.Generator
) -> AllocationAlgorithm:
    """The algorithm instance ``cfg`` runs for resource ``res``."""
    kwargs = dict(cfg.algorithm_kwargs)
    cls = ALGORITHM_REGISTRY[cfg.algorithm]
    accepted = _init_parameters(cls)
    # Wire well-known parameters the algorithm accepts but the caller
    # did not pin: worker capacity and the Max Seen histogram width.
    if "capacity" in accepted and "capacity" not in kwargs:
        kwargs["capacity"] = cfg.machine_capacity[res]
    if "granularity" in accepted and "granularity" not in kwargs:
        kwargs["granularity"] = DEFAULT_MAX_SEEN_GRANULARITY.get(res, 0.0)
    if "rng" in accepted and "rng" not in kwargs:
        # Independent child generator per instance: reproducible and
        # insensitive to the order categories first appear.  The seed is
        # drawn now, so the parent stream does not depend on which
        # children ever draw; the child builds its generator on its
        # first draw (a category that never leaves exploration never does).
        kwargs["rng"] = int(rng.integers(2**63))
    return cls(**kwargs)


@dataclass(frozen=True)
class ExploratoryConfig:
    """Bootstrap policy for a category with too few records.

    Attributes
    ----------
    min_records:
        Completed records required before the algorithm's predictions
        take over (the paper collects 10).
    allocation:
        The conservative exploratory allocation (the paper's
        1 core / 1 GB / 1 GB).  Resources missing from this vector fall
        back to the machine capacity.
    mode:
        ``"auto"`` — conservative for algorithms flagged
        ``conservative_exploration`` (the bucketing family), whole
        machine otherwise, matching the paper's setup;
        ``"conservative"`` / ``"whole_machine"`` force one policy for
        every algorithm (ablation hook E-X2).
    explore_concurrency:
        Maximum tasks of a category allowed to *run concurrently* while
        the category is still exploring; further ready tasks wait so
        they can benefit from the first records instead of burning
        bootstrap allocations.  Without this bound, an idle pool plus a
        deep queue dispatches the whole workflow at the bootstrap
        allocation before the tenth record lands — an exploration storm
        the paper's bounded "exploratory mode" clearly does not exhibit.
        ``None`` defaults to ``max(1, min_records)``; pass a large value
        to disable the gate (storm-behaviour studies do).
    """

    min_records: int = 10
    allocation: ResourceVector = PAPER_EXPLORATORY_ALLOCATION
    mode: str = "auto"
    explore_concurrency: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_records < 0:
            raise ValueError(f"min_records must be >= 0, got {self.min_records}")
        if self.mode not in ("auto", "conservative", "whole_machine"):
            raise ValueError(f"unknown exploratory mode: {self.mode!r}")
        if self.explore_concurrency is not None and self.explore_concurrency < 1:
            raise ValueError(
                f"explore_concurrency must be >= 1, got {self.explore_concurrency}"
            )

    @property
    def effective_explore_concurrency(self) -> int:
        if self.explore_concurrency is not None:
            return self.explore_concurrency
        return max(1, self.min_records)

    def is_conservative_for(self, algorithm_cls: type) -> bool:
        if self.mode == "conservative":
            return True
        if self.mode == "whole_machine":
            return False
        return bool(getattr(algorithm_cls, "conservative_exploration", False))


@dataclass(frozen=True)
class AllocatorConfig:
    """Full configuration of a :class:`TaskOrientedAllocator`.

    Attributes
    ----------
    algorithm:
        Registry name of the allocation algorithm driving every
        (category, resource) state.
    algorithm_kwargs:
        Extra constructor arguments for the algorithm.
    resources:
        The resources to manage; defaults to the paper's evaluated three
        (cores, memory, disk).  Add :data:`~repro.core.resources.TIME`
        or registered custom resources to extend.
    machine_capacity:
        A full worker's capacity, used by Whole Machine, the
        whole-machine exploratory policy, and the allocation clamp.
    exploratory:
        The bootstrap policy.
    doubling_factor:
        Growth factor of the doubling fallback (2.0 in the paper).
    significance:
        Recency-weighting policy for completed-task records, by registry
        name (``"task_id"`` — the paper's setting — ``"uniform"``,
        ``"exponential_decay"``, ``"window"``) or as a
        :class:`~repro.core.significance.SignificancePolicy` instance.
        Only consulted when ``observe`` is called without an explicit
        significance.
    seed:
        Seed for the allocator-owned RNG driving probabilistic bucket
        draws; child generators are spawned per algorithm instance so
        runs are reproducible regardless of category arrival order.
    """

    algorithm: str = "exhaustive_bucketing"
    algorithm_kwargs: Mapping = field(default_factory=dict)
    resources: Tuple[Resource, ...] = EVALUATED_RESOURCES
    machine_capacity: ResourceVector = PAPER_WORKER_CAPACITY
    exploratory: ExploratoryConfig = field(default_factory=ExploratoryConfig)
    doubling_factor: float = 2.0
    significance: object = "task_id"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHM_REGISTRY:
            raise KeyError(
                f"unknown algorithm {self.algorithm!r}; "
                f"registered: {sorted(ALGORITHM_REGISTRY)}"
            )
        if not self.resources:
            raise ValueError("at least one resource must be managed")
        if self.doubling_factor <= 1.0:
            raise ValueError(
                f"doubling_factor must exceed 1, got {self.doubling_factor}"
            )
        check_seed("seed", self.seed, optional=True)
        # An unknown keyword or a bad value in algorithm_kwargs is refused
        # here, not when a category's first allocator is built.
        _build_algorithm(self, self.resources[0], np.random.default_rng(0))

    def with_algorithm(self, algorithm: str, **algorithm_kwargs) -> "AllocatorConfig":
        """A copy of this config running a different algorithm."""
        return replace(
            self, algorithm=algorithm, algorithm_kwargs=algorithm_kwargs
        )


class _CategoryState:
    """Per-category bookkeeping: one algorithm instance per resource."""

    __slots__ = ("algorithms", "completed_records", "version")

    def __init__(self, algorithms: Dict[Resource, AllocationAlgorithm]) -> None:
        self.algorithms = algorithms
        self.completed_records = 0
        #: Bumped on every observe(); lets schedulers detect that a cached
        #: prediction for this category went stale.
        self.version = 0


class TaskOrientedAllocator:
    """Adaptive per-category resource allocator (Figure 3a's manager).

    Examples
    --------
    >>> from repro.core.allocator import TaskOrientedAllocator, AllocatorConfig
    >>> alloc = TaskOrientedAllocator(AllocatorConfig(
    ...     algorithm="greedy_bucketing", seed=7))
    >>> first = alloc.allocate("proc", task_id=0)     # exploratory
    >>> first["cores"], first["memory"]
    (1.0, 1000.0)
    """

    def __init__(self, config: Optional[AllocatorConfig] = None, **overrides) -> None:
        if config is None:
            config = AllocatorConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self._config = config
        self._rng = np.random.default_rng(config.seed)
        self._categories: Dict[str, _CategoryState] = {}
        algorithm_cls = ALGORITHM_REGISTRY[config.algorithm]
        self._conservative = config.exploratory.is_conservative_for(algorithm_cls)
        if isinstance(config.significance, SignificancePolicy):
            self._significance_policy = config.significance
        else:
            self._significance_policy = make_significance_policy(str(config.significance))
        self._deterministic = bool(
            getattr(algorithm_cls, "deterministic_predictions", False)
        )
        #: category -> (state version, cached prediction vector); only
        #: used for deterministic algorithms, where repeated allocate()
        #: calls against an unchanged state must return the same vector.
        self._prediction_cache: Dict[str, Tuple[int, ResourceVector]] = {}
        #: category -> number of retry allocations the machine-capacity
        #: clamp stopped from growing (diagnostic only; rebuilt on
        #: replay, so deliberately not part of :meth:`state_dict`).
        self._capacity_clamps: Dict[str, int] = {}
        #: Re-entrancy guard: set while a mutating call is on the stack
        #: (see the module docstring's concurrency contract).
        self._busy = False

    # -- properties -------------------------------------------------------------

    @property
    def config(self) -> AllocatorConfig:
        return self._config

    @property
    def algorithm_name(self) -> str:
        return self._config.algorithm

    @property
    def conservative_exploration(self) -> bool:
        """Whether this allocator bootstraps conservatively (bucketing)."""
        return self._conservative

    def categories(self) -> Tuple[str, ...]:
        return tuple(self._categories)

    def algorithm(self, category: str, resource: Resource) -> AllocationAlgorithm:
        """The live algorithm instance for one (category, resource) pair."""
        return self._state(category).algorithms[resource]

    def records_count(self, category: str) -> int:
        """Completed records observed for a category."""
        state = self._categories.get(category)
        return state.completed_records if state is not None else 0

    def records_counts(self) -> Dict[str, int]:
        """Completed-record counts for every known category."""
        return {
            category: state.completed_records
            for category, state in self._categories.items()
        }

    def digest(self) -> str:
        """sha256 over the canonical :meth:`state_dict` form.

        A cheap bit-identity handle: two allocators that report the same
        digest answer every future request identically (same config
        assumed).  The service layer compares shard digests against
        single-threaded replays, and snapshots embed it for resume
        verification.  Hashes the deferred :meth:`state_dict` as a
        stream, so only one algorithm's state is materialised at a time.
        """
        return state_digest(self.state_dict(deferred=True))

    def in_exploration(self, category: str) -> bool:
        """True while the category is still in exploratory mode."""
        return self.records_count(category) < self._config.exploratory.min_records

    @property
    def capacity_clamps(self) -> Mapping[str, int]:
        """Per-category count of retries the capacity clamp held back."""
        return dict(self._capacity_clamps)

    @property
    def capacity_clamps_total(self) -> int:
        return sum(self._capacity_clamps.values())

    def version(self, category: str) -> int:
        """Monotone counter bumped whenever a category learns something.

        Schedulers cache a queued task's predicted allocation together
        with this version and refresh the prediction when it changes —
        so a task that waited in the queue through the end of the
        exploratory phase is dispatched with a *current* prediction,
        which is what "allocation at dispatch time" means.
        """
        state = self._categories.get(category)
        return state.version if state is not None else 0

    # -- the three calls of Figure 3a ------------------------------------------------

    # The re-entrancy guard: every state-mutating entry point runs between
    # ``_enter(name)`` and, in a ``finally``, ``_leave()`` (plain calls: a
    # generator context manager cost ~1 µs on each of the three per-task calls).

    def _enter(self, call: str) -> None:
        if self._busy:
            raise RuntimeError(
                f"re-entrant TaskOrientedAllocator.{call}() call: a capacity "
                "provider or algorithm hook called back into an allocator "
                "that is mid-operation (the allocator is single-writer; see "
                "the module docstring's concurrency contract)"
            )
        self._busy = True

    def _leave(self) -> None:
        self._busy = False

    def allocate(self, category: str, task_id: int) -> ResourceVector:
        """First-attempt allocation for a fresh task of ``category``."""
        self._enter("allocate")
        try:
            return self._allocate(category, task_id)
        finally:
            self._leave()

    def _allocate(self, category: str, task_id: int) -> ResourceVector:
        state = self._state(category)
        if self._deterministic:
            cached = self._prediction_cache.get(category)
            if cached is not None and cached[0] == state.version:
                return cached[1]
        values: Dict[Resource, float] = {}
        exploring = self.in_exploration(category)
        for res in self._config.resources:
            if exploring:
                values[res] = self._exploratory_value(res)
                continue
            predicted = state.algorithms[res].predict()
            if predicted is None:
                # Algorithm has no guidance (e.g. min_records == 0 and no
                # completions yet): fall back to the exploratory value.
                predicted = self._exploratory_value(res)
            values[res] = self._clamp(res, predicted)
        vector = ResourceVector(values)
        if self._deterministic:
            self._prediction_cache[category] = (state.version, vector)
        return vector

    def allocate_retry(
        self,
        category: str,
        task_id: int,
        previous: ResourceVector,
        observed: ResourceVector,
        exhausted: Tuple[Resource, ...],
    ) -> ResourceVector:
        """Re-allocation after ``previous`` was exhausted.

        ``observed`` is the consumption recorded up to the kill;
        ``exhausted`` names the resources that hit their limit.  Only
        exhausted resources grow — the others keep their previous
        allocation, as growing them would manufacture fragmentation.
        """
        if not exhausted:
            raise ValueError("allocate_retry requires at least one exhausted resource")
        self._enter("allocate_retry")
        try:
            return self._allocate_retry(category, previous, observed, exhausted)
        finally:
            self._leave()

    def _allocate_retry(
        self,
        category: str,
        previous: ResourceVector,
        observed: ResourceVector,
        exhausted: Tuple[Resource, ...],
    ) -> ResourceVector:
        state = self._state(category)
        values: Dict[Resource, float] = {r: previous[r] for r in self._config.resources}
        for res in exhausted:
            if res not in values:
                raise KeyError(f"resource {res.key} is not managed by this allocator")
            prev_value = previous[res]
            peak = observed[res]
            suggestion: Optional[float] = None
            if not self.in_exploration(category):
                suggestion = state.algorithms[res].predict_retry(prev_value, peak)
            if suggestion is None:
                suggestion = self._double(prev_value, peak, res)
            unclamped = max(suggestion, prev_value)
            values[res] = self._clamp(res, unclamped)
            if values[res] <= prev_value and values[res] < self._config.machine_capacity[res]:
                # Clamping or a degenerate suggestion failed to grow the
                # allocation; force progress with one doubling step.
                unclamped = self._double(prev_value, peak, res)
                values[res] = self._clamp(res, unclamped)
            if values[res] < unclamped and values[res] <= prev_value:
                # The static machine-capacity clamp stopped growth
                # entirely (allocation pinned at capacity while the
                # algorithm asked for more).
                self._capacity_clamps[category] = (
                    self._capacity_clamps.get(category, 0) + 1
                )
        return ResourceVector(values)

    def observe(
        self,
        category: str,
        peaks: ResourceVector,
        task_id: int,
        significance: Optional[float] = None,
    ) -> None:
        """Ingest a *successfully completed* task's peak consumption.

        When ``significance`` is not given, the configured policy
        supplies it — the default ``task_id`` policy reproduces the
        paper's "significance = task ID" rule (IDs counted from 1;
        Section V-A).
        """
        if significance is None:
            significance = self._significance_policy.significance(task_id)
        self._enter("observe")
        try:
            state = self._state(category)
            for res in self._config.resources:
                state.algorithms[res].update(
                    peaks[res], significance=significance, task_id=task_id
                )
            state.completed_records += 1
            state.version += 1
        finally:
            self._leave()

    # -- internals -----------------------------------------------------------------

    def _state(self, category: str) -> _CategoryState:
        state = self._categories.get(category)
        if state is None:
            algorithms = {
                res: self._make_algorithm(res) for res in self._config.resources
            }
            state = _CategoryState(algorithms)
            self._categories[category] = state
        return state

    def _make_algorithm(self, res: Resource) -> AllocationAlgorithm:
        return _build_algorithm(self._config, res, self._rng)

    def _exploratory_value(self, res: Resource) -> float:
        capacity = self._config.machine_capacity[res]
        if not self._conservative:
            if capacity <= 0.0:
                # Capacity-less resource (wall time): use the fallback.
                return DEFAULT_EXPLORATORY_FALLBACKS.get(res, 0.0)
            return capacity
        value = self._config.exploratory.allocation[res]
        if value <= 0.0:
            # The conservative vector does not cover this resource (e.g.
            # a registered GPU kind): explore with the full capacity,
            # or the per-resource fallback for capacity-less resources.
            value = capacity if capacity > 0.0 else DEFAULT_EXPLORATORY_FALLBACKS.get(res, 0.0)
        return self._clamp(res, value)

    def _double(self, prev_value: float, peak: float, res: Resource) -> float:
        base = max(prev_value, peak)
        if base <= 0.0:
            base = (
                self._config.exploratory.allocation[res]
                or DEFAULT_EXPLORATORY_FALLBACKS.get(res, 0.0)
                or 1.0
            )
        return base * self._config.doubling_factor

    def _clamp(self, res: Resource, value: float) -> float:
        capacity = self._config.machine_capacity[res]
        if capacity <= 0.0:
            return value
        return min(value, capacity)

    def reset(self) -> None:
        """Forget every category's state (between experiment repeats)."""
        self._categories.clear()
        self._prediction_cache.clear()

    # -- checkpointing -----------------------------------------------------------------

    def state_dict(self, deferred: bool = False) -> dict:
        """Versioned, JSON-safe snapshot of all mutable allocator state.

        Captures the master RNG, every category's per-resource algorithm
        instances (in category insertion order — the order in which they
        consumed child seeds from the master RNG), and the deterministic
        prediction cache.  Restoring via :meth:`load_state` on a freshly
        constructed allocator with the same config yields bit-identical
        predictions for every future request.

        With ``deferred=True`` each per-(category, resource) algorithm
        entry is that algorithm's bound ``state_dict`` method instead of
        its result: :func:`repro.checkpoint.iter_json` calls each one
        only when the stream reaches it, so digests and snapshots hold
        one algorithm's state at a time, never the whole.  The deferred
        tree is a view, not a copy: encode it before the allocator
        moves on.
        """
        return {
            "algorithm": self._config.algorithm,
            "resources": [res.key for res in self._config.resources],
            "rng": generator_state(self._rng),
            "categories": {
                category: {
                    "completed_records": state.completed_records,
                    "version": state.version,
                    "algorithms": {
                        res.key: (
                            state.algorithms[res].state_dict
                            if deferred
                            else state.algorithms[res].state_dict()
                        )
                        for res in self._config.resources
                    },
                }
                for category, state in self._categories.items()
            },
            "prediction_cache": {
                category: {"version": version, "vector": vector.state_dict()}
                for category, (version, vector) in self._prediction_cache.items()
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`.

        Must be called on an allocator built from the *same config* as
        the one that produced the snapshot.  Categories are recreated in
        their saved insertion order — ``_state`` draws each algorithm's
        child seed from the master RNG exactly as the original did —
        and the master RNG is overwritten last, so subsequent draws
        continue the original stream.
        """
        if state.get("algorithm") != self._config.algorithm:
            raise CheckpointError(
                f"allocator snapshot is for algorithm {state.get('algorithm')!r}; "
                f"this allocator runs {self._config.algorithm!r}"
            )
        managed = [res.key for res in self._config.resources]
        if state.get("resources") != managed:
            raise CheckpointError(
                f"allocator snapshot manages resources {state.get('resources')!r}; "
                f"this allocator manages {managed!r}"
            )
        self._enter("load_state")
        try:
            self._categories.clear()
            self._prediction_cache.clear()
            for category, saved in state["categories"].items():
                cat_state = self._state(category)
                cat_state.completed_records = int(saved["completed_records"])
                cat_state.version = int(saved["version"])
                algorithms = saved["algorithms"]
                for res in self._config.resources:
                    cat_state.algorithms[res].load_state(algorithms[res.key])
            restore_generator(self._rng, state["rng"])
            for category, cached in state["prediction_cache"].items():
                self._prediction_cache[category] = (
                    int(cached["version"]),
                    ResourceVector.from_state(cached["vector"]),
                )
        finally:
            self._leave()

    def __repr__(self) -> str:
        return (
            f"TaskOrientedAllocator(algorithm={self._config.algorithm!r}, "
            f"categories={len(self._categories)})"
        )
