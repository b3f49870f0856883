"""Common interface for per-resource allocation algorithms.

Every algorithm in the paper's evaluation — the two bucketing algorithms
and the five alternatives — fits the same tiny contract, which mirrors
the two interactions of Figure 3a:

* :meth:`AllocationAlgorithm.update` — a completed task's resource
  record arrives (arrow 6 in the figure);
* :meth:`AllocationAlgorithm.predict` — the task scheduler asks for the
  allocation of a fresh task (arrows 2-3);
* :meth:`AllocationAlgorithm.predict_retry` — the scheduler asks for a
  re-allocation after a resource-exhaustion failure.

``predict``/``predict_retry`` return ``None`` when the algorithm has no
guidance; the :class:`~repro.core.allocator.TaskOrientedAllocator` then
applies the exploratory default or the doubling fallback (Section IV-A /
V-A).  One instance manages one (task category, resource) pair, which is
what makes the approach *general-purpose*: nothing but scalar consumption
records ever crosses the interface.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, Optional, Type

import numpy as np

from repro.checkpoint import CheckpointError, generator_state, restore_generator
from repro.core.buckets import BucketState
from repro.core.kernels import partition_stats
from repro.core.records import RecordList

__all__ = [
    "AllocationAlgorithm",
    "BucketingAlgorithm",
    "ALGORITHM_REGISTRY",
    "register_algorithm",
    "make_algorithm",
]


class AllocationAlgorithm(abc.ABC):
    """Per-(category, resource) allocation policy.

    Subclasses must set the class attribute :attr:`name` (the identifier
    used in the registry, experiment configs and result tables) and
    implement :meth:`update` and :meth:`predict`.
    """

    #: Registry/reporting identifier, e.g. ``"greedy_bucketing"``.
    name: ClassVar[str] = ""

    #: Whether the allocator should bootstrap this algorithm with the
    #: conservative exploratory allocation (1 core / 1 GB / 1 GB with
    #: doubling retries, Section V-A).  The paper's alternatives instead
    #: "allocate a whole machine" while exploring (Section V-C), so this
    #: defaults to False and the bucketing algorithms flip it.
    conservative_exploration: ClassVar[bool] = False

    #: Whether predict() is a pure function of the ingested records.
    #: True for the histogram/optimizer algorithms, letting the
    #: allocator cache one prediction per (category, state-version);
    #: False for the bucketing family, whose predictions are fresh
    #: probabilistic draws per request.
    deterministic_predictions: ClassVar[bool] = True

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng()

    # -- the contract -----------------------------------------------------------

    @abc.abstractmethod
    def update(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        """Ingest a completed task's peak consumption of this resource."""

    @abc.abstractmethod
    def predict(self) -> Optional[float]:
        """Allocation for a fresh task, or ``None`` if no guidance yet."""

    def predict_retry(
        self, previous_allocation: float, observed_peak: float
    ) -> Optional[float]:
        """Allocation after the previous attempt exhausted its limit.

        ``observed_peak`` is the consumption observed before the kill
        (a lower bound on the task's true demand).  The default asks
        :meth:`predict` and returns that prediction only when it exceeds
        both the previous allocation and the observed peak; otherwise it
        returns ``None``, which delegates to the allocator's doubling
        fallback (Section IV-A).  Subclasses with retry structure (the
        bucketing algorithms) override this.
        """
        prediction = self.predict()
        if prediction is None:
            return None
        if prediction > max(previous_allocation, observed_peak):
            return prediction
        return None

    # -- shared conveniences ------------------------------------------------------

    @property
    @abc.abstractmethod
    def n_records(self) -> int:
        """How many completed-task records the algorithm has ingested."""

    def reset(self) -> None:
        """Forget all ingested records (used between experiment repeats)."""
        raise NotImplementedError

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of this instance (see :mod:`repro.checkpoint`).

        The envelope (algorithm name + RNG state) lives here; everything
        algorithm-specific comes from :meth:`_extra_state`.
        """
        return {
            "algorithm": self.name,
            "rng": generator_state(self._rng),
            "state": self._extra_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`, bit-exactly."""
        if state.get("algorithm") != self.name:
            raise CheckpointError(
                f"algorithm mismatch: snapshot is {state.get('algorithm')!r}, "
                f"instance is {self.name!r}"
            )
        restore_generator(self._rng, state["rng"])
        self._load_extra_state(state["state"])

    def _extra_state(self) -> dict:
        """Algorithm-specific mutable state; subclasses must override."""
        raise CheckpointError(
            f"{type(self).__name__} does not support checkpointing "
            "(no _extra_state implementation)"
        )

    def _load_extra_state(self, state: dict) -> None:
        raise CheckpointError(
            f"{type(self).__name__} does not support checkpointing "
            "(no _load_extra_state implementation)"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(records={self.n_records})"


class BucketingAlgorithm(AllocationAlgorithm):
    """Shared machinery of Greedy and Exhaustive Bucketing.

    Maintains the sorted significance-weighted record list, rebuilds the
    bucket state *lazily* — a burst of completions with no interleaved
    allocation request triggers exactly one recomputation, the batching
    behaviour discussed with Table I (Section V-C) — and implements the
    shared prediction rules of Section IV-A on top of
    :class:`~repro.core.buckets.BucketState`.

    ``rebucket_interval`` bounds how often the (expensive) partition
    search actually runs: the break indices are recomputed from scratch
    only every k-th new record; in between, the cached partition is
    *re-anchored* onto the grown record list — each cached bucket
    boundary value is mapped back to the last record at or below it with
    one ``searchsorted``, and the bucket statistics are refreshed from
    the prefix sums (O(buckets), not O(records)).  The default k=1
    recomputes on every record, which is the paper-exact behaviour.

    Subclasses implement :meth:`compute_break_indices`, returning the
    sorted inclusive upper-end record indices of each bucket.
    """

    conservative_exploration: ClassVar[bool] = True
    deterministic_predictions: ClassVar[bool] = False

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        record_capacity: Optional[int] = None,
        rebucket_interval: int = 1,
        record_compaction: str = "evict_min",
    ) -> None:
        super().__init__(rng=rng)
        if rebucket_interval < 1:
            raise ValueError(
                f"rebucket_interval must be >= 1, got {rebucket_interval}"
            )
        self._records = RecordList(
            capacity=record_capacity, compaction=record_compaction
        )
        self._rebucket_interval = rebucket_interval
        self._state: Optional[BucketState] = None
        self._dirty = True
        self._recomputations = 0
        self._reanchors = 0
        self._updates_since_recompute = 0
        self._cached_break_values: Optional[np.ndarray] = None
        self._partition_engine = self._make_partition_engine()

    # -- subclass hooks ---------------------------------------------------------

    @abc.abstractmethod
    def compute_break_indices(self, records: RecordList) -> list:
        """Partition the record list; return sorted bucket-end indices."""

    def _make_partition_engine(self):
        """Optional incremental partition engine bound to ``self._records``.

        Subclasses return an object with ``observe(value, eviction, pos)``,
        ``invalidate()``, ``cache_state()`` and ``restore_cache(state)``
        (see :class:`repro.core.exhaustive.IncrementalExhaustivePartition`
        and :class:`repro.core.greedy.GreedySplitMemo`) to have per-record
        mutations streamed into it; ``None`` (the default) keeps the
        classic recompute-from-scratch behaviour.
        The engine is re-created whenever the record list is replaced
        (:meth:`reset`, :meth:`_load_extra_state`).
        """
        return None

    @property
    def partition_engine(self):
        """The incremental partition engine, or ``None``."""
        return self._partition_engine

    # -- contract ----------------------------------------------------------------

    def update(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        pos = self._records.add(value=value, significance=significance, task_id=task_id)
        engine = self._partition_engine
        if engine is not None:
            eviction = self._records.last_eviction
            # pos None with no eviction = the reservoir filter rejected
            # the arrival: nothing was inserted.
            inserted = None if (pos is None and eviction is None) else float(value)
            engine.observe(inserted, eviction, pos)
        self._dirty = True
        self._updates_since_recompute += 1

    def predict(self) -> Optional[float]:
        state = self.state
        if state is None:
            return None
        return state.first_allocation(self._rng)

    def predict_retry(
        self, previous_allocation: float, observed_peak: float
    ) -> Optional[float]:
        state = self.state
        if state is None:
            return None
        floor = max(previous_allocation, observed_peak)
        return state.retry_allocation(floor, self._rng)

    # -- state management -----------------------------------------------------------

    @property
    def state(self) -> Optional[BucketState]:
        """Current bucket state, recomputed on demand; None if no records.

        With the default ``rebucket_interval=1`` every new record forces
        a full partition search (paper-exact).  With a larger interval,
        intermediate states re-anchor the cached break values onto the
        grown record list, deferring the search until the k-th record.
        """
        if not self._records:
            return None
        if self._dirty or self._state is None:
            if (
                self._state is None
                or self._cached_break_values is None
                or self._updates_since_recompute >= self._rebucket_interval
            ):
                breaks = self.compute_break_indices(self._records)
                self._recomputations += 1
                self._updates_since_recompute = 0
            else:
                breaks = self._reanchor_break_indices()
                self._reanchors += 1
            # Stats are handed to the state via the precomputed fast
            # path (bit-identical to recomputation; see BucketState).
            # A partition engine that just scored this exact breaks
            # object hands back the winner's stats directly; otherwise
            # one O(buckets) pass over the prefix buffers rebuilds them.
            stats = None
            engine = self._partition_engine
            if engine is not None:
                consume = getattr(engine, "consume_stats", None)
                if consume is not None:
                    stats = consume(breaks)
            if stats is not None:
                # Engine-scored partition: breaks and stats are freshly
                # built by our own search, so the state adopts them
                # without re-validating (the trusted hot path).
                self._state = BucketState(
                    self._records, breaks, stats=stats, trusted=True
                )
            else:
                stats = partition_stats(self._records, breaks)
                self._state = BucketState(self._records, breaks, stats=stats)
            if self._rebucket_interval > 1:
                # Boundary values only feed re-anchoring, which never
                # runs at the paper-exact interval of 1 — skip the
                # buffer read on the per-decision hot path.
                self._cached_break_values = self._records.values_at(breaks)
            self._dirty = False
        return self._state

    def _reanchor_break_indices(self) -> list:
        """Map the cached bucket boundary values onto the current records.

        Each cached boundary was the maximum value of its bucket; after
        new insertions (or window evictions) the index of the last record
        at or below that value is found with one vectorized
        ``searchsorted``.  Degenerate boundaries (below every record, or
        collapsing onto the same record) drop out; the last record always
        terminates the partition.
        """
        assert self._cached_break_values is not None
        n = len(self._records)
        values = self._records._values_buf[:n]
        idx = np.searchsorted(values, self._cached_break_values, side="right") - 1
        idx = idx[idx >= 0]
        breaks: list = []
        for i in idx:
            i = int(i)
            if i >= n - 1:
                break
            if not breaks or i > breaks[-1]:
                breaks.append(i)
        breaks.append(n - 1)
        return breaks

    @property
    def records(self) -> RecordList:
        return self._records

    @property
    def n_records(self) -> int:
        return len(self._records)

    @property
    def recomputations(self) -> int:
        """How many times the full partition search actually ran."""
        return self._recomputations

    @property
    def reanchors(self) -> int:
        """How many states were built by re-anchoring the cached partition."""
        return self._reanchors

    @property
    def rebucket_interval(self) -> int:
        return self._rebucket_interval

    def reset(self) -> None:
        self._records = RecordList(
            capacity=self._records.capacity,
            compaction=self._records.compaction,
        )
        self._state = None
        self._dirty = True
        self._recomputations = 0
        self._reanchors = 0
        self._updates_since_recompute = 0
        self._cached_break_values = None
        self._partition_engine = self._make_partition_engine()

    # -- checkpointing ------------------------------------------------------------

    def _extra_state(self) -> dict:
        # The cached partition is serialized verbatim (it may be stale
        # relative to the records when `_dirty` — the lazy-recompute
        # window), and the recompute/re-anchor counters come along so a
        # restored instance takes the exact same recompute-vs-reanchor
        # decisions an uninterrupted run would.
        return {
            "records": self._records.state_dict(),
            "dirty": self._dirty,
            "recomputations": self._recomputations,
            "reanchors": self._reanchors,
            "updates_since_recompute": self._updates_since_recompute,
            "cached_break_values": (
                None
                if self._cached_break_values is None
                else self._cached_break_values.tolist()
            ),
            "bucket_state": (
                None if self._state is None else self._state.state_dict()
            ),
            # Partition engines are exact and rebuilt on load, so both
            # return None here; the key stays for the snapshot format
            # (older checkpoints may carry a retired engine's cache).
            "partition_cache": (
                None
                if self._partition_engine is None
                else self._partition_engine.cache_state()
            ),
        }

    def _load_extra_state(self, state: dict) -> None:
        self._records = RecordList.from_state(state["records"])
        self._partition_engine = self._make_partition_engine()
        if self._partition_engine is not None:
            cache = state.get("partition_cache")
            if cache is not None:
                self._partition_engine.restore_cache(cache)
        self._dirty = bool(state["dirty"])
        self._recomputations = int(state["recomputations"])
        self._reanchors = int(state["reanchors"])
        self._updates_since_recompute = int(state["updates_since_recompute"])
        cached = state["cached_break_values"]
        self._cached_break_values = (
            None if cached is None else np.asarray(cached, dtype=np.float64)
        )
        saved = state["bucket_state"]
        self._state = None if saved is None else BucketState.from_state(saved)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Maps algorithm name -> class for every registered algorithm.
ALGORITHM_REGISTRY: Dict[str, Type[AllocationAlgorithm]] = {}


def register_algorithm(
    cls: Type[AllocationAlgorithm],
) -> Type[AllocationAlgorithm]:
    """Class decorator: add an algorithm to :data:`ALGORITHM_REGISTRY`."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty `name`")
    existing = ALGORITHM_REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"algorithm name {cls.name!r} already registered by {existing}")
    ALGORITHM_REGISTRY[cls.name] = cls
    return cls


def make_algorithm(name: str, **kwargs) -> AllocationAlgorithm:
    """Instantiate a registered algorithm by name.

    >>> from repro.core.base import make_algorithm
    >>> algo = make_algorithm("greedy_bucketing")
    >>> algo.name
    'greedy_bucketing'
    """
    try:
        cls = ALGORITHM_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {sorted(ALGORITHM_REGISTRY)}"
        ) from None
    return cls(**kwargs)
