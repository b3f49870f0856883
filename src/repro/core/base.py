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
import numbers
from typing import Any, ClassVar, Dict, Optional, Tuple, Type, Union

import numpy as np

from repro.checkpoint import CheckpointError, generator_state, restore_generator
from repro.core.buckets import BucketState
from repro.core.records import RecordList

__all__ = [
    "RngSource",
    "AllocationAlgorithm",
    "BucketingAlgorithm",
    "ALGORITHM_REGISTRY",
    "register_algorithm",
    "make_algorithm",
]


#: What an algorithm's ``rng`` argument may be: a ready generator, an
#: ``int`` seed (the generator is built on the first draw), or ``None``
#: (a fresh OS-seeded generator).  A string reference: touching
#: ``np.random`` at import would load numpy's random extension modules
#: into every process that imports the package.
RngSource = Union["np.random.Generator", int, None]

#: A PCG64 state held without its generator: the four numbers of
#: ``PCG64.state`` — ``(state, inc, has_uint32, uinteger)``.
_Pcg64State = Tuple[int, int, int, int]


def _pcg64_numbers(saved: Any) -> _Pcg64State:
    """A saved ``default_rng`` state as its four numbers.

    Refused unless ``PCG64.state`` would take it and give it back
    unchanged, so a bad snapshot fails at restore, not at the first draw.
    """
    try:
        kind = saved.get("bit_generator")
        fields = (
            saved["state"]["state"],
            saved["state"]["inc"],
            saved["has_uint32"],
            saved["uinteger"],
        )
    except (AttributeError, KeyError, TypeError):
        raise CheckpointError(f"malformed RNG state: {saved!r}") from None
    if kind != "PCG64":
        raise CheckpointError(
            f"RNG kind mismatch: checkpoint has {kind!r}, generator is 'PCG64'"
        )
    bounds = (2**128, 2**128, 2, 2**32)
    if not all(type(n) is int and 0 <= n < bound for n, bound in zip(fields, bounds)):
        raise CheckpointError(f"malformed PCG64 state: {saved!r}")
    return fields


def _pcg64_dict(fields: _Pcg64State) -> Dict[str, Any]:
    """The four numbers back in ``PCG64.state``'s layout and key order."""
    state, inc, has_uint32, uinteger = fields
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


class AllocationAlgorithm(abc.ABC):
    """Per-(category, resource) allocation policy.

    Subclasses must set the class attribute :attr:`name` (the identifier
    used in the registry, experiment configs and result tables) and
    implement :meth:`update` and :meth:`predict`.

    The generator is built on its first draw when ``rng`` is an ``int``
    seed: most categories of a service never leave exploration and never
    draw, and a built ``Generator`` and its lock cost ~0.9 KB, three per
    category (docs/PERFORMANCE.md, "Peak memory").  Until then
    :meth:`state_dict` writes the state the generator would have, so
    snapshots and digests do not depend on whether it was built.
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

    def __init__(self, rng: RngSource = None) -> None:
        #: The generator once built; ``None`` while ``_rng_pending``
        #: holds what builds it: the ``int`` seed, or a PCG64 state as
        #: four numbers (restored by :meth:`load_state`, or the seed's
        #: state once :meth:`state_dict` has computed it).
        self._rng_built: Optional[np.random.Generator] = None
        self._rng_pending: Union[int, _Pcg64State, None] = None
        if rng is None:
            self._rng_built = np.random.default_rng()
        elif isinstance(rng, np.random.Generator):
            self._rng_built = rng
        else:
            check_seed("rng", rng)
            self._rng_pending = int(rng)

    @property
    def _rng(self) -> np.random.Generator:
        """The generator to draw from, built from the pending seed or
        state on first use (a subclass draws from it as before)."""
        rng = self._rng_built
        if rng is None:
            pending = self._rng_pending
            if isinstance(pending, int):
                rng = np.random.default_rng(pending)
            else:
                assert pending is not None
                rng = np.random.default_rng(0)
                rng.bit_generator.state = _pcg64_dict(pending)
            self._rng_built = rng
            self._rng_pending = None
        return rng

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
        rng = self._rng_built
        if rng is not None:
            rng_state = generator_state(rng)
        else:
            pending = self._rng_pending
            if isinstance(pending, int):
                # The state default_rng(seed) starts from, kept as four
                # numbers as a restore keeps it: seeding costs ~20 us,
                # paid once rather than in every snapshot, and snapshots
                # run with the shard writers parked.
                pending = self._rng_pending = _pcg64_numbers(np.random.PCG64(pending).state)
            assert pending is not None
            rng_state = _pcg64_dict(pending)
        return {
            "algorithm": self.name,
            "rng": rng_state,
            "state": self._extra_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`, bit-exactly."""
        if state.get("algorithm") != self.name:
            raise CheckpointError(
                f"algorithm mismatch: snapshot is {state.get('algorithm')!r}, "
                f"instance is {self.name!r}"
            )
        if self._rng_built is not None:
            restore_generator(self._rng_built, state["rng"])
        else:
            # Kept as four numbers until the first draw builds on them.
            self._rng_pending = _pcg64_numbers(state["rng"])
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


def check_seed(name: str, value: object, optional: bool = False) -> None:
    """Refuse a seed that is not an ``int >= 0`` (``bool`` refused too;
    ``None`` only when ``optional``): numpy takes any such value where it
    is configured and raises at the first generator built from it."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def check_max_buckets(max_buckets: object) -> int:
    """The bucket cap both bucketing algorithms take: an ``int >= 1``, not a ``bool``.

    Checked at construction, so a bad cap is refused where it is
    configured instead of at the first decision after exploration.
    """
    if (
        isinstance(max_buckets, bool)
        or not isinstance(max_buckets, numbers.Integral)
        or max_buckets < 1
    ):
        raise ValueError(f"max_buckets must be an integer >= 1, got {max_buckets!r}")
    return int(max_buckets)


class BucketingAlgorithm(AllocationAlgorithm):
    """Shared machinery of Greedy and Exhaustive Bucketing.

    Records in, exact partition search, :class:`~repro.core.buckets.
    BucketState` out: maintains the sorted significance-weighted record
    list, streams every mutation into the subclass's partition engine,
    and rebuilds the bucket state *lazily* — a burst of completions with
    no interleaved allocation request triggers exactly one search, the
    batching behaviour discussed with Table I (Section V-C).  Every
    rebuild runs the full paper-exact search on the current records.
    The shared prediction rules of Section IV-A sit on top of the state.

    Subclasses implement :meth:`compute_break_indices`, returning the
    sorted inclusive upper-end record indices of each bucket, and
    :meth:`_make_partition_engine`.
    """

    conservative_exploration: ClassVar[bool] = True
    deterministic_predictions: ClassVar[bool] = False

    def __init__(
        self,
        rng: RngSource = None,
        record_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(rng=rng)
        self._records = RecordList(capacity=record_capacity)
        self._state: Optional[BucketState] = None
        self._dirty = True
        self._recomputations = 0
        self._partition_engine = self._make_partition_engine()

    # -- subclass hooks ---------------------------------------------------------

    @abc.abstractmethod
    def compute_break_indices(self, records: RecordList) -> list:
        """Partition ``records`` — always ``self._records``, the list the
        partition engine is bound to; return sorted bucket-end indices.
        An empty list raises ``ValueError``."""

    @abc.abstractmethod
    def _make_partition_engine(self):
        """The partition engine bound to ``self._records``.

        An object with ``observe(value, pos)``, which every
        :meth:`update` streams the inserted value and
        :meth:`RecordList.add <repro.core.records.RecordList.add>`'s
        result into (``pos is None``: the store compacted, resync),
        ``break_indices()``, and ``consume_stats(breaks)`` — the
        per-bucket stats its search already computed for ``breaks``, or
        ``None`` to have :class:`~repro.core.buckets.BucketState` derive
        them (see
        :class:`repro.core.exhaustive.IncrementalExhaustivePartition`
        and :class:`repro.core.greedy.GreedySplitMemo`).  Engines hold
        nothing a search cannot rebuild, so one is simply re-created
        whenever the record list is replaced (:meth:`reset`,
        :meth:`_load_extra_state`).
        """

    @property
    def partition_engine(self):
        """The partition engine over this algorithm's record list."""
        return self._partition_engine

    # -- contract ----------------------------------------------------------------

    def update(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        self._partition_engine.observe(
            value, self._records.add(value, significance, task_id)
        )
        self._dirty = True

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
        """Current bucket state, searched for on demand; None if no records."""
        if not self._records:
            return None
        if self._dirty or self._state is None:
            breaks = self.compute_break_indices(self._records)
            self._recomputations += 1
            self._state = BucketState(
                self._records,
                breaks,
                stats=self._partition_engine.consume_stats(breaks),
            )
            self._dirty = False
        return self._state

    @property
    def records(self) -> RecordList:
        return self._records

    @property
    def n_records(self) -> int:
        return len(self._records)

    @property
    def recomputations(self) -> int:
        """How many times the partition search ran."""
        return self._recomputations

    def reset(self) -> None:
        self._records = RecordList(capacity=self._records.capacity)
        self._state = None
        self._dirty = True
        self._recomputations = 0
        self._partition_engine = self._make_partition_engine()

    # -- checkpointing ------------------------------------------------------------

    def _extra_state(self) -> dict:
        # The bucket state is serialized verbatim: it may be stale
        # relative to the records when `_dirty` (the lazy-recompute
        # window), and a restored instance must not search earlier than
        # an uninterrupted run would.
        return {
            "records": self._records.state_dict(),
            "dirty": self._dirty,
            "recomputations": self._recomputations,
            "bucket_state": (
                None if self._state is None else self._state.state_dict()
            ),
        }

    def _load_extra_state(self, state: dict) -> None:
        # Snapshots written before the partition schedule was fixed also
        # carry `reanchors`, `updates_since_recompute`,
        # `cached_break_values` and `partition_cache`; nothing reads them.
        self._records = RecordList.from_state(state["records"])
        self._partition_engine = self._make_partition_engine()
        self._dirty = bool(state["dirty"])
        self._recomputations = int(state["recomputations"])
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
