"""Common interface for per-resource allocation algorithms.

Every algorithm in the paper's evaluation — the two bucketing algorithms
and the five alternatives — fits the same tiny contract, which mirrors
the two interactions of Figure 3a:

* :meth:`AllocationAlgorithm.update` — a completed task's resource
  record arrives (arrow 6 in the figure);
* :meth:`AllocationAlgorithm.predict` — the task scheduler asks for the
  allocation of a fresh task (arrows 2-3);
* :meth:`AllocationAlgorithm.predict_retry` — the scheduler asks for a
  re-allocation after a resource-exhaustion failure;
* :meth:`AllocationAlgorithm.state_dict` / :meth:`~AllocationAlgorithm.load_state`
  — the instance's durable state, for the allocator's snapshots.

``predict``/``predict_retry`` return ``None`` when the algorithm has no
guidance; the :class:`~repro.core.allocator.TaskOrientedAllocator` then
applies the exploratory default or the doubling fallback (Section IV-A /
V-A).  One instance manages one (task category, resource) pair, which is
what makes the approach *general-purpose*: nothing but scalar consumption
records ever crosses the interface.  Only the two bucketing algorithms
draw (:class:`BucketingAlgorithm`); the other five are pure functions of
their records and hold no generator.
"""

from __future__ import annotations

import abc
import numbers
from typing import ClassVar, Dict, Optional, Type, Union

import numpy as np

from repro.checkpoint import CheckpointError, Pcg64Numbers, rng_numbers, rng_state
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


#: What a bucketing algorithm's ``rng`` argument may be: a ready
#: generator, an ``int`` seed (the generator is built on the first
#: draw), or ``None`` (a fresh OS-seeded generator).  A string
#: reference: touching ``np.random`` at import would load numpy's random
#: extension modules into every process that imports the package.
RngSource = Union["np.random.Generator", int, None]


class AllocationAlgorithm(abc.ABC):
    """Per-(category, resource) allocation policy.

    Subclasses must set the class attribute :attr:`name` (the identifier
    used in the registry, experiment configs and result tables) and
    implement :meth:`update` and :meth:`predict`.  An algorithm that
    draws takes an ``rng`` constructor argument (:data:`RngSource`) and
    the allocator seeds it; only :class:`BucketingAlgorithm` does.
    """

    #: Registry/reporting identifier, e.g. ``"greedy_bucketing"``.
    name: ClassVar[str] = ""

    #: Whether the allocator should bootstrap this algorithm with the
    #: conservative exploratory allocation (1 core / 1 GB / 1 GB with
    #: doubling retries, Section V-A).  The paper's alternatives instead
    #: "allocate a whole machine" while exploring (Section V-C), so this
    #: defaults to False and the bucketing algorithms flip it.
    conservative_exploration: ClassVar[bool] = False

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

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of this instance (see :mod:`repro.checkpoint`).

        The envelope (the algorithm's name) lives here; everything
        algorithm-specific comes from :meth:`_extra_state`.
        """
        return {"algorithm": self.name, "state": self._extra_state()}

    def load_state(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`, bit-exactly.

        Keys it does not read are ignored: a snapshot written when every
        algorithm carried an ``"rng"`` entry still loads.  A state the
        algorithm could not have reached (a record list :meth:`update`
        would have refused, say) raises :class:`CheckpointError`.
        """
        _check_algorithm(self.name, state)
        self._restore_extra_state(state["state"])

    def _restore_extra_state(self, state: dict) -> None:
        """:meth:`_load_extra_state`, its ``ValueError`` a :class:`CheckpointError`."""
        try:
            self._load_extra_state(state)
        except ValueError as exc:
            raise CheckpointError(f"malformed {self.name} state: {exc}") from exc

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


def _check_algorithm(name: str, state: dict) -> None:
    if state.get("algorithm") != name:
        raise CheckpointError(
            f"algorithm mismatch: snapshot is {state.get('algorithm')!r}, "
            f"instance is {name!r}"
        )


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

    The two are the only algorithms that draw: a bucket is picked at
    random, weighted by significance.  When ``rng`` is an ``int`` seed
    the generator is ``(seed, draws)``: :meth:`random` counts the draws
    it makes, :meth:`state_dict` writes ``[seed, draws]``, and the first
    draw builds ``np.random.default_rng(seed)`` and advances it past the
    counted draws (one PCG64 step per ``random()``).  Most categories of
    a service never leave exploration and never draw; they build no
    generator (~0.9 KB with its lock, three per category) and their
    snapshots and digests run no seeding (docs/PERFORMANCE.md, "What a
    category costs").  A generator passed in as a ``Generator``, or
    restored from a format-1 snapshot, is written as its PCG64 state.

    The partition engine is built by the first query (:attr:`state`,
    :attr:`partition_engine`); until then :meth:`update` feeds it
    nothing, which changes no answer: an engine holds nothing a search
    cannot rebuild (:meth:`_make_partition_engine`).
    """

    conservative_exploration: ClassVar[bool] = True

    def __init__(
        self,
        rng: RngSource = None,
        record_capacity: Optional[int] = None,
    ) -> None:
        #: The generator once built, or ``None`` until the first draw.
        self._rng_built: Optional[np.random.Generator] = None
        #: What the generator is: an ``int`` seed, advanced by
        #: ``_draws`` steps; a format-1 snapshot's PCG64 state as four
        #: numbers, until the first draw builds on it; or ``None``, the
        #: built generator alone.
        self._rng_source: Union[int, Pcg64Numbers, None] = None
        #: How many times :meth:`random` has drawn.
        self._draws = 0
        if rng is None:
            self._rng_built = np.random.default_rng()
        elif isinstance(rng, np.random.Generator):
            self._rng_built = rng
        else:
            check_seed("rng", rng)
            self._rng_source = int(rng)
        self._records = RecordList(capacity=record_capacity)
        self._state: Optional[BucketState] = None
        self._dirty = True
        self._recomputations = 0
        self._partition_engine = None

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
        whenever the record list is replaced
        (:meth:`_load_extra_state`), and built only when first queried.
        """

    @property
    def partition_engine(self):
        """The partition engine over this algorithm's record list, built
        on first access."""
        engine = self._partition_engine
        if engine is None:
            engine = self._partition_engine = self._make_partition_engine()
        return engine

    def random(self) -> float:
        """The next draw of this algorithm's generator, counted.

        What :class:`~repro.core.buckets.BucketState` calls to pick a
        bucket; a retry with no eligible bucket calls it not at all.
        """
        rng = self._rng_built
        if rng is None:
            rng = self._build_rng()
        self._draws += 1
        return rng.random()

    def _build_rng(self) -> np.random.Generator:
        source = self._rng_source
        if isinstance(source, int):
            rng = np.random.default_rng(source)
            if self._draws:
                # One random() is one PCG64 step.
                rng.bit_generator.advance(self._draws)
        else:
            assert source is not None
            rng = np.random.default_rng(0)
            rng.bit_generator.state = rng_state(source)
            self._rng_source = None
        self._rng_built = rng
        return rng

    # -- contract ----------------------------------------------------------------

    def update(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        pos = self._records.add(value, significance, task_id)
        engine = self._partition_engine
        if engine is not None:
            engine.observe(value, pos)
        self._dirty = True

    def predict(self) -> Optional[float]:
        state = self.state
        if state is None:
            return None
        return state.first_allocation(self)

    def predict_retry(
        self, previous_allocation: float, observed_peak: float
    ) -> Optional[float]:
        state = self.state
        if state is None:
            return None
        floor = max(previous_allocation, observed_peak)
        return state.retry_allocation(floor, self)

    # -- state management -----------------------------------------------------------

    @property
    def state(self) -> Optional[BucketState]:
        """Current bucket state, searched for on demand; None if no records."""
        if not self._records:
            return None
        if self._dirty or self._state is None:
            engine = self.partition_engine
            breaks = self.compute_break_indices(self._records)
            self._recomputations += 1
            self._state = BucketState(
                self._records,
                breaks,
                stats=engine.consume_stats(breaks),
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

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> dict:
        """The base envelope plus the generator under ``"rng"``:
        ``[seed, draws]`` for a seeded one, whether built or not (no
        seeding runs, and snapshots run with the shard writers parked),
        else its PCG64 state."""
        source = self._rng_source
        if isinstance(source, int):
            rng: object = [source, self._draws]
        elif source is not None:
            rng = rng_state(source)
        else:
            assert self._rng_built is not None
            rng = rng_state(rng_numbers(self._rng_built.bit_generator.state))
        return {"algorithm": self.name, "rng": rng, "state": self._extra_state()}

    def load_state(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`, bit-exactly.

        No generator is built: the first draw builds it from the saved
        ``[seed, draws]``, or from a format-1 snapshot's PCG64 state.
        """
        _check_algorithm(self.name, state)
        saved = state.get("rng")
        if isinstance(saved, list):
            if not (
                len(saved) == 2
                and all(type(n) is int for n in saved)
                and saved[0] >= 0
                and 0 <= saved[1] < 2**64
            ):
                raise CheckpointError(f"malformed [seed, draws] generator: {saved!r}")
            source, draws = saved
        else:
            source, draws = rng_numbers(saved), 0
        self._restore_extra_state(state["state"])
        self._rng_built = None
        self._rng_source = source
        self._draws = draws

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
        self._partition_engine = None
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
