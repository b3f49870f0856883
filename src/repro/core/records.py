"""Significance-weighted resource records of completed tasks.

Both bucketing algorithms operate on "a list of resource records of
completed tasks" (Section IV-A): one scalar peak-consumption value per
completed task, tagged with a *significance* weight.  More recent records
get larger significance so that, when a workflow changes phase, fresh
records dominate the bucket probabilities.  The paper sets the
significance of a record to the submitting task's ID (Section V-A); the
:class:`~repro.core.allocator.TaskOrientedAllocator` follows that default
and lets callers override it.

:class:`RecordList` keeps records sorted by value and exposes the numpy
views (values, significances, and their prefix sums) that the cost
kernels in :mod:`repro.core.cost` need for O(1) per-candidate expected
waste evaluation.

Storage is *array-backed*: three preallocated, amortized-doubling numpy
buffers (values, significances, task ids) plus two prefix-sum buffers
maintained **incrementally** — an insertion shifts only the suffix at or
after the insertion point and adds the new record's contribution to the
shifted prefix entries, so the simulator's update→predict alternation
costs one vectorized suffix shift instead of the full Python-object walk
the seed implementation paid per completed task (kept under
``tests/core/records_reference.py`` as the equivalence-test oracle).

A ``capacity`` bound turns the list into a *bounded record store*
(required once record counts reach 10^6+ — see docs/PERFORMANCE.md)
with a choice of compaction policy:

* ``"evict_min"`` — evict the single lowest-significance record per
  over-capacity append (the original sliding-window behaviour);
* ``"decay"`` — significance-decay compaction: let the list exceed
  capacity by one, then drop the lowest-significance ``slack``
  fraction in one vectorized batch, amortizing eviction cost;
* ``"reservoir"`` — deterministic (seeded) reservoir downsampling:
  once full, each arriving record replaces a uniformly drawn retained
  record with probability ``capacity / seen``, otherwise it is
  dropped — an unbiased sample of the whole stream.

The AWE impact of each policy is *measured*, not assumed: see the
capacity ablation in :mod:`repro.experiments.ablation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Initial buffer capacity; buffers double whenever they fill.
_MIN_BUFFER = 32

#: Recognized compaction policies for capacity-bounded lists.
COMPACTION_POLICIES = ("evict_min", "decay", "reservoir")

#: Fraction of capacity cleared per ``"decay"`` compaction batch.
DECAY_SLACK = 0.1

#: Sentinel reported by :attr:`RecordList.last_eviction` when a batch
#: compaction ran (individual victims not enumerated).
BATCH_EVICTION = "batch"


@dataclass(frozen=True, order=True)
class ResourceRecord:
    """One completed task's peak consumption of a single resource.

    Ordering is by ``value`` (then significance, then task id) so records
    sort the way bucket construction needs them.

    Attributes
    ----------
    value:
        The task's observed peak consumption of the resource.
    significance:
        Recency/importance weight; larger means the record contributes
        more to bucket probabilities and estimates (Section IV-A).
    task_id:
        The submitting task's ID, for traceability (not used by the
        algorithms beyond the default ``significance = task_id`` rule).
    """

    value: float
    significance: float = 1.0
    task_id: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.value < 0 or self.value != self.value:
            raise ValueError(f"invalid record value: {self.value}")
        if self.significance <= 0 or self.significance != self.significance:
            raise ValueError(
                f"record significance must be positive, got {self.significance}"
            )


class RecordList:
    """A list of :class:`ResourceRecord` kept sorted by value.

    Records live in preallocated numpy buffers; an append finds its slot
    with ``np.searchsorted`` (value first, significance as the
    tie-breaker, insertion after equal keys — exactly the order the seed
    implementation's ``bisect.insort`` produced) and shifts only the
    suffix.  The significance prefix sums are maintained incrementally
    alongside, so the views below never require a full rebuild; they are
    materialized as read-only snapshot arrays once per mutation and
    cached until the next mutation (a burst of completions followed by
    one allocation request costs one snapshot — the update batching the
    paper describes in Section V-C).

    A ``capacity`` bound turns the list into a *bounded record store*:
    when full, appending compacts the list according to ``compaction``
    (see the module docstring).  The paper keeps all records; the bound
    exists for the million-record scaling work (docs/PERFORMANCE.md) and
    the >10k-task scaling study (E-X1 in DESIGN.md).
    """

    __slots__ = (
        "_capacity",
        "_compaction",
        "_rng",
        "_seen",
        "_last_eviction",
        "_n",
        "_values_buf",
        "_sigs_buf",
        "_tids_buf",
        "_sp_buf",
        "_svp_buf",
        "_values",
        "_sigs",
        "_sig_prefix",
        "_sigval_prefix",
    )

    def __init__(
        self,
        records: Iterable[ResourceRecord] = (),
        capacity: Optional[int] = None,
        compaction: str = "evict_min",
        seed: int = 0,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if compaction not in COMPACTION_POLICIES:
            raise ValueError(
                f"unknown compaction policy {compaction!r}; "
                f"expected one of {COMPACTION_POLICIES}"
            )
        self._capacity = capacity
        self._compaction = compaction
        self._rng = (
            np.random.default_rng(seed)
            if compaction == "reservoir" and capacity is not None
            else None
        )
        self._seen = 0
        self._last_eviction: object = None
        items = list(records)
        n = len(items)
        size = max(_MIN_BUFFER, n)
        self._values_buf = np.empty(size, dtype=np.float64)
        self._sigs_buf = np.empty(size, dtype=np.float64)
        self._tids_buf = np.empty(size, dtype=np.int64)
        self._sp_buf = np.empty(size, dtype=np.float64)
        self._svp_buf = np.empty(size, dtype=np.float64)
        self._n = 0
        self._invalidate()
        if self._rng is not None:
            # Reservoir semantics depend on arrival order: replay the
            # stream record by record through the sampling filter.
            for record in items:
                self.add(record.value, record.significance, record.task_id)
            return
        self._n = n
        if n:
            values = np.fromiter((r.value for r in items), np.float64, count=n)
            sigs = np.fromiter((r.significance for r in items), np.float64, count=n)
            tids = np.fromiter((r.task_id for r in items), np.int64, count=n)
            # Stable lexicographic sort by (value, significance) matches
            # sorted() on the dataclass ordering (task_id is compare=False).
            order = np.lexsort((sigs, values))
            self._values_buf[:n] = values[order]
            self._sigs_buf[:n] = sigs[order]
            self._tids_buf[:n] = tids[order]
            self._rebuild_prefixes()
        self._seen = n
        if capacity is not None and self._n > capacity:
            self._evict_to_capacity(capacity)
        self._invalidate()

    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        significances: Optional[np.ndarray] = None,
        task_ids: Optional[np.ndarray] = None,
        capacity: Optional[int] = None,
        compaction: str = "evict_min",
        seed: int = 0,
    ) -> "RecordList":
        """Bulk-ingest whole arrays in one vectorized sort.

        The streaming :meth:`add` path pays an O(n) suffix shift per
        record, which is the right trade for the simulator's one-at-a-
        time arrivals but makes *bulk* construction of a million-record
        list quadratic.  This constructor validates, sorts (stable
        ``lexsort`` on (value, significance), matching sequential
        insertion order for equal keys) and builds the prefix sums with
        one ``cumsum`` each — O(n log n) total.

        The prefix sums are rebuilt from scratch rather than maintained
        incrementally, so they can differ from a streaming build by
        float rounding (the views agree to tolerance, the record order
        exactly).  With ``compaction="reservoir"`` the stream order
        matters and the records are replayed through :meth:`add`.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        n = values.size
        sigs = (
            np.ones(n, dtype=np.float64)
            if significances is None
            else np.ascontiguousarray(significances, dtype=np.float64)
        )
        tids = (
            np.full(n, -1, dtype=np.int64)
            if task_ids is None
            else np.ascontiguousarray(task_ids, dtype=np.int64)
        )
        if sigs.size != n or tids.size != n:
            raise ValueError("values, significances and task_ids must align")
        if n and (not np.all(np.isfinite(values)) or bool(np.any(values < 0))):
            raise ValueError("record values must be finite and non-negative")
        if n and (not np.all(np.isfinite(sigs)) or bool(np.any(sigs <= 0))):
            raise ValueError("record significances must be finite and positive")
        if compaction == "reservoir" and capacity is not None:
            new = cls(capacity=capacity, compaction=compaction, seed=seed)
            for i in range(n):
                new.add(float(values[i]), float(sigs[i]), int(tids[i]))
            return new
        new = cls(capacity=capacity, compaction=compaction, seed=seed)
        size = max(_MIN_BUFFER, n)
        if new._values_buf.size < size:
            new._grow_to(size)
        order = np.lexsort((sigs, values))
        new._values_buf[:n] = values[order]
        new._sigs_buf[:n] = sigs[order]
        new._tids_buf[:n] = tids[order]
        new._n = n
        new._seen = n
        new._rebuild_prefixes()
        if capacity is not None and n > capacity:
            new._evict_to_capacity(capacity)
        new._invalidate()
        return new

    # -- mutation ------------------------------------------------------------

    def append(self, record: ResourceRecord) -> Optional[int]:
        """Insert a record, keeping value order; compact if over capacity."""
        return self.add(record.value, record.significance, record.task_id)

    def add(
        self, value: float, significance: float = 1.0, task_id: int = -1
    ) -> Optional[int]:
        """Validate and append a record (the simulator's hot path).

        Returns the record's index in the sorted list after any
        compaction, or ``None`` when the record was not retained (the
        reservoir filter rejected it, or eviction removed it again).
        The eviction that accompanied the insert, if any, is reported by
        :attr:`last_eviction` — together they let incremental partition
        engines track the store without rescanning it.
        """
        if value < 0 or value != value:
            raise ValueError(f"invalid record value: {value}")
        if significance <= 0 or significance != significance:
            raise ValueError(
                f"record significance must be positive, got {significance}"
            )
        self._last_eviction = None
        self._seen += 1
        if (
            self._rng is not None
            and self._capacity is not None
            and self._n >= self._capacity
        ):
            # Reservoir downsampling (algorithm R): keep the arrival
            # with probability capacity / seen, replacing a uniformly
            # drawn retained record; otherwise drop it.  Seeded, so the
            # retained sample is a pure function of the stream.
            j = int(self._rng.integers(0, self._seen))
            if j >= self._capacity:
                self._invalidate()
                return None
            self._remove_at(j)
            pos = self._insert(float(value), float(significance), int(task_id))
            self._invalidate()
            return pos
        ins = self._insert(float(value), float(significance), int(task_id))
        pos: Optional[int] = ins
        if self._capacity is not None and self._n > self._capacity:
            target = self._capacity
            if self._compaction == "decay":
                # Significance-decay compaction: clear a slack fraction
                # in one vectorized batch so eviction cost amortizes to
                # one sort per slack*capacity inserts.
                target = max(1, self._capacity - int(self._capacity * DECAY_SLACK))
            victim = self._evict_to_capacity(target)
            if victim is None:
                # Batch compaction shifted an unknown set of indices;
                # callers resync via last_eviction == BATCH_EVICTION.
                pos = None
            elif victim == ins:
                pos = None
            elif victim < ins:
                pos = ins - 1
        self._invalidate()
        return pos

    def extend(self, records: Iterable[ResourceRecord]) -> None:
        if self._rng is not None and self._capacity is not None:
            for record in records:
                self.add(record.value, record.significance, record.task_id)
            return
        self._last_eviction = None
        for record in records:
            self._insert(record.value, record.significance, record.task_id)
            self._seen += 1
        if self._capacity is not None and self._n > self._capacity:
            self._evict_to_capacity(self._capacity)
        self._invalidate()

    def _insert(self, value: float, significance: float, task_id: int) -> int:
        n = self._n
        if n == self._values_buf.size:
            self._grow()
        values = self._values_buf
        sigs = self._sigs_buf
        # Position: after every record with a smaller (value, significance)
        # key and after equal keys — bisect.insort's resting place for the
        # seed's (value, significance)-ordered dataclass.
        lo = int(np.searchsorted(values[:n], value, side="left"))
        hi = int(np.searchsorted(values[:n], value, side="right"))
        if lo < hi:
            pos = lo + int(np.searchsorted(sigs[lo:hi], significance, side="right"))
        else:
            pos = lo
        sp = self._sp_buf
        svp = self._svp_buf
        tids = self._tids_buf
        if pos < n:
            # Overlapping slice assignments are safe: numpy buffers them.
            values[pos + 1 : n + 1] = values[pos:n]
            sigs[pos + 1 : n + 1] = sigs[pos:n]
            tids[pos + 1 : n + 1] = tids[pos:n]
            sp[pos + 1 : n + 1] = sp[pos:n]
            svp[pos + 1 : n + 1] = svp[pos:n]
        values[pos] = value
        sigs[pos] = significance
        tids[pos] = task_id
        sigval = significance * value
        base_sp = sp[pos - 1] if pos > 0 else 0.0
        base_svp = svp[pos - 1] if pos > 0 else 0.0
        sp[pos] = base_sp + significance
        svp[pos] = base_svp + sigval
        if pos < n:
            sp[pos + 1 : n + 1] += significance
            svp[pos + 1 : n + 1] += sigval
        self._n = n + 1
        return pos

    def _grow(self) -> None:
        self._grow_to(max(_MIN_BUFFER, 2 * self._values_buf.size))

    def _grow_to(self, size: int) -> None:
        for name in ("_values_buf", "_sigs_buf", "_tids_buf", "_sp_buf", "_svp_buf"):
            old = getattr(self, name)
            if old.size >= size:
                continue
            grown = np.empty(size, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _evict_one(self) -> int:
        """Evict the single lowest-significance record; return its index.

        The steady state of a full ``evict_min`` window: one O(n) argmin
        instead of an O(n log n) sort per append.  Ties break on the
        lowest index, matching the seed's stable sort.
        """
        n = self._n
        victim = int(np.argmin(self._sigs_buf[:n]))
        self._last_eviction = (victim, float(self._values_buf[victim]))
        for name in ("_values_buf", "_sigs_buf", "_tids_buf"):
            buf = getattr(self, name)
            buf[victim : n - 1] = buf[victim + 1 : n]
        self._n = n - 1
        self._rebuild_prefixes()
        return victim

    def _remove_at(self, index: int) -> None:
        """Remove the record at sorted ``index`` (reservoir replacement)."""
        n = self._n
        self._last_eviction = (index, float(self._values_buf[index]))
        for name in ("_values_buf", "_sigs_buf", "_tids_buf"):
            buf = getattr(self, name)
            buf[index : n - 1] = buf[index + 1 : n]
        self._n = n - 1
        self._rebuild_prefixes()

    def _evict_to_capacity(self, target: int) -> Optional[int]:
        """Compact down to ``target`` records; lowest significance goes first.

        Evicted records are the oldest under the paper's significance =
        task-ID convention.  Over by one delegates to the argmin fast
        path and returns the victim's index; over by more runs a single
        vectorized batch eviction (one stable argsort + one boolean-mask
        compress per buffer) and returns ``None``, reporting
        :data:`BATCH_EVICTION` through :attr:`last_eviction`.
        """
        n = self._n
        excess = n - target
        if excess <= 0:
            return None
        if excess == 1:
            return self._evict_one()
        sigs = self._sigs_buf[:n]
        keep = np.ones(n, dtype=bool)
        keep[np.argsort(sigs, kind="stable")[:excess]] = False
        m = n - excess
        for name in ("_values_buf", "_sigs_buf", "_tids_buf"):
            buf = getattr(self, name)
            buf[:m] = buf[:n][keep]
        self._n = m
        self._last_eviction = BATCH_EVICTION
        self._rebuild_prefixes()
        return None

    def _rebuild_prefixes(self) -> None:
        n = self._n
        np.cumsum(self._sigs_buf[:n], out=self._sp_buf[:n])
        np.cumsum(self._sigs_buf[:n] * self._values_buf[:n], out=self._svp_buf[:n])

    def _invalidate(self) -> None:
        self._values = None
        self._sigs = None
        self._sig_prefix = None
        self._sigval_prefix = None

    def _snapshot_of(self, buf: np.ndarray) -> np.ndarray:
        arr = buf[: self._n].copy()
        arr.flags.writeable = False
        return arr

    # -- views ---------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Sorted record values as a read-only float64 array."""
        if self._values is None:
            self._values = self._snapshot_of(self._values_buf)
        return self._values

    @property
    def significances(self) -> np.ndarray:
        """Significances aligned with :attr:`values`."""
        if self._sigs is None:
            self._sigs = self._snapshot_of(self._sigs_buf)
        return self._sigs

    @property
    def task_ids(self) -> np.ndarray:
        """Task IDs aligned with :attr:`values` (read-only int64 array)."""
        arr = self._tids_buf[: self._n].copy()
        arr.flags.writeable = False
        return arr

    @property
    def sig_prefix(self) -> np.ndarray:
        """``sig_prefix[i]`` = sum of significances of records [0, i]."""
        if self._sig_prefix is None:
            self._sig_prefix = self._snapshot_of(self._sp_buf)
        return self._sig_prefix

    @property
    def sigval_prefix(self) -> np.ndarray:
        """``sigval_prefix[i]`` = sum of significance*value of records [0, i]."""
        if self._sigval_prefix is None:
            self._sigval_prefix = self._snapshot_of(self._svp_buf)
        return self._sigval_prefix

    # -- range queries ---------------------------------------------------------

    def sig_sum(self, lo: int, hi: int) -> float:
        """Total significance of records with indices in [lo, hi]."""
        self._check_range(lo, hi)
        sp = self._sp_buf
        return float(sp[hi] - (sp[lo - 1] if lo > 0 else 0.0))

    def weighted_mean(self, lo: int, hi: int) -> float:
        """Significance-weighted mean value over indices [lo, hi].

        This is the paper's estimator for the consumption of a task that
        falls in a bucket (the v_lo / v_hi / v_i formulas of Sections
        IV-B and IV-C).
        """
        self._check_range(lo, hi)
        sp, svp = self._sp_buf, self._svp_buf
        below_sig = sp[lo - 1] if lo > 0 else 0.0
        below_sigval = svp[lo - 1] if lo > 0 else 0.0
        total_sig = sp[hi] - below_sig
        return float((svp[hi] - below_sigval) / total_sig)

    def max_value(self, lo: int, hi: int) -> float:
        """Maximum value over indices [lo, hi] — just ``values[hi]`` since sorted."""
        self._check_range(lo, hi)
        return float(self._values_buf[hi])

    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi < self._n):
            raise IndexError(
                f"record range [{lo}, {hi}] out of bounds for {self._n} records"
            )

    def values_at(self, indices: Sequence[int]) -> np.ndarray:
        """Record values at the given sorted indices.

        Unlike fancy-indexing the :attr:`values` view, this reads the
        backing buffer directly — O(len(indices)), not the O(n) snapshot
        copy — which is what keeps incremental partition maintenance
        independent of the record count (docs/PERFORMANCE.md).
        """
        return self._values_buf[: self._n][np.asarray(indices, dtype=np.intp)]

    def index_below(self, value: float) -> Optional[int]:
        """Index of the record with the largest value strictly below ``value``.

        Used by Exhaustive Bucketing's candidate-break-point mapping
        (Section IV-D, step 2): each evenly spaced candidate value is
        mapped "to the closest record that has a lower value than it".
        Returns ``None`` if every record's value is >= ``value``.
        """
        idx = int(np.searchsorted(self._values_buf[: self._n], value, side="left")) - 1
        return idx if idx >= 0 else None

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[ResourceRecord]:
        for i in range(self._n):
            yield ResourceRecord(
                value=float(self._values_buf[i]),
                significance=float(self._sigs_buf[i]),
                task_id=int(self._tids_buf[i]),
            )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[ResourceRecord, List[ResourceRecord]]:
        if isinstance(index, slice):
            return [self._record_at(i) for i in range(*index.indices(self._n))]
        i = index if index >= 0 else self._n + index
        if not (0 <= i < self._n):
            raise IndexError(f"record index {index} out of range for {self._n} records")
        return self._record_at(i)

    def _record_at(self, i: int) -> ResourceRecord:
        return ResourceRecord(
            value=float(self._values_buf[i]),
            significance=float(self._sigs_buf[i]),
            task_id=int(self._tids_buf[i]),
        )

    def __bool__(self) -> bool:
        return self._n > 0

    def __repr__(self) -> str:
        if not self._n:
            return "RecordList(empty)"
        return (
            f"RecordList(n={self._n}, "
            f"min={self._values_buf[0]:g}, max={self._values_buf[self._n - 1]:g})"
        )

    # -- misc ---------------------------------------------------------------------

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def compaction(self) -> str:
        """The compaction policy of a capacity-bounded list."""
        return self._compaction

    @property
    def seen(self) -> int:
        """Total records ever offered, including compacted-away ones."""
        return self._seen

    @property
    def last_eviction(self) -> Union[None, Tuple[int, float], str]:
        """What the last mutation evicted, for incremental consumers.

        ``None`` (nothing evicted), ``(index, value)`` — the sorted
        index the record held when it was removed, and its value — or
        the :data:`BATCH_EVICTION` sentinel when a vectorized batch
        compaction dropped several records at once.  Transient: reset by
        the next mutation and not serialized (incremental consumers
        rebuild their caches on restore).
        """
        return self._last_eviction

    @property
    def nbytes(self) -> int:
        """Bytes held by the five preallocated buffers (footprint metric)."""
        return sum(
            getattr(self, name).nbytes
            for name in ("_values_buf", "_sigs_buf", "_tids_buf", "_sp_buf", "_svp_buf")
        )

    def total_significance(self) -> float:
        return float(self._sp_buf[self._n - 1]) if self._n else 0.0

    def snapshot(self) -> Tuple[ResourceRecord, ...]:
        """An immutable copy of the current records, in value order."""
        return tuple(self._record_at(i) for i in range(self._n))

    # -- checkpointing --------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot for checkpointing (see :mod:`repro.checkpoint`).

        The prefix-sum buffers are stored **verbatim**, not recomputed on
        restore: the incremental suffix-add maintenance in :meth:`_insert`
        rounds differently from ``np.cumsum``, so a recomputation would
        break the bit-identical-resume guarantee.  Python's JSON encoder
        uses ``repr`` (shortest round-trip) for floats, so every float64
        survives exactly.
        """
        from repro.checkpoint import generator_state

        n = self._n
        return {
            "capacity": self._capacity,
            "compaction": self._compaction,
            "seen": self._seen,
            "rng": None if self._rng is None else generator_state(self._rng),
            "values": self._values_buf[:n].tolist(),
            "significances": self._sigs_buf[:n].tolist(),
            "task_ids": self._tids_buf[:n].tolist(),
            "sig_prefix": self._sp_buf[:n].tolist(),
            "sigval_prefix": self._svp_buf[:n].tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RecordList":
        """Rebuild a list captured by :meth:`state_dict`, bit-exactly."""
        from repro.checkpoint import restore_generator

        values = state["values"]
        n = len(values)
        if not all(
            len(state[k]) == n
            for k in ("significances", "task_ids", "sig_prefix", "sigval_prefix")
        ):
            raise ValueError("inconsistent RecordList state: array lengths differ")
        # ``compaction``/``seen``/``rng`` default for pre-bounded-store
        # snapshots, which could only have been evict_min windows.
        new = cls(
            capacity=state["capacity"],
            compaction=state.get("compaction", "evict_min"),
        )
        new._grow_to(max(_MIN_BUFFER, n))
        new._values_buf[:n] = np.asarray(values, dtype=np.float64)
        new._sigs_buf[:n] = np.asarray(state["significances"], dtype=np.float64)
        new._tids_buf[:n] = np.asarray(state["task_ids"], dtype=np.int64)
        new._sp_buf[:n] = np.asarray(state["sig_prefix"], dtype=np.float64)
        new._svp_buf[:n] = np.asarray(state["sigval_prefix"], dtype=np.float64)
        new._n = n
        new._seen = int(state.get("seen", n))
        rng_state = state.get("rng")
        if rng_state is not None and new._rng is not None:
            restore_generator(new._rng, rng_state)
        new._invalidate()
        return new
