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

Storage is one amortized-doubling ``(5, size)`` block of 8-byte cells
whose rows are the values, the significances, their two prefix sums and
the task ids (read and written through one ``int64`` view of the whole
block), so a record is a *column*.
The prefix sums are maintained **incrementally**: an insertion shifts
the columns at or after the insertion point one step right in a single
2-D copy (row by row past :data:`_BLOCK_MOVE_MAX` columns), adds the new
record's contribution to the shifted prefix entries and stores its own
column — one shift where five separate buffers needed five, and numpy
call overhead is what an insert costs at the tens to hundreds of
records per category a service sees (docs/PERFORMANCE.md).
An insert indexes the block directly and builds no row view, so a list
that is only inserted into (a category still exploring) holds the block
and its ``int64`` view and nothing else.  The read paths — cost kernels,
partition searches — take the four float rows from
:meth:`RecordList._rows`, which builds them on the first read after the
block was (re)allocated: a gather ``block[:4, idx]`` measured slower
than three row gathers.
The seed's Python-object walk is kept under
``tests/core/records_reference.py`` as the equivalence-test oracle.

A ``capacity`` bound turns the list into a *bounded record store*
(required once record counts reach 10^6+ — see docs/PERFORMANCE.md):
the insert that takes the list one past capacity drops the
lowest-significance records — the oldest, under the paper's
significance = task-ID convention — down to capacity less a
:data:`DECAY_SLACK` fraction, in one vectorized batch, so compaction
costs one sort per ``DECAY_SLACK * capacity`` inserts.  The rule was
chosen over two alternatives on measured AWE (docs/PERFORMANCE.md);
what the bound itself costs is measured by the capacity ablation in
:mod:`repro.experiments.ablation`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

#: Initial row length of the block; it doubles whenever the rows fill.
#: Small because most categories of a service stop at a few records
#: (docs/PERFORMANCE.md, "Peak memory"); a deep list pays three more
#: doublings than it did at 32, once.
_MIN_BUFFER = 4

#: Longest run of columns moved as one overlapping 2-D copy, which numpy
#: buffers through a temporary as large as the run: cheaper than five
#: in-place row moves below ~16k columns, twice their cost from ~32k
#: (docs/PERFORMANCE.md).  Every e2e workload stays below the bound.
_BLOCK_MOVE_MAX = 8192

#: Fraction of capacity a compaction clears below the bound.
DECAY_SLACK = 0.1

#: Task ids are stored as ``int64``.
_TASK_ID_MIN, _TASK_ID_MAX = -(2**63), 2**63 - 1


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
        # Chained comparisons: NaN and the infinities fail them too.
        if not 0 <= self.value < inf:
            raise ValueError(
                f"record values must be finite and non-negative, got {self.value}"
            )
        if not 0 < self.significance < inf:
            raise ValueError(
                f"record significances must be finite and positive, got {self.significance}"
            )


class RecordList:
    """A list of :class:`ResourceRecord` kept sorted by value.

    Records are the columns of one preallocated block (module
    docstring); an append finds its slot with ``searchsorted`` (value
    first, significance as the tie-breaker, insertion after equal keys —
    exactly the order the seed implementation's ``bisect.insort``
    produced) and shifts only the columns after it.  The significance
    prefix sums are maintained incrementally
    alongside, so the views below never require a full rebuild; they are
    materialized as read-only snapshot arrays once per mutation and
    cached until the next mutation (a burst of completions followed by
    one allocation request costs one snapshot — the update batching the
    paper describes in Section V-C).

    A ``capacity`` bound turns the list into a *bounded record store*:
    the insert that exceeds it compacts the list (module docstring) and
    :meth:`add` reports that by returning ``None``.  The paper keeps all
    records; the bound exists for the million-record scaling work
    (docs/PERFORMANCE.md) and the >10k-task scaling study (E-X1 in
    DESIGN.md).
    """

    __slots__ = (
        "_capacity",
        "_n",
        "_block",
        "_ints",
        "_row_views",
        "_values",
        "_sigs",
        "_sig_prefix",
        "_sigval_prefix",
    )

    def __init__(
        self,
        records: Iterable[ResourceRecord] = (),
        capacity: Optional[int] = None,
    ) -> None:
        # The one capacity rule: from_arrays, from_state and both
        # bucketing algorithms' record_capacity construct through here,
        # so a bad bound is refused where it is configured rather than
        # at the first compaction.  Mirrors base.check_max_buckets.
        if capacity is not None and (
            isinstance(capacity, bool)
            or not isinstance(capacity, numbers.Integral)
            or capacity < 1
        ):
            raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
        self._capacity = None if capacity is None else int(capacity)
        self._n = 0
        self._allocate(_MIN_BUFFER)
        self._invalidate()
        items = list(records)
        if items:
            n = len(items)
            self._load(
                np.fromiter((r.value for r in items), np.float64, count=n),
                np.fromiter((r.significance for r in items), np.float64, count=n),
                np.fromiter((r.task_id for r in items), np.int64, count=n),
            )

    @classmethod
    def from_arrays(
        cls,
        values: np.ndarray,
        significances: Optional[np.ndarray] = None,
        task_ids: Optional[np.ndarray] = None,
        capacity: Optional[int] = None,
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
        exactly).  More records than ``capacity`` are trimmed to exactly
        ``capacity``, lowest significance first.
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
        new = cls(capacity=capacity)
        new._load(values, sigs, tids)
        return new

    def _load(self, values: np.ndarray, sigs: np.ndarray, tids: np.ndarray) -> None:
        """Fill an empty list from whole (unsorted, validated) columns."""
        n = values.size
        if n > self._block.shape[1]:
            self._allocate(n)
        # Stable lexicographic sort by (value, significance) matches
        # sorted() on the dataclass ordering (task_id is compare=False).
        order = np.lexsort((sigs, values))
        block = self._block
        block[0, :n] = values[order]
        block[1, :n] = sigs[order]
        self._ints[4, :n] = tids[order]
        self._n = n
        self._rebuild_prefixes()
        if self._capacity is not None and n > self._capacity:
            self._compact(self._capacity)
        self._invalidate()

    # -- mutation ------------------------------------------------------------

    def add(
        self, value: float, significance: float = 1.0, task_id: int = -1
    ) -> Optional[int]:
        """Validate and insert a record (the simulator's hot path).

        Returns the record's index in the sorted list, or ``None`` when
        the insert took a bounded list past capacity and the list was
        compacted: every index may have moved and the prefix sums were
        rebuilt, so incremental partition engines resync.  A refused
        record raises before anything is written.
        """
        if not 0 <= value < inf:
            raise ValueError(f"record values must be finite and non-negative, got {value}")
        if not 0 < significance < inf:
            raise ValueError(
                f"record significances must be finite and positive, got {significance}"
            )
        if not _TASK_ID_MIN <= task_id <= _TASK_ID_MAX:
            raise ValueError(f"record task ids must fit int64, got {task_id}")
        pos: Optional[int] = self._insert(float(value), float(significance), int(task_id))
        capacity = self._capacity
        if capacity is not None and self._n > capacity:
            # Clear a slack fraction in one batch, so compaction costs
            # one sort per slack * capacity inserts.
            self._compact(max(1, capacity - int(capacity * DECAY_SLACK)))
            pos = None
        self._invalidate()
        return pos

    def _insert(self, value: float, significance: float, task_id: int) -> int:
        n = self._n
        block = self._block
        if n == block.shape[1]:
            self._allocate(2 * n)
            block = self._block
        # Position: after every record with a smaller (value, significance)
        # key and after equal keys — bisect.insort's resting place for the
        # seed's (value, significance)-ordered dataclass.
        live = block[0, :n]
        pos = int(live.searchsorted(value, "right"))
        if pos and block.item(0, pos - 1) == value:
            # Equal values: order the run by significance.  Without one
            # the right edge is also the left, and one search is enough.
            hi = pos
            pos = int(live.searchsorted(value, "left"))
            pos += int(block[1, pos:hi].searchsorted(significance, "right"))
        sigval = significance * value
        if pos < n:
            # The same per-element additions as five 1-D buffers did, in
            # place on the shifted runs (``row[a:b] += x`` would also
            # write the sums back through a second indexing).
            self._move(pos + 1, pos, n - pos)
            run = block[2, pos + 1 : n + 1]
            np.add(run, significance, out=run)
            run = block[3, pos + 1 : n + 1]
            np.add(run, sigval, out=run)
        block[0, pos] = value
        block[1, pos] = significance
        self._ints[4, pos] = task_id
        block[2, pos] = (block.item(2, pos - 1) if pos else 0.0) + significance
        block[3, pos] = (block.item(3, pos - 1) if pos else 0.0) + sigval
        self._n = n + 1
        return pos

    def _allocate(self, size: int) -> None:
        """(Re)allocate the block at ``size`` cells per row, keeping the records.

        The only place the ``int64`` view is bound: a view of a replaced
        block would keep reading (and writing) the old allocation.
        """
        block = np.empty((5, size), dtype=np.float64)
        n = self._n
        if n:
            block[:, :n] = self._block[:, :n]
        self._block = block
        self._ints = block.view(np.int64)
        self._row_views: Optional[Tuple[np.ndarray, ...]] = None

    def _move(self, dst: int, src: int, count: int) -> None:
        """Move ``count`` columns from ``src`` to ``dst``; the runs may overlap."""
        block = self._block
        if count <= _BLOCK_MOVE_MAX:
            block[:, dst : dst + count] = block[:, src : src + count]
        else:
            for row in block:
                row[dst : dst + count] = row[src : src + count]

    def _compact(self, target: int) -> None:
        """Drop the lowest-significance records, leaving ``target`` (< n).

        One stable argsort — ties go lowest index first, as the seed's
        stable sort did — one boolean-mask compress of the block, and a
        rebuild of the prefix sums.
        """
        n = self._n
        keep = np.ones(n, dtype=bool)
        keep[np.argsort(self._block[1, :n], kind="stable")[: n - target]] = False
        block = self._block
        block[:, :target] = block[:, :n][:, keep]
        self._n = target
        self._rebuild_prefixes()

    def _rebuild_prefixes(self) -> None:
        n = self._n
        values, sigs, sp, svp = self._rows()
        np.cumsum(sigs[:n], out=sp[:n])
        np.cumsum(sigs[:n] * values[:n], out=svp[:n])

    def _invalidate(self) -> None:
        self._values = None
        self._sigs = None
        self._sig_prefix = None
        self._sigval_prefix = None

    def _snapshot_of(self, block: np.ndarray, row: int) -> np.ndarray:
        arr = block[row, : self._n].copy()
        arr.flags.writeable = False
        return arr

    def _rows(self) -> Tuple[np.ndarray, ...]:
        """Views of the four float rows — values, significances and their
        two prefix sums — over the whole current block.

        Built by the first read after :meth:`_allocate` bound the block,
        so a list nothing reads holds none.  A caller must not keep them
        across an insert, which may replace the block.
        """
        rows = self._row_views
        if rows is None:
            block = self._block
            rows = self._row_views = (block[0], block[1], block[2], block[3])
        return rows

    # -- views ---------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Sorted record values as a read-only float64 array."""
        if self._values is None:
            self._values = self._snapshot_of(self._block, 0)
        return self._values

    @property
    def significances(self) -> np.ndarray:
        """Significances aligned with :attr:`values`."""
        if self._sigs is None:
            self._sigs = self._snapshot_of(self._block, 1)
        return self._sigs

    @property
    def task_ids(self) -> np.ndarray:
        """Task IDs aligned with :attr:`values` (read-only int64 array)."""
        return self._snapshot_of(self._ints, 4)

    @property
    def sig_prefix(self) -> np.ndarray:
        """``sig_prefix[i]`` = sum of significances of records [0, i]."""
        if self._sig_prefix is None:
            self._sig_prefix = self._snapshot_of(self._block, 2)
        return self._sig_prefix

    @property
    def sigval_prefix(self) -> np.ndarray:
        """``sigval_prefix[i]`` = sum of significance*value of records [0, i]."""
        if self._sigval_prefix is None:
            self._sigval_prefix = self._snapshot_of(self._block, 3)
        return self._sigval_prefix

    # -- range queries ---------------------------------------------------------

    def sig_sum(self, lo: int, hi: int) -> float:
        """Total significance of records with indices in [lo, hi]."""
        self._check_range(lo, hi)
        sp = self._rows()[2]
        return float(sp[hi] - (sp[lo - 1] if lo > 0 else 0.0))

    def weighted_mean(self, lo: int, hi: int) -> float:
        """Significance-weighted mean value over indices [lo, hi].

        This is the paper's estimator for the consumption of a task that
        falls in a bucket (the v_lo / v_hi / v_i formulas of Sections
        IV-B and IV-C).
        """
        self._check_range(lo, hi)
        _, _, sp, svp = self._rows()
        below_sig = sp[lo - 1] if lo > 0 else 0.0
        below_sigval = svp[lo - 1] if lo > 0 else 0.0
        total_sig = sp[hi] - below_sig
        return float((svp[hi] - below_sigval) / total_sig)

    def max_value(self, lo: int, hi: int) -> float:
        """Maximum value over indices [lo, hi] — just ``values[hi]`` since sorted."""
        self._check_range(lo, hi)
        return self._block.item(0, hi)

    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi < self._n):
            raise IndexError(
                f"record range [{lo}, {hi}] out of bounds for {self._n} records"
            )

    def index_below(self, value: float) -> Optional[int]:
        """Index of the record with the largest value strictly below ``value``.

        Used by Exhaustive Bucketing's candidate-break-point mapping
        (Section IV-D, step 2): each evenly spaced candidate value is
        mapped "to the closest record that has a lower value than it".
        Returns ``None`` if every record's value is >= ``value``.
        """
        idx = int(np.searchsorted(self._block[0, : self._n], value, side="left")) - 1
        return idx if idx >= 0 else None

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[ResourceRecord]:
        return map(self._record_at, range(self._n))

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
            value=self._block.item(0, i),
            significance=self._block.item(1, i),
            task_id=self._ints.item(4, i),
        )

    def __bool__(self) -> bool:
        return self._n > 0

    def __repr__(self) -> str:
        if not self._n:
            return "RecordList(empty)"
        return (
            f"RecordList(n={self._n}, "
            f"min={self._block.item(0, 0):g}, max={self._block.item(0, self._n - 1):g})"
        )

    # -- misc ---------------------------------------------------------------------

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def nbytes(self) -> int:
        """Bytes held by the preallocated block (footprint metric)."""
        return self._block.nbytes

    def total_significance(self) -> float:
        return self._block.item(2, self._n - 1) if self._n else 0.0

    def snapshot(self) -> Tuple[ResourceRecord, ...]:
        """An immutable copy of the current records, in value order."""
        return tuple(self._record_at(i) for i in range(self._n))

    # -- checkpointing --------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot for checkpointing (see :mod:`repro.checkpoint`).

        ``"rows"`` is the live block packed row after row into one flat
        list: the ``n`` values, significances, significance prefix sums
        and significance-times-value prefix sums, then the ``n`` task
        ids.  The prefix sums are stored **verbatim**, not recomputed on
        restore: the incremental suffix-add maintenance in :meth:`_insert`
        rounds differently from ``np.cumsum``, so a recomputation would
        break the bit-identical-resume guarantee.  Python's JSON encoder
        uses ``repr`` (shortest round-trip) for floats, so every float64
        survives exactly.
        """
        n = self._n
        rows = self._block[:4, :n].ravel().tolist()
        rows += self._ints[4, :n].tolist()
        return {"capacity": self._capacity, "rows": rows}

    @classmethod
    def from_state(cls, state: dict) -> "RecordList":
        """Rebuild a list captured by :meth:`state_dict`, bit-exactly.

        Also reads the format-1 state, whose five rows are named lists
        (``values``, ``significances``, ``task_ids``, ``sig_prefix``,
        ``sigval_prefix``).  States written while the bounded store still
        had selectable compaction policies carry ``compaction``, ``seen``
        and ``rng``.  They never influenced an unbounded list and are
        ignored there; a bounded state recorded under a policy other
        than the kept one (``"decay"``) is refused rather than continued
        under another.

        A state :meth:`add` could not have produced — a row list whose
        length is not a multiple of five, a value or significance that
        :meth:`add` refuses, records out of (value, significance) order,
        more records than the capacity — raises ``ValueError``.
        """
        if "rows" in state:
            rows = state["rows"]
            n, rest = divmod(len(rows), 5)
            if rest:
                raise ValueError(
                    f"packed RecordList rows hold {len(rows)} cells, not five rows"
                )
            floats, task_ids = rows[: 4 * n], rows[4 * n :]
        else:
            values = state["values"]
            n = len(values)
            named = ("significances", "sig_prefix", "sigval_prefix", "task_ids")
            if not all(len(state[k]) == n for k in named):
                raise ValueError("inconsistent RecordList state: array lengths differ")
            floats = [
                *values, *state["significances"], *state["sig_prefix"], *state["sigval_prefix"]
            ]
            task_ids = state["task_ids"]
        capacity = state["capacity"]
        policy = state.get("compaction", "decay")
        if capacity is not None and policy != "decay":
            raise ValueError(
                f"bounded RecordList state was recorded under the {policy!r} "
                "compaction policy, which this build does not have"
            )
        new = cls(capacity=capacity)
        if n > new._block.shape[1]:
            new._allocate(n)
        try:
            new._block[:4, :n] = np.asarray(floats, dtype=np.float64).reshape(4, n)
            new._ints[4, :n] = task_ids
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed RecordList state: {exc}") from None
        new._n = n
        new._check_restored()
        return new

    def _check_restored(self) -> None:
        """Refuse restored records that :meth:`add` would not have kept."""
        n = self._n
        # One read of both rows as Python floats: numpy's per-call cost
        # would dominate at the few records most lists hold.
        values, sigs = self._block[:2, :n].tolist()
        previous = (0.0, 0.0)
        for key in zip(values, sigs):
            value, significance = key
            # Chained comparisons, as in add(): NaN fails them too.
            if not 0.0 <= value < inf:
                raise ValueError(f"record values must be finite and non-negative, got {value}")
            if not 0.0 < significance < inf:
                raise ValueError(
                    f"record significances must be finite and positive, got {significance}"
                )
            if key < previous:
                raise ValueError("restored records are not in (value, significance) order")
            previous = key
        if self._capacity is not None and n > self._capacity:
            raise ValueError(
                f"restored RecordList holds {n} records, over its capacity {self._capacity}"
            )
