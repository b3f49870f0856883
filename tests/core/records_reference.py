"""Reference record store: the seed's Python-object-backed RecordList.

Test-only.  This is the pre-fast-path implementation of
:class:`repro.core.records.RecordList`: a sorted Python list of
:class:`~repro.core.records.ResourceRecord` objects mutated with
``bisect.insort``, with every numpy view rebuilt from scratch (an
``np.fromiter`` walk over the record objects) after each mutation.  That
rebuild made the simulator's update->predict alternation O(n) per
completed task.

``test_records_equivalence.py`` drives the shipped store and this one
through random insert/evict sequences and requires the same observable
behaviour.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.records import DECAY_SLACK, ResourceRecord

__all__ = ["LegacyRecordList"]


class LegacyRecordList:
    """A list of :class:`ResourceRecord` kept sorted by value.

    Appends are O(log n) search + O(n) insert (a python list ``insort``),
    which is far below the cost of recomputing a bucketing state and has
    never shown up in profiles; the numpy views are rebuilt lazily and
    cached until the next mutation, so a burst of completions followed by
    one allocation request costs one rebuild (the update batching the
    paper describes in Section V-C).

    A ``capacity`` bound keeps the *most significant* records: the
    append that exceeds it by one drops the lowest-significance records
    down to capacity less a ``DECAY_SLACK`` fraction (the shipped
    store's rule, on Python objects); a bulk load is trimmed to exactly
    ``capacity``.  The paper keeps all records; the bound exists for the
    >10k-task scaling study (E-X1 in DESIGN.md).
    """

    __slots__ = ("_records", "_capacity", "_values", "_sigs", "_sig_prefix", "_sigval_prefix")

    def __init__(
        self,
        records: Iterable[ResourceRecord] = (),
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._records: List[ResourceRecord] = sorted(records)
        if capacity is not None and len(self._records) > capacity:
            self._evict_to(capacity)
        self._invalidate()

    # -- mutation ------------------------------------------------------------

    def append(self, record: ResourceRecord) -> None:
        """Insert a record, keeping value order; compact if over capacity."""
        bisect.insort(self._records, record)
        capacity = self._capacity
        if capacity is not None and len(self._records) > capacity:
            self._evict_to(max(1, capacity - int(capacity * DECAY_SLACK)))
        self._invalidate()

    def add(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        """Convenience: build and append a record."""
        self.append(ResourceRecord(value=value, significance=significance, task_id=task_id))

    def _evict_to(self, target: int) -> None:
        # Evict the lowest-significance records: they are the oldest under
        # the paper's significance = task-ID convention.  sorted() is
        # stable: ties go lowest index first.
        by_sig = sorted(range(len(self._records)), key=lambda i: self._records[i].significance)
        drop = set(by_sig[: len(self._records) - target])
        self._records = [r for i, r in enumerate(self._records) if i not in drop]

    def _invalidate(self) -> None:
        self._values = None
        self._sigs = None
        self._sig_prefix = None
        self._sigval_prefix = None

    # -- views ---------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Sorted record values as a read-only float64 array."""
        if self._values is None:
            arr = np.fromiter(
                (r.value for r in self._records), dtype=np.float64, count=len(self._records)
            )
            arr.flags.writeable = False
            self._values = arr
        return self._values

    @property
    def significances(self) -> np.ndarray:
        """Significances aligned with :attr:`values`."""
        if self._sigs is None:
            arr = np.fromiter(
                (r.significance for r in self._records),
                dtype=np.float64,
                count=len(self._records),
            )
            arr.flags.writeable = False
            self._sigs = arr
        return self._sigs

    @property
    def sig_prefix(self) -> np.ndarray:
        """``sig_prefix[i]`` = sum of significances of records [0, i]."""
        if self._sig_prefix is None:
            arr = np.cumsum(self.significances)
            arr.flags.writeable = False
            self._sig_prefix = arr
        return self._sig_prefix

    @property
    def sigval_prefix(self) -> np.ndarray:
        """``sigval_prefix[i]`` = sum of significance*value of records [0, i]."""
        if self._sigval_prefix is None:
            arr = np.cumsum(self.significances * self.values)
            arr.flags.writeable = False
            self._sigval_prefix = arr
        return self._sigval_prefix

    # -- range queries ---------------------------------------------------------

    def sig_sum(self, lo: int, hi: int) -> float:
        """Total significance of records with indices in [lo, hi]."""
        self._check_range(lo, hi)
        prefix = self.sig_prefix
        return float(prefix[hi] - (prefix[lo - 1] if lo > 0 else 0.0))

    def weighted_mean(self, lo: int, hi: int) -> float:
        """Significance-weighted mean value over indices [lo, hi].

        This is the paper's estimator for the consumption of a task that
        falls in a bucket (the v_lo / v_hi / v_i formulas of Sections
        IV-B and IV-C).
        """
        self._check_range(lo, hi)
        sp, svp = self.sig_prefix, self.sigval_prefix
        below_sig = sp[lo - 1] if lo > 0 else 0.0
        below_sigval = svp[lo - 1] if lo > 0 else 0.0
        total_sig = sp[hi] - below_sig
        return float((svp[hi] - below_sigval) / total_sig)

    def max_value(self, lo: int, hi: int) -> float:
        """Maximum value over indices [lo, hi] — just ``values[hi]`` since sorted."""
        self._check_range(lo, hi)
        return float(self.values[hi])

    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi < len(self._records)):
            raise IndexError(
                f"record range [{lo}, {hi}] out of bounds for {len(self._records)} records"
            )

    def index_below(self, value: float) -> Optional[int]:
        """Index of the record with the largest value strictly below ``value``.

        Used by Exhaustive Bucketing's candidate-break-point mapping
        (Section IV-D, step 2): each evenly spaced candidate value is
        mapped "to the closest record that has a lower value than it".
        Returns ``None`` if every record's value is >= ``value``.
        """
        idx = int(np.searchsorted(self.values, value, side="left")) - 1
        return idx if idx >= 0 else None

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> ResourceRecord:
        return self._records[index]

    def __bool__(self) -> bool:
        return bool(self._records)

    def __repr__(self) -> str:
        if not self._records:
            return "LegacyRecordList(empty)"
        return (
            f"LegacyRecordList(n={len(self._records)}, "
            f"min={self._records[0].value:g}, max={self._records[-1].value:g})"
        )

    # -- misc ---------------------------------------------------------------------

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def total_significance(self) -> float:
        return float(self.sig_prefix[-1]) if self._records else 0.0

    def snapshot(self) -> Tuple[ResourceRecord, ...]:
        """An immutable copy of the current records, in value order."""
        return tuple(self._records)
