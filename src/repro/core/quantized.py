"""Quantized Bucketing (Phung et al., WORKS 2021 — reference [11]).

The predecessor of the paper's bucketing algorithms: instead of
searching for waste-minimizing break points it splits the sorted record
list at fixed quantiles.  The paper's evaluation configuration, the one
this class runs, splits at the 50th quantile (Section V-B), yielding two
buckets: the median record's value and the maximum.  Tasks are first allocated the lowest
bucket and climb the ladder on failure.

Under-allocating half the tasks costs retries, but on heavy-tailed
workloads (the Exponential synthetic workflow) the median first shot
avoids charging every small task the outliers' fragmentation — which is
exactly where the paper observes Quantized Bucketing "significantly
excels".
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.base import AllocationAlgorithm, register_algorithm
from repro.core.records import RecordList

__all__ = ["QuantizedBucketing"]


@register_algorithm
class QuantizedBucketing(AllocationAlgorithm):
    """Median-split bucket ladder with climb-on-failure retries.

    The bucket reps are the median record's value and the maximum (one
    rep when they are equal).
    """

    name = "quantized_bucketing"

    def __init__(self) -> None:
        self._records = RecordList()
        self._reps: Optional[Tuple[float, ...]] = None

    def update(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        # Quantile clustering is count-based (no significance weighting).
        self._records.add(value=value, significance=1.0, task_id=task_id)
        self._reps = None

    def bucket_reps(self) -> Optional[Tuple[float, ...]]:
        """The current ladder of bucket representatives, ascending."""
        if not self._records:
            return None
        if self._reps is None:
            values = self._records.values
            # The median record's value, the ceil(n/2)-th smallest:
            # allocations must be actual observed peaks, mirroring [11]'s
            # clustering of records rather than interpolation between them.
            median = float(values[(values.size - 1) // 2])
            top = float(values[-1])
            # One rep when they coincide (tiny record lists, repeated values).
            self._reps = (median, top) if top > median else (median,)
        return self._reps

    def predict(self) -> Optional[float]:
        reps = self.bucket_reps()
        if reps is None:
            return None
        return reps[0]

    def predict_retry(
        self, previous_allocation: float, observed_peak: float
    ) -> Optional[float]:
        """Climb to the lowest bucket above the failed allocation."""
        reps = self.bucket_reps()
        if reps is None:
            return None
        floor = max(previous_allocation, observed_peak)
        for rep in reps:
            if rep > floor:
                return rep
        return None

    @property
    def records(self) -> RecordList:
        return self._records

    @property
    def n_records(self) -> int:
        return len(self._records)

    def _extra_state(self) -> dict:
        # _reps is a pure function of the records (deterministic quantile
        # lookup), so the cache is simply dropped and lazily rebuilt.
        return {"records": self._records.state_dict()}

    def _load_extra_state(self, state: dict) -> None:
        self._records = RecordList.from_state(state["records"])
        self._reps = None
