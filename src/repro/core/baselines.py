"""Naive baseline algorithms: Whole Machine and Max Seen (Section V-A).

* **Whole Machine** allocates every task an entire worker
  (16 cores / 64 GB memory / 64 GB disk in the paper's testbed).  It
  never fails an allocation but wastes everything a task does not use —
  the evaluation's lower bound on efficiency.
* **Max Seen** allocates the maximum consumption observed so far in the
  current run, rounded *up* to a histogram granularity.  The paper notes
  (Section V-C) that its implementation uses a histogram with bucket
  size 250, which is why a steady 306 MB disk consumer is allocated
  500 MB and the TopEFT disk efficiency cannot approach 100 %.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.base import AllocationAlgorithm, register_algorithm

__all__ = ["WholeMachine", "MaxSeen"]


@register_algorithm
class WholeMachine(AllocationAlgorithm):
    """Allocate a full worker's capacity to every task.

    Parameters
    ----------
    capacity:
        The worker's capacity of this resource (e.g. 64000 MB memory for
        the paper's workers).  The :class:`TaskOrientedAllocator` wires
        this from its machine-capacity vector.
    """

    name = "whole_machine"

    def __init__(self, capacity: float = 0.0) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._capacity = float(capacity)
        self._n_records = 0

    @property
    def capacity(self) -> float:
        return self._capacity

    def update(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        # Whole Machine ignores history; count records for introspection only.
        self._n_records += 1

    def predict(self) -> Optional[float]:
        return self._capacity if self._capacity > 0 else None

    def predict_retry(
        self, previous_allocation: float, observed_peak: float
    ) -> Optional[float]:
        # A task that exhausted a whole machine has nowhere to go but the
        # allocator's doubling fallback (an oversubscribed allocation).
        if self._capacity > max(previous_allocation, observed_peak):
            return self._capacity
        return None

    @property
    def n_records(self) -> int:
        return self._n_records

    def _extra_state(self) -> dict:
        return {"n_records": self._n_records}

    def _load_extra_state(self, state: dict) -> None:
        self._n_records = int(state["n_records"])


@register_algorithm
class MaxSeen(AllocationAlgorithm):
    """Allocate the histogram-rounded maximum consumption seen so far.

    Parameters
    ----------
    granularity:
        Histogram bucket size; the observed maximum is rounded up to the
        next multiple.  The paper's implementation uses 250 (MB) for
        memory/disk; pass 0 to disable rounding (exact max), which the
        allocator does for cores where a 250-wide histogram would be
        meaningless.
    """

    name = "max_seen"

    def __init__(self, granularity: float = 250.0) -> None:
        if granularity < 0:
            raise ValueError(f"granularity must be non-negative, got {granularity}")
        self._granularity = float(granularity)
        self._max_seen: Optional[float] = None
        self._n_records = 0

    @property
    def granularity(self) -> float:
        return self._granularity

    @property
    def max_seen(self) -> Optional[float]:
        """The raw (unrounded) maximum observed consumption."""
        return self._max_seen

    def update(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        if self._max_seen is None or value > self._max_seen:
            self._max_seen = float(value)
        self._n_records += 1

    def predict(self) -> Optional[float]:
        if self._max_seen is None:
            return None
        return self._round_up(self._max_seen)

    def _round_up(self, value: float) -> float:
        if self._granularity <= 0 or value <= 0:
            return value
        return math.ceil(value / self._granularity - 1e-12) * self._granularity

    @property
    def n_records(self) -> int:
        return self._n_records

    def _extra_state(self) -> dict:
        return {"max_seen": self._max_seen, "n_records": self._n_records}

    def _load_extra_state(self, state: dict) -> None:
        max_seen = state["max_seen"]
        self._max_seen = None if max_seen is None else float(max_seen)
        self._n_records = int(state["n_records"])
