"""Min Waste and Max Throughput job sizing (Tovar et al., TPDS 2018).

The paper evaluates against the two first-allocation strategies of
"A Job Sizing Strategy for High-Throughput Scientific Workflows"
(reference [15]).  Both pick a single first-allocation value from the
empirical distribution of completed-task peaks and rely on an
*at-most-once retry to the maximum seen* when the first allocation
fails (the bucketing algorithms relax exactly this policy with their
bucket ladder — Section VI):

* **Min Waste** picks the candidate minimizing the expected resource
  waste: tasks at or below the allocation waste the fragmentation
  ``a - v``; tasks above it waste the whole failed attempt ``a`` plus
  the fragmentation ``max_seen - v`` of the retry.
* **Max Throughput** picks the candidate maximizing the rate of
  *successful* task completions per unit of allocated resource,
  ``F(a) / a`` — a worker of capacity ``C`` runs ``C/a`` first-attempt
  tasks concurrently, of which the fraction ``F(a)`` succeeds.  This
  prefers aggressively small first allocations (more concurrency) at
  the cost of more retries, which is why the paper's Figure 6 shows
  these strategies carrying a visibly larger failed-allocation share.

Both evaluate every observed peak as a candidate in one vectorized pass
over the sorted values using prefix sums.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import AllocationAlgorithm, register_algorithm
from repro.core.records import RecordList

__all__ = ["TovarJobSizing", "MinWaste", "MaxThroughput"]


class TovarJobSizing(AllocationAlgorithm):
    """Shared machinery of the two Tovar et al. strategies.

    Maintains the sorted record list (counts only — the published
    strategies do not weight by recency) and recomputes the optimal
    first-allocation value lazily after updates.
    """

    def __init__(self) -> None:
        self._records = RecordList()
        #: The optimum over the current records; ``None`` until asked
        #: for after a change.
        self._cached: Optional[float] = None

    # -- subclass hook -----------------------------------------------------------

    def objective(
        self, values: np.ndarray, frag_below: np.ndarray, prob_above: np.ndarray, max_seen: float
    ) -> np.ndarray:
        """Score each candidate allocation value; lower is better.

        Parameters
        ----------
        values:
            Sorted candidate allocation values (the observed peaks).
        frag_below:
            ``frag_below[i]`` = sum over records with value <= values[i]
            of ``values[i] - value`` (total fragmentation if values[i]
            were allocated), already divided by the record count.
        prob_above:
            ``prob_above[i]`` = fraction of records strictly above
            values[i] (first-allocation failure probability).
        max_seen:
            The retry allocation (largest observed value).
        """
        raise NotImplementedError

    # -- contract -----------------------------------------------------------------

    def update(self, value: float, significance: float = 1.0, task_id: int = -1) -> None:
        # Tovar job sizing is count-based; ignore the significance weight.
        self._records.add(value=value, significance=1.0, task_id=task_id)
        self._cached = None

    def predict(self) -> Optional[float]:
        if not self._records:
            return None
        if self._cached is None:
            self._cached = self._optimize()
        return self._cached

    def predict_retry(
        self, previous_allocation: float, observed_peak: float
    ) -> Optional[float]:
        """At-most-once retry to the maximum seen; then give up.

        Returning ``None`` hands over to the allocator's doubling
        fallback, which is the only sound continuation once the maximum
        seen itself proved insufficient.
        """
        if not self._records:
            return None
        max_seen = float(self._records.values[-1])
        if max_seen > max(previous_allocation, observed_peak):
            return max_seen
        return None

    def _optimize(self) -> float:
        values = self._records.values
        n = values.size
        unique_values = np.unique(values)
        # Candidates: the distinct observed peaks.  For each candidate a,
        #   count_below(a)   = #records with value <= a
        #   sum_below(a)     = sum of those values
        # computed from the sorted array's cumulative sums.
        cumsum = np.cumsum(values)
        # Index of the last record <= each unique candidate.
        last_le = np.searchsorted(values, unique_values, side="right") - 1
        count_le = last_le + 1
        sum_le = cumsum[last_le]
        frag_below = (unique_values * count_le - sum_le) / n
        prob_above = 1.0 - count_le / n
        max_seen = float(values[-1])
        scores = self.objective(unique_values, frag_below, prob_above, max_seen)
        return float(unique_values[int(np.argmin(scores))])

    @property
    def records(self) -> RecordList:
        return self._records

    @property
    def n_records(self) -> int:
        return len(self._records)

    def _extra_state(self) -> dict:
        # The optimum is a pure function of the records, which restore
        # bit-exactly, so the cache is dropped and lazily recomputed.
        return {"records": self._records.state_dict()}

    def _load_extra_state(self, state: dict) -> None:
        # Snapshots written before the cache was dropped also carry
        # `cached` and `dirty`; nothing reads them.
        self._records = RecordList.from_state(state["records"])
        self._cached = None


@register_algorithm
class MinWaste(TovarJobSizing):
    """First allocation minimizing the expected per-task resource waste.

    Expected waste of candidate ``a`` over the empirical distribution:

    ``E[waste](a) = E[(a - v)+] + P(v > a) * (a + E[max_seen - v | v > a])``

    The first term is the internal fragmentation of succeeding tasks;
    the second charges failing tasks the full lost attempt ``a`` plus
    the retry's fragmentation against ``max_seen``.
    """

    name = "min_waste"

    def objective(
        self, values: np.ndarray, frag_below: np.ndarray, prob_above: np.ndarray, max_seen: float
    ) -> np.ndarray:
        records = self._records.values
        n = records.size
        total = float(records.sum())
        # E[(max_seen - v) * 1{v > a}] for each candidate a: totals minus
        # the below-or-equal part.
        cumsum = np.cumsum(records)
        last_le = np.searchsorted(records, values, side="right") - 1
        sum_above = (total - cumsum[last_le]) / n
        count_above = prob_above  # already a fraction
        retry_frag = count_above * max_seen - sum_above
        return frag_below + prob_above * values + retry_frag


@register_algorithm
class MaxThroughput(TovarJobSizing):
    """First allocation maximizing successful completions per resource.

    A worker of capacity ``C`` hosts ``C/a`` concurrent first attempts,
    of which the fraction ``F(a) = P(v <= a)`` succeeds, so the success
    throughput per unit of capacity is ``F(a)/a``.  The objective (to
    minimize) is its reciprocal ``a / F(a)``.  Note this is *not* the
    waste objective shifted — it ignores what failures cost and buys raw
    concurrency, landing on systematically smaller allocations than
    Min Waste.
    """

    name = "max_throughput"

    def objective(
        self, values: np.ndarray, frag_below: np.ndarray, prob_above: np.ndarray, max_seen: float
    ) -> np.ndarray:
        success_fraction = 1.0 - prob_above
        # Every candidate is an observed value, so F(a) >= 1/n > 0.
        return values / success_fraction
