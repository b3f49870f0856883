"""Buckets and bucketing states.

A *bucketing state* partitions the sorted record list into contiguous
intervals ("buckets").  Each bucket is reduced to (Section IV-A):

* a **representative value** — the maximum record value in the bucket,
  which is what gets allocated when the bucket is chosen;
* a **probability value** — the bucket's share of total significance;
* a **consumption estimate** — the significance-weighted mean value,
  used by the cost kernels as the expected consumption of a task that
  falls in the bucket.

Prediction (shared by Greedy and Exhaustive Bucketing):

* a fresh task is allocated the representative of a bucket drawn at
  random with the probability values;
* a task that exhausted its previous allocation is re-allocated from the
  buckets whose representative exceeds the previous allocation, with
  probabilities renormalized over that suffix;
* if no such bucket exists (the previous allocation was already the
  largest representative), the caller falls back to doubling the task's
  previous peak until it succeeds (Section IV-A) — that fallback lives in
  the allocator, signalled here by returning ``None``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.records import RecordList


@dataclass(frozen=True)
class Bucket:
    """One interval of the sorted record list, reduced to three numbers.

    Attributes
    ----------
    lo, hi:
        Inclusive record-index range [lo, hi] in the originating
        :class:`~repro.core.records.RecordList`.
    rep:
        Representative value: max record value in the bucket.
    prob:
        Probability value: the bucket's significance share in [0, 1].
    estimate:
        Significance-weighted mean record value (expected consumption of
        a task falling in this bucket).
    """

    lo: int
    hi: int
    rep: float
    prob: float
    estimate: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty bucket range [{self.lo}, {self.hi}]")
        if not (0.0 <= self.prob <= 1.0 + 1e-12):
            raise ValueError(f"bucket probability out of range: {self.prob}")
        if self.estimate > self.rep + 1e-9 * max(1.0, abs(self.rep)):
            raise ValueError(
                f"bucket estimate {self.estimate} exceeds representative {self.rep}"
            )

    @property
    def count(self) -> int:
        """Number of records in the bucket."""
        return self.hi - self.lo + 1


class BucketState:
    """An immutable partition of a record list into buckets.

    Built from a record list and a sorted sequence of *break indices*:
    the inclusive upper-end record index of every bucket except that the
    last break index must be ``len(records) - 1`` (every record belongs
    to exactly one bucket).  ``BucketState.single(records)`` builds the
    one-bucket state.  ``BucketState(records, breaks)`` checks the breaks
    and derives the per-bucket stats with :func:`partition_stats`;
    ``BucketState(records, breaks, stats=...)`` is for a partition search
    that already holds them, and adopts both lists as given.

    Per-bucket stats are stored as plain Python lists and the derived
    numpy arrays (:attr:`reps`, :attr:`probs`, :attr:`estimates`) are
    materialized lazily: a state is rebuilt once per allocation decision
    in large simulations, the prediction draw only needs a binary search
    over ~10 cumulative probabilities, and at that size list operations
    beat numpy dispatch (docs/PERFORMANCE.md).

    A prediction draws through ``rng.random()``, at most once: ``rng`` is
    a ``Generator`` or anything with that method, such as the bucketing
    algorithm that owns the state and counts its draws.
    """

    __slots__ = (
        "_lazy_buckets",
        "_breaks",
        "_reps_l",
        "_probs_l",
        "_estimates_l",
        "_cumprobs_l",
        "_arrays",
        "_n_records",
    )

    def __init__(
        self,
        records: RecordList,
        break_indices: Sequence[int],
        stats: Optional[Tuple[List[float], List[float], List[float]]] = None,
    ) -> None:
        n = len(records)
        if n == 0:
            raise ValueError("cannot build a BucketState from an empty record list")
        if stats is None:
            breaks = list(break_indices)
            if not breaks:
                raise ValueError("break_indices must contain at least the last index")
            prev = breaks[0]
            for b in breaks[1:]:
                if b <= prev:
                    raise ValueError(
                        f"break indices must be strictly increasing: {breaks}"
                    )
                prev = b
            if breaks[-1] != n - 1:
                raise ValueError(
                    f"last break index must be {n - 1} (got {breaks[-1]}): every "
                    "record must fall in a bucket"
                )
            if breaks[0] < 0:
                raise IndexError(f"negative break index: {breaks[0]}")
            stats = partition_stats(records, breaks)
        else:
            # The partition search hands over the breaks it chose and the
            # per-bucket stats it scored them with (bucket_stats order,
            # so bit-identical to deriving them here).  Both are adopted
            # as they are, unchecked and uncopied: this runs once per
            # allocation decision.
            breaks = break_indices  # type: ignore[assignment]
        self._breaks: List[int] = breaks
        self._reps_l, self._probs_l, self._estimates_l = stats
        # Bucket objects are built on first use (see :attr:`buckets`):
        # the prediction draws read the lists above.
        self._lazy_buckets: Optional[Tuple[Bucket, ...]] = None
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # Normalized cumulative probabilities for O(log K) inverse-CDF
        # draws — the allocator draws once per dispatch, so this is a
        # hot path in large simulations.  The running sum matches
        # np.cumsum's sequential accumulation bit-for-bit.
        acc = 0.0
        cum_l: List[float] = []
        for p in self._probs_l:
            acc += p
            cum_l.append(acc)
        self._cumprobs_l = [c / acc for c in cum_l]
        self._n_records = n

    @staticmethod
    def single(records: RecordList) -> "BucketState":
        """The trivial state with one bucket containing every record."""
        return BucketState(records, [len(records) - 1])

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot (see :mod:`repro.checkpoint`).

        The derived arrays are stored verbatim rather than rebuilt from
        break indices on restore: the state may be *stale* relative to a
        grown record list (the lazy recompute path of
        :class:`~repro.core.base.BucketingAlgorithm`), and recomputation
        would also re-round the probability normalization.
        """
        return {
            "buckets": [
                [b.lo, b.hi, b.rep, b.prob, b.estimate] for b in self.buckets
            ],
            "cumprobs": list(self._cumprobs_l),
            "n_records": self._n_records,
        }

    @classmethod
    def from_state(cls, state: dict) -> "BucketState":
        """Rebuild a state captured by :meth:`state_dict`, bit-exactly."""
        new = cls.__new__(cls)
        buckets = tuple(
            Bucket(
                lo=int(lo), hi=int(hi), rep=float(rep), prob=float(prob),
                estimate=float(est),
            )
            for lo, hi, rep, prob, est in state["buckets"]
        )
        new._lazy_buckets = buckets
        new._breaks = [b.hi for b in buckets]
        new._reps_l = [b.rep for b in buckets]
        new._probs_l = [b.prob for b in buckets]
        new._estimates_l = [b.estimate for b in buckets]
        new._arrays = None
        new._cumprobs_l = [float(c) for c in state["cumprobs"]]
        new._n_records = int(state["n_records"])
        return new

    # -- inspection -------------------------------------------------------------

    @property
    def buckets(self) -> Tuple[Bucket, ...]:
        if self._lazy_buckets is None:
            built: List[Bucket] = []
            lo = 0
            for j, hi in enumerate(self._breaks):
                built.append(
                    Bucket(
                        lo=lo,
                        hi=hi,
                        rep=self._reps_l[j],
                        prob=self._probs_l[j],
                        estimate=self._estimates_l[j],
                    )
                )
                lo = hi + 1
            self._lazy_buckets = tuple(built)
        return self._lazy_buckets

    def _materialize(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        arrays = self._arrays
        if arrays is None:
            arrays = (
                np.asarray(self._reps_l, dtype=np.float64),
                np.asarray(self._probs_l, dtype=np.float64),
                np.asarray(self._estimates_l, dtype=np.float64),
            )
            self._arrays = arrays
        return arrays

    @property
    def reps(self) -> np.ndarray:
        """Representative values, ascending (read-only view)."""
        return self._materialize()[0]

    @property
    def probs(self) -> np.ndarray:
        """Probability values, summing to 1 (read-only view)."""
        return self._materialize()[1]

    @property
    def estimates(self) -> np.ndarray:
        """Weighted-mean consumption estimates per bucket."""
        return self._materialize()[2]

    @property
    def n_records(self) -> int:
        return self._n_records

    def __len__(self) -> int:
        return len(self._breaks)

    def __getitem__(self, index: int) -> Bucket:
        return self.buckets[index]

    def __repr__(self) -> str:
        reps = ", ".join(f"{b.rep:g}@{b.prob:.3f}" for b in self.buckets)
        return f"BucketState([{reps}])"

    # -- prediction ---------------------------------------------------------------

    def choose_bucket(self, rng: np.random.Generator) -> Bucket:
        """Draw a bucket with the probability values (Section IV-A)."""
        # float() unwraps the numpy scalar so bisect compares native
        # floats (a numpy-scalar comparison per probe costs ~5x more).
        idx = bisect_right(self._cumprobs_l, float(rng.random()))
        idx = min(idx, len(self._breaks) - 1)
        return self.buckets[idx]

    def first_allocation(self, rng: np.random.Generator) -> float:
        """Allocation for a fresh task: the drawn bucket's representative.

        Reads the representative list directly rather than going
        through :meth:`choose_bucket` — this runs once per dispatched
        task and must not force the lazy ``Bucket`` materialization.
        ``bisect_right`` and ``np.searchsorted(..., side="right")``
        agree on every input, so the draw is unchanged.
        """
        idx = bisect_right(self._cumprobs_l, float(rng.random()))
        idx = min(idx, len(self._breaks) - 1)
        return self._reps_l[idx]

    def retry_allocation(
        self, previous_allocation: float, rng: np.random.Generator
    ) -> Optional[float]:
        """Allocation after a resource-exhaustion failure.

        Only buckets with a representative strictly greater than the
        previous allocation are considered, with probabilities
        renormalized over them.  Returns ``None`` when the previous
        allocation already matched or exceeded the largest
        representative — the caller must then fall back to doubling the
        task's observed peak (Section IV-A).
        """
        # Representatives ascend, so the eligible buckets are a suffix.
        reps = self._reps_l
        first = bisect_right(reps, previous_allocation)
        n = len(self._breaks)
        if first >= n:
            return None
        if first == n - 1:
            return reps[-1]
        # Running cumulative sum matches np.cumsum bit-for-bit.
        cum = []
        total = 0.0
        for p in self._probs_l[first:]:
            total += p
            cum.append(total)
        if total <= 0.0:
            # Degenerate (all significance in lower buckets): take the
            # first eligible representative.
            return reps[first]
        draw = float(rng.random())
        idx = first + bisect_right([c / total for c in cum], draw)
        idx = min(idx, n - 1)
        return reps[idx]

    # -- invariant helper (used by tests and debug assertions) ----------------------

    def validate(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        buckets = self.buckets
        assert buckets, "state must have at least one bucket"
        assert abs(sum(self._probs_l) - 1.0) < 1e-9, "probabilities must sum to 1"
        assert buckets[0].lo == 0
        assert buckets[-1].hi == self._n_records - 1
        for prev, cur in zip(buckets, buckets[1:]):
            assert cur.lo == prev.hi + 1, "buckets must tile the record list"
            assert cur.rep >= prev.rep, "representatives must be non-decreasing"
        for b in buckets:
            assert b.estimate <= b.rep + 1e-9, "estimate cannot exceed representative"


def partition_stats(
    records: RecordList, break_indices: Sequence[int]
) -> Tuple[List[float], List[float], List[float]]:
    """Per-bucket (reps, probs, estimates) of one partition of ``records``.

    Three bulk reads of the prefix-sum buffers at the bucket ends, fed
    to :func:`bucket_stats` — O(K) for K buckets, independent of the
    record count.
    """
    idx = np.asarray(break_indices, dtype=np.intp)
    values, _, sp, svp = records._rows()
    return bucket_stats(
        sp[idx].tolist(),
        svp[idx].tolist(),
        values[idx].tolist(),
        float(sp[len(records) - 1]),
    )


def bucket_stats(
    sig_at: List[float], sigval_at: List[float], reps: List[float], total_sig: float
) -> Tuple[List[float], List[float], List[float]]:
    """The three numbers of every bucket (Section IV-A), from the
    significance / significance-times-value prefix sums and the record
    values read at the ascending bucket ends.

    The one place they are derived: :func:`partition_stats` reads the
    buffers for it, the Exhaustive-Bucketing scorer passes the slice of
    its bulk read that belongs to the winning configuration.  ``reps``
    is returned as given.

    A bucket whose significance difference is exactly 0.0 (its records'
    significances vanished in the prefix-sum rounding) gets probability
    0.0 and its representative as the estimate.
    """
    probs: List[float] = []
    estimates: List[float] = []
    below_sig = 0.0
    below_sigval = 0.0
    for s, sv, rep in zip(sig_at, sigval_at, reps):
        sig = s - below_sig
        if sig == 0.0:
            estimate = rep
        else:
            estimate = (sv - below_sigval) / sig
            if estimate > rep:
                # Prefix-sum cancellation can push the weighted mean a
                # few ulps past the bucket max; it is a mean of values
                # that are all <= rep, so clamp.
                estimate = rep
        probs.append(sig / total_sig)
        estimates.append(estimate)
        below_sig = s
        below_sigval = sv
    return reps, probs, estimates
