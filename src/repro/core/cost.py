"""Expected-resource-waste cost kernels.

Both bucketing algorithms score candidate bucket configurations by the
*expected resource waste of the next task*, assuming it behaves like the
completed tasks on record:

* **Greedy cost** (Section IV-B): for a sorted segment of records broken
  into exactly two buckets at a candidate record, sum the four
  (task-falls-in x algorithm-chooses) cases.  Mis-allocation low->high
  wastes internal fragmentation; high->low wastes the failed low
  allocation plus the retried high allocation.
* **Exhaustive cost** (Section IV-C): for an arbitrary list of buckets,
  fill the table ``T[i][j]`` = expected waste when the task falls in
  bucket *i* and the algorithm first chooses bucket *j*; for ``j < i``
  the task fails and is re-drawn from the renormalized higher buckets,
  so the table is filled from the last column backwards.

The vectorized implementations carry the algorithms' hot loops (the
hpc-parallel optimization guides: vectorize with prefix sums rather than
re-scanning per candidate); the tests cross-check them against scalar
references.  The greedy *search* runs the four-case kernel only to
settle near-ties: the weighted means cancel out of the four-case sum,
and :mod:`repro.core.greedy` scans the closed form that is left
(docs/ALGORITHMS.md §3).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.records import RecordList

__all__ = [
    "greedy_split_costs",
    "exhaustive_cost",
    "exhaustive_cost_reference",
    "expected_waste_table",
]


# ---------------------------------------------------------------------------
# Greedy Bucketing cost (compute_greedy_cost in Algorithm 1)
# ---------------------------------------------------------------------------


def greedy_split_costs(
    records: RecordList,
    lo: int,
    hi: int,
    first: Optional[int] = None,
    last: Optional[int] = None,
) -> np.ndarray:
    """Expected waste for every candidate break point in ``[lo, hi]``.

    Returns an array ``costs`` with ``costs[i - first]`` = the expected
    resource waste of the next task if the segment ``[lo, hi]`` is broken
    into buckets ``[lo, i]`` and ``[i+1, hi]``, for the candidates ``i``
    in ``[first, last]`` (default: all of ``[lo, hi]``).  The entry for
    ``i == hi`` is the no-split (single bucket) cost, matching Algorithm
    1's "if break_idx == hi then return [hi]" convention.

    Each candidate costs O(1) from the live prefix-sum buffers, read as
    slices, and is evaluated elementwise, so its bits do not depend on
    the span.  The operations, operands and order are those of the
    four-case formula written out term by term — ``((lolo + lohi) +
    hilo) + hihi``, ``p1 * p2`` computed once — accumulated in place;
    re-associating would change last bits and flip near-tied argmins.
    """
    if not (0 <= lo <= hi < len(records)):
        raise IndexError(f"segment [{lo}, {hi}] out of bounds for {len(records)} records")
    first = lo if first is None else first
    last = hi if last is None else last
    if not (lo <= first <= last <= hi):
        raise IndexError(f"candidates [{first}, {last}] outside segment [{lo}, {hi}]")
    m = last - first + 1
    sp = records._sp_buf
    svp = records._svp_buf
    values = records._values_buf
    base_sig = sp[lo - 1] if lo > 0 else 0.0
    base_sigval = svp[lo - 1] if lo > 0 else 0.0
    total_sig = sp[hi] - base_sig
    if total_sig == 0.0:
        # The whole segment vanished against the prefix sum below ``lo``:
        # no candidate carries any probability, so none costs anything.
        return np.zeros(m)
    w1 = sp[first : last + 1] - base_sig         # significance of [lo, i]
    sv1 = svp[first : last + 1] - base_sigval    # sig*value of [lo, i]
    rep1 = values[first : last + 1]
    rep2 = values[hi]
    # A low bucket whose significance vanished against the prefix sum
    # below ``lo`` has probability 0 and, as in ``partition_stats``, its
    # representative as the estimate.
    v_lo = np.divide(sv1, w1, out=rep1.copy(), where=w1 > 0.0)
    w2 = total_sig - w1                          # significance of [i+1, hi]
    sv2 = (svp[hi] - base_sigval) - sv1
    # Weighted mean of the high bucket; it is empty (w2 == 0) at i == hi
    # and wherever the trailing significances vanish against w1.
    v_hi = np.divide(sv2, w2, out=np.zeros(m), where=w2 > 0.0)
    p1 = w1 / total_sig
    p2 = np.divide(w2, total_sig, out=w2)
    p12 = p1 * p2

    # The four cases of Section IV-B.  Terms involving the (possibly
    # empty) high bucket carry a p2 factor, which is exactly zero at
    # i == hi, so the formula degenerates to the one-bucket cost
    # rep - weighted_mean there.
    costs = np.multiply(p1, p1, out=p1)
    costs *= np.subtract(rep1, v_lo, out=w1)     # p1 * p1 * (rep1 - v_lo)
    term = np.subtract(rep2, v_lo, out=sv2)
    term *= p12                                  # p1 * p2 * (rep2 - v_lo)
    costs += term
    np.add(rep1, rep2, out=term)
    term -= v_hi
    term *= p12                                  # p2 * p1 * (rep1 + rep2 - v_hi)
    costs += term
    np.subtract(rep2, v_hi, out=term)
    p2 *= p2
    term *= p2                                   # p2 * p2 * (rep2 - v_hi)
    costs += term
    return costs


# ---------------------------------------------------------------------------
# Exhaustive Bucketing cost (compute_exhaust_cost in Algorithm 2)
# ---------------------------------------------------------------------------


def expected_waste_table(
    reps: np.ndarray, probs: np.ndarray, estimates: np.ndarray
) -> np.ndarray:
    """The N x N table ``T[i][j]`` of Section IV-C.

    ``T[i][j]`` is the expected waste when the next task's consumption
    falls within bucket *i* and the algorithm chooses bucket *j*:

    * ``j >= i``: the allocation suffices, waste is the internal
      fragmentation ``reps[j] - estimates[i]``.
    * ``j < i``: the allocation fails (waste ``reps[j]``) and the task is
      re-drawn from buckets ``j+1 .. N-1`` with renormalized
      probabilities, adding the expectation of ``T[i][k]`` over that
      suffix.  Columns are therefore filled from the last to the first.
    """
    reps = np.asarray(reps, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    n = reps.size
    if n == 0:
        raise ValueError("expected_waste_table needs at least one bucket")
    if probs.size != n or estimates.size != n:
        raise ValueError("reps, probs, estimates must have equal length")

    suffix_prob = np.concatenate([np.cumsum(probs[::-1])[::-1], [0.0]])
    table = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        # j >= i: direct internal fragmentation.
        table[i, i:] = reps[i:] - estimates[i]
        # j < i: walk right-to-left, maintaining the suffix expectation
        # S[j+1] = sum_{k > j} probs[k] * T[i][k].
        weighted_suffix = float(np.dot(probs[i:], table[i, i:]))
        for j in range(i - 1, -1, -1):
            table[i, j] = reps[j] + weighted_suffix / suffix_prob[j + 1]
            weighted_suffix += probs[j] * table[i, j]
    return table


def exhaustive_cost(
    reps: np.ndarray, probs: np.ndarray, estimates: np.ndarray
) -> float:
    """Expected waste of a bucket configuration (Section IV-C).

    ``W_B = sum_{i,j} probs[i] * probs[j] * T[i][j]`` — the task falls in
    bucket *i* with probability ``probs[i]`` and the allocator draws
    bucket *j* with probability ``probs[j]``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    table = expected_waste_table(reps, probs, estimates)
    return float(probs @ table @ probs)


def exhaustive_cost_reference(
    reps: Sequence[float], probs: Sequence[float], estimates: Sequence[float]
) -> float:
    """Naive recursive reference for :func:`exhaustive_cost` (tests only)."""
    n = len(reps)
    memo: dict = {}

    def t(i: int, j: int) -> float:
        if (i, j) in memo:
            return memo[i, j]
        if j >= i:
            result = reps[j] - estimates[i]
        else:
            denom = sum(probs[m] for m in range(j + 1, n))
            result = reps[j] + sum(
                probs[k] / denom * t(i, k) for k in range(j + 1, n)
            )
        memo[i, j] = result
        return result

    return sum(
        probs[i] * probs[j] * t(i, j) for i in range(n) for j in range(n)
    )
