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
re-scanning per candidate).  Pure-Python reference implementations are
kept here and cross-checked by the test suite.

The greedy kernel is split in two so the search can share work between
segments: :func:`split_anchor` builds the arrays that depend only on a
segment's lower end, :func:`anchored_split_costs` the rest.  Both read
the record store's live buffers as slices (no gathers, no snapshot
copies) and keep the four-case formula's operation order exactly —
``tests/core/test_greedy_differential.py`` holds them to the bits of the
implementation they replaced.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.records import RecordList

__all__ = [
    "SplitAnchor",
    "split_anchor",
    "anchored_split_costs",
    "greedy_split_costs",
    "greedy_split_cost_reference",
    "exhaustive_cost",
    "exhaustive_cost_reference",
    "expected_waste_table",
]


# ---------------------------------------------------------------------------
# Greedy Bucketing cost (compute_greedy_cost in Algorithm 1)
# ---------------------------------------------------------------------------

#: ``(w1, sv1, v_lo, rep1 - v_lo)`` of a segment; see :func:`split_anchor`.
SplitAnchor = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def split_anchor(records: RecordList, lo: int, hi: int) -> SplitAnchor:
    """The low-bucket arrays of segment ``[lo, hi]``, one entry per candidate.

    ``(w1, sv1, v_lo, rep1 - v_lo)``: significance, significance*value
    and weighted mean of ``[lo, i]``, and the low bucket's own waste.
    They depend on ``lo`` and the candidate ``i`` only, never on ``hi``,
    so the anchor of ``[lo, hi]`` cut to its first ``b - lo + 1`` entries
    *is* the anchor of the left child ``[lo, b]`` — the greedy search
    passes it down instead of recomputing it.

    Reads the record store's live buffers as slices; for ``lo == 0`` the
    first two arrays are views of them (``x - 0.0`` is ``x``), so an
    anchor must not outlive the next mutation of ``records``.
    """
    end = hi + 1
    sp = records._sp_buf
    svp = records._svp_buf
    if lo > 0:
        w1 = sp[lo:end] - sp[lo - 1]
        sv1 = svp[lo:end] - svp[lo - 1]
    else:
        w1 = sp[:end]
        sv1 = svp[:end]
    rep1 = records._values_buf[lo:end]
    if w1[0] > 0.0:                              # w1 only grows with i
        v_lo = sv1 / w1
    else:
        # Leading significances vanished against the prefix sum below
        # ``lo``: such a low bucket has probability 0 and, as in
        # ``partition_stats``, its representative as the estimate.
        v_lo = np.divide(sv1, w1, out=rep1.copy(), where=w1 > 0.0)
    return w1, sv1, v_lo, rep1 - v_lo


def anchored_split_costs(
    records: RecordList, lo: int, hi: int, anchor: SplitAnchor
) -> np.ndarray:
    """:func:`greedy_split_costs` given the anchor of ``[lo, hi']``, ``hi' >= hi``.

    Every array below is produced by the same IEEE operations, on the
    same operands, in the same order as the four-case formula written
    out term by term — ``((lolo + lohi) + hilo) + hihi`` with
    ``p1 * p2`` computed once (``p2 * p1`` is the same double) — so the
    result is bit-identical to it; only temporaries are saved, by
    accumulating in place.  Re-associating the sum would change last
    bits and flip near-tied argmins.
    """
    m = hi - lo + 1
    w1, sv1, v_lo, waste_lo = (array[:m] for array in anchor)
    values = records._values_buf
    rep1 = values[lo : hi + 1]
    rep2 = values[hi]
    total_sig = w1[-1]
    if total_sig == 0.0:
        # The whole segment vanished against the prefix sum below ``lo``:
        # no candidate carries any probability, so none costs anything.
        return np.zeros(m)
    w2 = total_sig - w1                          # significance of [i+1, hi]
    sv2 = sv1[-1] - sv1
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
    costs *= waste_lo                            # p1 * p1 * (rep1 - v_lo)
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


def greedy_split_costs(records: RecordList, lo: int, hi: int) -> np.ndarray:
    """Expected waste for every candidate break point in ``[lo, hi]``.

    Returns an array ``costs`` with ``costs[i - lo]`` = the expected
    resource waste of the next task if the segment ``[lo, hi]`` is broken
    into buckets ``[lo, i]`` and ``[i+1, hi]``.  The entry for ``i == hi``
    is the no-split (single bucket) cost, matching Algorithm 1's "if
    break_idx == hi then return [hi]" convention.

    All candidates are evaluated in O(hi - lo) total using the record
    list's significance prefix sums.
    """
    if not (0 <= lo <= hi < len(records)):
        raise IndexError(f"segment [{lo}, {hi}] out of bounds for {len(records)} records")
    return anchored_split_costs(records, lo, hi, split_anchor(records, lo, hi))


def greedy_split_cost_reference(records: RecordList, lo: int, i: int, hi: int) -> float:
    """Scalar reference for :func:`greedy_split_costs` (tests only).

    Computes the cost of breaking ``[lo, hi]`` at record ``i`` directly
    from the paper's four-case formula, without prefix sums.
    """
    if not (lo <= i <= hi):
        raise IndexError(f"break index {i} outside segment [{lo}, {hi}]")
    rep1 = records.max_value(lo, i)
    rep2 = records.max_value(lo, hi)
    w1 = records.sig_sum(lo, i)
    total = records.sig_sum(lo, hi)
    p1 = w1 / total
    v_lo = records.weighted_mean(lo, i)
    if i == hi:
        return rep1 - v_lo
    p2 = 1.0 - p1
    v_hi = records.weighted_mean(i + 1, hi)
    return (
        p1 * p1 * (rep1 - v_lo)
        + p1 * p2 * (rep2 - v_lo)
        + p2 * p1 * (rep1 + rep2 - v_hi)
        + p2 * p2 * (rep2 - v_hi)
    )


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
