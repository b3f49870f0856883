"""Reference greedy search: the from-scratch scan ``repro.core`` replaced.

Test-only.  These are ``repro.core.cost.greedy_split_costs`` and
``repro.core.greedy.greedy_break_indices`` as they stood before the
slice-based kernel and the clean-prefix split memo, moved here verbatim
(functions renamed): every search gathers through ``np.arange`` from the
record list's snapshot views and scans every segment from scratch.
The one later edit, made in both places together: a bucket whose
significance rounds to zero contributes 0 instead of scoring NaN.
``test_greedy_differential.py`` drives the shipped search and this one
over the same record stores and requires identical break indices and
bit-identical cost arrays.  ``greedy_split_cost_reference`` is the
four-case formula for one candidate, through range queries only.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.records import RecordList

__all__ = ["reference_split_costs", "reference_break_indices", "greedy_split_cost_reference"]


def reference_split_costs(records: RecordList, lo: int, hi: int) -> np.ndarray:
    """Expected waste for every candidate break point in ``[lo, hi]``."""
    if not (0 <= lo <= hi < len(records)):
        raise IndexError(f"segment [{lo}, {hi}] out of bounds for {len(records)} records")

    values = records.values
    sp = records.sig_prefix
    svp = records.sigval_prefix
    base_sig = sp[lo - 1] if lo > 0 else 0.0
    base_sigval = svp[lo - 1] if lo > 0 else 0.0

    idx = np.arange(lo, hi + 1)
    w1 = sp[idx] - base_sig                      # significance of [lo, i]
    sv1 = svp[idx] - base_sigval                 # sig*value of [lo, i]
    total_sig = sp[hi] - base_sig
    total_sigval = svp[hi] - base_sigval
    w2 = total_sig - w1                          # significance of [i+1, hi]
    sv2 = total_sigval - sv1

    rep1 = values[idx]
    rep2 = values[hi]

    # A bucket whose significance rounded to zero against the prefix
    # sums has probability 0 and contributes nothing: a weightless
    # segment costs 0 at every candidate, a weightless low bucket takes
    # its representative as the estimate (as ``partition_stats`` does).
    if total_sig == 0.0:
        return np.zeros(len(idx))
    p1 = w1 / total_sig
    p2 = w2 / total_sig
    v_lo = np.where(w1 > 0.0, sv1 / np.where(w1 > 0.0, w1, 1.0), rep1)
    v_hi = np.where(w2 > 0.0, sv2 / np.where(w2 > 0.0, w2, 1.0), 0.0)

    # The four cases of Section IV-B.  Terms involving the (possibly
    # empty) high bucket carry a p2 factor, which is exactly zero at
    # i == hi, so the formula degenerates to the one-bucket cost
    # rep - weighted_mean there.
    w_lolo = p1 * p1 * (rep1 - v_lo)
    w_lohi = p1 * p2 * (rep2 - v_lo)
    w_hilo = p2 * p1 * (rep1 + rep2 - v_hi)
    w_hihi = p2 * p2 * (rep2 - v_hi)
    return w_lolo + w_lohi + w_hilo + w_hihi


def reference_break_indices(
    records: RecordList,
    lo: int = 0,
    hi: Optional[int] = None,
    max_buckets: Optional[int] = None,
) -> List[int]:
    """Greedy Bucketing's bucket-end indices, every segment scanned."""
    if hi is None:
        hi = len(records) - 1
    if not (0 <= lo <= hi < len(records)):
        raise IndexError(f"segment [{lo}, {hi}] out of bounds for {len(records)} records")

    ends: List[int] = []
    # Work-list of segments still to be examined.  Processing order does
    # not affect the result (each segment's decision is independent), but
    # a LIFO stack keeps memory at O(depth).
    stack: List[tuple] = [(lo, hi)]
    budget = max_buckets if max_buckets is not None else float("inf")
    if budget < 1:
        raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")

    while stack:
        seg_lo, seg_hi = stack.pop()
        if seg_lo == seg_hi:
            ends.append(seg_hi)
            continue
        # Splitting this segment grows the final bucket count by one
        # (current segments on the stack + emitted ends are all buckets
        # or bucket sources).  Respect the optional cap.
        prospective = len(ends) + len(stack) + 2
        if prospective > budget:
            ends.append(seg_hi)
            continue
        costs = reference_split_costs(records, seg_lo, seg_hi)
        break_idx = seg_lo + int(np.argmin(costs))
        if break_idx == seg_hi:
            # One bucket over the whole segment is (locally) optimal.
            ends.append(seg_hi)
            continue
        stack.append((break_idx + 1, seg_hi))
        stack.append((seg_lo, break_idx))

    ends.sort()
    return ends


def greedy_split_cost_reference(records: RecordList, lo: int, i: int, hi: int) -> float:
    """The cost of breaking ``[lo, hi]`` at record ``i``, straight from the
    paper's four-case formula through the record list's range queries."""
    if not (lo <= i <= hi):
        raise IndexError(f"break index {i} outside segment [{lo}, {hi}]")
    rep1 = records.max_value(lo, i)
    rep2 = records.max_value(lo, hi)
    p1 = records.sig_sum(lo, i) / records.sig_sum(lo, hi)
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
