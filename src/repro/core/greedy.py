"""Greedy Bucketing (Algorithm 1 of the paper).

Greedy Bucketing answers one question per segment of the sorted record
list: *should this segment be broken into exactly two buckets, and if so
where?*  It scans every candidate break point, scoring each with the
four-case expected-waste formula of Section IV-B
(:func:`repro.core.cost.greedy_split_costs`).  If keeping the segment as
a single bucket (the candidate at the segment's upper end) wins, the
segment stays whole; otherwise the segment is split at the winner and
the procedure recurses into both halves.  Each split is therefore a
local optimum of the expected local resource waste.

The recursion is realized with an explicit stack: bucket counts stay
small in practice (the paper reports rarely above 10), but adversarial
record lists could split down to singleton segments and Python's
recursion limit must not decide the outcome.

There is one search, :func:`_search`, and its break indices are exactly
the four-case kernel's.  It is cheap without changing one of them:
:func:`_scan` ranks candidates by the closed form left once the weighted
means cancel, running the kernel only on near-ties (docs/ALGORITHMS.md
§3); a left child inherits its parent's low prefix; and
:class:`GreedySplitMemo`, the engine :class:`GreedyBucketing` runs,
re-scans only segments that reach the lowest insert since the last
search.  :func:`greedy_break_indices` is the search with an empty memo.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import BucketingAlgorithm, check_max_buckets, register_algorithm
from repro.core.cost import greedy_split_costs
from repro.core.records import RecordList

__all__ = [
    "GreedyBucketing",
    "GreedySplitMemo",
    "greedy_break_indices",
    "greedy_break_indices_literal",
]


#: ``{(lo, hi): break index}`` — the argmin of every segment a search split
#: or declared whole, keyed by the segment's inclusive bounds.
SplitMemo = Dict[Tuple[int, int], int]


#: The relative and absolute rounding error of one float64 operation.
_U, _ETA = 2.0**-53, 2.0**-1075


def _low_prefix(records: RecordList, lo: int, hi: int) -> np.ndarray:
    """``w1[k]``, the significance of ``[lo, lo + k]``, for ``k <= hi - lo``.

    Cut to its first ``b - lo + 1`` entries it is the left child
    ``[lo, b]``'s.  At ``lo == 0`` it is a view of the live buffer.
    """
    sp = records._sp_buf
    return sp[lo : hi + 1] - sp[lo - 1] if lo > 0 else sp[: hi + 1]


def _scan(records: RecordList, lo: int, hi: int, w1: np.ndarray) -> int:
    """``lo`` plus the first argmin of ``greedy_split_costs(records, lo, hi)``.

    ``w1`` is the low prefix of ``[lo, hi']``, ``hi' >= hi``.  The cost
    is exactly ``rep2 - S/T + h``, ``h = p1 * (rep1 - p1 * rep2)``; any
    candidate that could tie or beat the kernel's float minimum has ``h``
    within ``margin`` of ``min h`` (docs/ALGORITHMS.md §3).  One such is
    the answer; several go to the kernel on their span.  An empty low or
    high bucket, an overflowed ``T`` or an infinite margin take the
    kernel whole.
    """
    m = hi - lo + 1
    total = float(w1[m - 1])
    first = float(w1[0])
    last_share = total - float(w1[m - 2])
    if 0.0 < first and 0.0 < last_share < inf:
        svp = records._svp_buf
        s = float(svp[hi]) - float(svp[lo - 1]) if lo > 0 else float(svp[hi])
        values = records._values_buf
        rep2 = float(values[hi])
        margin = _U * (35.0 * rep2 + 27.0 * (s / total)) + 2.0 * _ETA * (
            18.0 * rep2 + 7.0 * (s / first + s / last_share) + 9.0
        )
        if margin < inf:
            p1 = np.divide(w1[:m], total)
            h = np.multiply(p1, rep2)
            np.subtract(values[lo : hi + 1], h, out=h)
            h *= p1
            j = int(h.argmin())
            near = np.flatnonzero(h <= float(h[j]) + margin)
            if near.size == 1:
                return lo + j
            a, b = lo + int(near[0]), lo + int(near[-1])
            return a + int(greedy_split_costs(records, lo, hi, a, b).argmin())
    return lo + int(greedy_split_costs(records, lo, hi).argmin())


def _search(
    records: RecordList,
    lo: int,
    hi: int,
    max_buckets: Optional[int],
    memo: SplitMemo,
    clean: int,
) -> Tuple[List[int], SplitMemo]:
    """Algorithm 1 over ``[lo, hi]``, trusting ``memo`` below index ``clean``.

    A segment whose upper end lies below ``clean`` takes its break from
    ``memo`` when it is there; every other segment is scanned.  Returns
    the sorted bucket ends and the breaks of every segment examined,
    which is the memo for the next search.
    """
    budget = inf if max_buckets is None else check_max_buckets(max_buckets)

    ends: List[int] = []
    seen: SplitMemo = {}
    # Work-list of segments still to be examined, each with the low
    # prefix it inherits (a left child shares ``lo`` with its parent).
    # Without a cap each segment's decision is independent; with one the
    # LIFO order — left child first — decides who gets to split.
    stack: List[Tuple[int, int, Optional[np.ndarray]]] = [(lo, hi, None)]
    while stack:
        seg_lo, seg_hi, w1 = stack.pop()
        if seg_lo == seg_hi:
            ends.append(seg_hi)
            continue
        # Splitting this segment grows the final bucket count by one
        # (current segments on the stack + emitted ends are all buckets
        # or bucket sources).  Respect the optional cap.
        if len(ends) + len(stack) + 2 > budget:
            ends.append(seg_hi)
            continue
        key = (seg_lo, seg_hi)
        break_idx = memo.get(key) if seg_hi < clean else None
        if break_idx is None:
            if w1 is None:
                w1 = _low_prefix(records, seg_lo, seg_hi)
            break_idx = _scan(records, seg_lo, seg_hi, w1)
        seen[key] = break_idx
        if break_idx == seg_hi:
            # One bucket over the whole segment is (locally) optimal.
            ends.append(seg_hi)
            continue
        stack.append((break_idx + 1, seg_hi, None))
        stack.append((seg_lo, break_idx, w1))

    ends.sort()
    return ends, seen


def greedy_break_indices(
    records: RecordList,
    lo: int = 0,
    hi: Optional[int] = None,
    max_buckets: Optional[int] = None,
) -> List[int]:
    """Compute Greedy Bucketing's bucket-end indices for ``records``.

    Follows Algorithm 1: for each segment, pick the candidate break with
    minimum expected waste; the segment's own upper end encodes
    "don't split".  ``max_buckets`` optionally caps the partition size
    (not part of the paper's algorithm; used by the ablation study
    E-X2) — segments stop splitting once the cap is reached.  The
    search is depth-first, left child first, so the cap is spent on the
    lowest values first: a segment's whole left subtree may split before
    its right sibling is looked at.

    Returns the sorted inclusive upper-end index of each bucket; the last
    entry is always ``hi``.
    """
    if hi is None:
        hi = len(records) - 1
    if not (0 <= lo <= hi < len(records)):
        raise IndexError(f"segment [{lo}, {hi}] out of bounds for {len(records)} records")
    return _search(records, lo, hi, max_buckets, {}, 0)[0]


def greedy_break_indices_literal(
    records: RecordList, lo: int = 0, hi: Optional[int] = None
) -> List[int]:
    """Algorithm 1 exactly as written: O(n) cost per candidate.

    The paper's implementation recomputes ``compute_greedy_cost`` from
    the records for every candidate break point, making each segment
    scan O(n^2) — the cause of Table I's near-half-second allocations at
    5000 records.  This literal transcription exists to reproduce that
    measurement;  :func:`greedy_break_indices` computes identical break
    points using prefix sums (O(n) per scan) and is what the
    :class:`GreedyBucketing` algorithm actually runs.
    """
    if hi is None:
        hi = len(records) - 1
    if not (0 <= lo <= hi < len(records)):
        raise IndexError(f"segment [{lo}, {hi}] out of bounds for {len(records)} records")
    values = [r.value for r in records]
    sigs = [r.significance for r in records]

    def cost_of_break(seg_lo: int, i: int, seg_hi: int) -> float:
        w1 = sv1 = 0.0
        for j in range(seg_lo, i + 1):
            w1 += sigs[j]
            sv1 += sigs[j] * values[j]
        w2 = sv2 = 0.0
        for j in range(i + 1, seg_hi + 1):
            w2 += sigs[j]
            sv2 += sigs[j] * values[j]
        total = w1 + w2
        p1, v_lo, rep1 = w1 / total, sv1 / w1, values[i]
        if w2 == 0.0:
            return rep1 - v_lo
        p2, v_hi, rep2 = w2 / total, sv2 / w2, values[seg_hi]
        return (
            p1 * p1 * (rep1 - v_lo)
            + p1 * p2 * (rep2 - v_lo)
            + p2 * p1 * (rep1 + rep2 - v_hi)
            + p2 * p2 * (rep2 - v_hi)
        )

    ends: List[int] = []
    stack = [(lo, hi)]
    while stack:
        seg_lo, seg_hi = stack.pop()
        if seg_lo == seg_hi:
            ends.append(seg_hi)
            continue
        min_cost, break_idx = float("inf"), seg_hi
        for i in range(seg_lo, seg_hi + 1):
            cost = cost_of_break(seg_lo, i, seg_hi)
            if cost < min_cost:
                min_cost, break_idx = cost, i
        if break_idx == seg_hi:
            ends.append(seg_hi)
            continue
        stack.append((break_idx + 1, seg_hi))
        stack.append((seg_lo, break_idx))
    ends.sort()
    return ends


class GreedySplitMemo:
    """The greedy search over one live record list, re-scanning only what moved.

    A segment's break is a pure function of ``values[lo..hi]`` and the
    prefix sums ``sp[lo-1..hi]``, ``svp[lo-1..hi]``, and
    ``RecordList._insert`` at index ``pos`` leaves every buffer entry
    below ``pos`` untouched.  So the engine keeps the breaks of the last
    search and ``clean``, the lowest insert index since: a segment with
    ``hi < clean`` reads bit-for-bit the same inputs as last time and
    takes its stored break, everything else is scanned.  Segments right
    of an insert are *not* reusable even though their records are the
    same — their prefix sums were re-rounded by the suffix add.

    A compaction of a bounded store rebuilds the prefix sums from
    scratch (``_rebuild_prefixes``) and drops ``clean`` to 0.  The memo
    holds argmins only, which a ``max_buckets`` cap does not change (the
    cap decides *whether* a segment is scanned, not what the scan
    returns).

    Nothing is serialized: a restored engine starts with an empty memo
    and its first search scans every segment, with the same result.
    """

    __slots__ = ("_records", "_max_buckets", "_memo", "_clean")

    def __init__(self, records: RecordList, max_buckets: Optional[int] = None) -> None:
        self._records = records
        self._max_buckets = max_buckets
        self._memo: SplitMemo = {}
        self._clean = 0

    @property
    def clean(self) -> int:
        """Memo entries with ``hi`` below this index are still exact."""
        return self._clean

    def consume_stats(self, breaks: List[int]) -> None:
        """No stats to hand over: the search scores splits, not buckets."""
        return None

    def observe(self, value: float, pos: Optional[int]) -> None:
        """Fold one :meth:`RecordList.add` outcome into ``clean``.

        ``pos`` is what ``add`` returned: the index the record landed
        at, or ``None`` when the store compacted.  The inserted
        ``value`` is the other half of the engine protocol; the memo
        does not read it.
        """
        if pos is None:
            self._clean = 0
        elif pos < self._clean:
            self._clean = pos

    def break_indices(self) -> Optional[List[int]]:
        """Current break indices, identical to :func:`greedy_break_indices`."""
        n = len(self._records)
        if n == 0:
            return None
        ends, self._memo = _search(
            self._records, 0, n - 1, self._max_buckets, self._memo, self._clean
        )
        self._clean = n
        return ends


@register_algorithm
class GreedyBucketing(BucketingAlgorithm):
    """The Greedy Bucketing allocation algorithm.

    Parameters
    ----------
    rng:
        Source of randomness for the probabilistic bucket draws.
    record_capacity:
        Optional bound on retained records: the insert that exceeds
        it drops the lowest-significance records
        (:mod:`repro.core.records`).  Scaling study only; the paper
        retains all records.
    max_buckets:
        Optional cap on the number of buckets (ablation hook; unset in
        the paper's configuration).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.greedy import GreedyBucketing
    >>> gb = GreedyBucketing(rng=np.random.default_rng(0))
    >>> for task_id, mem in enumerate([200.0] * 5 + [1000.0] * 5):
    ...     gb.update(mem, significance=task_id + 1, task_id=task_id)
    >>> sorted(b.rep for b in gb.state.buckets)
    [200.0, 1000.0]
    """

    name = "greedy_bucketing"

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        record_capacity: Optional[int] = None,
        max_buckets: Optional[int] = None,
    ) -> None:
        # Set before super().__init__: the base constructor calls the
        # _make_partition_engine hook, which reads it.
        self._max_buckets = None if max_buckets is None else check_max_buckets(max_buckets)
        super().__init__(rng=rng, record_capacity=record_capacity)

    def _make_partition_engine(self) -> GreedySplitMemo:
        return GreedySplitMemo(self._records, self._max_buckets)

    def compute_break_indices(self, records: RecordList) -> List[int]:
        assert records is self._records, "the engine is bound to this algorithm's own records"
        breaks = self._partition_engine.break_indices()
        if breaks is None:
            raise ValueError("cannot compute break indices for an empty record list")
        return breaks
