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
reuses the break of every segment below the inserts since the last
search, and of a segment shifted up by them while its certificate still
holds.  :func:`greedy_break_indices` is the search with an empty memo.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import (
    BucketingAlgorithm,
    RngSource,
    check_max_buckets,
    register_algorithm,
)
from repro.core.cost import greedy_split_costs
from repro.core.records import RecordList

__all__ = [
    "GreedyBucketing",
    "GreedySplitMemo",
    "greedy_break_indices",
    "greedy_break_indices_literal",
]


#: What settled a segment with one candidate: ``(h[j], second, T, w1[0],
#: T - w1[m-2])``, the closed form's minimum and runner-up and the three
#: significance sums the margin reads.
Certificate = Tuple[float, float, float, float, float]

#: ``{(lo, hi): (break - lo, certificate or None)}`` — the argmin of every
#: segment a search split or declared whole, keyed by the segment's
#: inclusive bounds.  Segments the kernel settled carry no certificate.
SplitMemo = Dict[Tuple[int, int], Tuple[int, Optional[Certificate]]]


#: The relative and absolute rounding error of one float64 operation.
_U, _ETA = 2.0**-53, 2.0**-1075

#: Every integer below this is a float64, so integral significances
#: summing below it make every prefix sum, and every difference of two,
#: exact.
_EXACT_LIMIT = 2.0**53

#: Inserts between two searches past which the memo is dropped: mapping
#: a segment back costs one step per insert, and the next search then
#: scans everything once instead.
_MAX_PENDING = 64


def _low_prefix(records: RecordList, lo: int, hi: int) -> np.ndarray:
    """``w1[k]``, the significance of ``[lo, lo + k]``, for ``k <= hi - lo``.

    Cut to its first ``b - lo + 1`` entries it is the left child
    ``[lo, b]``'s.  At ``lo == 0`` it is a view of the live buffer.
    """
    sp = records._sp_buf
    return sp[lo : hi + 1] - sp[lo - 1] if lo > 0 else sp[: hi + 1]


def _margin(
    records: RecordList, lo: int, hi: int, total: float, first: float, last_share: float
) -> float:
    """The closed form's rounding margin on ``[lo, hi]`` (docs/ALGORITHMS.md §3).

    ``total``, ``first`` and ``last_share`` are ``T``, ``w1[0]`` and
    ``T - w1[m-2]``.  An empty low or high bucket or an overflowed ``T``
    give ``inf``, an overflowed ``S`` gives ``inf`` or NaN: every such
    margin fails both ``margin < inf`` and ``second > h[j] + margin``.
    """
    if not (0.0 < first and 0.0 < last_share < inf):
        return inf
    svp = records._svp_buf
    s = float(svp[hi]) - float(svp[lo - 1]) if lo > 0 else float(svp[hi])
    rep2 = float(records._values_buf[hi])
    return _U * (35.0 * rep2 + 27.0 * (s / total)) + 2.0 * _ETA * (
        18.0 * rep2 + 7.0 * (s / first + s / last_share) + 9.0
    )


def _scan(
    records: RecordList, lo: int, hi: int, w1: np.ndarray
) -> Tuple[int, Optional[Certificate]]:
    """The first argmin of ``greedy_split_costs(records, lo, hi)``, and its certificate.

    ``w1`` is the low prefix of ``[lo, hi']``, ``hi' >= hi``.  The cost
    is exactly ``rep2 - S/T + h``, ``h = p1 * (rep1 - p1 * rep2)``; any
    candidate that could tie or beat the kernel's float minimum has ``h``
    within ``margin`` of ``min h`` (docs/ALGORITHMS.md §3).  When the
    runner-up lies beyond it the minimum is the answer, certified by
    :data:`Certificate`; otherwise the kernel settles the candidates
    within it on their span.  An empty low or high bucket, an overflowed
    ``T`` or a non-finite margin take the kernel whole.
    """
    m = hi - lo + 1
    total = float(w1[m - 1])
    first = float(w1[0])
    last_share = total - float(w1[m - 2])
    margin = _margin(records, lo, hi, total, first, last_share)
    if margin < inf:
        values = records._values_buf
        p1 = np.divide(w1[:m], total)
        h = np.multiply(p1, float(values[hi]))
        np.subtract(values[lo : hi + 1], h, out=h)
        h *= p1
        j = int(h.argmin())
        best = float(h[j])
        h[j] = inf
        second = float(h.min())
        if second > best + margin:
            return j, (best, second, total, first, last_share)
        h[j] = best
        near = np.flatnonzero(h <= best + margin)
        a, b = int(near[0]), int(near[-1])
        return a + int(greedy_split_costs(records, lo, hi, lo + a, lo + b).argmin()), None
    return int(greedy_split_costs(records, lo, hi).argmin()), None


def _recall(
    records: RecordList,
    lo: int,
    hi: int,
    memo: SplitMemo,
    inserts: List[int],
    exact: bool,
) -> Optional[Tuple[int, Optional[Certificate]]]:
    """The memo entry that still decides ``[lo, hi]``, or ``None`` to scan it.

    ``[lo, hi]`` is mapped back through ``inserts`` (positions, oldest
    first), latest first: below an insert it is unchanged, above it it
    was one lower, and holding it it is dirty.  A segment unchanged by
    every insert reads the same bits as when it was memoized.  A shifted
    one reads the same records; under exact prefix sums its ``h`` is
    bit-identical too, so its certificate decides it if the runner-up
    still clears the margin re-read from today's ``S``
    (docs/ALGORITHMS.md §3).
    """
    old_lo, old_hi = lo, hi
    for pos in reversed(inserts):
        if old_hi < pos:
            continue
        if old_lo <= pos:
            return None
        old_lo -= 1
        old_hi -= 1
    entry = memo.get((old_lo, old_hi))
    if entry is None or old_lo == lo:
        return entry
    cert = entry[1]
    if not exact or cert is None:
        return None
    best, second, total, first, last_share = cert
    if second > best + _margin(records, lo, hi, total, first, last_share):
        return entry
    return None


def _search(
    records: RecordList,
    lo: int,
    hi: int,
    max_buckets: Optional[int],
    memo: SplitMemo,
    inserts: List[int],
    exact: bool,
) -> Tuple[List[int], SplitMemo]:
    """Algorithm 1 over ``[lo, hi]``, taking from ``memo`` what :func:`_recall` allows.

    ``memo`` is the last search's, ``inserts`` the positions inserted
    since and ``exact`` whether the prefix sums are exact integers.
    Returns the sorted bucket ends and the entries of every segment
    examined, which is the memo for the next search.
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
        entry = _recall(records, seg_lo, seg_hi, memo, inserts, exact) if memo else None
        if entry is None:
            if w1 is None:
                w1 = _low_prefix(records, seg_lo, seg_hi)
            entry = _scan(records, seg_lo, seg_hi, w1)
        seen[seg_lo, seg_hi] = entry
        break_idx = seg_lo + entry[0]
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
    return _search(records, lo, hi, max_buckets, {}, [], False)[0]


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
    prefix sums ``sp[lo-1..hi]``, ``svp[lo-1..hi]``.  The engine keeps
    the last search's memo and the positions inserted since, and
    :func:`_recall` maps each segment back through them:

    * ``RecordList._insert`` at ``pos`` writes no buffer entry below
      ``pos``, so a segment below every insert reads the same bits and
      takes its stored break, under any significances;
    * a segment above an insert holds the same records one index
      higher, but the suffix add re-rounded its prefix sums.  While
      every significance is integral and their total is below 2**53
      (:attr:`exact`) the significance sums cannot round, so the
      segment's ``h`` is bit-identical and its certificate decides it
      whenever the runner-up still clears the margin re-read from the
      re-rounded ``svp``;
    * a segment holding an insert is scanned.

    A compaction of a bounded store rebuilds the prefix sums from
    scratch and clears the memo.  The memo holds argmins only, which a
    ``max_buckets`` cap does not change (the cap decides *whether* a
    segment is scanned, not what the scan returns).

    Nothing is serialized: a restored engine starts with an empty memo
    and its first search scans every segment, with the same result.
    """

    __slots__ = ("_records", "_max_buckets", "_memo", "_inserts", "_exact")

    def __init__(self, records: RecordList, max_buckets: Optional[int] = None) -> None:
        self._records = records
        self._max_buckets = max_buckets
        self._memo: SplitMemo = {}
        self._inserts: List[int] = []
        # From the records: engines are built over non-empty stores too
        # (a restore), so exactness cannot be assumed.
        self._track_exactness(None)

    @property
    def pending(self) -> Tuple[int, ...]:
        """Positions inserted since the last search, oldest first."""
        return tuple(self._inserts)

    @property
    def exact(self) -> bool:
        """Whether every significance is integral and their total below 2**53."""
        return self._exact

    def _track_exactness(self, pos: Optional[int]) -> None:
        """Update :attr:`exact` for the record inserted at ``pos``, or from every
        record when ``pos`` is ``None`` (construction, compaction)."""
        records = self._records
        if pos is None:
            sigs = records._sigs_buf[: len(records)]
            self._exact = (
                bool(np.array_equal(sigs, np.floor(sigs)))
                and records.total_significance() < _EXACT_LIMIT
            )
        elif self._exact:
            # Once inexact, only a compaction can make the sums exact again.
            self._exact = (
                records._sigs_buf.item(pos).is_integer()
                and records._sp_buf.item(records._n - 1) < _EXACT_LIMIT
            )

    def consume_stats(self, breaks: List[int]) -> None:
        """No stats to hand over: the search scores splits, not buckets."""
        return None

    def observe(self, value: float, pos: Optional[int]) -> None:
        """Fold one :meth:`RecordList.add` outcome into the pending inserts.

        ``pos`` is what ``add`` returned: the index the record landed
        at, or ``None`` when the store compacted, which clears the memo.
        The inserted ``value`` is the other half of the engine protocol;
        the memo does not read it.
        """
        if pos is None or len(self._inserts) == _MAX_PENDING:
            self._memo = {}
            self._inserts = []
        elif self._memo:
            self._inserts.append(pos)
        self._track_exactness(pos)

    def break_indices(self) -> Optional[List[int]]:
        """Current break indices, identical to :func:`greedy_break_indices`."""
        n = len(self._records)
        if n == 0:
            return None
        ends, self._memo = _search(
            self._records, 0, n - 1, self._max_buckets, self._memo, self._inserts, self._exact
        )
        self._inserts = []
        return ends


@register_algorithm
class GreedyBucketing(BucketingAlgorithm):
    """The Greedy Bucketing allocation algorithm.

    Parameters
    ----------
    rng:
        Source of randomness for the probabilistic bucket draws: a
        generator, or an ``int`` seed it is built from on the first draw.
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
        rng: RngSource = None,
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
