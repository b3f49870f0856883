"""Exhaustive Bucketing (Algorithm 2 of the paper).

Exhaustive Bucketing scores whole bucket *configurations* rather than
individual splits: for each candidate number of buckets ``k`` it builds
one configuration, computes its expected waste with the ``T[i][j]``
table of Section IV-C (:func:`repro.core.cost.exhaustive_cost`), and
keeps the cheapest configuration seen.

Enumerating all C(N, k) break-point combinations would be exponential in
the record count, so the paper replaces ``combinations(k, L)`` with the
evenly spaced candidate scheme of Section IV-D:

1. propose ``k - 1`` candidate break *values* ``v_max * i / k``,
2. map each value down to the nearest record strictly below it,
3. drop duplicate or empty mappings.

With the bucket count capped (the paper uses ``k <= 10``, observing that
real workflows rarely need more), each allocation costs one sort-order
walk plus at most ``K`` table evaluations of size <= K x K — this is why
Table I shows Exhaustive Bucketing scaling roughly linearly while Greedy
Bucketing's recursive scans blow up.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import add
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import (
    BucketingAlgorithm,
    RngSource,
    check_max_buckets,
    register_algorithm,
)
from repro.core.buckets import bucket_stats
from repro.core.records import RecordList

__all__ = [
    "ExhaustiveBucketing",
    "IncrementalExhaustivePartition",
    "evenly_spaced_break_indices",
    "exhaustive_break_indices",
    "PAPER_MAX_BUCKETS",
]

#: The paper's cap on the bucket count (Section V-A).
PAPER_MAX_BUCKETS = 10


def evenly_spaced_break_indices(records: RecordList, k: int) -> List[int]:
    """The paper's surrogate for ``combinations(k, L)`` (Section IV-D).

    For a target of ``k`` buckets, propose candidate break values
    ``v_max * i / k`` for ``i = 1 .. k-1``, map each to the record with
    the largest value strictly below it, and deduplicate.  Returns the
    sorted inclusive bucket-end indices (always terminated by the last
    record index), which may describe fewer than ``k`` buckets when
    candidates collapse onto the same record or map below record 0.
    """
    if k < 1:
        raise ValueError(f"bucket count k must be >= 1, got {k}")
    n = len(records)
    if n == 0:
        raise ValueError("cannot compute break indices for an empty record list")
    last = n - 1
    if k == 1:
        return [last]
    values = records.values
    v_max = float(values[last])
    # All k-1 candidate values in one searchsorted: index_below(v) is
    # searchsorted(values, v, side="left") - 1, and because the
    # candidates ascend, the mapped indices are non-decreasing — keeping
    # the strictly increasing ones reproduces the one-at-a-time loop.
    candidates = v_max * np.arange(1, k, dtype=np.float64) / k
    idx = np.searchsorted(values, candidates, side="left") - 1
    idx = idx[(idx >= 0) & (idx < last)]
    if idx.size:
        keep = np.empty(idx.size, dtype=bool)
        keep[0] = True
        np.greater(idx[1:], idx[:-1], out=keep[1:])
        ends = idx[keep].tolist()
    else:
        ends = []
    ends.append(last)
    return ends


def _score_and_select(
    records: RecordList,
    configurations: Sequence[List[int]],
    flat: Optional[List[int]] = None,
) -> Tuple[List[int], Tuple[List[float], List[float], List[float]]]:
    """Score candidate partitions; return the cheapest and its stats.

    The one scoring implementation shared by the paper-literal search
    and the incremental engine — both feed their candidate
    configurations through this function, so incremental-vs-literal
    break-index equality reduces to candidate equality.  Ties favour
    the earliest configuration, i.e. fewer buckets when callers pass
    configurations in ascending ``k`` order (duplicate configurations
    score identically, so the first occurrence always wins).

    The whole pass runs as one fused pure-Python loop over three bulk
    ``tolist()`` reads of the prefix buffers, whatever the bucket
    count: per-bucket stats in the float-operation order of
    :func:`repro.core.buckets.bucket_stats`, then the expected waste
    ``W_B`` via the telescoped suffix-ratio identity (O(K) per
    configuration instead of the O(K^2) row recurrence of
    :func:`repro.core.cost.exhaustive_cost`, the paper-literal reference
    the tests compare against).  There is no vectorized tier: numpy
    dispatch only overtakes the interpreted loop from ~32 buckets per
    configuration, and the widest cap in the tree is 20 (the paper's is
    10).

    A bucket whose significance difference is exactly 0.0 has
    probability 0.0 and contributes nothing to ``W_B``.

    The winner's per-bucket ``(reps, probs, estimates)`` come from
    ``bucket_stats`` over the winner's slice of the bulk read, so the
    state rebuild needs no second pass over the prefix buffers.
    ``flat`` lets a caller that already holds the concatenated break
    indices skip re-flattening.
    """
    n = len(records)
    # Bulk-read every configuration's bucket boundaries off the prefix
    # buffers in one fancy-index + tolist per buffer: scalar numpy reads
    # (float(sp[hi]) per bucket) cost ~100 ns each in dispatch alone,
    # which at 10 configurations x 10 buckets per decision would rival
    # the scoring arithmetic itself.  The Python floats are the same
    # IEEE values either way.
    if flat is None:
        flat = [hi for breaks in configurations for hi in breaks]
    idx = np.asarray(flat, dtype=np.intp)
    sig_at = records._sp_buf[idx].tolist()
    sigval_at = records._svp_buf[idx].tolist()
    rep_at = records._values_buf[idx].tolist()
    total_sig = float(records._sp_buf[n - 1])

    best_cost = float("inf")
    best_breaks: Optional[List[int]] = None
    best_pos = 0
    pos = 0
    for breaks in configurations:
        end = pos + len(breaks)
        # Single descending pass, no intermediate lists.  Stats fall out
        # of the per-bucket prefix differences in partition_stats'
        # operation order; the waste follows from the telescoped
        # suffix-ratio identity (dividing the failure-column recurrence
        # ws(j) = ws(j+1) + p_j (r_j + ws(j+1)/sfx(j+1)) by sfx(j) turns
        # it into a prefix sum) rearranged into three accumulable sums:
        #
        #   cost = S * (A + D(0) * S - B)
        #
        # with S = sum p_i, A = sum p_i ws0_i / sfx_i,
        # D(i) = sum_{j >= i} p_j r_j / sfx_j (so the exclusive prefix
        # C_i = D(0) - D(i)), B = sum p_i D(i), ws0_i = sfx_pr_i -
        # est_i * sfx_i — everything a right-to-left running total.
        # This loop was the profiled floor of the incremental decision
        # at n = 10^6; fusing it saves ~340 list appends per decision.
        acc = 0.0
        acc_pr = 0.0
        a_sum = 0.0
        b_sum = 0.0
        d_sum = 0.0
        for j in range(end - 1, pos, -1):
            s_prev = sig_at[j - 1]
            sig = sig_at[j] - s_prev
            if sig == 0.0:
                continue
            rep = rep_at[j]
            est = (sigval_at[j] - sigval_at[j - 1]) / sig
            if est > rep:
                est = rep
            p = sig / total_sig
            acc += p
            pr = p * rep
            acc_pr += pr
            a_sum += p * ((acc_pr - est * acc) / acc)
            d_sum += pr / acc
            b_sum += p * d_sum
        # First bucket: its "below" prefix is zero.
        sig = sig_at[pos]
        rep = rep_at[pos]
        est = sigval_at[pos] / sig
        if est > rep:
            est = rep
        p = sig / total_sig
        acc += p
        pr = p * rep
        acc_pr += pr
        a_sum += p * ((acc_pr - est * acc) / acc)
        d_sum += pr / acc
        b_sum += p * d_sum
        cost = acc * (a_sum + d_sum * acc - b_sum)
        if cost < best_cost:
            best_cost = cost
            best_breaks = breaks
            best_pos = pos
        pos = end
    assert best_breaks is not None  # callers always pass >= 1 configuration
    win = slice(best_pos, best_pos + len(best_breaks))
    return best_breaks, bucket_stats(
        sig_at[win], sigval_at[win], rep_at[win], total_sig
    )


def exhaustive_break_indices(
    records: RecordList, max_buckets: int = PAPER_MAX_BUCKETS
) -> List[int]:
    """Choose the cheapest evenly spaced configuration (Algorithm 2).

    Evaluates one configuration per candidate bucket count
    ``k = 1 .. max_buckets`` and returns the break indices minimizing the
    expected waste ``W_B``.  Ties favour fewer buckets (the single-bucket
    configuration is evaluated first).
    """
    max_buckets = check_max_buckets(max_buckets)
    return _score_and_select(
        records,
        [evenly_spaced_break_indices(records, k) for k in range(1, max_buckets + 1)],
    )[0]


@functools.lru_cache(maxsize=None)
def _candidate_layout(max_buckets: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate fraction ``i / k``: numerators, denominators, ``k - 1``.

    Flat layout: for ``k = 2 .. max_buckets`` the ``k - 1`` fractions
    ``i / k`` (``i`` ascending) sit side by side, ``K (K - 1) / 2`` in
    all; the third array is the position of each one's configuration in
    the list :meth:`IncrementalExhaustivePartition.break_indices`
    scores.  The layout depends on nothing but ``max_buckets``, so every
    engine of that cap shares one read-only triple (a fresh category
    builds three engines, one per resource).
    """
    pairs = [(i, k) for k in range(2, max_buckets + 1) for i in range(1, k)]
    i_arr = np.array([i for i, _ in pairs], dtype=np.float64)
    k_arr = np.array([k for _, k in pairs], dtype=np.float64)
    config_arr = np.array([k - 1 for _, k in pairs], dtype=np.intp)
    for array in (i_arr, k_arr, config_arr):
        array.setflags(write=False)
    return i_arr, k_arr, config_arr


class IncrementalExhaustivePartition:
    """Maintain ``exhaustive_break_indices`` under streaming mutations.

    The full search re-derives every candidate's mapped record index
    from scratch: ten :func:`evenly_spaced_break_indices` calls of a
    dozen numpy dispatches each at any history depth, and O(n) on top
    at large n (measured in docs/PERFORMANCE.md).  This engine keeps
    those mappings
    *incrementally* instead, and is the one search
    :class:`ExhaustiveBucketing` runs at every record count: the mapped
    index of candidate value ``c`` is ``(#records with value < c) - 1``
    (``searchsorted``-left semantics), and that count changes by exactly
    +1 per inserted value below ``c``.  The candidates are kept sorted,
    so one insert is one ``bisect`` for the first candidate above the
    value plus one bump of a difference array — O(log C), independent of
    the record count; :meth:`break_indices` prefix-sums the array when
    it rebuilds the configurations.

    The maintenance is **exact**, not approximate: candidate values are
    computed with the same float expression as
    :func:`evenly_spaced_break_indices` and the counts replicate
    ``searchsorted`` by construction, so :meth:`break_indices` feeds
    byte-identical configurations into the same scorer
    (:func:`_score_and_select`) as the paper-literal search.  Nothing
    is serialized: the counts are a pure function of the record list,
    so a restored engine resyncs on its first query and reproduces the
    pre-checkpoint break indices.

    Two events invalidate the counts wholesale: a new maximum record
    value (every candidate ``v_max * i / k`` moves) and a compaction of
    a bounded store (an unenumerated set of evictions).  Both mark the
    engine out of sync; the next query *resyncs* with one vectorized
    ``searchsorted`` of the sorted candidate vector — O(C log n).
    """

    __slots__ = (
        "_records",
        "_max_buckets",
        "_layout",
        "_cands",
        "_mapped",
        "_config",
        "_diff",
        "_vmax",
        "_synced",
        "_last_breaks",
        "_last_stats",
        "incremental_updates",
        "resyncs",
        "queries",
    )

    _cands: List[float]
    _mapped: List[int]
    _config: List[int]
    _diff: List[int]

    def __init__(self, records: RecordList, max_buckets: int = PAPER_MAX_BUCKETS) -> None:
        self._records = records
        self._max_buckets = check_max_buckets(max_buckets)
        # Candidate values are (v_max * i) / k elementwise over the
        # shared layout — the same float expression, and therefore the
        # same rounding, as evenly_spaced_break_indices.
        self._layout = _candidate_layout(self._max_buckets)
        # Hot per-mutation state lives in plain Python lists, not
        # arrays: with at most K(K-1)/2 = 45 candidates a bisect and a
        # list bump are faster than one numpy dispatch — and much faster
        # right after RecordList._insert's multi-megabyte suffix shift
        # has evicted the ufunc machinery from cache.  All four are
        # bound by the first resync and rebuilt by every one after it;
        # nothing reads them while the engine is out of sync, so an
        # engine that never answers a query holds none (a service's
        # exploring categories, docs/PERFORMANCE.md "Peak memory"):
        #   _cands   candidate values, ascending;
        #   _mapped  each one's mapped record index at the resync,
        #            (#records with value below it) - 1;
        #   _config  which configuration (k - 1) each one belongs to
        #            (the order is per resync: near-tie fractions such
        #            as 1/2 and 3/6 round an ulp apart for some v_max);
        #   _diff    difference array over the C + 1 gaps between sorted
        #            candidates: a mutation in gap g moves the mapped
        #            index of every candidate from g up, so the live
        #            value is _mapped[r] + sum(_diff[:r + 1]).
        self._vmax: Optional[float] = None
        self._synced = False
        # Winner stats of the most recent break_indices() call, handed
        # to BucketState via consume_stats() so the per-decision rebuild
        # skips a second pass over the prefix buffers.
        self._last_breaks: Optional[List[int]] = None
        self._last_stats: Optional[Tuple[List[float], List[float], List[float]]] = None
        self.incremental_updates = 0
        self.resyncs = 0
        self.queries = 0

    @property
    def n_candidates(self) -> int:
        return int(self._layout[0].size)

    @property
    def synced(self) -> bool:
        return self._synced

    def observe(self, value: float, pos: Optional[int]) -> None:
        """Fold one :meth:`RecordList.add` outcome into the counts.

        ``value`` is the inserted value and ``pos`` what ``add``
        returned: ``None`` when the store compacted, otherwise the
        insert index — which the counts, depending only on the inserted
        *value*, do not read.
        """
        if not self._synced:
            return
        vmax = self._vmax
        assert vmax is not None
        if pos is None or value > vmax:
            # A compaction evicted an unenumerated set of records; a new
            # maximum moves every candidate v_max * i / k.  Remap lazily.
            self._synced = False
            return
        self.incremental_updates += 1
        # bisect_right is the gap whose upper candidates are exactly
        # those with value < candidate (strict, as searchsorted-left).
        self._diff[bisect_right(self._cands, value)] += 1

    def _resync(self) -> None:
        n = len(self._records)
        values = self._records._values_buf[:n]
        self._vmax = float(values[n - 1])
        i_arr, k_arr, config_arr = self._layout
        cands = (self._vmax * i_arr) / k_arr
        order = cands.argsort(kind="stable")
        cands = cands[order]
        self._cands = cands.tolist()
        self._mapped = (np.searchsorted(values, cands, side="left") - 1).tolist()
        self._config = config_arr[order].tolist()
        self._diff = [0] * (len(self._cands) + 1)
        self._synced = True
        self.resyncs += 1

    def _live(self) -> Tuple[List[int], int, int, int]:
        """Every candidate's live mapped index, the slice ``lo:hi`` of
        the valid ones (``0 <= index < last``), and ``last``."""
        if not self._synced:
            self._resync()
        last = len(self._records) - 1
        # A candidate's mapped index is its resync value plus the prefix
        # sum of the difference array up to its gap.  Like the
        # candidates they ascend, so the valid ones are one slice.
        live = list(map(add, self._mapped, accumulate(self._diff)))
        return live, bisect_left(live, 0), bisect_left(live, last), last

    def _configurations(self) -> Tuple[List[List[int]], List[int]]:
        """The candidate partition of every bucket count ``1 .. K``, each
        equal to :func:`evenly_spaced_break_indices` of that count, and
        their concatenation."""
        return self._deal(*self._live())

    def _deal(
        self, live: List[int], lo: int, hi: int, last: int
    ) -> Tuple[List[List[int]], List[int]]:
        # Dealt out to their configurations in ascending order, "keep
        # strictly increasing" reproduces evenly_spaced_break_indices
        # exactly.
        configurations: List[List[int]] = [[] for _ in range(self._max_buckets)]
        for i, config in zip(live[lo:hi], self._config[lo:hi]):
            ends = configurations[config]
            if not ends or i > ends[-1]:
                ends.append(i)
        flat: List[int] = []
        for ends in configurations:
            ends.append(last)
            flat += ends
        return configurations, flat

    def break_indices(self) -> Optional[List[int]]:
        """Current best break indices, identical to the paper-literal search."""
        if not len(self._records):
            return None
        self.queries += 1
        live, lo, hi, last = self._live()
        if lo == hi:
            # Every candidate collapsed: all K configurations are the one
            # bucket [last], the scorer's first-wins tie-break would pick
            # it, and its stats are three scalar reads (the same floats
            # as the scorer's bulk tolist()).
            records = self._records
            total_sig = records._sp_buf[last].item()
            breaks = [last]
            stats = bucket_stats(
                [total_sig],
                [records._svp_buf[last].item()],
                [records._values_buf[last].item()],
                total_sig,
            )
        else:
            configurations, flat = self._deal(live, lo, hi, last)
            breaks, stats = _score_and_select(self._records, configurations, flat)
        self._last_breaks = breaks
        self._last_stats = stats
        return breaks

    def consume_stats(
        self, breaks: List[int]
    ) -> Optional[Tuple[List[float], List[float], List[float]]]:
        """Winner stats from the most recent :meth:`break_indices` call.

        Returns the per-bucket ``(reps, probs, estimates)`` — in
        :func:`repro.core.buckets.partition_stats`' exact float order —
        if ``breaks`` is the very list object that call returned;
        ``None`` otherwise.  One-shot: the cached stats are cleared on
        use, so they can never outlive a record mutation — the caller
        consumes them in the same decision that produced them.
        """
        if breaks is not self._last_breaks or self._last_breaks is None:
            return None
        stats = self._last_stats
        self._last_breaks = None
        self._last_stats = None
        return stats


@register_algorithm
class ExhaustiveBucketing(BucketingAlgorithm):
    """The Exhaustive Bucketing allocation algorithm.

    One search at every history depth: the candidate mappings are
    maintained incrementally by :class:`IncrementalExhaustivePartition`,
    whose break indices are identical to the paper-literal
    :func:`exhaustive_break_indices` (kept as the reference the
    differential tests compare against).

    Parameters
    ----------
    rng:
        Source of randomness for the probabilistic bucket draws: a
        generator, or an ``int`` seed it is built from on the first draw.
    record_capacity:
        Optional bound on retained records: the insert that exceeds
        it drops the lowest-significance records
        (:mod:`repro.core.records`).  The paper retains all records.
    max_buckets:
        Upper bound on the candidate bucket counts; the paper uses 10.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.exhaustive import ExhaustiveBucketing
    >>> eb = ExhaustiveBucketing(rng=np.random.default_rng(0))
    >>> for task_id, mem in enumerate([200.0] * 5 + [1000.0] * 5):
    ...     eb.update(mem, significance=task_id + 1, task_id=task_id)
    >>> sorted(b.rep for b in eb.state.buckets)
    [200.0, 1000.0]
    """

    name = "exhaustive_bucketing"

    def __init__(
        self,
        rng: RngSource = None,
        record_capacity: Optional[int] = None,
        max_buckets: int = PAPER_MAX_BUCKETS,
    ) -> None:
        # Set before super().__init__: the base constructor calls the
        # _make_partition_engine hook, which reads it.
        self._max_buckets = check_max_buckets(max_buckets)
        super().__init__(rng=rng, record_capacity=record_capacity)

    @property
    def max_buckets(self) -> int:
        return self._max_buckets

    def _make_partition_engine(self) -> IncrementalExhaustivePartition:
        return IncrementalExhaustivePartition(self._records, self._max_buckets)

    def compute_break_indices(self, records: RecordList) -> List[int]:
        assert records is self._records, "the engine is bound to this algorithm's own records"
        breaks = self._partition_engine.break_indices()
        if breaks is None:
            raise ValueError("cannot compute break indices for an empty record list")
        return breaks
