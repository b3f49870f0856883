"""Table I: time to compute a new bucketing state and allocation.

The paper reports the average microseconds for Greedy and Exhaustive
Bucketing to recompute their bucketing state and derive one allocation,
at record-list sizes 10 / 200 / 1000 / 2000 / 5000 — the worst case
where every task triggers a recomputation (Section V-C).

Two rows per algorithm.  The *allocator* rows time what the registered
:class:`~repro.core.greedy.GreedyBucketing` /
:class:`~repro.core.exhaustive.ExhaustiveBucketing` do per decision
once they hold N records: a completed task's record arrives (untimed),
then one ``predict()`` searches and draws (timed).  The *literal* rows
time the paper's algorithms as written, from scratch on the same N
records (:func:`~repro.core.greedy.greedy_break_indices_literal`,
:func:`~repro.core.exhaustive.exhaustive_break_indices`), and carry the
paper-shape expectation: Greedy Bucketing grows superlinearly (its
recursion re-scans every split segment, O(n) per candidate) and is
orders of magnitude slower than Exhaustive Bucketing at 5000 records;
Exhaustive Bucketing grows slowly (one sorted walk plus at most
K <= 10 fixed-size evaluations).  Absolute numbers differ from the
paper's C implementation; the growth *ratio* is the reproduced
quantity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.base import make_algorithm
from repro.core.buckets import BucketState
from repro.core.exhaustive import exhaustive_break_indices
from repro.core.greedy import greedy_break_indices_literal
from repro.core.records import RecordList
from repro.experiments.reporting import format_table

__all__ = ["Table1Result", "PAPER_RECORD_COUNTS", "run", "render", "time_algorithm"]

#: The record-list sizes of Table I.
PAPER_RECORD_COUNTS: Tuple[int, ...] = (10, 200, 1000, 2000, 5000)

#: The paper-literal searches, by the row they fill.
_LITERAL_SEARCHES = {
    "greedy_bucketing_literal": greedy_break_indices_literal,
    "exhaustive_bucketing_literal": exhaustive_break_indices,
}
_ALLOCATOR_ROWS = ("greedy_bucketing", "exhaustive_bucketing")


def _make_records(n: int, seed: int) -> RecordList:
    """A record list shaped like the paper's running example: N(8, 2) GB."""
    rng = np.random.default_rng(seed)
    values = np.clip(rng.normal(8000.0, 2000.0, n), 50.0, None)
    records = RecordList()
    for task_id, value in enumerate(values):
        records.add(float(value), significance=float(task_id + 1), task_id=task_id)
    return records


def time_algorithm(
    algorithm: str, records: RecordList, repeats: int = 3, seed: int = 0
) -> float:
    """Average seconds for one state computation + allocation.

    An allocator row (``"greedy_bucketing"``, ``"exhaustive_bucketing"``)
    feeds ``records`` to the registered algorithm and takes one decision
    untimed (the engines' cold start); each repeat then ingests one more
    record — a value resampled from ``records`` — and times the
    ``predict()`` that follows.  A ``*_literal`` row times the
    paper-literal search over ``records`` plus the state and the draw.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    if algorithm in _LITERAL_SEARCHES:
        search = _LITERAL_SEARCHES[algorithm]
        for _ in range(repeats):
            start = time.perf_counter()
            BucketState(records, search(records)).first_allocation(rng)
            total += time.perf_counter() - start
        return total / repeats
    if algorithm not in _ALLOCATOR_ROWS:
        raise KeyError(f"table1 only times the bucketing algorithms, not {algorithm!r}")
    allocator = make_algorithm(algorithm, rng=rng)
    for record in records:
        allocator.update(record.value, record.significance, record.task_id)
    allocator.predict()
    n = len(records)
    arrivals = records.values[rng.integers(n, size=repeats)].tolist()
    for i, value in enumerate(arrivals):
        allocator.update(value, significance=float(n + i + 1), task_id=n + i)
        start = time.perf_counter()
        allocator.predict()
        total += time.perf_counter() - start
    return total / repeats


@dataclass
class Table1Result:
    record_counts: Tuple[int, ...]
    #: algorithm -> list of average microseconds aligned with record_counts
    microseconds: Dict[str, List[float]]

    def ratio(self, count: int) -> float:
        """GB / EB time ratio at one record count (paper: >> 1 at 5000)."""
        idx = self.record_counts.index(count)
        eb = self.microseconds["exhaustive_bucketing"][idx]
        gb = self.microseconds["greedy_bucketing"][idx]
        return gb / eb if eb > 0 else float("inf")


def run(
    record_counts: Sequence[int] = PAPER_RECORD_COUNTS,
    repeats: int = 3,
    seed: int = 0,
    include_literal: bool = True,
) -> Table1Result:
    """Measure the algorithms at every record count.

    ``include_literal`` also times the paper-literal searches: the
    transcription of Algorithm 1 (O(n) cost per candidate), which
    reproduces the paper's GB blowup, and the from-scratch Algorithm 2.
    The literal GB row uses a single repeat — it is the slow one by
    design.
    """
    names = list(_ALLOCATOR_ROWS)
    if include_literal:
        names.extend(_LITERAL_SEARCHES)
    microseconds: Dict[str, List[float]] = {name: [] for name in names}
    for count in record_counts:
        records = _make_records(count, seed=seed)
        for algorithm in names:
            n_repeats = 1 if algorithm == "greedy_bucketing_literal" else repeats
            seconds = time_algorithm(algorithm, records, repeats=n_repeats, seed=seed)
            microseconds[algorithm].append(seconds * 1e6)
    return Table1Result(
        record_counts=tuple(record_counts), microseconds=microseconds
    )


_ROW_LABELS = (
    ("greedy_bucketing_literal", "GB (paper's literal Algorithm 1)"),
    ("exhaustive_bucketing_literal", "EB (paper's literal Algorithm 2)"),
    ("greedy_bucketing", "GB (the allocator's decision)"),
    ("exhaustive_bucketing", "EB (the allocator's decision)"),
)


def render(result: Table1Result) -> str:
    """Render the Table I layout: one row per algorithm."""
    rows = []
    for algorithm, label in _ROW_LABELS:
        if algorithm in result.microseconds:
            rows.append((label,) + tuple(result.microseconds[algorithm]))
    table = format_table(
        headers=["algo"] + [str(c) for c in result.record_counts],
        rows=rows,
        title="Table I — average time (microseconds) to compute a new bucketing state + allocation",
        float_format="{:.1f}",
    )
    largest = result.record_counts[-1]
    lines = [table]
    if "greedy_bucketing_literal" in result.microseconds:
        idx = result.record_counts.index(largest)
        lit = result.microseconds["greedy_bucketing_literal"][idx]
        eb = result.microseconds["exhaustive_bucketing_literal"][idx]
        lines.append(
            f"literal GB / EB ratio at {largest} records: {lit / eb:.0f}x "
            "(paper: ~270x — GB's recursive rescans blow up, EB stays ~linear)"
        )
    lines.append(
        f"allocator GB / EB ratio at {largest} records: {result.ratio(largest):.1f}x"
    )
    return "\n".join(lines)
