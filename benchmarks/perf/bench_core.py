"""Core allocation-loop microbenchmarks -> BENCH_core.json.

Three benchmark families, matching the hot paths named in
docs/PERFORMANCE.md:

* **record ingest** — the simulator's update->predict alternation: one
  ``RecordList.add`` followed by touching the values / prefix-sum views,
  at 1k / 5k / 20k records.
* **allocation latency** — seconds per decision of the registered
  Greedy / Exhaustive Bucketing holding n records (one untimed record
  update, then the timed state rebuild + allocation draw; each
  algorithm's one search, its breaks checked against the from-scratch
  ``exhaustive_break_indices`` / ``greedy_break_indices`` on every
  timed decision), along the record-count axis of the paper's Table I
  and, in full runs, at n = 10^6.
* **million-record hot path** (full runs only) — the streaming regime at
  n = 10^6 records: steady-state ingest cost
  and the partition-search pair underlying the headline claim — the
  incremental engine's ``break_indices`` versus the full
  ``exhaustive_break_indices`` re-search on the identical stream (the
  two return identical break indices; only the cost differs).  Ingest at
  this size is measured over a 1000-record steady-state tail on a
  prebuilt list (replaying the full history through the O(n) sorted
  insert would take ~40 minutes and measure the same thing).
* **grid wall time** — a small (workflow x algorithm) sweep through
  ``run_grid``, serial, end to end.
* **footprint** — record-store bytes at n = 10^6 and the process peak
  RSS (``resource.getrusage``; stdlib, since psutil is not a
  dependency).

Results are written as a flat JSON document (``BENCH_core.json`` at the
repo root by default) so ``scripts/bench_compare.py`` can diff two runs
and flag regressions.  Run with ``--quick`` in CI for a seconds-scale
smoke pass.

Usage::

    python benchmarks/perf/bench_core.py [--quick] [--out PATH] [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.core.exhaustive import (  # noqa: E402
    ExhaustiveBucketing,
    exhaustive_break_indices,
)
from repro.core.greedy import GreedyBucketing, greedy_break_indices  # noqa: E402
from repro.core.records import RecordList  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.runner import run_grid  # noqa: E402

#: Bump when metric names or semantics change incompatibly.
SCHEMA_VERSION = 1


def _ingest_values(n: int, seed: int = 0) -> np.ndarray:
    """The paper's running example: N(8 GB, 2 GB) peak memory records."""
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(8000.0, 2000.0, n), 50.0, None)


def bench_record_ingest(n: int, repeats: int) -> float:
    """Seconds to ingest ``n`` records in update->predict alternation.

    After every ``add`` the three views the cost kernels read
    (``values``, ``sig_prefix``, ``sigval_prefix``) are touched, which is
    what every completed task costs in the simulator: a suffix shift
    plus the buffer snapshots.
    """
    values = _ingest_values(n)
    best = float("inf")
    for _ in range(repeats):
        records = RecordList()
        start = time.perf_counter()
        for task_id, value in enumerate(values):
            records.add(
                float(value), significance=float(task_id + 1), task_id=task_id
            )
            _ = records.values
            _ = records.sig_prefix
            _ = records.sigval_prefix
        best = min(best, time.perf_counter() - start)
    return best


def _make_streaming_fixture(
    n: int, tail: int, seed: int = 0
) -> Tuple[RecordList, np.ndarray, np.ndarray]:
    """A prebuilt n-record list plus a ``tail``-long arrival stream.

    Same N(8 GB, 2 GB) population as :func:`_ingest_values`; the list is
    bulk-built with :meth:`RecordList.from_arrays` so fixture setup is
    O(n log n) instead of the O(n^2) streaming replay.
    """
    rng = np.random.default_rng(seed)
    values = np.clip(rng.normal(8000.0, 2000.0, n + tail), 50.0, None)
    sigs = np.arange(1.0, n + tail + 1.0)
    records = RecordList.from_arrays(values[:n], sigs[:n])
    return records, values[n:], sigs[n:]


def bench_streaming_ingest(n: int, tail: int, repeats: int) -> float:
    """Steady-state seconds for ``tail`` sorted inserts at size ~``n``.

    Reported as the total for the tail (one fresh fixture per repeat so
    the list never drifts far from ``n``); the dominant cost is the
    O(n) suffix shift across the five record buffers per insert.
    """
    best = float("inf")
    for rep in range(repeats):
        records, values, sigs = _make_streaming_fixture(n, tail, seed=rep)
        start = time.perf_counter()
        for i in range(tail):
            records.add(float(values[i]), float(sigs[i]), task_id=n + i)
        best = min(best, time.perf_counter() - start)
    return best


def bench_partition_search(
    n: int, decisions: int, repeats: int
) -> Tuple[float, float]:
    """(full, incremental) seconds per partition search on one stream.

    Drives the same arrival stream through an
    :class:`~repro.core.exhaustive.ExhaustiveBucketing`, timing per
    update (a) its engine's ``break_indices`` and (b) the full
    ``exhaustive_break_indices`` re-search over the same records.  The two produce identical break
    indices (asserted); the pair is the measured form of the
    "incremental allocation vs full re-search" speedup claim.
    """
    best_full = float("inf")
    best_inc = float("inf")
    for rep in range(repeats):
        records, values, sigs = _make_streaming_fixture(n, decisions, seed=rep)
        algo = ExhaustiveBucketing(rng=np.random.default_rng(rep))
        algo._records = records
        algo._partition_engine = algo._make_partition_engine()
        engine = algo.partition_engine
        engine.break_indices()  # warm resync outside the timed region
        t_full = 0.0
        t_inc = 0.0
        for i in range(decisions):
            value = float(values[i])
            engine.observe(value, records.add(value, float(sigs[i]), task_id=n + i))
            start = time.perf_counter()
            inc_breaks = engine.break_indices()
            t_inc += time.perf_counter() - start
            engine.consume_stats(inc_breaks)
            start = time.perf_counter()
            full_breaks = exhaustive_break_indices(records)
            t_full += time.perf_counter() - start
            assert inc_breaks == full_breaks, (
                f"incremental/full break divergence at update {i}"
            )
        best_full = min(best_full, t_full / decisions)
        best_inc = min(best_inc, t_inc / decisions)
    return best_full, best_inc


def bench_streaming_decision(
    algorithm_cls: type,
    n: int,
    decisions: int,
    repeats: int,
    full_search: Callable[[RecordList], List[int]],
) -> float:
    """Seconds per allocation decision (state rebuild + one allocation).

    Streaming regime: each decision is preceded by one (untimed) record
    update, as in the simulator's update->predict alternation; timed is
    the dirty-state rebuild plus the allocation draw.  The bucket ends of
    every timed decision are compared (untimed) against ``full_search``,
    the from-scratch search over the same records.
    """
    best = float("inf")
    for rep in range(repeats):
        records, values, sigs = _make_streaming_fixture(n, decisions, seed=rep)
        algo = algorithm_cls(rng=np.random.default_rng(rep))
        algo._records = records
        algo._partition_engine = algo._make_partition_engine()
        algo._dirty = True
        # Warm-up decision outside the timed region: it pays the
        # engines' one-off cold start (a resync; for greedy, a search
        # with an empty memo) that later decisions amortize away.
        algo.predict()
        total = 0.0
        for i in range(decisions):
            algo.update(float(values[i]), float(sigs[i]), task_id=n + i)
            start = time.perf_counter()
            algo.predict()
            total += time.perf_counter() - start
            assert [b.hi for b in algo.state.buckets] == full_search(records), (
                f"engine/from-scratch break divergence at update {i}"
            )
        best = min(best, total / decisions)
    return best


def peak_rss_mb() -> float:
    """Process peak resident set size in MiB (Linux ru_maxrss is KiB)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        return peak_kb / 2**20
    return peak_kb / 1024.0


def bench_grid(n_tasks: int, jobs: int = 1) -> float:
    """Wall seconds for a small end-to-end (workflow x algorithm) sweep."""
    config = ExperimentConfig(n_tasks=n_tasks, n_workers=8)
    start = time.perf_counter()
    run_grid(
        workflows=("uniform", "bimodal"),
        algorithms=("max_seen", "greedy_bucketing", "exhaustive_bucketing"),
        config=config,
        jobs=jobs,
    )
    return time.perf_counter() - start


def run_suite(quick: bool = False, repeats: Optional[int] = None) -> Dict[str, object]:
    """Execute every benchmark; return the BENCH_core.json document."""
    repeats = repeats if repeats is not None else (1 if quick else 3)
    ingest_sizes = [1000, 5000] if quick else [1000, 5000, 20000]
    latency_sizes = [200, 1000] if quick else [1000, 5000]
    grid_tasks = 60 if quick else 150

    metrics: Dict[str, float] = {}

    for n in ingest_sizes:
        metrics[f"record_ingest_new_n{n}_s"] = bench_record_ingest(n, repeats)

    for cls, full_search in (
        (GreedyBucketing, greedy_break_indices),
        (ExhaustiveBucketing, exhaustive_break_indices),
    ):
        for n in latency_sizes:
            metrics[f"allocation_latency_{cls.name}_n{n}_s"] = bench_streaming_decision(
                cls, n, decisions=200, repeats=repeats, full_search=full_search
            )

    if not quick:
        n = 1_000_000
        metrics[f"record_ingest_new_n{n}_s"] = bench_streaming_ingest(
            n, tail=1000, repeats=repeats
        )
        full_s, inc_s = bench_partition_search(n, decisions=200, repeats=repeats)
        metrics[f"partition_search_full_n{n}_s"] = full_s
        metrics[f"partition_search_incremental_n{n}_s"] = inc_s
        metrics[f"partition_search_speedup_n{n}_x"] = (
            full_s / inc_s if inc_s > 0 else float("inf")
        )
        metrics[f"allocation_latency_exhaustive_bucketing_n{n}_s"] = (
            bench_streaming_decision(
                ExhaustiveBucketing, n, decisions=200, repeats=repeats,
                full_search=exhaustive_break_indices,
            )
        )
        metrics[f"allocation_latency_greedy_bucketing_n{n}_s"] = (
            bench_streaming_decision(
                GreedyBucketing, n, decisions=30, repeats=repeats,
                full_search=greedy_break_indices,
            )
        )
        fixture, _, _ = _make_streaming_fixture(n, 0)
        metrics[f"record_store_bytes_n{n}_mb"] = fixture.nbytes / 2**20
        del fixture

    metrics["grid_serial_s"] = bench_grid(grid_tasks, jobs=1)
    metrics["peak_rss_mb"] = peak_rss_mb()

    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(_REPO_ROOT, "BENCH_core.json"),
        help="output JSON path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-scale smoke pass (CI): smaller sizes, one repeat",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    args = parser.parse_args(argv)

    doc = run_suite(quick=args.quick, repeats=args.repeats)
    # Atomic replace: a benchmark run killed mid-write must not leave a
    # torn BENCH_core.json for the regression checker to trip over.
    from repro.checkpoint import write_text_atomic

    write_text_atomic(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    width = max(len(k) for k in doc["metrics"])
    for key in sorted(doc["metrics"]):
        value = doc["metrics"][key]
        unit = "x" if key.endswith("_x") else ("MB" if key.endswith("_mb") else "s")
        print(f"{key:<{width}}  {value:12.6f} {unit}")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
