"""The repo's one end-to-end + per-layer benchmark (see README.md here).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's untraced repetitions, each in a fresh
subprocess, and reports every end-to-end metric from the run stitched
out of their quietest chunks (:func:`stitch`).  ``--trace 1`` runs one
untraced and one traced repetition and reports every per-layer metric
(``trace.overhead_pct`` is the difference between the two).  Without
``--workload`` all four run in turn.  Every metric is printed by name
with its unit, the raw per-repetition values go to
``benchmarks/e2e/out/``, and the last stdout line is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  Exit code 0 only
when every correctness check held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: ``--seconds`` value at which the populations in generators.py apply
#: unscaled; equals ``run_seconds`` in BENCHMARK.json (the smoke test
#: holds the two together).
REFERENCE_SECONDS = 15

#: Seconds of ``--quick``.
QUICK_SECONDS = 1

#: Fresh-process repetitions per ``--trace 0`` run.  Every workload sets
#: up :data:`SETUP_SAMPLES` times; the first ``REPETITIONS[w]`` of those
#: go on to run the timed phase.  ``sim-topeft`` is one 12 s cell at the
#: published size: more would not fit the driver's time cap when the box
#: is in a slow phase (measured up to 1.5x), so it relies on the reference
#: clock alone and has no second execution to stitch with.
SETUP_SAMPLES = 3
REPETITIONS = {
    "svc-wire-durable": 3,
    "svc-batch-ingest": 3,
    "core-hot-greedy": 3,
    "sim-topeft": 1,
}
WORKLOADS = tuple(REPETITIONS)

#: (name, unit, better, bound) — mirrored in BENCHMARK.json.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("allocate_p50_ms", "ms", "lower", 0.25),
    ("allocate_p95_ms", "ms", "lower", 0.25),
    ("record_p50_ms", "ms", "lower", 0.25),
    ("record_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better) — mirrored in BENCHMARK.json.  A layer that does
#: not run on a workload reads 0 there (no fsyncs without a WAL).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("client.calls_per_kop", "count", "lower"),
    ("client.edge_interval_us_per_op", "us", "lower"),
    ("client.retries", "count", "lower"),
    ("client.reconnects", "count", "lower"),
    ("protocol.parse_us_per_op", "us", "lower"),
    ("protocol.validate_us_per_op", "us", "lower"),
    ("protocol.encode_us_per_op", "us", "lower"),
    ("protocol.validate_calls_per_op", "count", "lower"),
    ("protocol.request_bytes_per_op", "B", "lower"),
    ("protocol.response_bytes_per_op", "B", "lower"),
    ("server.interval_self_us_per_op", "us", "lower"),
    ("server.rejected_requests", "count", "lower"),
    ("service.submit_interval_self_us_per_op", "us", "lower"),
    ("service.start_s", "s", "lower"),
    ("service.snapshot_s", "s", "lower"),
    ("service.snapshot_bytes", "B", "lower"),
    ("service.recovery_s", "s", "lower"),
    ("shards.queue_wait_us_per_op", "us", "lower"),
    ("shards.batch_ops_mean", "count", "higher"),
    ("shards.commit_interval_self_us_per_op", "us", "lower"),
    ("shards.apply_op_self_us_per_op", "us", "lower"),
    ("shards.replay_s", "s", "lower"),
    ("shards.dedup_hits", "count", "lower"),
    ("shards.shed", "count", "lower"),
    ("checkpoint.append_us_per_op", "us", "lower"),
    ("checkpoint.encode_frame_us_per_op", "us", "lower"),
    ("checkpoint.write_us_per_op", "us", "lower"),
    ("checkpoint.fsync_us_per_op", "us", "lower"),
    ("checkpoint.fsyncs_per_kop", "count", "lower"),
    ("checkpoint.recover_read_s", "s", "lower"),
    ("checkpoint.wal_bytes_per_op", "B", "lower"),
    ("allocator.allocate_us", "us", "lower"),
    ("allocator.allocate_p95_us", "us", "lower"),
    ("allocator.retry_us", "us", "lower"),
    ("allocator.observe_us", "us", "lower"),
    ("allocator.calls_per_kop", "count", "lower"),
    ("allocator.share_pct", "%", "lower"),
    ("records.add_us", "us", "lower"),
    ("records.adds_per_kop", "count", "lower"),
    ("partition.compute_us", "us", "lower"),
    ("partition.computes_per_kop", "count", "lower"),
    ("partition.computes_per_allocate", "count", "lower"),
    ("loop.unattributed_us_per_op", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_task", "count", "lower"),
    ("sim.dispatch_s", "s", "lower"),
    ("sim.dispatch_share_pct", "%", "lower"),
    ("sim.find_fit_s", "s", "lower"),
    ("sim.invariants_s", "s", "lower"),
    ("sim.allocator_s", "s", "lower"),
    ("sim.other_s", "s", "lower"),
    ("sim.awe_mean", "ratio", "higher"),
)

#: Relative tolerance of the stored sim-topeft AWE reference.
AWE_TOLERANCE = 1e-9

#: One workload's repetitions must all end within this many seconds (the
#: driver allows a run 180); a repetition still running then is killed.
WORKLOAD_DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """A repetition crashed or a correctness check failed."""


def _spawn(workload: str, seed: int, scale: float, mode: str, deadline: float) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter; return its result dict."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--mode", mode,
        "--out-dir", OUT_DIR,
    ]  # fmt: skip
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} [{mode}] overran the run's deadline") from None
    lines = done.stdout.strip().splitlines()
    doc: Dict[str, Any] = {}
    if lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if done.returncode != 0 or "setup_s" not in doc:
        reason = doc.get("check_failed") or done.stderr.strip()[-2000:] or "no result line"
        raise BenchmarkError(f"{workload} [{mode}] failed: {reason}")
    return doc


def stitch(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Timing metrics of the run stitched from the quietest chunk executions.

    Two defences against a shared box, both in README.md.  Slow phases
    that last minutes: each repetition's seconds are first converted to
    reference-box seconds (its ``clock_factor``, measured by the worker's
    ``SpeedSampler`` while it ran).  Bursts: every
    repetition executes the identical op sequence, cut into the same
    chunks, and interference only ever slows a chunk down, so for each
    chunk the execution with the fewest seconds per op is the one
    closest to the undisturbed program; the stitched run is those
    executions laid end to end, and its throughput and latency
    percentiles are the reported values.
    """
    seconds = 0.0
    ops = 0.0
    samples: Dict[str, List[np.ndarray]] = {"allocate": [], "record": []}
    for executions in zip(*([(rep, chunk) for chunk in rep["chunks"]] for rep in reps)):
        ran = [(rep["clock_factor"], chunk) for rep, chunk in executions if chunk["ops"] > 0]
        if not ran:
            continue
        factor, best = min(ran, key=lambda fc: fc[0] * fc[1]["seconds"] / fc[1]["ops"])
        nominal_ops = statistics.fmean(chunk["ops"] for _, chunk in ran)
        seconds += nominal_ops * factor * best["seconds"] / best["ops"]
        ops += nominal_ops
        for kind, pooled in samples.items():
            pooled.append(factor * np.asarray(best[kind], dtype=float))

    def percentile_ms(kind: str, q: float) -> float:
        return float(np.percentile(np.concatenate(samples[kind]), q)) * 1e3

    return {
        "throughput_ops_s": ops / seconds,
        "allocate_p50_ms": percentile_ms("allocate", 50),
        "allocate_p95_ms": percentile_ms("allocate", 95),
        "record_p50_ms": percentile_ms("record", 50),
        "record_p95_ms": percentile_ms("record", 95),
    }


def _check_sim_reference(rep: Dict[str, Any], seed: int, scale: float) -> Optional[str]:
    """Stored-AWE check; only seeds with a stored reference at full size."""
    if scale != 1.0:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        expected = json.load(handle)["sim-topeft"]["awe"].get(str(seed))
    if expected is None:
        return None
    for key, want in expected.items():
        got = rep["awe"][key]
        if abs(got - want) > AWE_TOLERANCE * abs(want):
            return f"sim-topeft AWE[{key}] = {got!r}, reference {want!r} (seed {seed})"
    return None


def _cross_checks(
    workload: str, reps: List[Dict[str, Any]], seed: int, scale: float
) -> List[str]:
    """Checks that need more than one repetition (or the stored reference)."""
    problems: List[str] = []
    if workload == "core-hot-greedy":
        # In-process interleaving is deterministic: identical final state
        # across repetitions and the traced pass.
        if any(rep["digests"] != reps[0]["digests"] for rep in reps[1:]):
            problems.append("core-hot-greedy shard digests differ between repetitions")
    if workload == "sim-topeft":
        if any(rep["awe"] != reps[0]["awe"] for rep in reps[1:]):
            problems.append("sim-topeft AWE differs between repetitions")
        problem = _check_sim_reference(reps[0], seed, scale)
        if problem:
            problems.append(problem)
    return problems


def run_end_to_end(workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """``--trace 0``: the untraced repetitions of one workload."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    timed: List[Dict[str, Any]] = []
    setups: List[float] = []
    for index in range(SETUP_SAMPLES):
        mode = "timed" if index < REPETITIONS[workload] else "setup-only"
        rep = _spawn(workload, seed, scale, mode, deadline)
        setups.append(rep["setup_s"])
        if mode == "timed":
            timed.append(rep)
    values = stitch(timed)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = statistics.median(rep["peak_rss_mb"] for rep in timed)
    for rep in timed:  # the raw dump keeps chunk timings, not every sample
        for chunk in rep["chunks"]:
            for kind in ("allocate", "allocate_retry", "record"):
                chunk[kind] = len(chunk[kind])
    units = {name: unit for name, unit, _, _ in END_TO_END}
    return {
        "workload": workload,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name, *_ in END_TO_END
        },
        "attempted": sum(rep["ops_attempted"] for rep in timed),
        "failed": sum(rep["ops_failed"] for rep in timed),
        "problems": _cross_checks(workload, timed, seed, scale),
        "wal_fs": timed[0].get("wal_fs"),
        "raw": {"setup_s": setups, "repetitions": timed},
    }


def run_traced(workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """``--trace 1``: one untraced and one traced repetition."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    plain = _spawn(workload, seed, scale, "timed", deadline)
    traced = _spawn(workload, seed, scale, "traced", deadline)
    for rep in (plain, traced):
        del rep["chunks"]
    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = 100.0 * (
        traced["clock_factor"] * traced["timed_wall_s"]
        / (plain["clock_factor"] * plain["timed_wall_s"])
        - 1.0
    )
    units = {name: unit for name, unit, _ in PER_LAYER}
    missing = [name for name in units if name not in layers]
    problems = _cross_checks(workload, [plain, traced], seed, scale)
    if missing:
        problems.append(f"traced pass produced no value for {missing}")
    return {
        "workload": workload,
        "metrics": {
            name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
        "attempted": traced["ops_attempted"],
        "failed": traced["ops_failed"],
        "problems": problems,
        "wal_fs": traced.get("wal_fs"),
        "raw": {"untraced": plain, "traced": traced},
    }


def _print_table(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']} ==")
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")
    raw = result["raw"]
    for rep in raw.get("repetitions", []):
        for kind in ("allocate", "record"):
            stats = rep[kind]
            if stats["n"]:
                # p99 swings 25-60 % run to run: printed, never gated.
                print(f"  raw {kind}_p99_ms {stats['p99_ms']:.4f} (n={stats['n']})")
        for extra in ("recovery_s", "wal_bytes_per_op", "awe_mean"):
            if extra in rep:
                print(f"  raw {extra} {rep[extra]:.6g}")
    print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def _append_history(path: str, seed: int, seconds: float, results: List[Dict[str, Any]]) -> None:
    line = {
        "commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
        "wal_fs": next((r["wal_fs"] for r in results if r["wal_fs"]), None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": {
            result["workload"]: {
                "correct": not result["problems"] and result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
            for result in results
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, separators=(",", ":")) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(REFERENCE_SECONDS),
        help="nominal timed seconds per run; op populations scale with it "
        f"(reference box, {REFERENCE_SECONDS} = the sizes in generators.py)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--quick", action="store_true", help=f"same as --seconds {QUICK_SECONDS} (smoke sizes)"
    )
    parser.add_argument(
        "--append-history",
        metavar="PATH",
        help="append one JSON line per run (suggested: benchmarks/e2e/history.jsonl)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    seconds = float(QUICK_SECONDS) if args.quick else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")
    scale = seconds / REFERENCE_SECONDS
    traced = bool(args.trace or args.traced)
    os.makedirs(OUT_DIR, exist_ok=True)

    results: List[Dict[str, Any]] = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            runner = run_traced if traced else run_end_to_end
            results.append(runner(workload, args.seed, scale))
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for result in results:
        _print_table(result)
        kind = "layers" if traced else "e2e"
        raw_path = os.path.join(OUT_DIR, f"raw-{kind}-{result['workload']}.json")
        with open(raw_path, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": seconds, **result}, handle, indent=1)
    if args.append_history:
        _append_history(args.append_history, args.seed, seconds, results)

    correct = all(not r["problems"] and r["failed"] == 0 for r in results)
    if args.workload:
        only = results[0]
        final: Dict[str, Any] = {
            "correct": correct,
            "attempted": only["attempted"],
            "failed": only["failed"],
            "metrics": only["metrics"],
        }
    else:
        final = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {r["workload"]: r["metrics"] for r in results},
        }
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
