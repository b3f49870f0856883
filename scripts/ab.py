"""Alternating A/B pairs of one end-to-end workload between two revisions.

    python scripts/ab.py PARENT CHANGE --workload W [--pairs 10] [--seed 0] [--scale 1.0]

Exports both revisions with ``git archive`` into two sibling directories
whose paths have the same length, then runs each tree's
``benchmarks/e2e/worker.py`` in turn, one fresh process per run.  Pair
``i`` runs the parent first when ``i`` is even and the change first
when it is odd, and the two directories swap names between pairs, so
neither the order within a pair nor the checkout path favours a side
(docs/PERFORMANCE.md, "A/B runs").

Timings are clock-normalized by each run's ``clock_factor``, as
``run.py`` does.  Prints, per metric, both medians, the parent's
quartiles, and in how many pairs the change was better; then one row per
run with the child's minor page faults (``ru_minflt``, read with
``os.wait4``); then one JSON object as the last line.  Exit 0 when every
run passed its workload's own checks, 1 when one did not.  Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
#: The two sibling directory names; equal length keeps every path equal.
SLOTS = ("a", "b")

#: (metric, better): the end-to-end metrics one run yields, then faults.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "lower"),
    ("throughput_ops_s", "higher"),
    ("allocate_p50_ms", "lower"),
    ("allocate_p95_ms", "lower"),
    ("record_p50_ms", "lower"),
    ("record_p95_ms", "lower"),
    ("peak_rss_mb", "lower"),
    ("minor_faults", "lower"),
)


def schedule(pairs: int) -> List[Tuple[int, str, str]]:
    """``(pair, side, slot)`` for every run, in the order they run."""
    runs = []
    for pair in range(pairs):
        slot_of = dict(zip(SIDES, SLOTS if pair % 2 == 0 else SLOTS[::-1]))
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        runs.extend((pair, side, slot_of[side]) for side in order)
    return runs


def metrics_of(rep: Dict[str, Any], minor_faults: int) -> Dict[str, float]:
    """One worker result as the metrics :data:`METRICS` names."""
    factor = rep["clock_factor"]
    values = {
        "setup_s": rep["setup_s"],
        "throughput_ops_s": rep["timed_ops"] / (factor * rep["timed_wall_s"]),
        "peak_rss_mb": rep["peak_rss_mb"],
        "minor_faults": float(minor_faults),
    }
    for kind in ("allocate", "record"):
        for q in ("p50", "p95"):
            value = rep[kind].get(f"{q}_ms")
            if value is not None:
                values[f"{kind}_{q}_ms"] = factor * value
    return values


def summarize(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per metric: medians, the parent's quartiles, wins out of pairs.

    ``rows`` hold ``pair``, ``side`` and ``metrics``.  A pair is a win
    when the change is strictly better; ``beyond_iqr`` says whether the
    medians differ by more than the parent's quartile distance.
    """
    by_pair: Dict[int, Dict[str, Dict[str, float]]] = {}
    for row in rows:
        by_pair.setdefault(row["pair"], {})[row["side"]] = row["metrics"]
    complete = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    summary = []
    for name, better in METRICS:
        pairs = [
            (sides["parent"][name], sides["change"][name])
            for sides in complete
            if name in sides["parent"] and name in sides["change"]
        ]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        else:
            q1 = q3 = parent[0]
        sign = 1.0 if better == "higher" else -1.0
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        summary.append(
            {
                "metric": name,
                "better": better,
                "parent_median": parent_median,
                "change_median": change_median,
                "change_pct": (
                    100.0 * (change_median / parent_median - 1.0) if parent_median else math.nan
                ),
                "parent_q1": q1,
                "parent_q3": q3,
                "wins": sum(1 for p, c in pairs if sign * (c - p) > 0),
                "pairs": len(pairs),
                "beyond_iqr": abs(change_median - parent_median) > q3 - q1,
            }
        )
    return summary


def format_summary(summary: Sequence[Dict[str, Any]]) -> List[str]:
    lines = [
        f"{'metric':<18} {'better':>6} {'parent_med':>12} {'change_med':>12} {'delta':>8} "
        f"{'parent_q1':>12} {'parent_q3':>12} {'wins':>6}  beyond_iqr"
    ]
    for entry in summary:
        lines.append(
            f"{entry['metric']:<18} {entry['better']:>6} {entry['parent_median']:>12.6g} "
            f"{entry['change_median']:>12.6g} {entry['change_pct']:>+7.1f}% "
            f"{entry['parent_q1']:>12.6g} {entry['parent_q3']:>12.6g} "
            f"{entry['wins']:>3d}/{entry['pairs']:<2d}  {'yes' if entry['beyond_iqr'] else 'no'}"
        )
    return lines


def export(rev: str, dest: str) -> str:
    """``git archive`` ``rev`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", commit], capture_output=True, check=True
    ).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # pragma: no cover - Python before 3.10.12 / 3.11.4
            tar.extractall(dest)
    # Compile up front, so that no timed run writes bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "benchmarks/e2e"],
        cwd=dest,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    return commit


def run_worker(
    tree: str, workload: str, seed: int, scale: float, out_dir: str
) -> Tuple[Optional[Dict[str, Any]], int, str]:
    """One worker run in ``tree``: its result (None on failure), minor faults, error."""
    os.makedirs(out_dir, exist_ok=True)
    command = [
        sys.executable,
        os.path.join(tree, "benchmarks", "e2e", "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--mode", "timed",
        "--out-dir", out_dir,
    ]  # fmt: skip
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen(command, cwd=tree, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    lines = stdout.strip().splitlines()
    doc: Dict[str, Any] = {}
    if lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if child.returncode != 0 or "setup_s" not in doc:
        reason = doc.get("check_failed") or stderr.strip()[-2000:] or "no result line"
        return None, usage.ru_minflt, f"exit {child.returncode}: {reason}"
    return doc, usage.ru_minflt, ""


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="revision measured as the parent (e.g. HEAD^)")
    parser.add_argument("change", help="revision measured as the change (e.g. HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.scale) and args.scale > 0):
        parser.error(f"--scale must be a positive finite number, got {args.scale!r}")

    work = tempfile.mkdtemp(prefix="ab-")
    try:
        slots = {slot: os.path.join(work, slot) for slot in SLOTS}
        try:
            commits = {
                side: export(rev, slots[slot])
                for side, rev, slot in zip(SIDES, (args.parent, args.change), SLOTS)
            }
        except subprocess.CalledProcessError as exc:
            stderr = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr
            print(f"ab.py: {' '.join(exc.cmd)} failed: {(stderr or '').strip()}", file=sys.stderr)
            return 2
        # Which side's tree sits under which slot name right now.
        holds = dict(zip(SLOTS, SIDES))
        rows: List[Dict[str, Any]] = []
        failures: List[str] = []
        awe_seen: Set[str] = set()
        print(
            f"{args.workload}  seed {args.seed}  scale {args.scale:g}  pairs {args.pairs}  "
            f"parent {commits['parent'][:12]}  change {commits['change'][:12]}"
        )
        print(f"{'pair':>4} {'side':<6} {'dir':<3} {'throughput_ops_s':>16} {'minor_faults':>12}")
        for pair, side, slot in schedule(args.pairs):
            if holds[slot] != side:
                # Swap the two trees' names between pairs.
                swap = os.path.join(work, "swap")
                os.rename(slots["a"], swap)
                os.rename(slots["b"], slots["a"])
                os.rename(swap, slots["b"])
                holds = {"a": holds["b"], "b": holds["a"]}
            rep, faults, error = run_worker(
                slots[slot], args.workload, args.seed, args.scale, os.path.join(work, "out")
            )
            if rep is None:
                failures.append(f"pair {pair} {side}: {error}")
                print(f"{pair:>4} {side:<6} {slot:<3} {'FAILED':>16} {faults:>12d}")
                continue
            values = metrics_of(rep, faults)
            rows.append({"pair": pair, "side": side, "dir": slot, "metrics": values})
            if "awe" in rep:
                awe_seen.add(json.dumps(rep["awe"], sort_keys=True))
            print(
                f"{pair:>4} {side:<6} {slot:<3} {values['throughput_ops_s']:>16.6g} "
                f"{faults:>12d}"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(rows)
    print("\n".join(format_summary(summary)))
    if awe_seen:
        print("awe: identical in every run" if len(awe_seen) == 1 else "awe: differs between runs")
    for failure in failures:
        print(f"RUN FAILED: {failure}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "scale": args.scale,
                "commits": commits,
                "summary": summary,
                "rows": rows,
                "failures": failures,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
