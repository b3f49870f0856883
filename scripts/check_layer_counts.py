"""Hold the per-layer counts of ``benchmarks/e2e`` that repeat exactly.

Usage::

    python3 benchmarks/e2e/run.py --quick --traced | python scripts/check_layer_counts.py
    python scripts/check_layer_counts.py LAYERS.txt [MORE.txt ...]
    python scripts/check_layer_counts.py --same PARENT.txt CHANGE.txt

Timings differ between machines, so CI does not gate them; these counts
are decided by the program alone (same seed, same ops, same number) and
a change that moves one has changed what a request does.  Reads the
output of an all-workload traced run — every line that is a JSON object
with a ``metrics`` entry keyed by workload, other lines are skipped —
and fails unless on every such line ``client.retries``, ``shards.shed``
and ``server.rejected_requests`` are 0 on every workload (the
closed-loop benchmark never overloads the daemon, so a retry, a shed or
a refusal is a bug, not load).  ``protocol.validate_calls_per_op`` is
not held here: ``benchmarks/e2e/test_e2e_smoke.py`` pins it.

``--same`` is the "bit-identical" check of a change that claims to alter
no decision: given the traced runs of two trees at one seed and size, it
fails — naming workload, count and both values — unless every count in
``SAME_COUNTS`` is equal between them on every workload (the n-th traced
line of one file against the n-th of the other).

Standard library only.  Exit status: 0 when every count holds, 1
otherwise (including when no traced line was found).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterable, List

WIRE_WORKLOADS = ("svc-wire-durable", "svc-batch-ingest")

ZERO_COUNTS = ("client.retries", "shards.shed", "server.rejected_requests")

#: Decided by seed and size alone: what the simulator did and decided,
#: how often each layer was entered per op, how many bytes an op costs
#: on the wire and in the WAL.
SAME_COUNTS = (
    "sim.events",
    "sim.events_per_task",
    "sim.awe_mean",
    "allocator.calls_per_kop",
    "records.adds_per_kop",
    "partition.computes_per_kop",
    "checkpoint.fsyncs_per_kop",
    "checkpoint.wal_bytes_per_op",
    "protocol.request_bytes_per_op",
    "protocol.response_bytes_per_op",
)


def traced_lines(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """The per-workload ``metrics`` object of every traced-run JSON line."""
    found = []
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        metrics = doc.get("metrics") if isinstance(doc, dict) else None
        if isinstance(metrics, dict):
            found.append(metrics)
    return found


def _value(metrics: Dict[str, Any], workload: str, name: str) -> Any:
    entry = metrics.get(workload, {}).get(name)
    return entry.get("value") if isinstance(entry, dict) else None


def problems(metrics: Dict[str, Any]) -> List[str]:
    """What one traced line gets wrong; empty when every count holds."""
    wrong = []
    for workload in sorted(set(metrics) | set(WIRE_WORKLOADS)):
        for name in ZERO_COUNTS:
            value = _value(metrics, workload, name)
            if value != 0:
                wrong.append(f"{workload}: {name} is {value!r}, expected 0")
    return wrong


def moved(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """The ``SAME_COUNTS`` that differ between two traced lines."""
    wrong = []
    compared = 0
    for workload in sorted(set(parent) | set(change)):
        for name in SAME_COUNTS:
            before = _value(parent, workload, name)
            after = _value(change, workload, name)
            if before is None and after is None:
                continue
            compared += 1
            if before != after:
                wrong.append(f"{workload}: {name} moved: {before!r} -> {after!r}")
    if not compared:
        wrong.append("none of the counts that repeat exactly is in either run")
    return wrong


def _read(paths: List[str]) -> List[str]:
    lines: List[str] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            lines.extend(handle)
    return lines


def main_same(paths: List[str]) -> int:
    if len(paths) != 2:
        print("usage: check_layer_counts.py --same PARENT.txt CHANGE.txt", file=sys.stderr)
        return 1
    parent, change = (traced_lines(_read([path])) for path in paths)
    if not parent or len(parent) != len(change):
        print(
            f"check_layer_counts: {len(parent)} traced line(s) in {paths[0]}, "
            f"{len(change)} in {paths[1]}; need the same number, at least one",
            file=sys.stderr,
        )
        return 1
    wrong = [problem for pair in zip(parent, change) for problem in moved(*pair)]
    for problem in wrong:
        print(f"check_layer_counts: {problem}", file=sys.stderr)
    if not wrong:
        print(
            f"check_layer_counts: {len(parent)} pair(s) of traced lines, "
            f"all {len(SAME_COUNTS)} exact counts equal on every workload"
        )
    return 1 if wrong else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["--same"]:
        return main_same(argv[1:])
    lines = _read(argv) if argv else sys.stdin.readlines()
    found = traced_lines(lines)
    if not found:
        print("check_layer_counts: no traced-run JSON line in the input", file=sys.stderr)
        return 1
    wrong = [problem for metrics in found for problem in problems(metrics)]
    for problem in wrong:
        print(f"check_layer_counts: {problem}", file=sys.stderr)
    if not wrong:
        print(f"check_layer_counts: {len(found)} traced line(s), every count holds")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
