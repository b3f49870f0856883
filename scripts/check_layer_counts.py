"""Hold the per-layer counts of ``benchmarks/e2e`` that repeat exactly.

Usage::

    python3 benchmarks/e2e/run.py --quick --traced | python scripts/check_layer_counts.py
    python scripts/check_layer_counts.py LAYERS.txt [MORE.txt ...]

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

Standard library only.  Exit status: 0 when every count holds, 1
otherwise (including when no traced line was found).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterable, List

WIRE_WORKLOADS = ("svc-wire-durable", "svc-batch-ingest")

ZERO_COUNTS = ("client.retries", "shards.shed", "server.rejected_requests")


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


def problems(metrics: Dict[str, Any]) -> List[str]:
    """What one traced line gets wrong; empty when every count holds."""
    wrong = []
    for workload in sorted(set(metrics) | set(WIRE_WORKLOADS)):
        for name in ZERO_COUNTS:
            entry = metrics.get(workload, {}).get(name)
            value = entry.get("value") if isinstance(entry, dict) else None
            if value != 0:
                wrong.append(f"{workload}: {name} is {value!r}, expected 0")
    return wrong


def main(argv: List[str]) -> int:
    if argv:
        lines: List[str] = []
        for path in argv:
            with open(path, encoding="utf-8") as handle:
                lines.extend(handle)
    else:
        lines = sys.stdin.readlines()
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
