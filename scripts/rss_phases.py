"""Peak RSS of one end-to-end workload, per phase: set-up, timed, after.

    python scripts/rss_phases.py --workload core-hot-greedy [--seed 0] [--seconds 15 | --quick]

Runs one repetition of a ``benchmarks/e2e`` workload in this process —
the benchmark's own ``run_workload``, imported read-only, nothing
patched — while a thread samples ``/proc/self/statm`` every 5 ms.  The
phases are cut where the workload calls its ``mark`` callback:

* ``set-up``: process start (imports, input generation, service start,
  warm-up) up to ``mark("start")``;
* ``timed``: the measured closed loop, up to ``mark("end")``;
* ``after``: everything the workload does once the clock stopped —
  shard digests, snapshot, crash recovery — up to its return.

``ru_maxrss`` (what the benchmark reports as ``peak_rss_mb``) is printed
too: a transient shorter than the sampling interval shows there and not
in the phase peaks.  Each phase's minor page faults (the ``ru_minflt``
delta across it) sit beside its peak: memory the allocator hands back
to the system and takes again costs faults without moving the peak.
Prints a table, then one JSON object as the last line; exit 1 when the
workload's own correctness check fails, 2 on a usage error.  Linux
only (``/proc``); the script itself imports only the standard library.
"""

from __future__ import annotations

import time

# Before anything else: set-up includes the imports, as in worker.py.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")
PHASES = ("set-up", "timed", "after")
SAMPLE_INTERVAL_S = 0.005
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_MB = 1024.0 * 1024.0


def minor_faults() -> int:
    """Minor page faults this process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


#: Faults before the script's own work; the set-up phase counts from here.
_START_FAULTS = minor_faults()


def current_rss_mb() -> float:
    """Resident set size now, from ``/proc/self/statm`` (field 2, pages)."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_BYTES / _MB


class PhaseSampler:
    """Tracks the peak RSS of whichever phase is current."""

    def __init__(self) -> None:
        self.phase = PHASES[0]
        self.started: Dict[str, float] = {PHASES[0]: _PROCESS_START}
        self.peak: Dict[str, float] = {}
        self.last: Dict[str, float] = {}
        #: Minor faults at each phase's start, and at the end of the last.
        self.faults_at: Dict[str, int] = {PHASES[0]: _START_FAULTS}
        self.faults_end = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        rss = current_rss_mb()
        self.peak[self.phase] = max(self.peak.get(self.phase, 0.0), rss)
        self.last[self.phase] = rss

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.sample()

    def start(self) -> None:
        self.sample()
        self._thread.start()

    def enter(self, phase: str) -> None:
        # Close the old phase and open the new one on the same reading.
        self.sample()
        self.phase = phase
        self.started[phase] = time.perf_counter()
        self.faults_at[phase] = minor_faults()
        self.sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()
        self.faults_end = minor_faults()

    def faults(self) -> Dict[str, int]:
        """Minor page faults taken during each phase."""
        ends = [self.faults_at[phase] for phase in PHASES[1:]] + [self.faults_end]
        return {phase: end - self.faults_at[phase] for phase, end in zip(PHASES, ends)}


def main(argv: Optional[List[str]] = None) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), E2E]
    from run import QUICK_SECONDS, REFERENCE_SECONDS, WORKLOADS  # noqa: E402

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(REFERENCE_SECONDS))
    parser.add_argument(
        "--quick", action="store_true", help=f"same as --seconds {QUICK_SECONDS} (smoke sizes)"
    )
    args = parser.parse_args(argv)
    seconds = float(QUICK_SECONDS) if args.quick else args.seconds
    if not (math.isfinite(seconds) and seconds > 0):
        parser.error(f"--seconds must be a positive finite number, got {seconds!r}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    scale = seconds / REFERENCE_SECONDS

    sampler = PhaseSampler()
    sampler.start()
    import workloads  # noqa: E402

    def mark(which: str) -> float:
        sampler.enter("timed" if which == "start" else "after")
        return time.perf_counter()

    out_dir = tempfile.mkdtemp(prefix="rss-phases-")
    try:
        workloads.run_workload(args.workload, args.seed, scale, mark, out_dir)
    except workloads.CheckFailed as exc:
        print(json.dumps({"check_failed": str(exc)}))
        return 1
    finally:
        sampler.stop()
        shutil.rmtree(out_dir, ignore_errors=True)
    ended = time.perf_counter()

    bounds = [sampler.started[phase] for phase in PHASES] + [ended]
    faults = sampler.faults()
    print(f"{args.workload}  seed {args.seed}  scale {scale:g}")
    print(
        f"{'phase':<8} {'peak_rss_mb':>12} {'end_rss_mb':>11} {'seconds':>8} "
        f"{'minor_faults':>12}"
    )
    for i, phase in enumerate(PHASES):
        print(
            f"{phase:<8} {sampler.peak[phase]:>12.1f} {sampler.last[phase]:>11.1f} "
            f"{bounds[i + 1] - bounds[i]:>8.2f} {faults[phase]:>12d}"
        )
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"process peak (ru_maxrss): {maxrss:.1f} MB")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "scale": scale,
                "peak_rss_mb": {phase: round(sampler.peak[phase], 2) for phase in PHASES},
                "minor_faults": faults,
                "ru_maxrss_mb": round(maxrss, 2),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
