"""One repetition of one workload in a fresh process.

Spawned by ``run.py``; prints one JSON object as its last stdout line.
A fresh process per repetition is what makes ``setup_s`` (imports,
input generation, service start, connect, warm-up) and ``peak_rss_mb``
per-repetition facts rather than leftovers of the previous one.
"""

import time

# Before numpy / repro: set-up time includes the imports.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
sys.path[:0] = [_SRC, _HERE]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "setup-only", "traced"), default="timed")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    import workloads

    tracer = None
    installed = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        installed = tracing.install(tracer)

    marks = {}

    def mark(which: str) -> float:
        if tracer is not None:
            tracer.mark(which)
        marks[which] = time.perf_counter()
        return marks[which]

    try:
        result = workloads.run_workload(
            args.workload,
            args.seed,
            args.scale,
            mark,
            args.out_dir,
            setup_only=args.mode == "setup-only",
            tracer=tracer,
        )
    except workloads.CheckFailed as exc:
        print(json.dumps({"check_failed": str(exc)}))
        return 1
    finally:
        if installed is not None:
            tracing.uninstall(installed)

    result["setup_s"] = marks["start"] - _PROCESS_START
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, result)
        trace_path = os.path.join(args.out_dir, f"trace-{args.workload}.json")
        tracer.dump(trace_path)
        result["trace_path"] = trace_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
