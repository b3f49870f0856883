"""Command-line entry point: regenerate any paper table or figure.

Usage (installed as ``repro-experiments``, also ``python -m repro.cli``)::

    repro-experiments figure2
    repro-experiments figure4
    repro-experiments figure5 --tasks 500 --workers 20
    repro-experiments figure6
    repro-experiments table1
    repro-experiments scaling --tasks 10000
    repro-experiments ablation
    repro-experiments robustness
    repro-experiments all

Each command prints the reproduced rows/series as plain text.

``serve`` is different: it runs the allocation service as a long-lived
daemon (``docs/SERVICE.md``)::

    repro-experiments serve --socket /tmp/repro.sock --checkpoint-dir state/
    repro-experiments serve --port 7654 --shards 8 --service-algorithm greedy_bucketing
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from repro.checkpoint import GracefulShutdown, GridInterrupted, write_text_atomic
from repro.core.base import ALGORITHM_REGISTRY
from repro.experiments import (
    ablation,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    robustness,
    scaling,
    table1,
)
from repro.experiments.config import ExperimentConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "table1",
            "scaling",
            "ablation",
            "robustness",
            "service-chaos",
            "serve",
            "fsck",
            "snapshot-export",
            "snapshot-import",
            "all",
        ],
        help="which artifact to regenerate ('serve' runs the allocation "
        "service daemon; 'fsck'/'snapshot-export'/'snapshot-import' are "
        "offline storage tools for a service data dir)",
    )
    parser.add_argument(
        "--tasks", type=_positive_int, default=1000, help="tasks per synthetic workflow"
    )
    parser.add_argument("--workers", type=_positive_int, default=20, help="worker pool size")
    parser.add_argument(
        "--seed", type=int, default=0, help="workflow generation seed (also seeds service-chaos)"
    )
    parser.add_argument(
        "--ramp-up", type=float, default=600.0, help="pool ramp-up window (seconds)"
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for grid experiments (figure5/figure6); "
        "results are identical to the serial run",
    )
    parser.add_argument(
        "--retry-budget",
        type=_positive_int,
        metavar="N",
        default=None,
        help="dead-letter a task (and its waiting descendants) after N "
        "exhausted attempts instead of retrying forever",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="journal completed grid cells here (figure5/figure6); "
        "enables --resume after a crash or SIGINT/SIGTERM",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint-dir instead of starting fresh; "
        "the resumed run is bit-identical to an uninterrupted one",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the rendered text to FILE (atomic replace)",
    )
    parser.add_argument("--verbose", action="store_true", help="print per-cell progress")
    service = parser.add_argument_group(
        "serve", "allocation-service daemon options (docs/SERVICE.md)"
    )
    service.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="serve on this UNIX socket (mutually exclusive with --port)",
    )
    service.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default 127.0.0.1)"
    )
    service.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound endpoint is announced "
        "on stdout as one JSON line)",
    )
    service.add_argument(
        "--shards",
        type=int,
        default=4,
        help="single-writer allocation shards (categories hash across them)",
    )
    service.add_argument(
        "--service-algorithm",
        choices=sorted(ALGORITHM_REGISTRY),
        default="exhaustive_bucketing",
        help="allocation algorithm every shard runs",
    )
    service.add_argument(
        "--service-seed",
        type=int,
        default=0,
        help="base seed shard allocator seeds are derived from",
    )
    service.add_argument(
        "--max-connections",
        type=int,
        default=128,
        help="concurrent wire connections; excess connections get a "
        "typed 'overloaded' error with retry_after and a clean close",
    )
    service.add_argument(
        "--read-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-connection read deadline; a connection idle (or "
        "slow-loris dribbling) past it mid-request gets a typed "
        "'timeout' error and is disconnected (default: no deadline)",
    )
    service.add_argument(
        "--dedup-window",
        type=int,
        default=1024,
        help="per-shard idempotency window: keyed mutating requests "
        "repeating a remembered key are answered with the stored "
        "response verbatim (exactly-once across retries; 0 disables)",
    )
    service.add_argument(
        "--snapshot-retention",
        type=int,
        default=3,
        help="snapshot generations to keep on disk; older generations "
        "and their archived WAL segments are pruned after each cut",
    )
    storage = parser.add_argument_group(
        "storage tools", "fsck / snapshot-export / snapshot-import options"
    )
    storage.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help="service data directory to audit (fsck), back up "
        "(snapshot-export), or restore into (snapshot-import)",
    )
    storage.add_argument(
        "--json",
        action="store_true",
        help="emit the fsck report as JSON instead of text",
    )
    storage.add_argument(
        "--archive",
        metavar="TARBALL",
        default=None,
        help="backup tarball path: written by snapshot-export, read by "
        "snapshot-import",
    )
    storage.add_argument(
        "--force",
        action="store_true",
        help="let snapshot-import overwrite a data dir that already "
        "holds service files",
    )
    service.add_argument(
        "--chaos-crash",
        metavar="SITE[:HIT]",
        default=None,
        help="test instrumentation: hard-exit the daemon (os._exit(70)) "
        "the HIT-th time the named crash site is reached "
        "(docs/SERVICE.md lists the sites); never use in production",
    )
    return parser


def _positive_int(text: str) -> int:
    """argparse type for counts: a bad value is a usage error, not a traceback."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        n_tasks=args.tasks,
        n_workers=args.workers,
        workflow_seed=args.seed,
        ramp_up_seconds=args.ramp_up,
        retry_budget=args.retry_budget,
    )


def _durable(config: ExperimentConfig, args: argparse.Namespace, target: str) -> ExperimentConfig:
    """Attach the checkpoint knobs for one grid target.

    Each target gets its own subdirectory of ``--checkpoint-dir`` so
    ``all`` never mixes journals with different grid digests.
    """
    if args.checkpoint_dir is None:
        return config
    import os

    return config.with_(
        checkpoint_dir=os.path.join(args.checkpoint_dir, target),
        resume=args.resume,
    )


def _serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the allocation-service daemon until shutdown or a signal.

    A value ``ServiceConfig`` or the crash-point registry refuses is a
    usage error (exit 2), not a traceback.
    """
    import asyncio

    from repro.core.allocator import AllocatorConfig
    from repro.service import CRASH_POINTS, ServiceConfig, run_daemon

    try:
        config = ServiceConfig(
            allocator=AllocatorConfig(
                algorithm=args.service_algorithm, seed=args.service_seed
            ),
            n_shards=args.shards,
            data_dir=args.checkpoint_dir,
            max_connections=args.max_connections,
            read_timeout=args.read_timeout,
            dedup_window=args.dedup_window,
            snapshot_retention=args.snapshot_retention,
        )
        if args.chaos_crash is not None:
            # Crash-point test instrumentation: die mid-operation at the
            # named site, exactly like an opportunistic node disappearing.
            site, _, hit = args.chaos_crash.partition(":")
            CRASH_POINTS.arm(site, at_hit=int(hit) if hit else 1, mode="exit")
    except ValueError as exc:
        parser.error(f"serve: {exc}")
    return asyncio.run(
        run_daemon(config, socket_path=args.socket, host=args.host, port=args.port)
    )


def _storage_tools(args: argparse.Namespace) -> int:
    """Offline data-dir tooling: fsck / snapshot-export / snapshot-import."""
    import json as _json

    from repro.service.fsck import (
        FSCK_FAILED,
        export_backup,
        import_backup,
        render_report,
        run_fsck,
    )

    if args.data_dir is None:
        print(f"[repro] {args.experiment} requires --data-dir", file=sys.stderr)
        return FSCK_FAILED
    try:
        if args.experiment == "fsck":
            report = run_fsck(args.data_dir)
            if args.json:
                print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
            else:
                print(render_report(report))
            return report.exit_code
        if args.archive is None:
            print(f"[repro] {args.experiment} requires --archive", file=sys.stderr)
            return FSCK_FAILED
        if args.experiment == "snapshot-export":
            manifest = export_backup(args.data_dir, args.archive)
            print(
                f"[repro] exported {len(manifest['files'])} file(s) from "
                f"{args.data_dir} to {args.archive}"
            )
            return 0
        manifest = import_backup(args.archive, args.data_dir, force=args.force)
        print(
            f"[repro] restored {len(manifest['files'])} file(s) from "
            f"{args.archive} into {args.data_dir} (digests verified)"
        )
        return 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"[repro] {args.experiment} failed: {exc}", file=sys.stderr)
        return FSCK_FAILED


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    if args.experiment == "serve":
        return _serve(args, parser)
    if args.experiment in ("fsck", "snapshot-export", "snapshot-import"):
        return _storage_tools(args)
    try:
        config = _config(args)
    except ValueError as exc:
        parser.error(str(exc))
    targets = (
        ["figure2", "figure3", "figure4", "figure5", "figure6", "table1"]
        if args.experiment == "all"
        else [args.experiment]
    )
    rendered: List[str] = []

    def emit(text: str) -> None:
        print(text)
        rendered.append(text)

    shutdown = GracefulShutdown()
    try:
        with shutdown:
            status = _run_targets(targets, args, config, shutdown, emit)
    except GridInterrupted as exc:
        print(
            f"\n[repro] {exc}\n[repro] resume with: repro-experiments "
            f"{args.experiment} --checkpoint-dir {args.checkpoint_dir} --resume "
            "(plus your original options)",
            file=sys.stderr,
        )
        return 128 + (exc.signum if exc.signum is not None else signal.SIGTERM)
    if args.out is not None:
        write_text_atomic(args.out, "\n".join(rendered) + "\n")
    return status


def _run_targets(targets, args, config, shutdown, emit) -> int:
    """Run and emit each target; 1 when a target's own verdict failed."""
    status = 0
    for target in targets:
        if target == "figure2":
            emit(figure2.render(figure2.run(seed=args.seed)))
        elif target == "figure3":
            emit(figure3.render(figure3.run(seed=args.seed)))
        elif target == "figure4":
            emit(figure4.render(figure4.run(n_tasks=args.tasks, seed=args.seed)))
        elif target == "figure5":
            emit(
                figure5.render(
                    figure5.run(
                        config=_durable(config, args, target),
                        verbose=args.verbose,
                        jobs=args.jobs,
                        shutdown=shutdown,
                    )
                )
            )
        elif target == "figure6":
            emit(
                figure6.render(
                    figure6.run(
                        config=_durable(config, args, target),
                        verbose=args.verbose,
                        jobs=args.jobs,
                        shutdown=shutdown,
                    )
                )
            )
        elif target == "table1":
            emit(table1.render(table1.run()))
        elif target == "scaling":
            counts = [c for c in (500, 1000, 2000, 5000, 10000) if c <= args.tasks] or [args.tasks]
            emit(scaling.render(scaling.run(task_counts=counts, config=config.with_(n_tasks=1000))))
        elif target == "ablation":
            emit(ablation.render(ablation.run(config)))
        elif target == "robustness":
            emit(robustness.render_seed_sweep(robustness.run_seed_sweep(config)))
        elif target == "service-chaos":
            from repro.experiments import service_chaos

            result = service_chaos.run(seed=args.seed)
            emit(service_chaos.render(result))
            if not result.all_match:
                status = 1
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
