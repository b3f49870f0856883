"""Command-line entry point: regenerate any paper table or figure.

Usage (installed as ``repro-experiments``, also ``python -m repro.cli``)::

    repro-experiments figure2
    repro-experiments figure4
    repro-experiments figure5 --tasks 500 --workers 20
    repro-experiments figure6
    repro-experiments table1
    repro-experiments scaling --tasks 10000
    repro-experiments ablation
    repro-experiments hybrid
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
    convergence,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    hybrid_study,
    robustness,
    scaling,
    table1,
)
from repro.experiments.config import ExperimentConfig
from repro.service.config import DURABILITY_MODES
from repro.sim.faults import FAULT_PROFILES, make_fault_config
from repro.sim.resilience import (
    CircuitBreakerConfig,
    ResilienceConfig,
    RetryPolicyConfig,
)

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
            "hybrid",
            "robustness",
            "resilience",
            "convergence",
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
    parser.add_argument("--tasks", type=int, default=1000, help="tasks per synthetic workflow")
    parser.add_argument("--workers", type=int, default=20, help="worker pool size")
    parser.add_argument("--seed", type=int, default=0, help="workflow generation seed")
    parser.add_argument(
        "--ramp-up", type=float, default=600.0, help="pool ramp-up window (seconds)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for grid experiments (figure5/figure6); "
        "results are identical to the serial run",
    )
    parser.add_argument(
        "--faults",
        choices=list(FAULT_PROFILES),
        default="none",
        help="seeded fault-injection profile applied to every simulation "
        "(worker preemption, mid-task kills, dispatch failures; "
        "'chaos' adds capacity degradation)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=1.0 / 600.0,
        help="mean fault rate (events/second) for the stochastic profiles",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="RNG seed of the fault schedule (same seed => same faults, "
        "bit-identical replay)",
    )
    parser.add_argument(
        "--fault-trace",
        metavar="LOG",
        default=None,
        help="HTCondor user log whose eviction (004) events drive the "
        "'trace' fault profile (requires --faults trace)",
    )
    parser.add_argument(
        "--retry-budget",
        type=int,
        metavar="N",
        default=None,
        help="dead-letter a task after N exhausted attempts instead of "
        "retrying forever (implies --quarantine)",
    )
    parser.add_argument(
        "--task-deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help="dead-letter a task once SECONDS of simulated time have "
        "passed since it first became ready (implies --quarantine)",
    )
    parser.add_argument(
        "--quarantine",
        action="store_true",
        help="enable poison-task quarantine; without --retry-budget the "
        "budget defaults to 10 exhausted attempts",
    )
    parser.add_argument(
        "--circuit-breaker",
        action="store_true",
        help="switch the allocator to conservative whole-machine "
        "allocations while the recent failed-allocation rate is high "
        "(closed/open/half-open recovery)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="journal completed grid cells and snapshot the running "
        "simulation here (figure5/figure6); enables --resume after a "
        "crash or SIGINT/SIGTERM",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=30.0,
        help="wall-clock seconds between in-cell snapshots (default 30)",
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
        "--durability",
        choices=list(DURABILITY_MODES),
        default="batch",
        help="WAL commit policy under --checkpoint-dir (default: one "
        "fsync per coalesced batch)",
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


def _resilience(args: argparse.Namespace) -> Optional[ResilienceConfig]:
    """Build the resilience policy from the CLI knobs (None = paper-exact)."""
    wants_quarantine = (
        args.quarantine or args.retry_budget is not None or args.task_deadline is not None
    )
    if not wants_quarantine and not args.circuit_breaker:
        return None
    budget = args.retry_budget
    if wants_quarantine and budget is None and args.task_deadline is None:
        budget = 10
    return ResilienceConfig(
        retry=RetryPolicyConfig(budget=budget, deadline=args.task_deadline),
        breaker=CircuitBreakerConfig(enabled=args.circuit_breaker),
    )


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        n_tasks=args.tasks,
        n_workers=args.workers,
        workflow_seed=args.seed,
        ramp_up_seconds=args.ramp_up,
        faults=make_fault_config(
            args.faults,
            rate=args.fault_rate,
            seed=args.fault_seed,
            trace_file=args.fault_trace,
        ),
        resilience=_resilience(args),
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
        checkpoint_interval=args.checkpoint_interval,
        resume=args.resume,
    )


def _serve(args: argparse.Namespace) -> int:
    """Run the allocation-service daemon until shutdown or a signal."""
    import asyncio

    from repro.core.allocator import AllocatorConfig
    from repro.service import CRASH_POINTS, ServiceConfig, run_daemon

    config = ServiceConfig(
        allocator=AllocatorConfig(
            algorithm=args.service_algorithm, seed=args.service_seed
        ),
        n_shards=args.shards,
        data_dir=args.checkpoint_dir,
        durability=args.durability,
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
    args = build_parser().parse_args(argv)
    if args.experiment == "serve":
        return _serve(args)
    if args.experiment in ("fsck", "snapshot-export", "snapshot-import"):
        return _storage_tools(args)
    config = _config(args)
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
        elif target == "hybrid":
            emit(hybrid_study.render(hybrid_study.run(config)))
        elif target == "robustness":
            if args.faults != "none":
                # Compare the chosen fault profile against the
                # fault-free baseline; the config's own faults field is
                # overridden per profile inside the sweep.
                emit(
                    robustness.render_fault_sweep(
                        robustness.run_fault_sweep(
                            config.with_(faults=None),
                            profiles=("none", args.faults),
                            fault_rate=args.fault_rate,
                            fault_seed=args.fault_seed,
                        )
                    )
                )
            else:
                emit(robustness.render_seed_sweep(robustness.run_seed_sweep(config)))
        elif target == "resilience":
            profile = args.faults if args.faults != "none" else "poisson"
            budgets = (
                (None, args.retry_budget)
                if args.retry_budget is not None
                else (None, 10, 25)
            )
            emit(
                robustness.render_policy_matrix(
                    robustness.run_policy_matrix(
                        config.with_(faults=None, resilience=None),
                        profile=profile,
                        budgets=budgets,
                        fault_rate=args.fault_rate,
                        fault_seed=args.fault_seed,
                    )
                )
            )
        elif target == "convergence":
            emit(convergence.render(convergence.run(config)))
        elif target == "service-chaos":
            from repro.experiments import service_chaos

            result = service_chaos.run(seed=args.fault_seed)
            emit(service_chaos.render(result))
            if not result.all_match:
                status = 1
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
