"""Grid runner: (workflow x algorithm) simulation sweeps.

``run_grid`` executes every (workflow, algorithm) cell either serially
in-process (``jobs=1``, the default) or across a spawn-based
``ProcessPoolExecutor`` (``jobs > 1``).  Cells are fully independent —
each builds its workflow and allocator from the shared
:class:`~repro.experiments.config.ExperimentConfig` seeds — so the
parallel path is bit-identical to the serial one, cell for cell.

Crash safety (``config.checkpoint_dir``): the cell is the unit of
durability.  Completed cells are journaled to a write-ahead
``journal.jsonl`` (header + one line per cell result); a cell that a
crash or SIGINT/SIGTERM cuts short is dropped.  Relaunching with
``config.resume=True`` skips the journaled cells and reruns the rest
from their seeds, which produces exactly the results an uninterrupted
run would have.  A cell is never resumed mid-simulation: the event
queue holds closures, so the only way back into a cell is to replay it
from event 0, which costs as much as rerunning it.  The journal is
bound to a digest of the grid definition, so a checkpoint directory can
never silently feed a different experiment.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checkpoint import (
    CheckpointError,
    GracefulShutdown,
    GridInterrupted,
    JournalWriter,
    encode_frame,
    recover_jsonl,
    state_digest,
    write_text_atomic,
)
from repro.experiments.config import (
    ALLOCATOR_SEED,
    PAPER_ALGORITHMS,
    PAPER_WORKFLOWS,
    POOL_SEED,
    ExperimentConfig,
    make_workflow,
)
from repro.metrics.summary import EfficiencySummary, summarize_result
from repro.sim.manager import SimulationConfig, SimulationResult, WorkflowManager
from repro.workflows.spec import WorkflowSpec

__all__ = ["run_cell", "run_grid", "GridResult", "grid_digest"]

#: Journal header kind; the first line of every ``journal.jsonl``.
_JOURNAL_KIND = "grid-journal"
_JOURNAL_VERSION = 1
_JOURNAL_NAME = "journal.jsonl"


def run_cell(
    workflow: WorkflowSpec | str,
    algorithm: str,
    config: Optional[ExperimentConfig] = None,
    **allocator_overrides,
) -> SimulationResult:
    """Run one (workflow, algorithm) cell end to end.

    The pseudo-algorithm ``"oracle"`` runs the simulator's oracle mode:
    every task allocated exactly its true consumption (the reference
    ceiling of Section II-C).

    The parallel grid runs each cell through this function in a worker
    process.  Workflow generation is deterministic in
    ``workflow_seed`` and the allocator/pool seeds come from the
    config, so a cell run here is bit-identical to the serial path's.
    """
    config = config if config is not None else ExperimentConfig()
    if isinstance(workflow, str):
        workflow = make_workflow(
            workflow, n_tasks=config.n_tasks, seed=config.workflow_seed
        )
    manager = WorkflowManager(workflow, _simulation_config(config, algorithm, allocator_overrides))
    return manager.run()


def _simulation_config(config: ExperimentConfig, algorithm: str, overrides):
    import dataclasses

    if algorithm == "oracle":
        sim = config.simulation_config("whole_machine", **overrides)
        return dataclasses.replace(sim, oracle=True)
    return config.simulation_config(algorithm, **overrides)


@dataclass
class GridResult:
    """All cells of a (workflows x algorithms) sweep."""

    config: ExperimentConfig
    workflows: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    cells: Dict[Tuple[str, str], SimulationResult]

    def summary(self, workflow: str, algorithm: str) -> EfficiencySummary:
        return summarize_result(self.cells[workflow, algorithm])

    def summaries(self) -> Dict[Tuple[str, str], EfficiencySummary]:
        return {key: summarize_result(res) for key, res in self.cells.items()}

    def awe(self, workflow: str, algorithm: str, resource_key: str) -> float:
        return self.summary(workflow, algorithm).awe[resource_key]

    def best_algorithm(self, workflow: str, resource_key: str) -> str:
        """Highest-AWE algorithm for one (workflow, resource) column."""
        return max(
            self.algorithms,
            key=lambda algo: self.awe(workflow, algo, resource_key),
        )


def grid_digest(
    workflows: Sequence[str],
    algorithms: Sequence[str],
    config: ExperimentConfig,
) -> str:
    """Digest binding a journal to one grid definition.

    Covers everything that determines the results — the cell list, every
    simulation-relevant config field and the seeds and profile pinned as
    constants — and deliberately excludes the checkpoint plumbing
    (``checkpoint_dir``, ``resume``), which may legitimately differ
    between the interrupted run and its relaunch.
    """
    return state_digest({
        "workflows": list(workflows),
        "algorithms": list(algorithms),
        "n_workers": config.n_workers,
        "ramp_up_seconds": config.ramp_up_seconds,
        "n_tasks": config.n_tasks,
        "workflow_seed": config.workflow_seed,
        "allocator_seed": ALLOCATOR_SEED,
        "pool_seed": POOL_SEED,
        "profile": _stable_repr(SimulationConfig().profile),
        "retry_budget": config.retry_budget,
    })


def _stable_repr(obj: Any) -> str:
    """Process-independent canonical form for config sub-objects.

    Dataclass reprs are already deterministic; plain objects (e.g. the
    consumption profiles) fall back to class name + sorted instance
    attributes, never the default ``object.__repr__`` (whose memory
    address would change every process and break resume digests).
    """
    import dataclasses

    if obj is None or dataclasses.is_dataclass(obj):
        return repr(obj)
    attrs = ",".join(
        f"{name}="
        + (repr(value) if isinstance(value, (int, float, str, bool)) else _stable_repr(value))
        for name, value in sorted(vars(obj).items())
    )
    return f"{type(obj).__qualname__}({attrs})"


class _GridJournal:
    """Write-ahead journal of completed grid cells.

    Line 1 is a header binding the file to a grid digest; every further
    line is one completed cell's full :class:`SimulationResult` state.
    Appends are fsynced, so a crash tears at most the final line (which
    the reader drops — that cell simply reruns).
    """

    def __init__(self, directory: str, digest: str) -> None:
        self._dir = directory
        self._digest = digest
        self.journal_path = os.path.join(directory, _JOURNAL_NAME)

    def start_fresh(self) -> None:
        os.makedirs(self._dir, exist_ok=True)
        header = {"kind": _JOURNAL_KIND, "version": _JOURNAL_VERSION, "digest": self._digest}
        write_text_atomic(self.journal_path, encode_frame(header) + "\n")

    def exists(self) -> bool:
        return os.path.exists(self.journal_path)

    def load_completed(self) -> Dict[Tuple[str, str], SimulationResult]:
        """Validate the header and replay the journaled cell results.

        A journal with mid-stream corruption (bit rot, a truncated
        copy) is not fatal to resume: the damaged file is quarantined
        into ``<journal>.corrupt/``, the valid prefix is kept, and the
        cells whose records were lost simply recompute — the grid
        digest in the header guarantees they recompute identically.
        """
        rows, recovery = recover_jsonl(self.journal_path)
        if recovery is not None:
            print(
                f"[repro] grid journal corrupt at line {recovery.line} — "
                f"kept {recovery.docs_kept} record(s), quarantined the "
                f"damaged file to {recovery.quarantined_to}; lost cells "
                "will recompute",
                file=sys.stderr,
            )
        if not rows or not isinstance(rows[0], dict) or rows[0].get("kind") != _JOURNAL_KIND:
            raise CheckpointError(f"{self.journal_path!r} is not a grid journal")
        if rows[0].get("version") != _JOURNAL_VERSION:
            raise CheckpointError(
                f"grid journal {self.journal_path!r} has version "
                f"{rows[0].get('version')!r}; this build reads {_JOURNAL_VERSION}"
            )
        if rows[0].get("digest") != self._digest:
            raise CheckpointError(
                "grid journal belongs to a different experiment (digest "
                "mismatch) — refusing to mix results; point --checkpoint-dir "
                "at a fresh directory or drop --resume"
            )
        completed: Dict[Tuple[str, str], SimulationResult] = {}
        for row in rows[1:]:
            key = (row["workflow"], row["algorithm"])
            completed[key] = SimulationResult.from_state(row["result"])
        # Rewrite minus any torn tail, so future appends start on a
        # clean line boundary.
        write_text_atomic(
            self.journal_path,
            "".join(encode_frame(row) + "\n" for row in rows),
        )
        return completed

    def record(self, key: Tuple[str, str], result: SimulationResult) -> None:
        writer = JournalWriter(self.journal_path)
        try:
            writer.append(
                {"workflow": key[0], "algorithm": key[1], "result": result.state_dict()}
            )
        finally:
            # The append's group commit fsynced the frame; close() would
            # fsync again, and after a failed append it must not.
            writer.abandon()


def run_grid(
    workflows: Sequence[str] = PAPER_WORKFLOWS,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    config: Optional[ExperimentConfig] = None,
    verbose: bool = False,
    jobs: int = 1,
    shutdown: Optional[GracefulShutdown] = None,
) -> GridResult:
    """Run the full evaluation grid (Figures 5 and 6 share it).

    Workflows are generated once per workflow name and reused (serial
    path) or regenerated per cell from the same seed (parallel path), so
    every algorithm sees the identical task stream either way.

    ``jobs`` > 1 fans the cells out over that many worker processes
    using the ``spawn`` start method (safe under any threading model);
    ``jobs=1`` keeps everything serial in-process.  Results are
    identical cell for cell regardless of ``jobs``.

    With ``config.checkpoint_dir`` set, completed cells are journaled
    as they finish.  ``shutdown`` — a
    :class:`~repro.checkpoint.GracefulShutdown` — turns SIGINT/SIGTERM
    into :class:`~repro.checkpoint.GridInterrupted`; the cells still
    running are dropped.  ``config.resume=True`` continues such a run
    bit-identically.
    """
    config = config if config is not None else ExperimentConfig()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    keys = [(wf, algo) for wf in workflows for algo in algorithms]

    journal: Optional[_GridJournal] = None
    completed: Dict[Tuple[str, str], SimulationResult] = {}
    if config.checkpoint_dir is not None:
        journal = _GridJournal(
            config.checkpoint_dir, grid_digest(workflows, algorithms, config)
        )
        if config.resume and journal.exists():
            completed = journal.load_completed()
        else:
            # resume with no journal yet = fresh start; this is what a
            # relaunch of ``all --resume`` hits for the targets the
            # interrupted run never reached.
            journal.start_fresh()
    elif config.resume:
        raise CheckpointError("resume=True requires checkpoint_dir to be set")

    cells: Dict[Tuple[str, str], SimulationResult] = {}
    if jobs == 1:
        _run_serial(keys, config, cells, completed, journal, shutdown, verbose)
    else:
        _run_parallel(keys, config, cells, completed, journal, shutdown, verbose, jobs)
    return GridResult(
        config=config,
        workflows=tuple(workflows),
        algorithms=tuple(algorithms),
        cells=cells,
    )


def _check_shutdown(shutdown: Optional[GracefulShutdown], journaled: int) -> None:
    if shutdown is not None and shutdown.triggered:
        raise GridInterrupted(shutdown.signum, journaled)


def _run_serial(
    keys: List[Tuple[str, str]],
    config: ExperimentConfig,
    cells: Dict[Tuple[str, str], SimulationResult],
    completed: Dict[Tuple[str, str], SimulationResult],
    journal: Optional[_GridJournal],
    shutdown: Optional[GracefulShutdown],
    verbose: bool,
) -> None:
    def poll() -> None:
        # After every simulation event: a signal interrupts the running
        # cell within one event, and the cell is dropped, not saved.
        _check_shutdown(shutdown, len(cells))

    workflow_cache: Dict[str, WorkflowSpec] = {}
    for key in keys:
        wf_name, algorithm = key
        if key in completed:
            cells[key] = completed[key]
            continue
        _check_shutdown(shutdown, len(cells))
        if wf_name not in workflow_cache:
            workflow_cache[wf_name] = make_workflow(
                wf_name, n_tasks=config.n_tasks, seed=config.workflow_seed
            )
        manager = WorkflowManager(
            workflow_cache[wf_name], _simulation_config(config, algorithm, {})
        )
        if shutdown is not None:
            manager.engine.add_listener(poll)
        result = manager.run()
        cells[key] = result
        if journal is not None:
            journal.record(key, result)
        if verbose:
            _print_cell(wf_name, algorithm, result)


def _run_parallel(
    keys: List[Tuple[str, str]],
    config: ExperimentConfig,
    cells: Dict[Tuple[str, str], SimulationResult],
    completed: Dict[Tuple[str, str], SimulationResult],
    journal: Optional[_GridJournal],
    shutdown: Optional[GracefulShutdown],
    verbose: bool,
    jobs: int,
) -> None:
    """Parallel path: the same cell-grain durability as the serial one.

    An interrupt journals every cell whose result has already been
    collected and cancels the not-yet-started ones; the cells running
    in worker processes are dropped.  A resumed run reruns only the
    cells that never made it into the journal.
    """
    for key in keys:
        if key in completed:
            cells[key] = completed[key]
    pending = [key for key in keys if key not in completed]
    if not pending:
        return
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
        futures = {
            key: pool.submit(run_cell, key[0], key[1], config)
            for key in pending
        }
        try:
            for key in pending:
                _check_shutdown(shutdown, len(cells))
                cells[key] = futures[key].result()
                if journal is not None:
                    journal.record(key, cells[key])
                if verbose:
                    _print_cell(key[0], key[1], cells[key])
        except GridInterrupted:
            for future in futures.values():
                future.cancel()
            raise


def _print_cell(wf_name: str, algorithm: str, result: SimulationResult) -> None:
    print(
        f"[grid] {wf_name:12s} {algorithm:22s} "
        f"attempts={result.n_attempts:5d} "
        f"awe={ {r.key: round(result.ledger.awe(r), 3) for r in result.ledger.resources} }"
    )
