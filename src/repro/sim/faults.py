"""Deterministic fault injection for the simulator.

The paper's premise is allocation under adversity: workers are
opportunistic ("joining and leaving the worker pool over time",
Section II-C) and tasks are killed the moment they overrun an
allocation (Section II-B, assumption 4).  The stochastic churn model in
:mod:`repro.sim.pool` exercises the benign version of that adversity;
this module injects the hostile version, on purpose and reproducibly:

* **Worker preemption** — the batch system reclaims a pilot outright.
  Three schedules: :class:`FixedPreemptions` (explicit times),
  :class:`PoissonPreemptions` (seeded exponential gaps), and
  :class:`TracePreemptions` (replay a recorded ``(time, worker_id)``
  trace).
* **Mid-task kills** — a running task dies without its worker (node
  flakiness, OOM-killer collateral, operator action).  The attempt is
  accounted exactly like an eviction: it says nothing about the
  allocation's adequacy, so the task retries with the same allocation.
* **Transient dispatch failures** — placing a task on a worker fails
  spuriously (lost message, container start failure); the manager
  re-queues the task and retries after exponential backoff.
* **Capacity degradation** — a worker shrinks *under* the tasks it
  hosts (partial reclaim); tasks that no longer fit are evicted.

Every fault is an event-engine closure drawing from one injector-owned
``numpy`` generator, so the existing determinism guarantee carries
over: the same seeds replay the same faults, byte for byte.  The
injector protects the ``min_survivors`` lowest-numbered alive workers
from preemption and degradation so a fault schedule can be adversarial
without being unwinnable — with pool churn disabled, at least that many
full-capacity workers survive the whole run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.resources import ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.pool import WorkerPool

__all__ = [
    "FixedPreemptions",
    "PoissonPreemptions",
    "TracePreemptions",
    "TaskKillConfig",
    "DispatchFaultConfig",
    "DegradationConfig",
    "FaultConfig",
    "FaultStats",
    "FaultInjector",
    "FAULT_PROFILES",
    "make_fault_config",
    "parse_htcondor_eviction_log",
]


@dataclass(frozen=True)
class FixedPreemptions:
    """Preempt one (injector-chosen) worker at each listed time."""

    times: Tuple[float, ...]

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.times):
            raise ValueError("preemption times must be >= 0")


@dataclass(frozen=True)
class PoissonPreemptions:
    """Memoryless preemptions: exponential gaps with the given rate.

    ``rate`` is events per simulated second; ``until`` optionally stops
    the process (``None`` keeps it running until the workflow ends).
    """

    rate: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"preemption rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class TracePreemptions:
    """Replay a recorded preemption trace of ``(time, worker_id)``.

    Entries naming a worker that is already gone are counted as
    suppressed, matching what replaying a real batch-system log against
    a diverged simulation would do.
    """

    events: Tuple[Tuple[float, int], ...]

    def __post_init__(self) -> None:
        if any(t < 0 for t, _ in self.events):
            raise ValueError("trace times must be >= 0")


PreemptionSchedule = Union[FixedPreemptions, PoissonPreemptions, TracePreemptions]


@dataclass(frozen=True)
class TaskKillConfig:
    """Poisson process of mid-task kills.

    At each event one running (non-immune) task is killed and requeued
    with its allocation unchanged.  ``max_kills_per_task`` bounds the
    adversary so every workflow still terminates: after that many
    fault kills a task becomes immune.
    """

    rate: float
    until: Optional[float] = None
    max_kills_per_task: int = 5

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"kill rate must be positive, got {self.rate}")
        if self.max_kills_per_task < 1:
            raise ValueError("max_kills_per_task must be >= 1")


@dataclass(frozen=True)
class DispatchFaultConfig:
    """Transient dispatch failures with exponential retry backoff.

    Each dispatch attempt independently fails with ``probability``; the
    manager re-queues the task and waits ``backoff * factor**k`` seconds
    (capped at ``max_backoff``) where ``k`` counts the task's previous
    dispatch faults.  ``max_faults_per_task`` makes a task immune after
    that many failures, bounding the adversary.
    """

    probability: float
    backoff: float = 5.0
    factor: float = 2.0
    max_backoff: float = 300.0
    max_faults_per_task: int = 8

    def __post_init__(self) -> None:
        if not (0.0 < self.probability < 1.0):
            raise ValueError(
                f"dispatch fault probability must be in (0, 1), got {self.probability}"
            )
        if self.backoff <= 0 or self.max_backoff < self.backoff:
            raise ValueError("need 0 < backoff <= max_backoff")
        if self.factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.factor}")
        if self.max_faults_per_task < 1:
            raise ValueError("max_faults_per_task must be >= 1")


@dataclass(frozen=True)
class DegradationConfig:
    """Poisson process of in-place capacity reclaims.

    At each event one (non-protected) worker's capacity is multiplied by
    ``factor``; ``floor_fraction`` of the original capacity is the hard
    lower bound, so repeated degradations converge instead of shrinking
    a worker to nothing.
    """

    rate: float
    factor: float = 0.5
    floor_fraction: float = 0.25
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"degradation rate must be positive, got {self.rate}")
        if not (0.0 < self.factor < 1.0):
            raise ValueError(f"degradation factor must be in (0, 1), got {self.factor}")
        if not (0.0 < self.floor_fraction <= 1.0):
            raise ValueError(
                f"floor_fraction must be in (0, 1], got {self.floor_fraction}"
            )


@dataclass(frozen=True)
class FaultConfig:
    """Everything the injector may do to one run, and with which seed."""

    preemption: Optional[PreemptionSchedule] = None
    kills: Optional[TaskKillConfig] = None
    dispatch: Optional[DispatchFaultConfig] = None
    degradation: Optional[DegradationConfig] = None
    seed: int = 0
    #: Number of lowest-id alive workers shielded from preemption and
    #: degradation.  With churn disabled this many full-capacity
    #: workers are guaranteed to survive, so every workflow that fits a
    #: worker still completes under any fault schedule.
    min_survivors: int = 1

    def __post_init__(self) -> None:
        if self.min_survivors < 0:
            raise ValueError(f"min_survivors must be >= 0, got {self.min_survivors}")

    @property
    def enabled(self) -> bool:
        return any(
            f is not None
            for f in (self.preemption, self.kills, self.dispatch, self.degradation)
        )


@dataclass
class FaultStats:
    """What the injector actually did during one run."""

    preemptions: int = 0
    task_kills: int = 0
    dispatch_faults: int = 0
    degradations: int = 0
    #: Events that fired but found no eligible victim.
    suppressed: int = 0

    def total(self) -> int:
        return (
            self.preemptions + self.task_kills + self.dispatch_faults + self.degradations
        )


class FaultInjector:
    """Drives one :class:`FaultConfig` through the event engine.

    The manager constructs the injector alongside the pool and provides
    two hooks: ``running_tasks`` (current killable task ids) and
    ``kill_task`` (terminate one running attempt as a fault).  All
    fault randomness comes from the injector's own generator, separate
    from the pool's churn RNG and the allocator's RNG, so adding or
    removing faults never perturbs the other stochastic processes.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        pool: WorkerPool,
        config: FaultConfig,
        running_tasks: Callable[[], Tuple[int, ...]],
        kill_task: Callable[[int], bool],
    ) -> None:
        self._engine = engine
        self._pool = pool
        self._config = config
        self._running_tasks = running_tasks
        self._kill_task = kill_task
        self._rng = np.random.default_rng(config.seed)
        self._stopped = False
        self._kills_per_task: Dict[int, int] = {}
        self._dispatch_faults_per_task: Dict[int, int] = {}
        self._original_capacity: Dict[int, ResourceVector] = {}
        self.stats = FaultStats()
        self._schedule_all()

    @property
    def config(self) -> FaultConfig:
        return self._config

    def stop(self) -> None:
        """Stop generating fault events so the queue can drain."""
        self._stopped = True

    # -- scheduling ---------------------------------------------------------------

    def _schedule_all(self) -> None:
        cfg = self._config
        if isinstance(cfg.preemption, FixedPreemptions):
            for time in cfg.preemption.times:
                self._engine.schedule_at(time, self._preempt_random)
        elif isinstance(cfg.preemption, TracePreemptions):
            for time, worker_id in cfg.preemption.events:
                self._engine.schedule_at(
                    time, lambda wid=worker_id: self._preempt_specific(wid)
                )
        elif isinstance(cfg.preemption, PoissonPreemptions):
            self._arm(cfg.preemption.rate, cfg.preemption.until, self._preempt_random)
        if cfg.kills is not None:
            self._arm(cfg.kills.rate, cfg.kills.until, self._kill_random)
        if cfg.degradation is not None:
            self._arm(cfg.degradation.rate, cfg.degradation.until, self._degrade_random)

    def _arm(
        self, rate: float, until: Optional[float], action: Callable[[], None]
    ) -> None:
        """Self-rescheduling Poisson process, stopped by :meth:`stop`."""
        delay = float(self._rng.exponential(1.0 / rate))
        deadline = until

        def fire() -> None:
            if self._stopped:
                return
            if deadline is not None and self._engine.now > deadline:
                return
            action()
            self._arm(rate, deadline, action)

        self._engine.schedule(delay, fire)

    # -- victim selection --------------------------------------------------------------

    def _eligible_workers(self) -> List[int]:
        """Alive worker ids minus the protected survivors (lowest ids)."""
        alive = sorted(w.worker_id for w in self._pool.alive_workers())
        return alive[self._config.min_survivors:]

    # -- fault actions ------------------------------------------------------------------

    def _preempt_random(self) -> None:
        if self._stopped:
            return
        eligible = self._eligible_workers()
        if not eligible:
            self.stats.suppressed += 1
            return
        victim = int(self._rng.choice(eligible))
        if self._pool.preempt_worker(victim):
            self.stats.preemptions += 1
        else:  # pragma: no cover - eligible workers are alive by construction
            self.stats.suppressed += 1

    def _preempt_specific(self, worker_id: int) -> None:
        if self._stopped:
            return
        if self._pool.preempt_worker(worker_id):
            self.stats.preemptions += 1
        else:
            self.stats.suppressed += 1

    def _kill_random(self) -> None:
        assert self._config.kills is not None
        limit = self._config.kills.max_kills_per_task
        killable = [
            t
            for t in sorted(self._running_tasks())
            if self._kills_per_task.get(t, 0) < limit
        ]
        if not killable:
            self.stats.suppressed += 1
            return
        victim = int(self._rng.choice(killable))
        if self._kill_task(victim):
            self._kills_per_task[victim] = self._kills_per_task.get(victim, 0) + 1
            self.stats.task_kills += 1
        else:  # pragma: no cover - victims come from running_tasks()
            self.stats.suppressed += 1

    def _degrade_random(self) -> None:
        cfg = self._config.degradation
        assert cfg is not None
        eligible = self._eligible_workers()
        if not eligible:
            self.stats.suppressed += 1
            return
        victim = int(self._rng.choice(eligible))
        worker = self._pool.worker(victim)
        original = self._original_capacity.setdefault(victim, worker.capacity)
        floor = original * cfg.floor_fraction
        target = (worker.capacity * cfg.factor).componentwise_max(floor)
        if target == worker.capacity:
            self.stats.suppressed += 1
            return
        if self._pool.degrade_worker(victim, target):
            self.stats.degradations += 1

    # -- dispatch-failure hook (called by the manager) ---------------------------------

    def dispatch_fault_delay(self, task_id: int) -> Optional[float]:
        """Whether this dispatch attempt fails; the retry backoff if so.

        Returns ``None`` when the dispatch proceeds normally.  The
        backoff grows exponentially in the task's previous dispatch
        faults and the stats counter is bumped on every failure.
        """
        cfg = self._config.dispatch
        if cfg is None or self._stopped:
            return None
        failures = self._dispatch_faults_per_task.get(task_id, 0)
        if failures >= cfg.max_faults_per_task:
            return None
        if float(self._rng.random()) >= cfg.probability:
            return None
        self._dispatch_faults_per_task[task_id] = failures + 1
        self.stats.dispatch_faults += 1
        return min(cfg.max_backoff, cfg.backoff * cfg.factor**failures)

    def __repr__(self) -> str:
        return f"FaultInjector(stats={self.stats!r}, stopped={self._stopped})"


#: Named presets for the CLI and the robustness experiments.  ``rate``
#: scales the Poisson processes; the per-process rates below are the
#: fractions of it each fault class receives.
FAULT_PROFILES: Tuple[str, ...] = ("none", "fixed", "poisson", "trace", "chaos")

# HTCondor job event log header, e.g.
#   ``004 (7858.000.000) 07/10 14:23:17 Job was evicted.``
# Event code 004 is "Job was evicted"; everything else (submission,
# execution, termination, image-size updates...) is ignored, as are the
# indented detail lines and the ``...`` block terminators.
_CONDOR_EVENT_RE = re.compile(
    r"^(?P<code>\d{3})\s+"
    r"\((?P<cluster>\d+)\.(?P<proc>\d+)\.(?P<sub>\d+)\)\s+"
    r"(?P<month>\d{2})/(?P<day>\d{2})\s+"
    r"(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2})\b"
)

# Cumulative days before each month in a non-leap year; HTCondor user
# logs carry no year, so day-of-year arithmetic is the best available.
_DAYS_BEFORE_MONTH = (0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)


def parse_htcondor_eviction_log(
    source: Union[str, Path, Iterable[str]],
) -> TracePreemptions:
    """Extract a preemption schedule from an HTCondor job event log.

    Reads a standard HTCondor user log (the ``log = ...`` file of a
    submit description), keeps the eviction events (code ``004``) and
    maps them onto the simulator:

    * **time** — seconds since the *first eviction* in the log (the
      simulation clock starts at 0, not at wall-clock submission time);
    * **worker id** — HTCondor job ids ``cluster.proc`` are assigned
      simulator worker ids 0, 1, 2... in order of first appearance
      among the evictions, matching the pool's spawn-order ids.

    ``source`` is a path or an iterable of lines.  Raises
    ``ValueError`` when the log contains no eviction or its timestamps
    go backwards (a year rollover mid-log — out of scope for fixtures).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return parse_htcondor_eviction_log(list(handle))

    raw: List[Tuple[float, Tuple[int, int]]] = []
    for line in source:
        match = _CONDOR_EVENT_RE.match(line)
        if match is None or match.group("code") != "004":
            continue
        month = int(match.group("month"))
        if not (1 <= month <= 12):
            raise ValueError(f"bad month in eviction log line: {line.rstrip()!r}")
        stamp = (
            (_DAYS_BEFORE_MONTH[month] + int(match.group("day")) - 1) * 86400.0
            + int(match.group("hour")) * 3600.0
            + int(match.group("minute")) * 60.0
            + int(match.group("second"))
        )
        job = (int(match.group("cluster")), int(match.group("proc")))
        raw.append((stamp, job))

    if not raw:
        raise ValueError("eviction log contains no eviction (004) events")
    origin = raw[0][0]
    worker_ids: Dict[Tuple[int, int], int] = {}
    events: List[Tuple[float, int]] = []
    for stamp, job in raw:
        if stamp < origin:
            raise ValueError(
                "eviction log timestamps go backwards (year rollover?); "
                "split the log at the wrap"
            )
        if job not in worker_ids:
            worker_ids[job] = len(worker_ids)
        events.append((stamp - origin, worker_ids[job]))
    return TracePreemptions(events=tuple(events))


def make_fault_config(
    profile: str,
    rate: float = 1.0 / 600.0,
    seed: int = 0,
    min_survivors: int = 1,
    trace_file: Optional[Union[str, Path]] = None,
) -> Optional[FaultConfig]:
    """Build one of the named fault profiles.

    Parameters
    ----------
    profile:
        ``"none"`` (returns ``None``), ``"fixed"`` (six evenly spaced
        preemptions over the first hour), ``"poisson"`` (memoryless
        preemptions + mid-task kills + transient dispatch failures),
        ``"trace"`` (replay a preemption trace — an HTCondor eviction
        log via ``trace_file``, or a small built-in schedule), or
        ``"chaos"`` (everything, including capacity degradation).
    rate:
        Events per simulated second for the Poisson processes (default:
        one per ten minutes).
    trace_file:
        HTCondor user log parsed with
        :func:`parse_htcondor_eviction_log`; only meaningful with the
        ``"trace"`` profile (rejected elsewhere so a typo'd profile
        cannot silently drop a real trace).
    """
    if trace_file is not None and profile != "trace":
        raise ValueError(
            f"trace_file is only valid with the 'trace' profile, not {profile!r}"
        )
    if profile == "none":
        return None
    if profile == "fixed":
        return FaultConfig(
            preemption=FixedPreemptions(
                times=tuple(600.0 * k for k in range(1, 7))
            ),
            seed=seed,
            min_survivors=min_survivors,
        )
    if profile == "poisson":
        return FaultConfig(
            preemption=PoissonPreemptions(rate=rate),
            kills=TaskKillConfig(rate=rate),
            dispatch=DispatchFaultConfig(probability=0.05),
            seed=seed,
            min_survivors=min_survivors,
        )
    if profile == "trace":
        if trace_file is not None:
            preemption = parse_htcondor_eviction_log(trace_file)
        else:
            preemption = TracePreemptions(
                events=((300.0, 1), (900.0, 2), (1500.0, 3), (2100.0, 1))
            )
        return FaultConfig(
            preemption=preemption,
            seed=seed,
            min_survivors=min_survivors,
        )
    if profile == "chaos":
        return FaultConfig(
            preemption=PoissonPreemptions(rate=rate),
            kills=TaskKillConfig(rate=rate),
            dispatch=DispatchFaultConfig(probability=0.1),
            degradation=DegradationConfig(rate=rate / 2.0),
            seed=seed,
            min_survivors=min_survivors,
        )
    raise KeyError(f"unknown fault profile {profile!r}; choose from {FAULT_PROFILES}")
