"""Opportunistic worker pool with join/leave churn.

The paper's workers are deployed opportunistically — "workers joining
and leaving the worker pool over time" (Section II-C) as the HTCondor
cluster backfills and reclaims.  The pool models that as a stochastic
process: an initial cohort of workers, optional Poisson arrivals, and
optional exponential lifetimes bounded to keep the population between a
floor and a ceiling (the paper's runs saw 20-50 workers).

Churn is the simulator's one adversity model: a departure evicts the
worker's tasks, which requeue with their allocations pinned.  It
defaults to *off* for the paper-reproduction experiments: AWE is
deliberately worker-count independent, and a churn-free pool makes the
grid deterministic.  Examples and robustness tests switch it on
through :class:`PoolConfig`.

Queries answer from what the workers' :class:`~repro.sim.worker.CapacityClock`
records.  :meth:`WorkerPool.has_headroom` reads its count of workers
with headroom.  :meth:`WorkerPool.find_fit` takes the stamp at which
the caller last saw the allocation fit no worker, and probes only the
workers stamped since — the only ones that can have gained room, since
placements shrink capacity and every growth (a release, the snap back
to capacity, a join) takes a new stamp.  The answer is still exact
first-fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.resources import PAPER_WORKER_CAPACITY, TIME, ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.worker import CapacityClock, Worker

__all__ = ["ChurnConfig", "PoolConfig", "WorkerPool"]


@dataclass(frozen=True)
class ChurnConfig:
    """Stochastic join/leave behaviour of opportunistic workers.

    Attributes
    ----------
    mean_lifetime:
        Mean seconds a worker stays before being reclaimed (exponential,
        finite and > 0); ``None`` disables departures.
    mean_interarrival:
        Mean seconds between replacement worker arrivals (exponential,
        finite and > 0); ``None`` disables arrivals.
    min_workers, max_workers:
        Population bounds; departures that would drop the pool below the
        floor are suppressed, arrivals beyond the ceiling are dropped.
    """

    mean_lifetime: Optional[float] = None
    mean_interarrival: Optional[float] = None
    min_workers: int = 1
    max_workers: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("mean_lifetime", "mean_interarrival"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.min_workers < 0 or self.max_workers < self.min_workers:
            raise ValueError("need 0 <= min_workers <= max_workers")

    @property
    def enabled(self) -> bool:
        return self.mean_lifetime is not None or self.mean_interarrival is not None


@dataclass(frozen=True)
class PoolConfig:
    """Initial shape of the worker pool.

    The defaults mirror the paper's testbed: 16-core / 64 GB memory /
    64 GB disk workers (Section V-A).
    """

    n_workers: int = 20
    capacity: ResourceVector = PAPER_WORKER_CAPACITY
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    #: Seconds over which the initial cohort joins.  Opportunistic pools
    #: do not materialize instantly — pilot jobs are granted by the batch
    #: system over minutes — so with ``ramp_up_seconds > 0`` the first
    #: worker joins at t=0 and the rest at uniform times in the window.
    ramp_up_seconds: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if not (math.isfinite(self.ramp_up_seconds) and self.ramp_up_seconds >= 0):
            raise ValueError(
                f"ramp_up_seconds must be finite and >= 0, got {self.ramp_up_seconds}"
            )


class WorkerPool:
    """The live set of workers, wired into the simulation engine.

    The manager registers two callbacks:

    * ``on_worker_joined(worker)`` — capacity became available;
    * ``on_worker_leaving(worker, evicted)`` — the worker vanished with
      ``evicted`` = {task_id: allocation} still on it.
    """

    def __init__(self, engine: SimulationEngine, config: Optional[PoolConfig] = None) -> None:
        self._engine = engine
        self._config = config if config is not None else PoolConfig()
        self._rng = np.random.default_rng(self._config.seed)
        self._workers: Dict[int, Worker] = {}
        self._clock = CapacityClock()
        self._next_worker_id = 0
        self._total_joined = 0
        self._total_left = 0
        self._stopped = False
        self.on_worker_joined: Optional[Callable[[Worker], None]] = None
        self.on_worker_leaving: Optional[
            Callable[[Worker, Dict[int, ResourceVector]], None]
        ] = None

        ramp = self._config.ramp_up_seconds
        if ramp <= 0:
            for _ in range(self._config.n_workers):
                self._spawn_worker(initial=True)
        else:
            # First worker at t=0 so the run can always start; the rest
            # arrive at uniform offsets within the ramp-up window.
            self._spawn_worker(initial=True)
            offsets = sorted(
                float(self._rng.uniform(0.0, ramp))
                for _ in range(self._config.n_workers - 1)
            )
            for offset in offsets:
                engine.schedule_at(offset, self._ramp_arrival)
        if self._config.churn.mean_interarrival is not None:
            self._schedule_arrival()

    # -- queries ------------------------------------------------------------------

    @property
    def config(self) -> PoolConfig:
        return self._config

    def alive_workers(self) -> Tuple[Worker, ...]:
        return tuple(self._workers.values())

    @property
    def n_alive(self) -> int:
        return len(self._workers)

    @property
    def total_joined(self) -> int:
        return self._total_joined

    @property
    def total_left(self) -> int:
        return self._total_left

    @property
    def stamp(self) -> int:
        """The latest capacity-growth stamp of any worker."""
        return self._clock.stamp

    def has_headroom(self) -> bool:
        """True if any alive worker has slack in every dimension."""
        return self._clock.roomy > 0

    def fits_without_headroom(self, allocation: ResourceVector) -> bool:
        """Whether ``allocation`` could fit a worker that lacks headroom.

        A worker without headroom has some dimension within tolerance of
        full, so only a request that leaves such a dimension out, or asks
        at most twice its tolerance of it, can still fit there.
        """
        for res, cap in self._config.capacity.raw.items():
            if res is TIME or allocation[res] <= 2e-9 * max(cap, 1.0):
                return True
        return False

    def find_fit(self, allocation: ResourceVector, since: int = 0) -> Optional[Worker]:
        """First alive worker with room for ``allocation`` (first-fit).

        Workers are scanned in join order, which concentrates load on
        long-lived workers — the same bias Work Queue's eager dispatch
        exhibits.  ``since`` is a :attr:`stamp` at which ``allocation``
        fitted no worker: only workers stamped after it are probed.
        """
        for worker in self._workers.values():
            if worker.stamp > since and worker.can_fit(allocation):
                return worker
        return None

    # -- churn machinery ---------------------------------------------------------------

    def stop(self) -> None:
        """Stop generating churn events so the event queue can drain.

        Called by the manager once the workflow completes; already
        scheduled arrival/departure events become no-ops.
        """
        self._stopped = True

    def _ramp_arrival(self) -> None:
        if not self._stopped:
            self._spawn_worker()

    def _spawn_worker(self, initial: bool = False) -> Worker:
        worker = Worker(
            worker_id=self._next_worker_id,
            capacity=self._config.capacity,
            joined_at=self._engine.now,
            clock=self._clock,
        )
        self._next_worker_id += 1
        self._workers[worker.worker_id] = worker
        self._total_joined += 1
        churn = self._config.churn
        if churn.mean_lifetime is not None and not self._pinned_at_floor():
            lifetime = float(self._rng.exponential(churn.mean_lifetime))
            self._engine.schedule(lifetime, lambda w=worker: self._depart(w))
        if not initial and self.on_worker_joined is not None:
            self.on_worker_joined(worker)
        return worker

    def _pinned_at_floor(self) -> bool:
        """True when no departure can ever legally fire again.

        With arrivals disabled, the population can never grow past the
        initial cohort; once it cannot exceed the churn floor, drawing
        lifetimes would only produce suppressed departures that re-arm
        forever and keep the event queue alive.  (This was a real bug:
        a 1-worker pool with ``min_workers=1`` and no arrivals drew a
        lifetime for its last worker and the engine never drained.)
        """
        churn = self._config.churn
        return (
            churn.mean_interarrival is None
            and self._config.n_workers <= churn.min_workers
        )

    def _depart(self, worker: Worker) -> None:
        if self._stopped or not worker.alive or worker.worker_id not in self._workers:
            return
        if len(self._workers) <= self._config.churn.min_workers:
            # Suppressed departure: the batch system kept the lease.
            # Re-arm so the worker can still leave later — but only if a
            # replacement can ever arrive; otherwise the pool is pinned
            # at the floor and re-arming would livelock the event loop.
            if (
                self._config.churn.mean_lifetime is not None
                and self._config.churn.mean_interarrival is not None
            ):
                delay = float(self._rng.exponential(self._config.churn.mean_lifetime))
                self._engine.schedule(delay, lambda w=worker: self._depart(w))
            return
        del self._workers[worker.worker_id]
        evicted = worker.evict_all(self._engine.now)
        self._total_left += 1
        if self.on_worker_leaving is not None:
            self.on_worker_leaving(worker, evicted)

    def _schedule_arrival(self) -> None:
        churn = self._config.churn
        assert churn.mean_interarrival is not None
        delay = float(self._rng.exponential(churn.mean_interarrival))

        def arrive() -> None:
            if self._stopped:
                return
            if len(self._workers) < churn.max_workers:
                self._spawn_worker()
            self._schedule_arrival()

        self._engine.schedule(delay, arrive)

    def __repr__(self) -> str:
        return (
            f"WorkerPool(alive={len(self._workers)}, joined={self._total_joined}, "
            f"left={self._total_left})"
        )
