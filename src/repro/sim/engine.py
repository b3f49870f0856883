"""Deterministic discrete-event simulation engine.

A minimal event loop: callbacks are scheduled at absolute simulation
times and executed in (time, insertion order) order, so two events at
the same timestamp fire in the order they were scheduled and every run
with the same inputs replays identically.  Components (scheduler, pool,
manager) schedule plain closures; no global state, multiple engines can
coexist (the experiment grid runs them in-process back to back).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Priority-queue event loop with a monotone clock."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False
        self._processed = 0
        self._last_event_time = 0.0
        #: Post-event hooks, called (with no arguments) after every
        #: processed callback.  The invariant checker rides on this to
        #: audit system state between events; listeners must not
        #: schedule new events.
        self._listeners: List[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def last_event_time(self) -> float:
        """Scheduled time of the most recently processed event.

        ``now`` normally equals this; a callback that (buggily) rewound
        the clock leaves ``now`` behind it, which is how the invariant
        checker detects non-monotone time.
        """
        return self._last_event_time

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def add_listener(self, listener: Callable[[], None]) -> None:
        """Register a hook to run after every processed event."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[], None]) -> None:
        self._listeners.remove(listener)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        if not delay >= 0:  # also refuses NaN, which compares False to everything
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulation time ``time``."""
        if not time >= self._now:  # also refuses NaN
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        heapq.heappush(self._queue, (time, next(self._counter), callback))

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Process events until the queue drains (or a bound is hit).

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time; the
            clock is advanced to ``until`` in that case.
        max_events:
            Safety bound on processed events; exceeding it raises
            ``RuntimeError`` (a stuck workflow is a bug, not a result).

        Returns the simulation time when the loop stopped.
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run() call)")
        self._running = True
        processed_this_run = 0
        try:
            while self._queue:
                time, _seq, callback = self._queue[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heapq.heappop(self._queue)
                self._now = time
                self._last_event_time = time
                callback()
                # Count the event *before* the listeners run, so a
                # listener (a sampler, or one that raises to stop the
                # run) sees the event it just witnessed included in
                # events_processed.
                self._processed += 1
                processed_this_run += 1
                if self._listeners:
                    for listener in self._listeners:
                        listener()
                if max_events is not None and processed_this_run >= max_events:
                    raise RuntimeError(
                        f"event budget exhausted after {max_events} events at "
                        f"t={self._now:.1f}s — likely a scheduling livelock"
                    )
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def __repr__(self) -> str:
        return (
            f"SimulationEngine(now={self._now:.3f}, pending={len(self._queue)}, "
            f"processed={self._processed})"
        )
