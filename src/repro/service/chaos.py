"""Deterministic chaos for the allocation service: network faults + crash points.

The paper's opportunistic setting — workers and links vanishing
mid-flight — applies to the service edge too, so this module makes the
two failure families *injectable, seeded, and replayable*:

* :class:`ChaosProxy` — an asyncio shim between a client and the
  server that injects network faults into the byte streams it forwards:
  mid-request disconnects, frame truncation, byte-level splits, delays,
  interleaved garbage bytes, and slow-loris dribble.  Faults are drawn
  from a per-connection, per-direction seeded stream **keyed on byte
  offsets**, so the event schedule is invariant to TCP chunk boundaries:
  the same :class:`ChaosConfig` seed always yields the same
  ``(offset, kind)`` schedule (the replay test asserts this).  With all
  weights zero (the default) the proxy is a pure pass-through.
* :class:`CrashPoints` — an in-process registry of *named crash sites*
  at the WAL-append / apply / snapshot boundaries in
  ``repro.service.shards`` and ``repro.service.service``.  Arming a
  site makes the N-th hit raise :class:`CrashPointFired` (in-process
  crash simulation: pending futures fail ambiguously, exactly like a
  client that lost its connection mid-operation) or hard-exit the
  process (daemon tests, via ``repro-experiments serve --chaos-crash``).
  Every "what if we die here?" question becomes a seeded test; with
  nothing armed the registry is a dictionary lookup and the service
  behaves bit-identically to the chaos-free build.

Nothing here is imported by the hot path unless chaos is requested;
``shards.py``/``service.py`` only call :meth:`CrashPoints.hit`, whose
disarmed fast path is a single attribute check.
"""

from __future__ import annotations

import asyncio
import os
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CrashPointFired",
    "CrashPoints",
    "CRASH_POINTS",
    "seeded_crash_plan",
    "ChaosConfig",
    "ChaosEvent",
    "ChaosSchedule",
    "ChaosProxy",
    "CHAOS_PROFILES",
    "EVENT_KINDS",
    "make_chaos_config",
    "schedule_preview",
]


# ---------------------------------------------------------------------------
# Crash points
# ---------------------------------------------------------------------------


class CrashPointFired(RuntimeError):
    """An armed crash site fired: the process is "dead" at this boundary.

    In-process tests observe this on every in-flight future — the
    ambiguous outcome a real client sees when its daemon dies
    mid-operation (the op may or may not have been logged/applied).
    """

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"crash point {site!r} fired on hit {hit}")
        self.site = site
        self.hit = hit


class CrashPoints:
    """Registry of named crash sites, armed one plan at a time.

    Sites are registered at import time by the modules that host them,
    so tests can enumerate :meth:`sites` and build a full crash matrix.
    A plan ``(site, at_hit)`` fires on the ``at_hit``-th hit of ``site``
    *since arming* and then auto-disarms — recovery code re-traversing
    the same boundary (e.g. a snapshot during WAL replay) does not
    re-crash unless the test re-arms.

    ``mode="raise"`` raises :class:`CrashPointFired` (in-process crash
    simulation); ``mode="exit"`` calls ``os._exit(70)`` — no cleanup,
    no snapshot, no atexit — for daemon subprocess tests.
    """

    EXIT_CODE = 70
    MODES = ("raise", "exit")

    def __init__(self) -> None:
        self._sites: List[str] = []
        self._plan: Optional[Tuple[str, int, str]] = None
        self._counts: Dict[str, int] = {}
        #: ``(site, hit)`` log of fired crash points (for determinism tests).
        self.fired: List[Tuple[str, int]] = []

    def register(self, name: str) -> str:
        """Declare a crash site; returns the name for use at the call site."""
        if name not in self._sites:
            self._sites.append(name)
        return name

    def sites(self) -> Tuple[str, ...]:
        """Every registered site, in registration order."""
        return tuple(self._sites)

    @property
    def armed(self) -> Optional[Tuple[str, int, str]]:
        return self._plan

    def arm(self, site: str, at_hit: int = 1, mode: str = "raise") -> None:
        """Fire ``site`` on its ``at_hit``-th upcoming hit."""
        if site not in self._sites:
            raise ValueError(f"unknown crash site {site!r}; registered: {self._sites}")
        if at_hit < 1:
            raise ValueError(f"at_hit must be >= 1, got {at_hit}")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self._plan = (site, at_hit, mode)
        self._counts = {}

    def disarm(self) -> None:
        self._plan = None
        self._counts = {}

    def reset(self) -> None:
        """Disarm and clear the fired log (test isolation)."""
        self.disarm()
        self.fired = []

    def hit(self, site: str) -> None:
        """Announce execution reached ``site``; fires if armed for it."""
        if self._plan is None:  # disarmed fast path
            return
        planned_site, at_hit, mode = self._plan
        if site != planned_site:
            return
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        if count < at_hit:
            return
        self._plan = None  # auto-disarm: recovery must not re-crash
        self.fired.append((site, count))
        if mode == "exit":
            os._exit(self.EXIT_CODE)
        raise CrashPointFired(site, count)


#: The process-wide registry every crash site hits.
CRASH_POINTS = CrashPoints()


def seeded_crash_plan(
    seed: int, sites: Optional[Tuple[str, ...]] = None, max_hit: int = 5
) -> Tuple[str, int]:
    """Deterministically pick ``(site, at_hit)`` from a fault seed.

    Same seed, same registered sites => same plan — so a chaos schedule
    that includes a crash is reproducible from its seed alone.
    """
    pool = sites if sites is not None else CRASH_POINTS.sites()
    if not pool:
        raise ValueError("no crash sites registered")
    rng = random.Random(f"repro-crash-plan:{seed}")
    return pool[rng.randrange(len(pool))], rng.randint(1, max_hit)


# ---------------------------------------------------------------------------
# Network fault schedules
# ---------------------------------------------------------------------------

#: Fault kinds the proxy can inject.
EVENT_KINDS = ("disconnect", "truncate", "garbage", "delay", "split", "dribble")

#: Mean distance between fault events in each direction's byte stream
#: (exponential gaps, so schedules are memoryless and seed-stable).
MEAN_GAP_BYTES = 600.0
#: Wall-clock pause for ``delay`` events (and the per-byte dribble pace).
DELAY_S = 0.002
#: Upper bound on injected garbage runs (bytes).
GARBAGE_MAX_BYTES = 24
#: Bytes forwarded one-at-a-time by ``split``/``dribble`` events.
SLOW_BYTES = 16


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault mix for one :class:`ChaosProxy`.

    Weights are relative odds of each fault kind; all-zero (the
    default) disables injection entirely.  Faults hit both directions,
    :data:`MEAN_GAP_BYTES` apart on average.
    """

    seed: int = 0
    disconnect_weight: float = 0.0
    truncate_weight: float = 0.0
    garbage_weight: float = 0.0
    delay_weight: float = 0.0
    split_weight: float = 0.0
    dribble_weight: float = 0.0

    def weights(self) -> Tuple[float, ...]:
        return (
            self.disconnect_weight,
            self.truncate_weight,
            self.garbage_weight,
            self.delay_weight,
            self.split_weight,
            self.dribble_weight,
        )

    @property
    def enabled(self) -> bool:
        return any(w > 0 for w in self.weights())


#: Named fault mixes for the CLI/experiment matrix.
CHAOS_PROFILES = ("none", "drop", "torn", "garbage", "slow", "mixed")


def make_chaos_config(profile: str, seed: int = 0) -> ChaosConfig:
    """A :class:`ChaosConfig` for one named profile."""
    base = ChaosConfig(seed=seed)
    if profile == "none":
        return base
    if profile == "drop":
        return replace(base, disconnect_weight=1.0)
    if profile == "torn":
        return replace(base, truncate_weight=1.0)
    if profile == "garbage":
        return replace(base, garbage_weight=1.0)
    if profile == "slow":
        return replace(base, delay_weight=1.0, split_weight=1.0, dribble_weight=1.0)
    if profile == "mixed":
        return replace(
            base,
            disconnect_weight=1.0,
            truncate_weight=0.5,
            garbage_weight=1.0,
            delay_weight=1.0,
            split_weight=1.0,
            dribble_weight=0.5,
        )
    raise ValueError(f"unknown chaos profile {profile!r}; expected one of {CHAOS_PROFILES}")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: fire ``kind`` at absolute byte ``offset``."""

    offset: int
    kind: str
    #: Pre-drawn payload (garbage bytes), so the schedule alone fixes
    #: every injected byte.
    payload: bytes = b""


class ChaosSchedule:
    """The deterministic fault schedule of one connection direction.

    Events are pre-drawn lazily from ``random.Random`` seeded with
    ``(config.seed, connection, direction)`` (string seeding, which is
    stable across processes and ``PYTHONHASHSEED``).  Offsets are
    absolute positions in the direction's byte stream, which makes the
    schedule independent of how TCP happens to chunk the bytes.
    """

    def __init__(self, config: ChaosConfig, connection: int, direction: str) -> None:
        self._config = config
        self._rng = random.Random(
            f"repro-chaos:{config.seed}:{connection}:{direction}"
        )
        self._enabled = config.enabled
        self._next_offset = 0
        self._pending: Optional[ChaosEvent] = None

    def _draw(self) -> ChaosEvent:
        config = self._config
        rng = self._rng
        gap = max(1, int(rng.expovariate(1.0 / MEAN_GAP_BYTES)))
        self._next_offset += gap
        kind = rng.choices(EVENT_KINDS, weights=config.weights())[0]
        payload = b""
        if kind == "garbage":
            # Control bytes (0x00-0x07): strict JSON rejects them both
            # inside strings and between tokens, so an injected run is
            # always *detectable* corruption — the receiver sees a
            # malformed line and the keyed retry repairs it.  (Arbitrary
            # bytes could mutate a checksum-less JSON line into a
            # different valid request, which no wire layer can catch;
            # the protocol fuzz suite covers that hostile case.)
            length = rng.randint(1, GARBAGE_MAX_BYTES)
            payload = bytes(rng.randrange(8) for _ in range(length))
        return ChaosEvent(self._next_offset, kind, payload)

    def peek(self) -> Optional[ChaosEvent]:
        """The next scheduled event, or None when injection is off."""
        if not self._enabled:
            return None
        if self._pending is None:
            self._pending = self._draw()
        return self._pending

    def pop(self) -> ChaosEvent:
        event = self.peek()
        assert event is not None
        self._pending = None
        return event


# ---------------------------------------------------------------------------
# The proxy
# ---------------------------------------------------------------------------


@dataclass
class _Direction:
    """One pump: reader -> (faults) -> writer."""

    name: str
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    schedule: ChaosSchedule
    offset: int = 0
    closed: bool = False


class ChaosProxy:
    """Seeded network-fault proxy in front of an allocation server.

    Listens on its own UNIX socket and forwards every accepted
    connection to ``upstream_path``, pumping bytes through the fault
    schedules.  ``events`` records every fired fault as
    ``(connection, direction, offset, kind)`` — the replay test runs
    the same traffic twice and asserts identical logs.
    """

    def __init__(self, upstream_path: str, listen_path: str, config: ChaosConfig) -> None:
        self._upstream_path = upstream_path
        self._listen_path = listen_path
        self._config = config
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections = 0
        #: Fired fault log: (connection index, direction, byte offset, kind).
        self.events: List[Tuple[int, str, int, str]] = []

    @property
    def listen_path(self) -> str:
        return self._listen_path

    @property
    def config(self) -> ChaosConfig:
        return self._config

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(
            self._handle, path=self._listen_path
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        connection = self._connections
        self._connections += 1
        try:
            upstream_reader, upstream_writer = await asyncio.open_unix_connection(
                self._upstream_path
            )
        except OSError:
            client_writer.close()
            return
        c2s = _Direction(
            "c2s",
            client_reader,
            upstream_writer,
            ChaosSchedule(self._config, connection, "c2s"),
        )
        s2c = _Direction(
            "s2c",
            upstream_reader,
            client_writer,
            ChaosSchedule(self._config, connection, "s2c"),
        )
        try:
            await asyncio.gather(
                self._pump(connection, c2s, s2c), self._pump(connection, s2c, c2s)
            )
        except asyncio.CancelledError:
            # Proxy stop cancels in-flight pumps; close quietly below.
            pass
        finally:
            for writer in (client_writer, upstream_writer):
                try:
                    writer.close()
                except OSError:  # pragma: no cover - already torn down
                    pass

    async def _pump(self, connection: int, direction: _Direction, other: _Direction) -> None:
        try:
            while not direction.closed:
                try:
                    chunk = await direction.reader.read(4096)
                except (ConnectionResetError, BrokenPipeError, OSError):
                    break
                if not chunk:
                    break
                if not await self._forward(connection, direction, other, chunk):
                    break
        finally:
            direction.closed = True
            try:
                if direction.writer.can_write_eof():
                    direction.writer.write_eof()
            except (OSError, RuntimeError):
                pass

    async def _forward(
        self, connection: int, direction: _Direction, other: _Direction, chunk: bytes
    ) -> bool:
        """Forward one chunk through the fault schedule.

        Returns False when a fault tore the connection down.
        """
        while chunk:
            event = direction.schedule.peek()
            if event is None or event.offset >= direction.offset + len(chunk):
                direction.offset += len(chunk)
                return await self._write(direction, chunk)
            # Forward the clean prefix, then fire the event at its offset.
            cut = max(0, event.offset - direction.offset)
            prefix, chunk = chunk[:cut], chunk[cut:]
            direction.offset += len(prefix)
            if prefix and not await self._write(direction, prefix):
                return False
            direction.schedule.pop()
            self.events.append((connection, direction.name, event.offset, event.kind))
            if event.kind == "disconnect":
                self._tear_down(direction, other)
                return False
            if event.kind == "truncate":
                # Torn frame: drop the rest of this chunk, then die.
                self._tear_down(direction, other)
                return False
            if event.kind == "garbage":
                if not await self._write(direction, event.payload):
                    return False
            elif event.kind == "delay":
                await asyncio.sleep(DELAY_S)
            elif event.kind in ("split", "dribble"):
                slow = chunk[:SLOW_BYTES]
                chunk = chunk[len(slow) :]
                direction.offset += len(slow)
                for i in range(len(slow)):
                    if not await self._write(direction, slow[i : i + 1]):
                        return False
                    if event.kind == "dribble":
                        await asyncio.sleep(DELAY_S / 4.0)
        return True

    async def _write(self, direction: _Direction, data: bytes) -> bool:
        try:
            direction.writer.write(data)
            await direction.writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            direction.closed = True
            return False

    def _tear_down(self, direction: _Direction, other: _Direction) -> None:
        """Mid-request disconnect: abort both halves of the session."""
        direction.closed = True
        other.closed = True
        for side in (direction, other):
            try:
                side.writer.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def event_kinds(self) -> Dict[str, int]:
        """Fired-event histogram (diagnostics and experiment tables)."""
        counts: Dict[str, int] = {}
        for _, _, _, kind in self.events:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


def schedule_preview(
    config: ChaosConfig, connection: int, direction: str, n: int
) -> List[Tuple[int, str]]:
    """First ``n`` ``(offset, kind)`` pairs of a schedule (replay tests)."""
    schedule = ChaosSchedule(config, connection, direction)
    out: List[Tuple[int, str]] = []
    for _ in range(n):
        event = schedule.peek()
        if event is None:
            break
        schedule.pop()
        out.append((event.offset, event.kind))
    return out
