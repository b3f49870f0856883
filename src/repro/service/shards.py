"""Single-writer allocation shards.

A shard owns one :class:`~repro.core.allocator.TaskOrientedAllocator`
(which is single-writer by contract — see ``repro.core.allocator``'s
module docstring) behind an asyncio queue drained by exactly one writer
task.  Every mutating call flows through that queue, so feedback ingest
can never race an allocation; concurrent submissions are *coalesced*:
the writer drains whatever is queued, write-ahead-logs the whole batch
with one group commit, then applies the operations strictly in queue
order.  Responses are therefore bit-identical to a sequential client
issuing the same operations in the applied order — the linearizability
tests replay exactly that claim.

The applied-operation sequence number (``seq``) is the shard's logical
clock: it orders the WAL and stamps every response.  It advances only
once the batch's WAL append has returned, so a shard never reports a
seq it did not log.  A shard never answers on its own authority —
overload is bounded at the server edge (``MAX_INFLIGHT_REQUESTS``), so
every answer is the allocator's.

**Exactly-once:** an operation carrying a client idempotency ``key`` is
applied at most once per key.  The shard remembers the last
``dedup_window`` keyed responses; a repeat of a remembered key is
answered with the stored response *verbatim* — no new seq, no WAL
entry, no allocator mutation.  Keys ride the WAL inside their operation
documents and the remembered responses are carried in snapshots, so
duplicate suppression survives crash/resume: a client that retries the
same key across a mid-WAL-append crash and a daemon restart observes
one applied allocation and bit-identical responses.

**Crash points:** the WAL-append and apply boundaries host named
:mod:`repro.service.chaos` crash sites, so "what if we die here?" is a
seeded test, not a thought experiment.  With nothing armed the hits are
a single attribute check.  A fired crash point and
:meth:`AllocationShard.abort` take one crash path: queued work fails
with the ambiguous :class:`CrashPointFired`; the WAL handle, allocator
and dedup window are dropped, as a dead process loses them.

**Lifecycle:** one ``state`` — stopped, running, degraded (below) or
crashed — changed only by ``_set_state``.  A stopped or crashed shard
refuses a submission or snapshot barrier before enqueueing it, with a
:class:`RuntimeError` that means "not applied".

**Degraded mode:** a storage error (``OSError`` — real or injected by
:mod:`repro.faultfs`) during the WAL append does *not* kill the writer.
The planned batch takes no sequence numbers (the WAL must stay
gap-free), the poisoned handle is dropped without a
retry-fsync (fsyncgate), and the shard turns read-only:
mutating submissions fail fast with the typed
:class:`StorageUnavailable` (the wire layer maps it to
``storage_unavailable`` + ``retry_after``) until a periodic probe —
every ``probe_interval``-th refused batch, a deterministic count, never
wall-clock — manages to repair the journal tail and reopen a fresh
handle, at which point the probing batch commits normally and the shard
heals itself.
"""

from __future__ import annotations

import asyncio
import os
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.checkpoint import (
    CheckpointError,
    JournalCorruptError,
    JournalWriter,
    fsync_directory,
    quarantine_file,
    repair_journal_tail,
)
from repro.core.allocator import TaskOrientedAllocator
from repro.core.resources import RESOURCES, ResourceVector
from repro.service.chaos import CRASH_POINTS, CrashPointFired

__all__ = [
    "OP_ALLOCATE",
    "OP_RETRY",
    "OP_RECORD",
    "MUTATING_OPS",
    "DEGRADED_RETRY_AFTER_S",
    "StorageUnavailable",
    "shard_of",
    "shard_seed",
    "apply_op",
    "AllocationShard",
]

#: Suggested client backoff while a shard is degraded: long enough for a
#: transient disk hiccup to clear, short enough that the count-based
#: recovery probe gets exercised by a retrying client.
DEGRADED_RETRY_AFTER_S = 0.25


class StorageUnavailable(RuntimeError):
    """The shard's storage is failing writes; mutating ops are refused.

    The typed, *non-ambiguous* storage refusal: unlike a crash, the
    operation was definitely **not** applied (the batch rolled back), so
    any client may retry verbatim after ``retry_after`` — no idempotency
    key required.  The wire layer maps this to the retryable
    ``storage_unavailable`` error code.
    """

    def __init__(self, shard: Optional[int], reason: str) -> None:
        scope = "service" if shard is None else f"shard {shard}"
        super().__init__(f"{scope} storage unavailable: {reason}")
        self.shard = shard
        self.reason = reason
        self.retry_after = DEGRADED_RETRY_AFTER_S

OP_ALLOCATE = "allocate"
OP_RETRY = "allocate_retry"
OP_RECORD = "record"

#: The operations a shard applies (and write-ahead logs).
MUTATING_OPS = (OP_ALLOCATE, OP_RETRY, OP_RECORD)

# Named crash sites at the durability boundaries of the single writer.
# "before" a WAL append the batch is lost entirely (client retries
# re-apply it); "after" it the batch is logged but unapplied (recovery
# replays it and the dedup window answers the retries).
SITE_WAL_APPEND_BEFORE = CRASH_POINTS.register("shard.wal-append.before")
SITE_WAL_APPEND_AFTER = CRASH_POINTS.register("shard.wal-append.after")
SITE_APPLY_BEFORE = CRASH_POINTS.register("shard.apply.before")
SITE_APPLY_AFTER = CRASH_POINTS.register("shard.apply.after")
#: The site :meth:`AllocationShard.abort` names in the error it gives
#: queued work.  Not registered: nothing arms it, abort() is the crash.
ABORT_SITE = "shard.abort"

STOPPED, RUNNING, DEGRADED, CRASHED = "stopped", "running", "degraded", "crashed"
_ACCEPTING = (RUNNING, DEGRADED)  # the states whose writer takes work
#: state -> the states it may move to; besides, a crash ends any state.
_TRANSITIONS = {STOPPED: (RUNNING,), RUNNING: (DEGRADED, STOPPED), DEGRADED: (RUNNING, STOPPED)}


def shard_of(category: str, n_shards: int) -> int:
    """Stable category -> shard map (crc32; independent of hash seed)."""
    return zlib.crc32(category.encode("utf-8")) % n_shards


def shard_seed(base_seed: int, index: int) -> int:
    """Deterministic per-shard allocator seed.

    Derived through :class:`numpy.random.SeedSequence` so shard streams
    are statistically independent, yet any reference replay (tests, WAL
    recovery on another host) reconstructs the exact same seed from
    ``(base_seed, index)`` alone.
    """
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1, np.uint64)[0])


def apply_op(allocator: TaskOrientedAllocator, op: Dict[str, Any]) -> Dict[str, Any]:
    """Apply one operation document to an allocator, sequentially.

    This is the *only* place operation semantics live: the live shard
    writer, WAL recovery, and the test suite's single-threaded reference
    replays all call it, which is what makes "replay the claimed order"
    a meaningful check.
    """
    kind = op["op"]
    category = str(op["category"])
    if kind == OP_ALLOCATE:
        exploring = allocator.in_exploration(category)
        vector = allocator.allocate(category, int(op["task_id"]))
        mode = "exploratory" if exploring else "predicted"
        return {"allocation": vector.state_dict(), "mode": mode}
    if kind == OP_RETRY:
        vector = allocator.allocate_retry(
            category,
            int(op["task_id"]),
            previous=ResourceVector.from_state(op["previous"]),
            observed=ResourceVector.from_state(op["observed"]),
            exhausted=tuple(RESOURCES.get(str(k)) for k in op["exhausted"]),
        )
        return {"allocation": vector.state_dict(), "mode": "retry"}
    if kind == OP_RECORD:
        significance = op.get("significance")
        allocator.observe(
            category,
            ResourceVector.from_state(op["peaks"]),
            int(op["task_id"]),
            significance=None if significance is None else float(significance),
        )
        return {"recorded": True, "records_count": allocator.records_count(category)}
    raise ValueError(f"unknown operation {kind!r}")


@dataclass
class _Work:
    """One submission: a contiguous run of operations and their reply."""

    ops: Sequence[Dict[str, Any]]
    future: "asyncio.Future[List[Dict[str, Any]]]"


@dataclass
class _Quiesce:
    """Snapshot barrier: the writer parks until released."""

    parked: asyncio.Event = field(default_factory=asyncio.Event)
    release: asyncio.Event = field(default_factory=asyncio.Event)


#: Queue sentinel: the writer commits what is ahead of it, then ends.
_STOP = object()


class AllocationShard:
    """One single-writer shard: allocator + WAL + dedup window."""

    def __init__(
        self,
        index: int,
        allocator: TaskOrientedAllocator,
        wal_path: Optional[str] = None,
        dedup_window: int = 0,
        probe_interval: int = 16,
    ) -> None:
        if probe_interval < 1:
            raise ValueError(f"probe_interval must be >= 1, got {probe_interval}")
        self.index = index
        self._allocator: Optional[TaskOrientedAllocator] = allocator
        #: Applied-operation count; the shard's logical clock.
        self.seq = 0
        self.failed_ops = 0
        #: Keyed requests answered from the dedup window instead of applied.
        self.dedup_hits = 0
        #: One of STOPPED, RUNNING, DEGRADED, CRASHED; set by _set_state.
        self.state = STOPPED
        self.degraded_reason: Optional[str] = None
        #: Storage errors absorbed by entering (or staying in) degraded mode.
        self.storage_failures = 0
        #: Highest seq known to be durably in the WAL (== ``seq`` while
        #: healthy; frozen at the pre-failure value while degraded).
        self.last_durable_seq = 0
        #: WAL length at the last good group commit while a refused
        #: batch's bytes follow it in the file; None once they are cut.
        self._committed_wal_bytes: Optional[int] = None
        self._probe_interval = probe_interval
        self._probe_ticks = 0
        self._wal_path = wal_path
        self._wal: Optional[JournalWriter] = None
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._dedup_window = dedup_window
        #: key -> stored response, oldest first (insertion == apply order).
        self._dedup: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._writer: Optional[asyncio.Task] = None

    @property
    def allocator(self) -> TaskOrientedAllocator:
        """The shard's allocator; a crash releases it."""
        if self.state == CRASHED:
            raise self.refusal()
        return self._allocator

    # -- lifecycle -------------------------------------------------------------

    def _set_state(self, state: str) -> None:
        """The one place the lifecycle moves (see ``_TRANSITIONS``)."""
        if state != CRASHED and state not in _TRANSITIONS.get(self.state, ()):
            raise RuntimeError(f"shard {self.index} cannot go from {self.state} to {state}")
        self.state = state

    def refusal(self) -> RuntimeError:
        """The error for a call this shard cannot take: nothing was applied."""
        if self.state != CRASHED:
            return RuntimeError(f"shard {self.index} is not started")
        return RuntimeError(
            f"shard {self.index} crashed (aborted, or a crash point fired): its state "
            "is gone; start a new AllocationService on its data_dir"
        )

    def open_wal(self) -> None:
        if self._wal_path is not None and self._wal is None:
            self._wal = JournalWriter(self._wal_path)

    def start(self) -> None:
        """Open the WAL and launch the single writer task."""
        self._set_state(RUNNING)
        self.open_wal()
        self._writer = asyncio.get_running_loop().create_task(
            self._writer_loop(), name=f"repro-shard-{self.index}"
        )

    async def stop(self) -> None:
        """Drain every queued operation, then terminate the writer.

        The WAL stays open so the service can snapshot-then-archive
        after the quiesce; call :meth:`close_wal` last.
        """
        if self.state not in _ACCEPTING:
            return
        self._queue.put_nowait(_STOP)
        await self._writer

    def close_wal(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def abort(self) -> None:
        """Crash simulation from outside the writer: kill it, then crash."""
        if self._writer is not None:
            self._writer.cancel()
        self._crash(CrashPointFired(ABORT_SITE, 1))

    def _crash(self, exc: CrashPointFired, held: Sequence[Any] = ()) -> None:
        """The one crash path, from any state: drop what a dead process loses.

        Queued work and ``held`` (the writer's drain) fail with the
        ambiguous ``exc``.  The WAL handle is abandoned: ``append_many``
        fsynced every commit, so a final fsync keeps nothing a crash
        keeps.  The allocator and dedup window go now, not when the
        cancelled writer (which holds the shard) next runs: a restart
        must not hold two states.
        """
        self._set_state(CRASHED)
        self._writer = None
        self._fail_queued(exc, held)
        if self._wal is not None:
            self._wal.abandon()
            self._wal = None
        self._allocator = None
        self._dedup.clear()

    def _fail_queued(self, exc: RuntimeError, held: Sequence[Any] = ()) -> None:
        """Fail ``held`` and every queued submission with ``exc``; unpark barriers."""
        items = list(held)
        while not self._queue.empty():
            items.append(self._queue.get_nowait())
        for item in items:
            if isinstance(item, _Work) and not item.future.done():
                item.future.set_exception(exc)
            elif isinstance(item, _Quiesce):
                item.parked.set()

    # -- submission ------------------------------------------------------------

    async def submit(self, op: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one operation; resolves once it is logged and applied."""
        return (await self.submit_many([op]))[0]

    async def submit_many(self, ops: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Apply several operations *contiguously*, in the given order.

        The batch travels the queue as one item, so no concurrent
        operation can interleave inside it — this is what makes
        ``allocate_batch`` bit-identical to a sequential loop.
        """
        if self.state not in _ACCEPTING:
            raise self.refusal()
        future: "asyncio.Future[List[Dict[str, Any]]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.put_nowait(_Work(ops=ops, future=future))
        return await future

    def quiesce(self) -> _Quiesce:
        """Enqueue a snapshot barrier; the writer parks on reaching it."""
        if self.state not in _ACCEPTING:
            raise self.refusal()
        barrier = _Quiesce()
        self._queue.put_nowait(barrier)
        return barrier

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # -- the single writer -----------------------------------------------------

    async def _writer_loop(self) -> None:
        while await self._drain(await self._queue.get()):
            pass

    async def _drain(self, first: Any) -> bool:
        """Commit ``first`` and the work queued behind it; False ends the writer.

        A drain ends at a barrier or the stop sentinel, so the writer
        holds nothing behind one: it stays queued, where a crash fails
        it.  Not the loop's body: the drained batch (and through each
        future its responses) dies with this frame, not pinned while idle.
        """
        items: List[Any] = [first]
        while isinstance(items[-1], _Work) and not self._queue.empty():
            items.append(self._queue.get_nowait())
        last = items[-1]
        try:
            self._commit(items if isinstance(last, _Work) else items[:-1])
        except CrashPointFired as exc:
            self._crash(exc, items)
            return False
        if last is _STOP:
            # What queued up behind the sentinel was never applied.
            self._set_state(STOPPED)
            self._fail_queued(self.refusal())
            return False
        if isinstance(last, _Quiesce):
            last.parked.set()
            await last.release.wait()
        return True

    def _commit(self, batch: List[_Work]) -> None:
        """Group-commit one drained batch: dedup, plan, log, apply, reply.

        :class:`CrashPointFired` propagates to :meth:`_drain`, whose
        crash fails the batch with it: some operations may already be
        logged or applied — the client cannot know, which is the point.
        """
        if not batch:
            return
        try:
            self._commit_inner(batch)
        except StorageUnavailable as exc:
            # Typed, non-fatal, non-ambiguous: the batch rolled back and
            # was definitely not applied.  The writer loop survives so
            # the shard keeps serving refusals (and recovery probes).
            for work in batch:
                if not work.future.done():
                    work.future.set_exception(exc)

    def _commit_inner(self, batch: List[_Work]) -> None:
        if self.state == DEGRADED:
            self._probe_ticks += 1
            if self._probe_ticks % self._probe_interval != 0 or not self._probe_storage():
                raise StorageUnavailable(self.index, self.degraded_reason)
        # The batch's seqs are planned here and taken only once the WAL
        # append returns: a crash or storage error before it leaves no
        # seq gap (replay would refuse the log) and no unlogged seq.
        planned_seq = self.seq
        # (work, op, seq, key, dup): dup entries resolve from the dedup
        # window after the batch applies.
        planned: List[Tuple[_Work, Dict[str, Any], int, Optional[str], bool]] = []
        entries: List[Dict[str, Any]] = []
        # Keys planned for apply in THIS batch: group commit can coalesce
        # two submissions of the same key into one batch, where the dedup
        # window (populated only at apply time) cannot yet see the first.
        planned_keys: Dict[str, int] = {}
        for work in batch:
            for op in work.ops:
                key = op.get("key") if self._dedup_window else None
                if key is not None and (key in self._dedup or key in planned_keys):
                    planned.append((work, op, 0, key, True))
                    continue
                if key is not None:
                    planned_keys[key] = id(work)
                planned_seq += 1
                planned.append((work, op, planned_seq, key, False))
                entries.append({"seq": planned_seq, "op": op})
        if entries:
            CRASH_POINTS.hit(SITE_WAL_APPEND_BEFORE)
            if self._wal is not None:
                try:
                    self._wal.append_many(entries)
                except OSError as exc:
                    self._enter_degraded(exc)
                    raise StorageUnavailable(
                        self.index, f"WAL append failed: {exc}"
                    ) from exc
                self.last_durable_seq = planned_seq
            self.seq = planned_seq
            CRASH_POINTS.hit(SITE_WAL_APPEND_AFTER)
        results: Dict[int, List[Dict[str, Any]]] = {}
        errors: Dict[int, BaseException] = {}
        for work, op, seq, key, dup in planned:
            if dup:
                # Exactly-once: answer the retry with the stored
                # response verbatim — no allocator touch, no new seq.
                # A same-batch duplicate resolves here too: its first
                # occurrence applied (and was remembered) earlier in
                # this very loop.
                stored = self._dedup.get(key) if key is not None else None
                if stored is not None:
                    self.dedup_hits += 1
                    results.setdefault(id(work), []).append(dict(stored))
                else:
                    # The first occurrence failed to apply; mirror its
                    # error so both callers see the same outcome.
                    exc = errors.get(
                        planned_keys.get(key, -1),
                        RuntimeError(f"duplicate of failed keyed op {key!r}"),
                    )
                    self.failed_ops += 1
                    errors[id(work)] = exc
                    results.setdefault(id(work), []).append({"error": str(exc)})
                continue
            CRASH_POINTS.hit(SITE_APPLY_BEFORE)
            try:
                result = apply_op(self._allocator, op)
            except Exception as exc:
                # Pre-validation makes this unreachable for well-formed
                # requests; a misbehaving allocator still must not kill
                # the writer loop (every queued client would hang).
                self.failed_ops += 1
                errors[id(work)] = exc
                result = {"error": str(exc)}
            CRASH_POINTS.hit(SITE_APPLY_AFTER)
            result["shard"] = self.index
            result["seq"] = seq
            if key is not None and id(work) not in errors:
                self._remember(key, result)
            results.setdefault(id(work), []).append(result)
        for work in batch:
            if work.future.done():  # pragma: no cover - cancelled client
                continue
            error = errors.get(id(work))
            if error is not None:
                work.future.set_exception(error)
            else:
                work.future.set_result(results[id(work)])

    def _remember(self, key: str, result: Dict[str, Any]) -> None:
        """Store a keyed response; evict the oldest beyond the window."""
        self._dedup[key] = dict(result)
        while len(self._dedup) > self._dedup_window:
            self._dedup.popitem(last=False)

    # -- degraded mode ---------------------------------------------------------

    def _enter_degraded(self, exc: OSError) -> None:
        """A WAL append failed: turn read-only.

        The handle is abandoned, never fsync-retried (fsyncgate: a
        failed write/fsync may already have dropped the dirty pages, so
        "retry on the same handle" would report durability for bytes
        that are gone); the probe reopens a fresh one.
        """
        self.storage_failures += 1
        self._set_state(DEGRADED)
        self.degraded_reason = str(exc)
        self._probe_ticks = 0
        self._committed_wal_bytes = self._wal.committed_bytes
        self._wal.abandon()
        self._wal = None

    # reproflow: sync-boundary -- degraded-mode healing probe; bounded repair I/O while storage is already stalled
    def _probe_storage(self) -> bool:
        """Try to heal a degraded shard: repair the tail, reopen fresh.

        The failed append may have left half a frame at the end of the
        journal (appending to it would weld the next record onto debris)
        or whole frames of the refused batch (the next batch reuses
        their sequence numbers, so a replay would apply the refused
        operations and skip the accepted ones).  Both are cut off at the
        length of the last successful group commit before a new
        :class:`~repro.checkpoint.JournalWriter` opens.  If the repair
        finds *mid-stream* corruption (rot hit the live WAL while we
        were degraded — a double fault), the journal is quarantined:
        in-memory state is intact and the next snapshot restores full
        durability; only a crash before that snapshot would lose the
        quarantined suffix.
        """
        assert self._wal_path is not None
        try:
            self._cut_wal_back()
            self._wal = JournalWriter(self._wal_path)
        except OSError as exc:
            self.degraded_reason = f"recovery probe failed: {exc}"
            self._wal = None
            return False
        self._set_state(RUNNING)
        self.degraded_reason = None
        return True

    def _cut_wal_back(self) -> None:
        """Cut the refused batch off the WAL (see :meth:`_probe_storage`); once."""
        if self._committed_wal_bytes is None:
            return
        try:
            repair_journal_tail(self._wal_path, self._committed_wal_bytes)
        except JournalCorruptError:
            quarantine_file(self._wal_path)
        self._committed_wal_bytes = None

    # -- durability ------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """This shard's slice of the multi-shard snapshot envelope.

        The allocator's state is deferred
        (:meth:`~repro.core.allocator.TaskOrientedAllocator.state_dict`
        with ``deferred=True``): encode the slice with
        :func:`~repro.checkpoint.iter_json` before the shard applies
        another operation.
        """
        return {
            "seq": self.seq,
            "allocator": self.allocator.state_dict(deferred=True),
            "dedup": [[key, dict(resp)] for key, resp in self._dedup.items()],
            "dedup_hits": self.dedup_hits,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Load what :meth:`snapshot_state` wrote — all of it.

        A state without one of its keys was written by another format;
        reading it with a default would, for ``dedup``, start with an
        empty idempotency window and silently void exactly-once for
        every key in flight.  It is refused instead.  The ``shed_count``
        and ``breaker`` keys of older states name a removed feature and
        are ignored.
        """
        for key in ("seq", "allocator", "dedup", "dedup_hits"):
            if key not in state:
                raise CheckpointError(
                    f"shard {self.index} snapshot state has no {key!r}: "
                    "not written by this format, refused rather than defaulted"
                )
        self.seq = int(state["seq"])
        self.last_durable_seq = self.seq
        self.allocator.load_state(state["allocator"])
        self._dedup = OrderedDict(
            (str(key), dict(resp)) for key, resp in state["dedup"]
        )
        self.dedup_hits = int(state["dedup_hits"])

    def replay(self, entries: Sequence[Dict[str, Any]]) -> int:
        """Re-apply WAL entries newer than the restored snapshot.

        Entries at or below the snapshot's ``seq`` are skipped (the WAL
        is only archived *after* a covering snapshot commits, so
        overlap is expected after a crash between the two).  A gap means
        a corrupt log and is refused, and so is an entry marked ``shed``:
        only an older build's backpressure breaker wrote those, and
        re-applying one as a real allocation would diverge.  An entry
        that fails to apply is counted in ``failed_ops`` and keeps its
        seq, as the live commit treated it.
        """
        applied = 0
        for entry in entries:
            seq = int(entry["seq"])
            if seq <= self.seq:
                continue
            if seq != self.seq + 1:
                raise CheckpointError(
                    f"shard {self.index} WAL gap: have seq {self.seq}, "
                    f"next entry is {seq}"
                )
            if "shed" in entry:
                raise CheckpointError(
                    f"shard {self.index} WAL entry seq {seq} was shed by a "
                    "removed backpressure breaker; refused rather than "
                    "re-applied as an allocation"
                )
            op = entry["op"]
            self.seq = seq
            try:
                result = apply_op(self.allocator, op)
            except Exception:
                # The live commit logged this op and then failed to
                # apply it: it kept its seq, answered with the error and
                # remembered nothing.  Replay does the same, so a WAL
                # written that way still recovers to the live state.
                self.failed_ops += 1
                applied += 1
                continue
            key = op.get("key") if self._dedup_window else None
            if key is not None:
                # Rebuild the dedup window exactly as the live commit
                # did: apply_op is deterministic, so the reconstructed
                # response is bit-identical to the one the crash lost.
                result["shard"] = self.index
                result["seq"] = seq
                self._remember(key, result)
            applied += 1
        self.last_durable_seq = self.seq
        return applied

    def archive_wal(self, segment_path: str) -> None:
        """Move the live WAL aside as one generation's archived segment.

        Called right after a covering snapshot committed (under the
        quiesce barrier): instead of truncating — which would destroy
        the only replay source an *older* snapshot generation needs for
        fallback — the WAL is closed, renamed to ``segment_path`` (the
        directory fsynced, so the rename outlives a power loss), and a
        fresh empty WAL opens.  The refused batch of a degraded shard is
        cut off first (its bytes are not part of any state), and a
        degraded shard stays closed: the recovery probe reopens it.
        """
        self.close_wal()
        self._cut_wal_back()
        archived = os.path.exists(self._wal_path) and os.path.getsize(self._wal_path) > 0
        if archived:
            os.replace(self._wal_path, segment_path)
        if self.state != DEGRADED:
            self.open_wal()
        if archived:
            # After the reopen: a failing directory fsync must not leave
            # a healthy shard applying operations with no WAL.
            fsync_directory(os.path.dirname(os.path.abspath(segment_path)))

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        crashed = self.state == CRASHED  # a crashed shard holds nothing
        return {
            "index": self.index,
            "seq": self.seq,
            "queue_depth": self.queue_depth,
            "failed_ops": self.failed_ops,
            "dedup_size": len(self._dedup),
            "dedup_hits": self.dedup_hits,
            "degraded": self.state == DEGRADED,
            "last_durable_seq": self.last_durable_seq,
            "storage_failures": self.storage_failures,
            "wal_bytes": (
                os.path.getsize(self._wal_path)
                if self._wal_path is not None and os.path.exists(self._wal_path)
                else 0
            ),
            "categories": 0 if crashed else len(self.allocator.categories()),
            "records": 0 if crashed else sum(self.allocator.records_counts().values()),
        }

    def __repr__(self) -> str:
        return (
            f"AllocationShard(index={self.index}, seq={self.seq}, "
            f"depth={self.queue_depth})"
        )
