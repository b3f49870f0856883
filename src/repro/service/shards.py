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
clock: it orders the WAL and stamps every response.  A shard never
answers on its own authority — overload is bounded at the server edge
(``max_inflight_requests``), so every answer is the allocator's.

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
a single attribute check.

**Degraded mode:** a storage error (``OSError`` — real or injected by
:mod:`repro.faultfs`) during the WAL append does *not* kill the writer.
The planned batch is rolled back (sequence numbers restored — the WAL
must stay gap-free), the poisoned handle is dropped without a
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

    def __init__(
        self,
        shard: Optional[int],
        reason: str,
        retry_after: float = DEGRADED_RETRY_AFTER_S,
    ) -> None:
        scope = "service" if shard is None else f"shard {shard}"
        super().__init__(f"{scope} storage unavailable: {reason}")
        self.shard = shard
        self.reason = reason
        self.retry_after = retry_after

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


class _Stop:
    """Sentinel draining the queue and terminating the writer."""


class AllocationShard:
    """One single-writer shard: allocator + WAL + dedup window."""

    def __init__(
        self,
        index: int,
        allocator: TaskOrientedAllocator,
        wal_path: Optional[str] = None,
        durability: str = "batch",
        dedup_window: int = 0,
        probe_interval: int = 16,
    ) -> None:
        if probe_interval < 1:
            raise ValueError(f"probe_interval must be >= 1, got {probe_interval}")
        self.index = index
        self.allocator = allocator
        #: Applied-operation count; the shard's logical clock.
        self.seq = 0
        self.failed_ops = 0
        #: Keyed requests answered from the dedup window instead of applied.
        self.dedup_hits = 0
        #: Set when a crash point killed the writer (tests restart the service).
        self.crashed = False
        #: Read-only: the WAL append failed and no probe has healed it yet.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        #: Storage errors absorbed by entering (or staying in) degraded mode.
        self.storage_failures = 0
        #: Highest seq known to be durably in the WAL (== ``seq`` while
        #: healthy; frozen at the pre-failure value while degraded).
        self.last_durable_seq = 0
        #: WAL length after the last successful group commit, kept while
        #: degraded: the bytes past it belong to the refused batch.
        self._committed_wal_bytes = 0
        self._probe_interval = probe_interval
        self._probe_ticks = 0
        self._wal_path = wal_path
        self._durability = durability
        self._wal: Optional[JournalWriter] = None
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._dedup_window = dedup_window
        #: key -> stored response, oldest first (insertion == apply order).
        self._dedup: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._writer: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------------

    def open_wal(self) -> None:
        if self._wal_path is not None and self._wal is None:
            self._wal = JournalWriter(self._wal_path, sync=self._durability)

    def start(self) -> None:
        """Open the WAL and launch the single writer task."""
        self.open_wal()
        self._writer = asyncio.get_running_loop().create_task(
            self._writer_loop(), name=f"repro-shard-{self.index}"
        )

    async def stop(self) -> None:
        """Drain every queued operation, then terminate the writer.

        The WAL stays open so the service can snapshot-then-archive
        after the quiesce; call :meth:`close_wal` last.
        """
        if self._writer is None:
            return
        self._queue.put_nowait(_Stop())
        await self._writer
        self._writer = None

    def close_wal(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def abort(self) -> None:
        """Crash simulation: kill the writer without drain or snapshot."""
        if self._writer is not None:
            self._writer.cancel()
            self._writer = None
        self.close_wal()

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
        if self._writer is None:
            raise RuntimeError(f"shard {self.index} is not started")
        future: "asyncio.Future[List[Dict[str, Any]]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.put_nowait(_Work(ops=ops, future=future))
        return await future

    def quiesce(self) -> _Quiesce:
        """Enqueue a snapshot barrier; the writer parks on reaching it."""
        barrier = _Quiesce()
        self._queue.put_nowait(barrier)
        return barrier

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # -- the single writer -----------------------------------------------------

    async def _writer_loop(self) -> None:
        try:
            while True:
                items: List[Any] = [await self._queue.get()]
                while not self._queue.empty():
                    items.append(self._queue.get_nowait())
                batch: List[_Work] = []
                for item in items:
                    if isinstance(item, _Work):
                        batch.append(item)
                        continue
                    self._commit(batch)
                    batch = []
                    if isinstance(item, _Stop):
                        return
                    if isinstance(item, _Quiesce):
                        item.parked.set()
                        await item.release.wait()
                self._commit(batch)
        except CrashPointFired as exc:
            self._die(exc)

    def _die(self, exc: CrashPointFired) -> None:
        """An armed crash point fired mid-commit: simulate process death.

        Everything still queued fails with the same ambiguous
        :class:`CrashPointFired` the in-flight batch got — exactly what
        a remote client observes when the daemon dies under it — and
        the WAL handle is dropped without a final fsync (whatever
        reached the OS survives, nothing else does).
        """
        self.crashed = True
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if isinstance(item, _Work) and not item.future.done():
                item.future.set_exception(exc)
            elif isinstance(item, _Quiesce):  # pragma: no cover - defensive
                item.parked.set()
        if self._wal is not None:
            self._wal.abandon()
            self._wal = None

    def _commit(self, batch: List[_Work]) -> None:
        """Group-commit one drained batch: dedup, plan, log, apply, reply.

        On :class:`CrashPointFired` every future in the batch fails with
        the ambiguous crash error (some operations may already be logged
        or applied — the client cannot know, which is the point) and the
        exception propagates to :meth:`_writer_loop`.
        """
        if not batch:
            return
        try:
            self._commit_inner(batch)
        except CrashPointFired as exc:
            for work in batch:
                if not work.future.done():
                    work.future.set_exception(exc)
            raise
        except StorageUnavailable as exc:
            # Typed, non-fatal, non-ambiguous: the batch rolled back and
            # was definitely not applied.  The writer loop survives so
            # the shard keeps serving refusals (and recovery probes).
            for work in batch:
                if not work.future.done():
                    work.future.set_exception(exc)

    def _commit_inner(self, batch: List[_Work]) -> None:
        if self.degraded:
            self._probe_ticks += 1
            if self._probe_ticks % self._probe_interval != 0 or not self._probe_storage():
                raise StorageUnavailable(
                    self.index, self.degraded_reason or "storage write failed"
                )
        # Captured for rollback: a failed WAL append must leave no seq
        # gap (replay would refuse the log).
        seq_before = self.seq
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
                self.seq += 1
                planned.append((work, op, self.seq, key, False))
                entries.append({"seq": self.seq, "op": op})
        if entries:
            CRASH_POINTS.hit(SITE_WAL_APPEND_BEFORE)
            if self._wal is not None:
                try:
                    self._wal.append_many(entries)
                except OSError as exc:
                    self._enter_degraded(exc, seq_before)
                    raise StorageUnavailable(
                        self.index, f"WAL append failed: {exc}"
                    ) from exc
                self.last_durable_seq = self.seq
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
                result = apply_op(self.allocator, op)
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

    def _enter_degraded(self, exc: OSError, seq_before: int) -> None:
        """A WAL append failed: roll the batch back and turn read-only.

        The handle is abandoned, never fsync-retried (fsyncgate: a
        failed write/fsync may already have dropped the dirty pages, so
        "retry on the same handle" would report durability for bytes
        that are gone); the probe reopens a fresh one.
        """
        self.storage_failures += 1
        self.degraded = True
        self.degraded_reason = str(exc)
        self.seq = seq_before
        self._probe_ticks = 0
        if self._wal is not None:
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
            try:
                repair_journal_tail(self._wal_path, self._committed_wal_bytes)
            except JournalCorruptError:
                quarantine_file(self._wal_path)
            self._wal = JournalWriter(self._wal_path, sync=self._durability)
        except OSError as exc:
            self.degraded_reason = f"recovery probe failed: {exc}"
            self._wal = None
            return False
        self.degraded = False
        self.degraded_reason = None
        return True

    # -- durability ------------------------------------------------------------

    def state(self) -> Dict[str, Any]:
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
        """Load what :meth:`state` wrote — all of it.

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
        fresh empty WAL opens.  A degraded shard first cuts the WAL back
        to its last successful group commit (the refused batch's bytes
        are not part of any state; mid-stream corruption is quarantined
        as the probe does) and stays closed; the recovery probe reopens
        it.
        """
        if self._wal_path is None:
            return
        self.close_wal()
        if self.degraded:
            try:
                repair_journal_tail(self._wal_path, self._committed_wal_bytes)
            except JournalCorruptError:
                quarantine_file(self._wal_path)
        archived = os.path.exists(self._wal_path) and os.path.getsize(self._wal_path) > 0
        if archived:
            os.replace(self._wal_path, segment_path)
        if self.degraded:
            self._committed_wal_bytes = 0  # the probe starts a new file
        else:
            self.open_wal()
        if archived:
            # After the reopen: a failing directory fsync must not leave
            # a healthy shard applying operations with no WAL.
            fsync_directory(os.path.dirname(os.path.abspath(segment_path)))

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seq": self.seq,
            "queue_depth": self.queue_depth,
            "failed_ops": self.failed_ops,
            "dedup_size": len(self._dedup),
            "dedup_hits": self.dedup_hits,
            "degraded": self.degraded,
            "last_durable_seq": self.last_durable_seq,
            "storage_failures": self.storage_failures,
            "wal_bytes": (
                os.path.getsize(self._wal_path)
                if self._wal_path is not None and os.path.exists(self._wal_path)
                else 0
            ),
            "categories": len(self.allocator.categories()),
            "records": sum(self.allocator.records_counts().values()),
        }

    def __repr__(self) -> str:
        return (
            f"AllocationShard(index={self.index}, seq={self.seq}, "
            f"depth={self.queue_depth})"
        )
