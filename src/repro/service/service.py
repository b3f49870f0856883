"""The in-process async allocation service.

:class:`AllocationService` fronts ``n_shards`` single-writer
:class:`~repro.service.shards.AllocationShard` instances with the
four-call API the ROADMAP's service decomposition asks for —
``allocate``, ``allocate_retry``, ``record``, ``allocate_batch`` —
plus durability:

* every applied operation is write-ahead logged to its shard's WAL
  (group commit per drained batch);
* :meth:`snapshot` takes a *consistent cut*: every shard writer parks
  at a quiesce barrier, a new **snapshot generation**
  (``service.snapshot.<gen>.json``) is written atomically, the
  digest-checked CURRENT pointer flips to it, the live WALs are
  archived as that generation's replay segments, and the writers
  resume — no operation is ever split across the cut;
* :meth:`start` recovers: walk the CURRENT chain newest-first,
  quarantine generations whose bytes no longer match their recorded
  sha256 (or whose envelope is unreadable) and fall back to the next
  one, then roll forward through the archived WAL segments and the
  live WAL tail using the exact same
  :func:`~repro.service.shards.apply_op` the live writer uses, and
  finally re-snapshot so the recovered state is durable before traffic
  resumes.  Mid-stream-corrupt journals are quarantined
  (``<name>.corrupt/``) and their valid prefix replayed — never a
  crash at startup, never silent divergence (a sequence gap is still
  refused).

Given the same operation stream, a killed-and-resumed service answers
the remaining operations bit-identically to an uninterrupted run (the
kill/resume golden test asserts this byte-for-byte).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.checkpoint import (
    SERVICE_KIND,
    CheckpointError,
    file_digest,
    load_checkpoint,
    quarantine_file,
    recover_jsonl,
    save_checkpoint,
    write_json_atomic,
)
from repro.core.allocator import TaskOrientedAllocator
from repro.core.resources import Resource, ResourceVector
from repro.service.chaos import CRASH_POINTS
from repro.service.config import ServiceConfig
from repro.service.protocol import ADMIN_OPS, ProtocolError, validate_request
from repro.service.shards import (
    OP_ALLOCATE,
    OP_RECORD,
    OP_RETRY,
    AllocationShard,
    StorageUnavailable,
    shard_of,
)

__all__ = [
    "AllocationService",
    "CURRENT_FILENAME",
    "snapshot_filename",
    "segment_filename",
]

logger = logging.getLogger("repro.service")

#: The atomic chain pointer: newest-first ``{gen, digest}`` entries.
CURRENT_FILENAME = "service.snapshot.CURRENT"

#: Magic of the CURRENT pointer document.
CURRENT_MAGIC = "repro-snapshot-current"

#: The one-file snapshot of builds older than 4d32efe.  No reader is
#: left; a data dir still holding it is refused (startup and fsck), not
#: started empty.
PRE_GENERATIONAL_FILENAME = "service.snapshot.json"
UPGRADE_NOTE = (
    "pre-generational snapshot, which this build no longer reads: open "
    "and cleanly stop the data dir once with --snapshot-retention 1 "
    "under a build from 4d32efe to 6759fbf (docs/SERVICE.md, Durability)"
)

# Crash sites around the snapshot write: "before" loses the cut (the
# WALs still cover everything), "after" has the cut and pointer on disk
# but the WALs not yet archived (recovery's seq filter skips overlap).
SITE_SNAPSHOT_BEFORE = CRASH_POINTS.register("service.snapshot.before")
SITE_SNAPSHOT_AFTER = CRASH_POINTS.register("service.snapshot.after")

_GEN_RE = re.compile(r"^service\.snapshot\.(\d{6})\.json$")
_SEGMENT_RE = re.compile(r"^shard-(\d+)\.wal\.g(\d{6})$")


def _wal_filename(index: int) -> str:
    return f"shard-{index:02d}.wal"


def snapshot_filename(gen: int) -> str:
    """File name of snapshot generation ``gen``."""
    return f"service.snapshot.{gen:06d}.json"


def segment_filename(index: int, gen: int) -> str:
    """Archived WAL segment of shard ``index`` covering generation ``gen``."""
    return f"shard-{index:02d}.wal.g{gen:06d}"


def parse_generation(name: str) -> Optional[int]:
    """Generation number of a snapshot file name, or ``None``."""
    match = _GEN_RE.match(name)
    return int(match.group(1)) if match else None


def parse_segment(name: str) -> Optional[Tuple[int, int]]:
    """``(shard_index, generation)`` of a segment file name, or ``None``."""
    match = _SEGMENT_RE.match(name)
    return (int(match.group(1)), int(match.group(2))) if match else None


def write_current(data_dir: str, entries: List[Dict[str, Any]]) -> None:
    """Atomically flip the chain pointer to ``entries`` (newest-first)."""
    write_json_atomic(
        os.path.join(data_dir, CURRENT_FILENAME),
        {"magic": CURRENT_MAGIC, "version": 1, "entries": entries},
    )


def read_current(data_dir: str) -> List[Dict[str, Any]]:
    """The chain CURRENT records, newest-first: ``[{"gen", "digest"}, ...]``.

    Empty without a pointer file; :class:`ValueError` when the file is
    there but is not a well-formed CURRENT document.
    """
    path = os.path.join(data_dir, CURRENT_FILENAME)
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        if doc["magic"] != CURRENT_MAGIC:
            raise ValueError(f"bad magic {doc['magic']!r}")
        return [
            {"gen": int(row["gen"]), "digest": row.get("digest")}
            for row in doc["entries"]
        ]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed pointer: {exc!r}") from exc


class AllocationService:
    """Sharded, durable allocation service."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self._config = config if config is not None else ServiceConfig()
        self._shards: List[AllocationShard] = []
        self._started = False
        self._snapshot_lock: Optional[asyncio.Lock] = None
        self.recovered_ops = 0
        #: Current snapshot generation (0: none written yet).
        self.generation = 0
        #: Per-shard ``seq`` at the last committed snapshot.
        self.last_snapshot_seqs: List[int] = []
        #: What recovery had to route around: one dict per quarantined
        #: or skipped artifact (kind, path, reason, quarantined_to).
        self.recovery_events: List[Dict[str, Any]] = []
        #: Newest-first snapshot chain, mirrored from CURRENT.
        self._chain: List[Dict[str, Any]] = []

    # -- properties ------------------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def resources(self) -> Sequence[Resource]:
        return self._config.allocator.resources

    @property
    def started(self) -> bool:
        return self._started

    @property
    def shards(self) -> Sequence[AllocationShard]:
        return tuple(self._shards)

    def shard_for(self, category: str) -> int:
        """The shard index serving ``category`` (stable hash)."""
        return shard_of(category, self._config.n_shards)

    # -- lifecycle -------------------------------------------------------------

    def _build_shards(self) -> None:
        config = self._config
        self._shards = []
        for index in range(config.n_shards):
            allocator = TaskOrientedAllocator(config.shard_allocator_config(index))
            wal_path = None
            if config.data_dir is not None:
                wal_path = os.path.join(config.data_dir, _wal_filename(index))
            self._shards.append(
                AllocationShard(
                    index,
                    allocator,
                    wal_path=wal_path,
                    durability=config.durability,
                    dedup_window=config.dedup_window,
                    probe_interval=config.degraded_probe_interval,
                )
            )

    async def start(self) -> None:
        """Build the shards, recover from ``data_dir``, start the writers."""
        if self._started:
            raise RuntimeError("service already started")
        self._build_shards()
        self._snapshot_lock = asyncio.Lock()
        if self._config.data_dir is not None:
            os.makedirs(self._config.data_dir, exist_ok=True)
            self._recover()
        for shard in self._shards:
            shard.start()
        self._started = True

    def _fingerprint(self) -> Dict[str, Any]:
        """Config identity a snapshot must match to be resumable."""
        config = self._config
        return {
            "n_shards": config.n_shards,
            "algorithm": config.allocator.algorithm,
            "resources": [res.key for res in config.allocator.resources],
            "base_seed": config.base_seed,
        }

    def _gen_path(self, gen: int) -> str:
        assert self._config.data_dir is not None
        return os.path.join(self._config.data_dir, snapshot_filename(gen))

    def _note_recovery(
        self, kind: str, path: str, reason: str, quarantined_to: Optional[str]
    ) -> None:
        self.recovery_events.append(
            {
                "kind": kind,
                "path": path,
                "reason": reason,
                "quarantined_to": quarantined_to,
            }
        )
        logger.warning("recovery: %s at %s (%s)", kind, path, reason)

    def _load_chain(self) -> List[Dict[str, Any]]:
        """The snapshot chain, newest-first: ``[{"gen", "digest"}, ...]``.

        Normally read from the CURRENT pointer.  A damaged pointer is
        quarantined and the chain rebuilt from the snapshot files on
        disk — their digests can no longer be cross-checked, but the
        envelope and fingerprint validation still stand.
        """
        data_dir = self._config.data_dir
        assert data_dir is not None
        try:
            entries = read_current(data_dir)
        except (ValueError, OSError) as exc:
            current = os.path.join(data_dir, CURRENT_FILENAME)
            quarantined = quarantine_file(current)
            self._note_recovery(
                "current-pointer", current, f"unreadable: {exc}", quarantined
            )
            entries = []
        if not entries:
            found = [
                gen
                for name in os.listdir(data_dir)
                if (gen := parse_generation(name)) is not None
            ]
            entries = [{"gen": gen, "digest": None} for gen in sorted(found, reverse=True)]
        return entries

    def _load_generation(
        self, entry: Dict[str, Any]
    ) -> Optional[List[Dict[str, Any]]]:
        """Shard states of one chain entry, or ``None`` if quarantined.

        Corruption — digest mismatch against the CURRENT pointer, or an
        unreadable envelope — quarantines the file and returns ``None``
        so recovery falls back to the next generation.  A *fingerprint*
        mismatch is not corruption (the bytes verified): the operator
        changed the configuration, and that is refused loudly.
        """
        path = self._gen_path(int(entry["gen"]))
        if not os.path.exists(path):
            self._note_recovery(
                "snapshot-missing", path, "chain entry has no file", None
            )
            return None
        digest = entry.get("digest")
        if digest is not None and file_digest(path) != digest:
            quarantined = quarantine_file(path)
            self._note_recovery(
                "snapshot-digest",
                path,
                "bytes do not match the digest recorded in CURRENT",
                quarantined,
            )
            return None
        try:
            _, payload = load_checkpoint(path, kind=SERVICE_KIND)
        except CheckpointError as exc:
            quarantined = quarantine_file(path)
            self._note_recovery("snapshot-envelope", path, str(exc), quarantined)
            return None
        fingerprint = payload.get("fingerprint")
        if fingerprint != self._fingerprint():
            raise CheckpointError(
                f"service snapshot {path!r} was written by a different "
                f"configuration: snapshot {fingerprint!r} vs "
                f"running {self._fingerprint()!r}"
            )
        states = payload.get("shards")
        if not isinstance(states, list) or len(states) != len(self._shards):
            raise CheckpointError(
                f"snapshot {path!r} holds "
                f"{len(states) if isinstance(states, list) else 'no'} shards; "
                f"service runs {len(self._shards)}"
            )
        return states

    def _replay_journal(self, shard: AllocationShard, path: str) -> int:
        """Replay one journal tolerantly (quarantining mid-stream rot)."""
        docs, recovery = recover_jsonl(path)
        if recovery is not None:
            self._note_recovery(
                "journal-corrupt",
                path,
                f"{recovery.reason} (kept {recovery.docs_kept} records)",
                recovery.quarantined_to,
            )
        return shard.replay(docs)

    # reproflow: sync-boundary -- startup recovery runs before the server accepts connections
    def _recover(self) -> None:
        """Walk the generation chain, roll the WALs forward, re-snapshot.

        Fallback order per generation: digest check (against CURRENT),
        envelope check, fingerprint check.  The first two quarantine and
        fall back; the chain running dry with entries present is
        failure-stop (restore a backup via ``snapshot import``).  Roll-
        forward then replays the archived WAL segments *newer* than the
        restored generation (exactly the data a fallback needs) and the
        live WAL tail; the per-shard seq filter absorbs overlap and a
        seq gap is still refused — corruption never silently diverges.
        """
        data_dir = self._config.data_dir
        assert data_dir is not None
        stale = os.path.join(data_dir, PRE_GENERATIONAL_FILENAME)
        if os.path.exists(stale):
            raise CheckpointError(f"{stale!r} is a {UPGRADE_NOTE}")
        self.recovery_events = []
        chain = self._load_chain()
        restored_gen = 0  # generations count from 1
        for entry in chain:
            states = self._load_generation(entry)
            if states is not None:
                # Each parsed shard state is dropped once restored, so
                # the parse is gone before the re-snapshot below.
                states.reverse()
                for shard in self._shards:
                    shard.restore(states.pop())
                restored_gen = int(entry["gen"])
                break
        if chain and not restored_gen:
            raise CheckpointError(
                f"no readable snapshot generation in {data_dir!r}: all "
                f"{len(chain)} chain entries are corrupt or missing — "
                "restore a backup (repro-experiments snapshot-import)"
            )
        self._chain = chain
        self.generation = int(chain[0]["gen"]) if chain else 0
        newer_gens = sorted(int(e["gen"]) for e in chain if int(e["gen"]) > restored_gen)
        recovered = 0
        for shard in self._shards:
            for gen in newer_gens:
                segment = os.path.join(data_dir, segment_filename(shard.index, gen))
                if os.path.exists(segment):
                    recovered += self._replay_journal(shard, segment)
            wal_path = os.path.join(data_dir, _wal_filename(shard.index))
            if os.path.exists(wal_path):
                recovered += self._replay_journal(shard, wal_path)
        self.recovered_ops = recovered
        # Make the recovered state durable *before* accepting traffic:
        # one fresh generation covers everything just replayed, and the
        # live WALs restart empty (archived under the new generation).
        self._write_snapshot()

    # reproflow: sync-boundary -- the snapshot cut runs under the quiesce barrier; blocking is the design
    def _write_snapshot(self) -> str:
        """Write one new snapshot generation (callers ensure quiescence).

        Crash-safe ordering: (1) the generation file commits atomically;
        (2) the CURRENT pointer flips atomically to the new chain;
        (3) the live WALs are archived as this generation's segments;
        (4) out-of-window generations and segments are pruned.  A crash
        between any two steps recovers consistently — before (2) the old
        chain plus the live WAL still cover everything; between (2) and
        (3) the new generation covers the WAL and the seq filter skips
        the overlap; between (3) and (4) there is only unpruned garbage.
        """
        data_dir = self._config.data_dir
        assert data_dir is not None
        CRASH_POINTS.hit(SITE_SNAPSHOT_BEFORE)
        gen = self.generation + 1
        path = self._gen_path(gen)
        digest = save_checkpoint(
            path,
            SERVICE_KIND,
            {
                "fingerprint": self._fingerprint(),
                "generation": gen,
                "shards": [shard.state() for shard in self._shards],
            },
        )
        retention = self._config.snapshot_retention
        entries = [{"gen": gen, "digest": digest}] + [
            dict(entry) for entry in self._chain if int(entry["gen"]) < gen
        ][: max(0, retention - 1)]
        write_current(data_dir, entries)
        CRASH_POINTS.hit(SITE_SNAPSHOT_AFTER)
        self._chain = entries
        self.generation = gen
        self.last_snapshot_seqs = [shard.seq for shard in self._shards]
        for shard in self._shards:
            shard.archive_wal(
                os.path.join(data_dir, segment_filename(shard.index, gen))
            )
        self._prune(data_dir)
        return path

    def _prune(self, data_dir: str) -> None:
        """Remove generations/segments the retained chain cannot reach.

        A snapshot generation survives while it is in the chain; a WAL
        segment survives while some retained generation older than it
        might need it to roll forward (segment ``g`` holds the
        operations between generations ``g-1`` and ``g``).
        """
        keep = {int(entry["gen"]) for entry in self._chain}
        floor = min(keep)
        for name in sorted(os.listdir(data_dir)):
            target: Optional[str] = None
            gen = parse_generation(name)
            if gen is not None and gen not in keep and gen < self.generation:
                target = name
            segment = parse_segment(name)
            if segment is not None and segment[1] <= floor:
                target = name
            if target is not None:
                try:
                    os.remove(os.path.join(data_dir, target))
                except OSError:  # pragma: no cover - prune is best-effort
                    pass

    async def stop(self, snapshot: bool = True) -> None:
        """Drain every shard, optionally snapshot, release the WALs.

        A storage failure during the final snapshot is logged and
        swallowed: the WALs are left un-archived, so everything applied
        is still covered for the next recovery — failing the shutdown
        would lose more than it protects.
        """
        if not self._started:
            return
        for shard in self._shards:
            await shard.stop()
        if self._config.data_dir is not None and snapshot:
            try:
                self._write_snapshot()
            except OSError as exc:
                logger.warning(
                    "final snapshot failed (%s); WALs retained for recovery", exc
                )
        for shard in self._shards:
            shard.close_wal()
        self._started = False

    def abort(self) -> None:
        """Crash simulation: drop writers and queued work on the floor."""
        for shard in self._shards:
            shard.abort()
        self._started = False

    async def snapshot(self) -> str:
        """Online snapshot: quiesce all shards, write one consistent cut."""
        if not self._started:
            raise RuntimeError("service is not started")
        if self._config.data_dir is None:
            raise RuntimeError("service has no data_dir; nothing to snapshot to")
        assert self._snapshot_lock is not None
        async with self._snapshot_lock:
            barriers = [shard.quiesce() for shard in self._shards]
            await asyncio.gather(*(b.parked.wait() for b in barriers))
            try:
                try:
                    path = self._write_snapshot()
                except OSError as exc:
                    # Typed refusal, no state lost: the previous chain
                    # stays CURRENT and the live WALs keep covering
                    # everything applied since it.
                    raise StorageUnavailable(
                        None, f"snapshot write failed: {exc}"
                    ) from exc
            finally:
                for barrier in barriers:
                    barrier.release.set()
            return path

    # -- the request API -------------------------------------------------------

    async def submit(self, op: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one validated operation document; returns the result doc.

        This is the generic entry the wire front end uses; the typed
        helpers below build the documents for in-process callers.
        """
        if op.get("op") in ADMIN_OPS:
            raise ProtocolError(
                f"{op.get('op')!r} is a front-end operation; call the "
                "service method directly"
            )
        validate_request(op, self.resources)
        if op["op"] == "allocate_batch":
            return {"responses": await self.submit_batch(op["requests"])}
        return await self._shard(op["category"]).submit(op)

    async def submit_batch(
        self, requests: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Apply a batch of operation documents, coalesced per shard.

        Responses come back in request order and are bit-identical to a
        sequential loop awaiting each request: within a shard the batch
        is applied contiguously in request order, and requests on
        different shards touch disjoint allocators.
        """
        for request in requests:
            if not isinstance(request, dict):
                raise ProtocolError("allocate_batch: every request must be an object")
            if request.get("op") not in (OP_ALLOCATE, OP_RETRY, OP_RECORD):
                raise ProtocolError(
                    f"allocate_batch: nested op {request.get('op')!r} not allowed"
                )
            validate_request(request, self.resources, depth=1)
        by_shard: Dict[int, List[int]] = {}
        for position, request in enumerate(requests):
            by_shard.setdefault(self.shard_for(request["category"]), []).append(position)
        ordered = sorted(by_shard.items())
        grouped = await asyncio.gather(
            *(
                self._shards[index].submit_many([requests[pos] for pos in positions])
                for index, positions in ordered
            )
        )
        responses: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        for (_, positions), results in zip(ordered, grouped):
            for position, result in zip(positions, results):
                responses[position] = result
        return responses  # type: ignore[return-value]

    async def allocate(self, category: str, task_id: int) -> ResourceVector:
        """First-attempt allocation for one task of ``category``."""
        result = await self.submit(
            {"op": OP_ALLOCATE, "category": category, "task_id": task_id}
        )
        return ResourceVector.from_state(result["allocation"])

    async def allocate_retry(
        self,
        category: str,
        task_id: int,
        previous: ResourceVector,
        observed: ResourceVector,
        exhausted: Sequence[Union[Resource, str]],
    ) -> ResourceVector:
        """Re-allocation after ``previous`` was exhausted."""
        result = await self.submit(
            {
                "op": OP_RETRY,
                "category": category,
                "task_id": task_id,
                "previous": previous.state_dict(),
                "observed": observed.state_dict(),
                "exhausted": [str(res) for res in exhausted],
            }
        )
        return ResourceVector.from_state(result["allocation"])

    async def record(
        self,
        category: str,
        peaks: ResourceVector,
        task_id: int,
        significance: Optional[float] = None,
    ) -> int:
        """Feed back a completed task's peaks; returns the record count."""
        op: Dict[str, Any] = {
            "op": OP_RECORD,
            "category": category,
            "task_id": task_id,
            "peaks": peaks.state_dict(),
        }
        if significance is not None:
            op["significance"] = significance
        result = await self.submit(op)
        return int(result["records_count"])

    def _shard(self, category: str) -> AllocationShard:
        if not self._started:
            raise RuntimeError("service is not started")
        return self._shards[self.shard_for(category)]

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Operational counters, per shard and service-wide."""
        shards = [shard.stats() for shard in self._shards]
        return {
            "n_shards": self._config.n_shards,
            "algorithm": self._config.allocator.algorithm,
            "ops": sum(s["seq"] for s in shards),
            # Nothing is shed any more; the key stays because the e2e
            # benchmark's frozen workloads read it.
            "shed": 0,
            "recovered_ops": self.recovered_ops,
            "shards": shards,
        }

    def health(self) -> Dict[str, Any]:
        """Liveness + storage-pressure view for the wire ``health`` request.

        ``ok`` is false once any shard writer died at a crash point (or
        was aborted).  ``degraded`` is true while any shard's storage is
        refusing writes — the service still answers reads and typed
        refusals, so it is *not* folded into ``ok``.  The per-shard rows
        carry queue depth, dedup occupancy, WAL byte sizes, and the last
        durable seq, so an operator can see storage
        pressure before it becomes an outage.
        """
        shards = [shard.stats() for shard in self._shards]
        for shard, row in zip(self._shards, shards):
            row["crashed"] = shard.crashed
        return {
            "ok": self._started and not any(s["crashed"] for s in shards),
            "started": self._started,
            "degraded": any(s["degraded"] for s in shards),
            "generation": self.generation,
            "last_snapshot_seq": list(self.last_snapshot_seqs),
            "durability": self._config.durability,
            "wal": self._config.data_dir is not None,
            "wal_bytes": sum(s["wal_bytes"] for s in shards),
            "dedup_window": self._config.dedup_window,
            "recovered_ops": self.recovered_ops,
            "recovery_events": len(self.recovery_events),
            "dedup_hits": sum(s["dedup_hits"] for s in shards),
            "shards": shards,
        }

    def shard_digests(self) -> List[str]:
        """Per-shard allocator digests (bit-identity handles)."""
        return [shard.allocator.digest() for shard in self._shards]

    def __repr__(self) -> str:
        return (
            f"AllocationService(shards={self._config.n_shards}, "
            f"algorithm={self._config.allocator.algorithm!r}, "
            f"started={self._started})"
        )
