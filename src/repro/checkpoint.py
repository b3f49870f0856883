"""Crash-safe checkpointing: atomic writes, versioned snapshots, resume.

Production resource managers treat predictor/scheduler state as durable,
restartable state; this module gives the reproduction the same property
across its three layers:

* **Durable allocator state** — every algorithm and the
  :class:`~repro.core.allocator.TaskOrientedAllocator` expose
  ``state_dict()`` / ``load_state()`` built on the JSON-safe primitives
  here.  Serialization is *bit-exact*: float64 values round-trip through
  JSON's shortest-repr float encoding, prefix-sum buffers are stored
  verbatim (never recomputed, which would change rounding), and RNG
  states are captured via ``Generator.bit_generator.state``.
* **Resumable simulations** — the event queue holds closures and cannot
  be pickled, so a simulation snapshot is *replay-based*: it records how
  many engine events have been processed plus verification digests
  (trace hash, allocator state hash, pool/fault RNG states).  Resuming
  rebuilds the manager from its config, replays exactly that many events
  (the engine is deterministic, so the rebuilt state is bit-identical),
  verifies every digest, and continues.  A mismatch means the config or
  code changed and the checkpoint is refused rather than silently
  diverging.
* **Graceful shutdown** — :class:`GracefulShutdown` converts SIGINT /
  SIGTERM into a flag the :class:`SimulationCheckpointer` observes after
  every event: it writes one final snapshot, flushes atomically, and
  raises :class:`SimulationInterrupted` so the caller can exit cleanly
  with ``128 + signum``.

This module deliberately imports nothing from ``repro`` at module scope
(the core layer imports it), keeping the dependency graph acyclic.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal as _signal
import tempfile
import threading
import time as _time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "FORMAT_VERSION",
    "FRAME_PREFIX",
    "CheckpointError",
    "JournalCorruptError",
    "JournalRecovery",
    "SimulationInterrupted",
    "GridInterrupted",
    "write_text_atomic",
    "write_json_atomic",
    "append_jsonl",
    "JournalWriter",
    "read_jsonl",
    "recover_jsonl",
    "repair_journal_tail",
    "quarantine_file",
    "encode_frame",
    "decode_frame",
    "set_fs_fault_injector",
    "file_digest",
    "canonical_json",
    "state_digest",
    "generator_state",
    "restore_generator",
    "save_checkpoint",
    "load_checkpoint",
    "GracefulShutdown",
    "SimulationCheckpointer",
]

#: Version of the on-disk checkpoint envelope.  Bumped on any change to
#: the payload schemas; loaders refuse versions they do not understand.
FORMAT_VERSION = 1

#: Magic identifying repro checkpoint files.
MAGIC = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or verified."""


class JournalCorruptError(CheckpointError):
    """A journal has a newline-terminated line that is not a valid frame.

    An unterminated final line is normal crash debris and is silently
    dropped; a bad *terminated* line means the storage layer lied — bit
    rot, a short write that later got appended over, a truncated copy.
    The error carries enough context to quarantine and report precisely
    instead of crashing whoever tried to read the journal.

    Attributes
    ----------
    path:
        The journal file.
    line:
        1-based line number of the first corrupt record.
    offset:
        Byte offset of that line's first byte.
    reason:
        What the frame decoder rejected.
    """

    def __init__(self, path: str, line: int, offset: int, reason: str) -> None:
        super().__init__(
            f"corrupt journal {path!r}: malformed line {line} "
            f"(byte offset {offset}): {reason}"
        )
        self.path = path
        self.line = line
        self.offset = offset
        self.reason = reason


@dataclass(frozen=True)
class JournalRecovery:
    """Report of what :func:`recover_jsonl` did about a corrupt journal."""

    path: str
    line: int
    offset: int
    reason: str
    docs_kept: int
    quarantined_to: Optional[str]


class SimulationInterrupted(RuntimeError):
    """A shutdown signal arrived mid-simulation; a snapshot was written.

    Attributes
    ----------
    path:
        Where the final snapshot landed.
    signum:
        The signal that triggered the shutdown (``None`` for a manual
        trip, e.g. in tests).
    """

    def __init__(self, path: str, signum: Optional[int]) -> None:
        super().__init__(f"simulation interrupted (signal {signum}); snapshot at {path}")
        self.path = path
        self.signum = signum


class GridInterrupted(RuntimeError):
    """A shutdown signal arrived mid-grid; completed cells are journaled.

    Attributes
    ----------
    signum:
        The triggering signal (``None`` for a manual trip).
    completed:
        Number of cells durably journaled before the interrupt.
    """

    def __init__(self, signum: Optional[int], completed: int) -> None:
        super().__init__(
            f"grid interrupted (signal {signum}) after {completed} journaled "
            "cells; relaunch with --resume to continue"
        )
        self.signum = signum
        self.completed = completed


# ---------------------------------------------------------------------------
# Checksummed journal frames
# ---------------------------------------------------------------------------

#: Prefix of version-1 checksummed journal frames.  A frame is one line,
#: ``F1 <payload-bytes> <crc32-hex8> <payload-json>`` — self-describing
#: (the header states the payload's byte length) and checksummed (CRC32
#: over the payload bytes).  It is the only journal line format: a line
#: without the prefix is refused like any other damaged frame.
FRAME_PREFIX = "F1 "

_CRC_HEX_DIGITS = 8

#: ``json.dumps(doc, separators=(",", ":"))`` without building a fresh
#: encoder per call (that is what ``dumps`` does for non-default options).
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(doc: Any) -> str:
    """Render ``doc`` as one self-describing checksummed journal line."""
    payload = _compact_json(doc)
    if "\n" in payload:  # pragma: no cover - json never emits raw newlines
        raise CheckpointError("journal documents must serialize to one line")
    raw = payload.encode("utf-8")
    return f"{FRAME_PREFIX}{len(raw)} {zlib.crc32(raw):08x} {payload}"


def decode_frame(line: str) -> Any:
    """Decode one frame line; raises :class:`ValueError` on any damage.

    The length check runs before the CRC so a truncated or extended
    payload reports the cheaper, more precise failure; the CRC then
    catches every single-bit flip (and all burst errors up to 32 bits)
    anywhere in the payload.
    """
    parts = line.split(" ", 3)
    if len(parts) != 4 or parts[0] != "F1":
        raise ValueError("truncated frame header")
    length_text, crc_text, payload = parts[1], parts[2], parts[3]
    if not (length_text and length_text.isascii() and length_text.isdigit()):
        raise ValueError(f"bad frame length field {length_text!r}")
    raw = payload.encode("utf-8")
    if len(raw) != int(length_text):
        raise ValueError(
            f"frame length mismatch: header says {length_text} bytes, "
            f"payload is {len(raw)}"
        )
    # Canonical lowercase hex only: int(x, 16) would also accept
    # "DCDD80AB", letting a case-flipping bit error (0x20) slip through.
    if len(crc_text) != _CRC_HEX_DIGITS or any(
        c not in "0123456789abcdef" for c in crc_text
    ):
        raise ValueError(f"bad frame crc field {crc_text!r}")
    expected_crc = int(crc_text, 16)
    actual_crc = zlib.crc32(raw)
    if actual_crc != expected_crc:
        raise ValueError(
            f"frame crc mismatch: header says {crc_text}, "
            f"payload hashes to {actual_crc:08x}"
        )
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:  # pragma: no cover - writer bug
        raise ValueError(f"crc-valid frame holds invalid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# Filesystem fault injection hook
# ---------------------------------------------------------------------------

#: The installed filesystem fault injector, or ``None`` — the default,
#: where every journal/snapshot write is plain direct IO.  Installed and
#: removed by :mod:`repro.faultfs` (a leaf module, so the dependency
#: graph stays acyclic); this module only holds the hook and pays a
#: single ``is None`` check on the hot path.
_FS_FAULTS: Optional[Any] = None


def set_fs_fault_injector(injector: Optional[Any]) -> Optional[Any]:
    """Install (``None``: remove) the filesystem fault injector.

    Returns the previously installed injector so tests can restore it.
    The injector must expose ``write(handle, text, path)`` and
    ``fsync(handle, path)``; see :class:`repro.faultfs.FsFaultInjector`.
    """
    global _FS_FAULTS
    previous = _FS_FAULTS
    _FS_FAULTS = injector
    return previous


def _fault_write(handle: Any, text: str, path: str) -> None:
    if _FS_FAULTS is None:
        handle.write(text)
    else:
        _FS_FAULTS.write(handle, text, path)


def _fault_fsync(handle: Any, path: str) -> None:
    if _FS_FAULTS is None:
        os.fsync(handle.fileno())
    else:
        _FS_FAULTS.fsync(handle, path)


# ---------------------------------------------------------------------------
# Atomic IO
# ---------------------------------------------------------------------------


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp + fsync + os.replace).

    A crash at any point leaves either the old file or the new one —
    never a torn mix.  The temp file lives in the target's directory so
    the final ``os.replace`` stays on one filesystem.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            _fault_write(handle, text, path)
            handle.flush()
            _fault_fsync(handle, path)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_json_atomic(path: str, doc: Any) -> None:
    """Atomically write ``doc`` as JSON (exact float round-trip)."""
    write_text_atomic(path, _compact_json(doc))


def append_jsonl(path: str, doc: Any) -> None:
    """Append one checksummed journal line durably (write + flush + fsync).

    The classic write-ahead-log append: a crash can tear at most the
    *final* line, which :func:`read_jsonl` tolerates and drops.  Records
    are written as checksummed frames (:func:`encode_frame`) so later
    bit rot is detected rather than silently decoded.
    """
    line = encode_frame(doc)
    with open(path, "a", encoding="utf-8") as handle:
        _fault_write(handle, line + "\n", path)
        handle.flush()
        _fault_fsync(handle, path)


class JournalWriter:
    """A held-open JSONL write-ahead log with group commit.

    :func:`append_jsonl` reopens the file and fsyncs per document —
    correct, but a per-operation fsync caps a high-rate writer at the
    disk's flush latency.  The allocation service instead drains its
    queue into batches and commits each batch with **one**
    flush + fsync (``sync="batch"``); a crash can then lose at most the
    *tail* of the final batch, which :func:`read_jsonl`'s torn-line
    tolerance plus the reader's sequence-number filter already handle.
    ``sync="none"`` leaves flushing to the OS (benchmarks and tests
    only).

    Records are written as checksummed frames (:func:`encode_frame`);
    all IO goes through the filesystem fault hook, so a seeded
    :class:`repro.faultfs.FsFaultInjector` can drive ENOSPC/EIO/short
    writes/failed fsyncs through this exact code path.  After a write or
    fsync failure the writer must be discarded and the file reopened —
    fsyncgate semantics: a failed fsync may have dropped the dirty pages,
    so retrying on the same handle would falsely report durability.
    """

    SYNC_MODES = ("batch", "none")

    # reproflow: sync-boundary -- WAL open happens once per shard at startup/rotation, before traffic
    def __init__(self, path: str, sync: str = "batch") -> None:
        if sync not in self.SYNC_MODES:
            raise ValueError(f"sync must be one of {self.SYNC_MODES}, got {sync!r}")
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        self._path = path
        self._sync = sync
        self._handle = open(path, "a", encoding="utf-8")
        #: File length after the last append that returned: the bytes
        #: past it, if any, belong to an append that raised.
        self.committed_bytes = os.fstat(self._handle.fileno()).st_size

    # reproflow: sync-boundary -- the group commit is the service's deliberate durability stall (SERVICE.md "Durability")
    def append_many(self, docs: List[Any]) -> None:
        """Durably append ``docs`` in order with one group commit."""
        if not docs:
            return
        text = "\n".join([encode_frame(doc) for doc in docs]) + "\n"
        _fault_write(self._handle, text, self._path)
        self._handle.flush()
        if self._sync == "batch":
            _fault_fsync(self._handle, self._path)
        # Frames are ASCII (JSON escapes the rest): characters are bytes.
        self.committed_bytes += len(text)

    def append(self, doc: Any) -> None:
        self.append_many([doc])

    # reproflow: sync-boundary -- final flush+fsync runs during shutdown/rotation, after the drain
    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            if self._sync != "none":
                _fault_fsync(self._handle, self._path)
            self._handle.close()

    def abandon(self) -> None:
        """Drop the handle without the final fsync (crash simulation).

        Everything already committed by ``append_many`` survives, but
        nothing is force-flushed to stable storage on the way out — the
        chaos crash points use this so a simulated death matches what a
        real ``kill -9`` leaves behind.  Also the exit path after a
        storage fault: a handle whose write or fsync failed must never
        be fsynced again, only dropped.
        """
        if not self._handle.closed:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - a dying handle may complain
                pass

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def scan_journal(
    path: str,
) -> Tuple[List[Any], int, bool, Optional[JournalCorruptError]]:
    """Decode the longest valid prefix of a journal in one pass.

    Returns ``(docs, good_bytes, torn, corrupt)``: the prefix's
    documents, the byte offset just past its last line, whether an
    unterminated final line was dropped as crash debris, and the first
    newline-terminated line that failed to decode, if any.

    The one definition of "this journal is healthy"; every reader below
    and ``repro-experiments fsck`` are views of it.  A record is
    committed by its trailing newline, which a torn write can never
    reach: the bytes after the last newline are crash debris, dropped
    without a look, and that is the *only* thing forgiven.  A
    newline-terminated line was fully written once — if it is not a
    valid frame now (blank lines and un-checksummed JSON included), the
    storage layer changed it afterwards and the scan stops there.
    """
    # Binary read: bit rot can produce bytes that are not valid UTF-8,
    # which must surface as typed corruption, never UnicodeDecodeError.
    with open(path, "rb") as handle:
        blob = handle.read()
    *lines, tail = blob.split(b"\n")
    docs: List[Any] = []
    offset = 0
    for number, raw in enumerate(lines, 1):
        try:
            docs.append(decode_frame(raw.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            reason = f"{exc} ({len(lines)} lines total)"
            return docs, offset, False, JournalCorruptError(path, number, offset, reason)
        offset += len(raw) + 1
    return docs, offset, bool(tail), None


def read_jsonl(path: str) -> List[Any]:
    """Read a journal, dropping a torn (crash-truncated) last line.

    A newline-terminated line that is not a valid checksummed frame
    (:func:`encode_frame`) means real corruption and raises
    :class:`JournalCorruptError` carrying the path, line number, and
    byte offset; callers that can degrade (the allocation service, the
    grid runner) quarantine via :func:`recover_jsonl` instead of
    crashing at startup.
    """
    docs, _, _, corrupt = scan_journal(path)
    if corrupt is not None:
        raise corrupt
    return docs


def recover_jsonl(
    path: str, quarantine: bool = True
) -> Tuple[List[Any], Optional[JournalRecovery]]:
    """Best-effort journal read: longest valid prefix + recovery report.

    A healthy journal (including one with only a torn tail) returns
    ``(docs, None)`` and is left untouched.  For mid-stream corruption,
    the decoded prefix is returned and — with ``quarantine=True``, the
    default — the damaged file is moved into ``<path>.corrupt/`` so the
    next writer starts clean and the evidence survives for post-mortem
    (``repro-experiments fsck`` lists quarantine directories).
    """
    docs, _, _, corrupt = scan_journal(path)
    if corrupt is None:
        return docs, None
    quarantined_to = quarantine_file(path) if quarantine else None
    return docs, JournalRecovery(
        path=path,
        line=corrupt.line,
        offset=corrupt.offset,
        reason=corrupt.reason,
        docs_kept=len(docs),
        quarantined_to=quarantined_to,
    )


def quarantine_file(path: str) -> str:
    """Move ``path`` into a sibling ``<path>.corrupt/`` directory.

    The original name is freed so a writer can start a clean file; the
    damaged bytes are preserved under a serial number for post-mortem.
    Returns the quarantine destination.
    """
    directory = path + ".corrupt"
    os.makedirs(directory, exist_ok=True)
    serial = len(os.listdir(directory)) + 1
    dest = os.path.join(directory, f"{serial:04d}-{os.path.basename(path)}")
    os.replace(path, dest)
    return dest


def repair_journal_tail(path: str, committed: int) -> int:
    """Cut the journal back to ``committed`` bytes, durably; returns bytes dropped.

    Reopening a journal for appends after a short or failed write must
    not leave a half-record mid-file: the next append would weld new
    frames onto the debris and turn harmless crash residue into
    mid-stream corruption.  Everything past ``committed``
    (:attr:`JournalWriter.committed_bytes`, or the file size to drop
    only an unterminated tail) goes, whole frames of the failed append
    included, and so does an unterminated tail below it.  A terminated
    line in the kept prefix that does not decode is real corruption and
    raises :class:`JournalCorruptError` (use :func:`recover_jsonl`).
    """
    try:
        _, good_bytes, _, corrupt = scan_journal(path)
    except FileNotFoundError:
        return 0
    if corrupt is not None and corrupt.offset < committed:
        raise corrupt
    keep = min(good_bytes, committed)
    dropped = os.path.getsize(path) - keep
    if dropped <= 0:
        return 0
    with open(path, "rb+") as handle:
        handle.truncate(keep)
        handle.flush()
        os.fsync(handle.fileno())
    return dropped


# ---------------------------------------------------------------------------
# Canonical hashing & RNG state
# ---------------------------------------------------------------------------


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering (sorted keys, tight separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def state_digest(obj: Any) -> str:
    """sha256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def generator_state(gen) -> Dict[str, Any]:
    """JSON-safe snapshot of a ``numpy.random.Generator``'s state."""
    return _jsonify(gen.bit_generator.state)


def restore_generator(gen, state: Dict[str, Any]) -> None:
    """Restore a generator captured by :func:`generator_state` in place."""
    current = gen.bit_generator.state
    if state.get("bit_generator") != current.get("bit_generator"):
        raise CheckpointError(
            f"RNG kind mismatch: checkpoint has {state.get('bit_generator')!r}, "
            f"generator is {current.get('bit_generator')!r}"
        )
    gen.bit_generator.state = state


def _jsonify(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return _jsonify(obj.tolist())
        except AttributeError:  # pragma: no cover - numpy scalars have tolist
            return obj.item()
    return obj


# ---------------------------------------------------------------------------
# Versioned checkpoint envelope
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, kind: str, payload: Dict[str, Any]) -> str:
    """Atomically write one versioned checkpoint document.

    Returns the sha256 hex digest of the exact bytes written; the
    generational snapshot chain records it in its CURRENT pointer so a
    later reader can prove a snapshot file is byte-identical to what the
    writer produced (see :func:`file_digest`).
    """
    text = json.dumps(
        {
            "magic": MAGIC,
            "version": FORMAT_VERSION,
            "kind": kind,
            "payload": payload,
        },
        indent=None,
        separators=(",", ":"),
    )
    write_text_atomic(path, text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    """sha256 hex digest of a file's bytes (snapshot-chain verification)."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def load_checkpoint(path: str, kind: Optional[str] = None) -> Tuple[str, Dict[str, Any]]:
    """Read and validate a checkpoint envelope; returns (kind, payload)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("magic") != MAGIC:
        raise CheckpointError(f"{path!r} is not a repro checkpoint")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    if kind is not None and doc.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path!r} holds a {doc.get('kind')!r} snapshot, "
            f"expected {kind!r}"
        )
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path!r} has no payload")
    return str(doc.get("kind")), payload


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------


class GracefulShutdown:
    """Context manager turning SIGINT/SIGTERM into a cooperative flag.

    The first signal sets :attr:`triggered`; checkpoint-aware loops poll
    it at safe points, write their snapshot, and unwind.  The previous
    handlers are restored on the *first* signal, so a second Ctrl-C
    terminates immediately (the operator's escape hatch), and again on
    context exit.  Handler installation is skipped off the main thread
    (Python forbids it) and with ``install=False`` (tests drive
    :meth:`trip` directly).
    """

    SIGNALS = (_signal.SIGINT, _signal.SIGTERM)

    def __init__(self, install: bool = True) -> None:
        self._install = install
        self._previous: Dict[int, Any] = {}
        self.triggered = False
        self.signum: Optional[int] = None

    def __enter__(self) -> "GracefulShutdown":
        if self._install and threading.current_thread() is threading.main_thread():
            for signum in self.SIGNALS:
                self._previous[signum] = _signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _handle(self, signum, frame) -> None:
        self.trip(signum)

    def trip(self, signum: Optional[int] = None) -> None:
        """Mark shutdown requested (signal handler and test hook)."""
        self.triggered = True
        self.signum = signum
        self._restore()

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            _signal.signal(signum, previous)
        self._previous.clear()


# ---------------------------------------------------------------------------
# Simulation checkpointer
# ---------------------------------------------------------------------------

#: Payload kind of simulation snapshots.
SIMULATION_KIND = "simulation"

#: Payload kind of allocation-service snapshots: one envelope holding a
#: consistent cut of *every* shard (allocator state, applied-op sequence
#: number, idempotency window) taken under a full quiesce barrier, so
#: no operation is ever split across the cut.  Written by
#: :meth:`repro.service.AllocationService.snapshot`.
SERVICE_KIND = "service"


class SimulationCheckpointer:
    """Periodic + on-signal snapshots of one running simulation.

    Attach to a **freshly constructed** (not yet begun)
    :class:`~repro.sim.manager.WorkflowManager`.  The checkpointer
    subscribes to the manager's event stream (hashing every canonical
    trace line incrementally) and to the engine's post-event hook, where
    it enforces the snapshot policy:

    * ``every_events=N`` — snapshot after every N-th processed engine
      event (deterministic; tests and the bit-identical-resume proofs
      use this);
    * ``every_seconds=S`` — snapshot when S wall-clock seconds have
      passed since the last one (the production knob);
    * ``shutdown`` — a :class:`GracefulShutdown`; when tripped, one
      final snapshot is written and :class:`SimulationInterrupted` is
      raised out of the engine loop.

    :meth:`resume` replays a snapshot against the fresh manager and
    verifies bit-identity (clock, trace digest, allocator digest, RNG
    states) before handing control back.
    """

    def __init__(
        self,
        manager: Any,
        path: str,
        every_events: Optional[int] = None,
        every_seconds: Optional[float] = None,
        shutdown: Optional[GracefulShutdown] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        if every_events is not None and every_events < 1:
            raise ValueError(f"every_events must be >= 1, got {every_events}")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError(f"every_seconds must be > 0, got {every_seconds}")
        self._manager = manager
        self._path = path
        self._every_events = every_events
        self._every_seconds = every_seconds
        self._shutdown = shutdown
        self._extra = dict(extra) if extra else {}
        self._hasher = hashlib.sha256()
        self._trace_events = 0
        self._last_wall = _time.monotonic()
        self._replaying = False
        self.snapshots_written = 0
        manager.add_event_listener(self._on_sim_event)
        manager.engine.add_listener(self._after_engine_event)

    @property
    def trace_digest(self) -> str:
        return self._hasher.hexdigest()

    # -- hooks -----------------------------------------------------------------

    def _on_sim_event(self, event) -> None:
        from repro.sim.trace import format_event

        self._hasher.update(format_event(event).encode("utf-8"))
        self._hasher.update(b"\n")
        self._trace_events += 1

    def _after_engine_event(self) -> None:
        if self._replaying:
            return
        if self._shutdown is not None and self._shutdown.triggered:
            self.write()
            raise SimulationInterrupted(self._path, self._shutdown.signum)
        if (
            self._every_events is not None
            and self._manager.engine.events_processed % self._every_events == 0
        ):
            self.write()
        elif self._every_seconds is not None:
            now = _time.monotonic()
            if now - self._last_wall >= self._every_seconds:
                self.write()

    # -- snapshot --------------------------------------------------------------

    def _fingerprint(self) -> Dict[str, Any]:
        """Every verifiable fact about the manager's current state.

        The one list of snapshot fields: :meth:`payload` records exactly
        these and :meth:`_verify` re-derives and compares every one, so
        a field cannot be recorded without being checked.
        """
        manager = self._manager
        engine = manager.engine
        return {
            "events": engine.events_processed,
            "now": engine.now,
            "workflow": manager.workflow.name,
            "n_tasks": len(manager.workflow),
            "algorithm": manager.algorithm_label,
            "completed": manager.completed_tasks,
            "trace_events": self._trace_events,
            "trace_digest": self.trace_digest,
            "allocator_digest": state_digest(manager.allocator.state_dict()),
            "pool_rng": manager.pool.rng_state(),
            "fault_rng": (
                manager.faults.rng_state() if manager.faults is not None else None
            ),
            "resilience_digest": (
                state_digest(manager.resilience.state_dict())
                if manager.resilience is not None
                else None
            ),
        }

    def payload(self) -> Dict[str, Any]:
        """The snapshot document for the manager's current state."""
        return {**self._fingerprint(), **self._extra}

    def write(self) -> str:
        """Write one snapshot atomically; returns the path."""
        save_checkpoint(self._path, SIMULATION_KIND, self.payload())
        self.snapshots_written += 1
        self._last_wall = _time.monotonic()
        return self._path

    # -- resume ----------------------------------------------------------------

    def resume(self, payload: Dict[str, Any]) -> bool:
        """Replay ``payload`` against the fresh manager and verify it.

        Returns ``True`` if the replay already completed the workflow
        (the snapshot landed after the last event).  Raises
        :class:`CheckpointError` on any divergence — a refused resume is
        always safer than a silently wrong one.
        """
        manager = self._manager
        if payload.get("workflow") != manager.workflow.name or payload.get(
            "n_tasks"
        ) != len(manager.workflow):
            raise CheckpointError(
                f"snapshot is for workflow {payload.get('workflow')!r} "
                f"({payload.get('n_tasks')} tasks); manager runs "
                f"{manager.workflow.name!r} ({len(manager.workflow)} tasks)"
            )
        if payload.get("algorithm") != manager.algorithm_label:
            raise CheckpointError(
                f"snapshot is for algorithm {payload.get('algorithm')!r}; "
                f"manager runs {manager.algorithm_label!r}"
            )
        target = int(payload["events"])
        self._replaying = True
        try:
            manager.begin()
            done = manager.advance(stop_after_events=target)
        finally:
            self._replaying = False
        self._verify(payload)
        return done

    def _verify(self, payload: Dict[str, Any]) -> None:
        # `.get`: a field the snapshot lacks (``resilience_digest`` in
        # snapshots older than the resilience layer) verifies only
        # while this run's value is ``None`` too.
        for name, got in self._fingerprint().items():
            expected = payload.get(name)
            if got != expected:
                raise CheckpointError(
                    f"resume verification failed on {name}: replay produced "
                    f"{got!r}, snapshot recorded {expected!r} — the run is not "
                    "bit-identical (config or code changed since the snapshot)"
                )


def resume_simulation_checkpoint(
    manager: Any,
    path: str,
    every_events: Optional[int] = None,
    every_seconds: Optional[float] = None,
    shutdown: Optional[GracefulShutdown] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Tuple["SimulationCheckpointer", bool]:
    """Load ``path`` and resume ``manager`` from it.

    Convenience wrapper: builds the checkpointer, loads the snapshot,
    replays, verifies.  Returns ``(checkpointer, workflow_done)``.
    """
    _, payload = load_checkpoint(path, kind=SIMULATION_KIND)
    checkpointer = SimulationCheckpointer(
        manager,
        path,
        every_events=every_events,
        every_seconds=every_seconds,
        shutdown=shutdown,
        extra=extra,
    )
    done = checkpointer.resume(payload)
    return checkpointer, done
