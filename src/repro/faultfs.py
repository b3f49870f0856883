"""Deterministic filesystem fault injection for the durability layer.

The chaos layer (:mod:`repro.service.chaos`) can kill processes at named
crash points and mangle sockets, but a disk fails differently: writes
return ``ENOSPC``/``EIO`` halfway through a batch, a write persists only
a prefix of its buffer, an fsync fails *after* the kernel already
dropped the dirty pages, and bits rot at rest.  This module makes every
one of those failures reproducible:

* :class:`FsFaultInjector` plugs into the single IO choke point in
  :mod:`repro.checkpoint` (``set_fs_fault_injector``), so the exact
  production write/fsync calls of :class:`~repro.checkpoint.JournalWriter`
  and the atomic snapshot writer are the ones that fail.  A journal
  group commit is one write; a snapshot cut is one write per streamed
  piece of the generation file (one per ``(category, resource)``
  algorithm, plus the envelope's tail) and then one for the CURRENT
  pointer, so a plan can fire with part of a generation already
  written.  Default-off: an uninstalled injector costs one ``is None``
  check.
* Faults are **armed plans** (:class:`FsFaultPlan`): fire the Nth
  matching write/fsync on paths containing a substring, then auto-disarm
  — the same one-shot discipline as ``repro.service.chaos.CrashPoints``,
  and just as replayable.  :func:`seeded_fault_plan` derives a plan from
  a seed for sweep-style tests.
* **fsyncgate semantics** are enforced, not just simulated: once an
  injected fsync has failed on a handle, any further fsync through that
  same handle raises ``RuntimeError`` — after a failed fsync the page
  cache may have dropped the dirty data, so "retry the fsync" silently
  reports durability for bytes that are gone.  The only legal move is
  to reopen the file and rewrite (PostgreSQL's fsyncgate, 2018).
* :func:`flip_bit` / :func:`seeded_flip` model at-rest corruption: a
  chosen (or seeded) single-bit flip at a byte offset, applied to the
  closed file — what the checksummed journal frames exist to catch.

This module deliberately imports nothing from ``repro`` at module scope
except :mod:`repro.checkpoint` (itself a leaf), keeping the dependency
graph acyclic.
"""

from __future__ import annotations

import errno
import os
import random
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.checkpoint import set_fs_fault_injector

__all__ = [
    "STORAGE_FAULT_KINDS",
    "StorageFault",
    "FsFaultPlan",
    "FsFaultInjector",
    "FS_FAULTS",
    "seeded_fault_plan",
    "flip_bit",
    "seeded_flip",
]

#: Injectable storage-fault kinds.  ``enospc``/``eio`` fail the write
#: with nothing persisted; ``short-write`` persists a prefix of the
#: buffer before failing; ``fsync-fail`` lets the write through and
#: fails the flush (the fsyncgate case).
STORAGE_FAULT_KINDS = ("enospc", "eio", "short-write", "fsync-fail")

_ERRNO_BY_KIND = {
    "enospc": errno.ENOSPC,
    "eio": errno.EIO,
    "short-write": errno.EIO,
    "fsync-fail": errno.EIO,
}


class StorageFault(OSError):
    """An injected storage failure (a real one raises plain ``OSError``).

    Subclassing ``OSError`` matters: the durability layer must treat an
    injected ENOSPC exactly like a real one, so every handler catches
    ``OSError`` and the tests prove the production path, not a special
    case.

    Attributes
    ----------
    kind:
        One of :data:`STORAGE_FAULT_KINDS`.
    op:
        ``"write"`` or ``"fsync"``.
    path:
        The file the faulted IO targeted.
    """

    def __init__(self, kind: str, op: str, path: str) -> None:
        code = _ERRNO_BY_KIND[kind]
        super().__init__(
            code, f"injected {kind} during {op} of {path!r} ({os.strerror(code)})"
        )
        self.kind = kind
        self.op = op
        self.path = path


@dataclass(frozen=True)
class FsFaultPlan:
    """One armed fault: fire on the Nth matching IO call, then disarm.

    ``path_substring`` scopes the fault (e.g. ``".wal"`` hits only
    journal IO, ``"service.snapshot"`` only snapshot writes and
    ``"service.snapshot.0"`` only generation files, not CURRENT); ``at_hit``
    counts matching calls, 1-based, so a plan is exactly reproducible
    for a given call sequence.
    """

    kind: str
    at_hit: int = 1
    path_substring: str = ""

    def __post_init__(self) -> None:
        if self.kind not in STORAGE_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {STORAGE_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.at_hit < 1:
            raise ValueError(f"at_hit must be >= 1, got {self.at_hit}")

    @property
    def op(self) -> str:
        return "fsync" if self.kind == "fsync-fail" else "write"


class FsFaultInjector:
    """Deterministic write/fsync fault layer under ``repro.checkpoint``.

    Usage::

        FS_FAULTS.arm(FsFaultPlan("enospc", at_hit=3, path_substring=".wal"))
        try:
            ...  # run the workload; the 3rd WAL write raises StorageFault
        finally:
            FS_FAULTS.reset()

    ``arm`` installs the injector into :mod:`repro.checkpoint`;
    ``reset`` removes it, restoring the zero-overhead direct path.  A
    fired plan auto-disarms (like a chaos crash point) but the injector
    stays installed so the poisoned-handle bookkeeping keeps enforcing
    fsyncgate semantics until ``reset``.
    """

    def __init__(self) -> None:
        self._plan: Optional[FsFaultPlan] = None
        self._hits = 0
        # id(handle) -> weakref to the poisoned handle.  Keying on the
        # bare id would misfire once a poisoned handle is freed and
        # CPython reuses its address for a fresh one; the weakref lets
        # a stale entry die with the handle it belonged to.
        self._poisoned: Dict[int, weakref.ref] = {}
        #: Log of fired faults, ``(kind, op, path, hit_number)`` — the
        #: replay record a deterministic sweep asserts against.
        self.fired: List[Tuple[str, str, str, int]] = []

    # -- arming -----------------------------------------------------------

    def arm(self, plan: FsFaultPlan) -> None:
        """Arm ``plan`` and install the injector under the IO hook."""
        self._plan = plan
        self._hits = 0
        set_fs_fault_injector(self)

    def disarm(self) -> None:
        """Drop the armed plan (the injector stays installed)."""
        self._plan = None
        self._hits = 0

    def reset(self) -> None:
        """Disarm, forget poisoned handles, clear the log, uninstall."""
        self.disarm()
        self._poisoned.clear()
        self.fired.clear()
        set_fs_fault_injector(None)

    @property
    def armed(self) -> bool:
        return self._plan is not None

    def _matches(self, op: str, path: str) -> bool:
        plan = self._plan
        return (
            plan is not None
            and plan.op == op
            and plan.path_substring in path
        )

    def _fire(self, op: str, path: str) -> StorageFault:
        plan = self._plan
        assert plan is not None
        self._plan = None  # one-shot: auto-disarm on fire
        self.fired.append((plan.kind, op, path, self._hits))
        return StorageFault(plan.kind, op, path)

    # -- the IO hook (called by repro.checkpoint) -------------------------

    def write(self, handle: Any, text: str, path: str) -> None:
        if self._matches("write", path):
            self._hits += 1
            if self._hits == self._plan.at_hit:  # type: ignore[union-attr]
                kind = self._plan.kind  # type: ignore[union-attr]
                if kind == "short-write":
                    # Persist a prefix, as a real short write would: the
                    # torn half-line lands in the file (flushed past the
                    # userspace buffer) and must be repaired before the
                    # journal is reused.
                    handle.write(text[: max(1, len(text) // 2)])
                    handle.flush()
                raise self._fire("write", path)
        handle.write(text)

    def fsync(self, handle: Any, path: str) -> None:
        key = id(handle)
        ref = self._poisoned.get(key)
        if ref is not None and ref() is handle:
            raise RuntimeError(
                "fsyncgate violation: fsync retried on a handle whose fsync "
                f"already failed ({path!r}); the dirty pages may be gone — "
                "reopen the file and rewrite instead"
            )
        if self._matches("fsync", path):
            self._hits += 1
            if self._hits == self._plan.at_hit:  # type: ignore[union-attr]
                self._poisoned[key] = weakref.ref(handle)
                raise self._fire("fsync", path)
        os.fsync(handle.fileno())


#: Process-wide injector instance; arm/reset it around a faulted run.
FS_FAULTS = FsFaultInjector()


def seeded_fault_plan(
    seed: int,
    kinds: Tuple[str, ...] = STORAGE_FAULT_KINDS,
    max_hit: int = 8,
    path_substring: str = "",
) -> FsFaultPlan:
    """Derive one reproducible fault plan from a seed.

    The same seed always yields the same (kind, hit) pair, so a failing
    sweep case replays exactly from its seed alone.
    """
    rng = random.Random(f"repro-faultfs:{seed}")
    return FsFaultPlan(
        kind=kinds[rng.randrange(len(kinds))],
        at_hit=rng.randrange(1, max_hit + 1),
        path_substring=path_substring,
    )


# ---------------------------------------------------------------------------
# At-rest corruption (bit rot)
# ---------------------------------------------------------------------------


def flip_bit(path: str, byte_offset: int, bit: int = 0) -> None:
    """Flip one bit of ``path`` in place (post-crash bit-rot model)."""
    size = os.path.getsize(path)
    if not 0 <= byte_offset < size:
        raise ValueError(f"byte_offset {byte_offset} outside file of {size} bytes")
    if not 0 <= bit < 8:
        raise ValueError(f"bit must be in [0, 8), got {bit}")
    # Deliberate in-place corruption of a closed artifact: atomic-write
    # discipline is exactly what this helper exists to attack.
    # reprolint: disable=R4
    with open(path, "rb+") as handle:
        handle.seek(byte_offset)
        original = handle.read(1)
        handle.seek(byte_offset)
        handle.write(bytes([original[0] ^ (1 << bit)]))


def seeded_flip(path: str, seed: int) -> Tuple[int, int]:
    """Flip one seeded-random bit of ``path``; returns ``(offset, bit)``.

    Deterministic for a given (file size, seed), so a sweep case that
    trips on a particular flip replays bit-for-bit.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"cannot flip a bit of empty file {path!r}")
    rng = random.Random(f"repro-bitflip:{seed}:{size}")
    offset = rng.randrange(size)
    bit = rng.randrange(8)
    flip_bit(path, offset, bit)
    return offset, bit
