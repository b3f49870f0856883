"""Configuration of one allocation service instance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.allocator import AllocatorConfig

__all__ = ["ServiceConfig", "DURABILITY_MODES"]

#: WAL commit policies: ``"batch"`` group-commits each drained queue
#: batch with a single fsync before any of its operations is answered
#: (the default — at most one torn batch tail is at risk, which the
#: torn-line-tolerant reader absorbs), ``"none"`` leaves flushing to the
#: OS (benchmarks and tests).
DURABILITY_MODES = ("batch", "none")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one :class:`~repro.service.AllocationService` needs.

    Attributes
    ----------
    allocator:
        The allocator configuration every shard runs.  Each shard gets
        its *own* :class:`~repro.core.allocator.TaskOrientedAllocator`
        whose seed is derived deterministically from ``allocator.seed``
        (``None`` is pinned to 0 — a service must be replayable) and the
        shard index via :func:`repro.service.shards.shard_seed`.
    n_shards:
        Number of single-writer shards; categories are mapped to shards
        by the stable hash :func:`repro.service.shards.shard_of`.
    data_dir:
        Durability root (one WAL per shard plus a multi-shard snapshot
        envelope).  ``None`` runs fully in memory.
    durability:
        WAL commit policy, one of :data:`DURABILITY_MODES`.
    dedup_window:
        Per-shard idempotency window: the most recent ``dedup_window``
        keyed responses are remembered (WAL-logged with their operations
        and carried in snapshots, so duplicate suppression survives
        crash/resume).  A mutating request repeating a remembered
        ``key`` is answered with the stored response verbatim — applied
        exactly once, no new sequence number.  ``0`` disables dedup.
    max_connections:
        Concurrent wire connections the server accepts; excess
        connections get a typed ``overloaded`` error (with
        ``retry_after``) and a clean close.
    max_inflight_requests:
        Requests allowed in flight across all connections; excess
        requests are answered ``overloaded`` (with ``retry_after``)
        without touching a shard — the service's overload protection.
    read_timeout:
        Per-connection read deadline in seconds, finite and > 0
        (``None`` disables): a connection idle (or dribbling,
        slow-loris style) past the deadline mid-request gets a typed
        ``timeout`` error and is closed.
    snapshot_retention:
        Generations of the multi-shard snapshot (plus their archived WAL
        segments) kept on disk.  Recovery walks the chain newest-first
        and falls back past quarantined (corrupt) generations, so more
        retention buys more at-rest-corruption tolerance at the cost of
        disk.  ``1`` keeps only the latest (no fallback).
    degraded_probe_interval:
        While a shard is degraded (its WAL append failed with a storage
        error), every Nth refused mutating batch probes the disk by
        repairing the journal tail and reopening a fresh handle — the
        auto-recovery path once the disk heals.  Counted in batches, not
        wall-clock, so degraded behavior stays deterministic.
    """

    allocator: AllocatorConfig = field(default_factory=lambda: AllocatorConfig(seed=0))
    n_shards: int = 4
    data_dir: Optional[str] = None
    durability: str = "batch"
    dedup_window: int = 1024
    max_connections: int = 128
    max_inflight_requests: int = 1024
    read_timeout: Optional[float] = None
    snapshot_retention: int = 3
    degraded_probe_interval: int = 16

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, got {self.durability!r}"
            )
        if self.dedup_window < 0:
            raise ValueError(f"dedup_window must be >= 0, got {self.dedup_window}")
        if self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        if self.max_inflight_requests < 1:
            raise ValueError(
                f"max_inflight_requests must be >= 1, got {self.max_inflight_requests}"
            )
        if self.read_timeout is not None and not (
            math.isfinite(self.read_timeout) and self.read_timeout > 0
        ):
            raise ValueError(
                f"read_timeout must be finite and > 0 when given, got {self.read_timeout}"
            )
        if self.snapshot_retention < 1:
            raise ValueError(
                f"snapshot_retention must be >= 1, got {self.snapshot_retention}"
            )
        if self.degraded_probe_interval < 1:
            raise ValueError(
                "degraded_probe_interval must be >= 1, got "
                f"{self.degraded_probe_interval}"
            )

    @property
    def base_seed(self) -> int:
        """The seed shard seeds are derived from (``None`` pinned to 0)."""
        return 0 if self.allocator.seed is None else int(self.allocator.seed)

    def shard_allocator_config(self, index: int) -> AllocatorConfig:
        """The allocator config of shard ``index`` (derived seed)."""
        from repro.service.shards import shard_seed

        return replace(self.allocator, seed=shard_seed(self.base_seed, index))
