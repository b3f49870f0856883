"""Allocation-as-a-service: the allocator behind an async request API.

The simulator drives a :class:`~repro.core.allocator.TaskOrientedAllocator`
inline; a production scheduler instead *queries* one per task dispatch
(Ponder-style online prediction).  This package is that deployment
shape:

* :class:`ServiceConfig` — shard count, data directory (one fsync per
  WAL group commit), connection bound, the idempotency dedup window,
  and the underlying :class:`~repro.core.allocator.AllocatorConfig`.
* :class:`AllocationService` — the in-process async API:
  ``allocate`` / ``allocate_retry`` / ``record`` / ``allocate_batch``,
  plus snapshots, stats/health, and WAL-backed crash recovery.
* :class:`AllocationServer` / :func:`run_daemon` — a newline-delimited
  JSON front end over TCP or a UNIX socket (``repro-experiments
  serve``), with typed error codes and an in-flight bound that answers
  ``overloaded`` with ``retry_after``.
* :class:`ServiceClient` / :class:`AsyncServiceClient` — resilient SDKs
  with timeouts, seeded backoff + jitter reconnects, and idempotency
  keys for exactly-once mutating calls across ambiguous failures.
* :mod:`repro.service.chaos` — the seeded fault layer:
  :class:`ChaosProxy` network-fault injection and the
  :data:`CRASH_POINTS` registry of named crash sites.
* :mod:`repro.service.fsck` — offline storage audit
  (:func:`run_fsck`) and digest-manifested backup round-trips
  (:func:`export_backup` / :func:`import_backup`); the
  ``repro-experiments fsck`` / ``snapshot-export`` /
  ``snapshot-import`` subcommands.

See ``docs/SERVICE.md`` for the architecture, the wire protocol, and
the failure semantics (including the storage-failure chapter:
checksummed WAL frames, generational snapshots, degraded mode).
"""

from repro.service.chaos import (
    CHAOS_PROFILES,
    CRASH_POINTS,
    ChaosConfig,
    ChaosProxy,
    CrashPointFired,
    make_chaos_config,
)
from repro.service.client import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.config import ServiceConfig
from repro.service.fsck import (
    FsckReport,
    export_backup,
    import_backup,
    run_fsck,
)
from repro.service.protocol import ProtocolError
from repro.service.server import AllocationServer, run_daemon
from repro.service.service import AllocationService
from repro.service.shards import (
    AllocationShard,
    StorageUnavailable,
    apply_op,
    shard_of,
    shard_seed,
)

__all__ = [
    "ServiceConfig",
    "AllocationService",
    "AllocationServer",
    "AllocationShard",
    "ProtocolError",
    "apply_op",
    "run_daemon",
    "shard_of",
    "shard_seed",
    "ServiceClient",
    "AsyncServiceClient",
    "RetryPolicy",
    "ServiceError",
    "ServiceUnavailable",
    "StorageUnavailable",
    "FsckReport",
    "run_fsck",
    "export_backup",
    "import_backup",
    "ChaosConfig",
    "ChaosProxy",
    "CrashPointFired",
    "CRASH_POINTS",
    "CHAOS_PROFILES",
    "make_chaos_config",
]
