"""E-X8/E-X9: chaos matrix for the allocation service edge and its disk.

The paper's opportunistic setting loses workers and links mid-flight;
this study injects exactly those failures at the service edge and
checks the system's headline claim: **faults change latency, never
state**.  Four matrices share one deterministic operation script:

* **Network profiles** (E-X8) — the script is driven through a seeded
  :class:`~repro.service.chaos.ChaosProxy` (disconnects, torn frames,
  garbage bytes, delays, splits, slow-loris dribble) by the resilient
  :class:`~repro.service.AsyncServiceClient` with idempotency keys.
  The final per-shard allocator digests must be bit-identical to the
  fault-free reference run.
* **Crash points** (E-X8) — every registered
  :data:`~repro.service.chaos.CRASH_POINTS` site is armed in turn; the
  in-process service dies there mid-operation, restarts from
  snapshot + WAL, the client retries its keyed operation, and the
  digests must again match the reference exactly (exactly-once across
  the crash).
* **Write faults** (E-X9) — every :data:`~repro.faultfs.STORAGE_FAULT_KINDS`
  kind (ENOSPC, EIO, short write, failed fsync) is armed against the
  WAL path and against the snapshot path in turn via
  :data:`~repro.faultfs.FS_FAULTS`.  The fault puts the shard (or the
  snapshot cut) into typed ``storage_unavailable`` refusal; the driver
  retries the keyed op until the degraded-mode probe heals the shard,
  and the final digests must match the reference — a refused batch is
  never half-applied.
* **Bit flips × crash sites** (E-X9) — the service is crashed at a
  chosen site, one seeded bit is flipped in a surviving WAL or snapshot
  file, ``fsck`` must detect the corruption (non-zero exit), and the
  restarted service must recover through quarantine + generation
  fallback.  Resubmitting the full keyed script then yields digests
  bit-identical to the reference: every injected storage fault ends in
  exact recovery or a typed refusal, never silent divergence.

Run via ``repro-experiments service-chaos``; it exits 1 unless every
run matches.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.allocator import AllocatorConfig
from repro.experiments.reporting import format_table
from repro.faultfs import FS_FAULTS, STORAGE_FAULT_KINDS, FsFaultPlan, seeded_flip
from repro.service.chaos import (
    CHAOS_PROFILES,
    CRASH_POINTS,
    CrashPointFired,
    make_chaos_config,
)
from repro.service.client import AsyncServiceClient, RetryPolicy
from repro.service.config import ServiceConfig
from repro.service.fsck import run_fsck
from repro.service.server import AllocationServer
from repro.service.service import AllocationService, parse_generation
from repro.service.shards import StorageUnavailable

__all__ = ["ServiceChaosResult", "run", "render"]

#: Categories the script cycles through (they hash across shards).
_CATEGORIES = ("render", "simulate", "reduce", "index", "train")

#: (target label, path substring the fault plan matches).
_STORAGE_TARGETS = (("wal", ".wal"), ("snapshot", "service.snapshot"))

#: Crash sites the bit-flip matrix crashes at before flipping a bit.
_BITFLIP_SITES = ("shard.wal-append.after", "service.snapshot.after")


def _service_config(data_dir: Optional[str] = None) -> ServiceConfig:
    return ServiceConfig(
        allocator=AllocatorConfig(algorithm="greedy_bucketing", seed=11),
        n_shards=3,
        data_dir=data_dir,
        durability="batch",
        dedup_window=256,
        # E-X9 heals shards quickly: every second refused batch probes.
        degraded_probe_interval=2,
    )


def _script(n_ops: int) -> List[Dict[str, Any]]:
    """The deterministic keyed operation stream every run replays."""
    ops: List[Dict[str, Any]] = []
    for i in range(n_ops):
        category = _CATEGORIES[i % len(_CATEGORIES)]
        if i % 3 == 2:
            ops.append(
                {
                    "op": "record",
                    "category": category,
                    "task_id": i,
                    "peaks": {"memory": 900.0 + 40.0 * (i % 7), "cores": 1.0},
                    "key": f"chaos/{i}",
                }
            )
        else:
            ops.append(
                {
                    "op": "allocate",
                    "category": category,
                    "task_id": i,
                    "key": f"chaos/{i}",
                }
            )
    return ops


@dataclass
class ServiceChaosResult:
    n_ops: int
    seed: int
    reference_digests: List[str]
    #: profile -> (digests_match, fault histogram, client stats)
    network: Dict[str, Tuple[bool, Dict[str, int], Dict[str, int]]] = field(
        default_factory=dict
    )
    #: site -> (digests_match, crashes survived, dedup hits after restart)
    crashes: Dict[str, Tuple[bool, int, int]] = field(default_factory=dict)
    #: "kind@target" -> (digests_match, typed storage refusals observed)
    storage_faults: Dict[str, Tuple[bool, int]] = field(default_factory=dict)
    #: "target@site" -> (digests_match, fsck detected the corruption)
    bitflips: Dict[str, Tuple[bool, bool]] = field(default_factory=dict)

    @property
    def all_match(self) -> bool:
        return (
            all(m for m, _, _ in self.network.values())
            and all(m for m, _, _ in self.crashes.values())
            and all(m for m, _ in self.storage_faults.values())
            and all(m and d for m, d in self.bitflips.values())
        )


async def _reference(script: List[Dict[str, Any]]) -> List[str]:
    """Fault-free digests of the script, applied in-process."""
    service = AllocationService(_service_config())
    await service.start()
    for op in script:
        await service.submit(dict(op))
    digests = service.shard_digests()
    await service.stop()
    return digests


async def _network_run(
    profile: str, seed: int, script: List[Dict[str, Any]], workdir: str
) -> Tuple[List[str], Dict[str, int], Dict[str, int]]:
    """Drive the script through a chaos proxy; return digests + stats."""
    from repro.service.chaos import ChaosProxy

    upstream = os.path.join(workdir, f"up-{profile}.sock")
    downstream = os.path.join(workdir, f"down-{profile}.sock")
    service = AllocationService(_service_config())
    await service.start()
    server = AllocationServer(service, socket_path=upstream)
    await server.start()
    proxy = ChaosProxy(upstream, downstream, make_chaos_config(profile, seed=seed))
    await proxy.start()
    client = AsyncServiceClient(
        socket_path=downstream,
        retry=RetryPolicy(
            max_attempts=12,
            connect_timeout=2.0,
            read_timeout=2.0,
            backoff_base=0.005,
            backoff_max=0.05,
            seed=seed,
        ),
        auto_key=False,
        client_id=f"chaos-{profile}",
    )
    try:
        for op in script:
            await client.call(dict(op))
    finally:
        await client.close()
        await proxy.stop()
        await server.stop()
    digests = service.shard_digests()
    await service.stop()
    return digests, proxy.event_kinds(), client.stats()


async def _crash_run(
    site: str, script: List[Dict[str, Any]], workdir: str
) -> Tuple[List[str], int, int]:
    """Arm one crash site; restart-and-retry until the script completes."""
    data_dir = os.path.join(workdir, site.replace(".", "-"))
    config = _service_config(data_dir=data_dir)
    service = AllocationService(config)
    await service.start()
    # Snapshot sites are only traversed by the mid-script snapshot(),
    # so fire on the first hit; shard sites fire mid-stream so the
    # crash interrupts a half-ingested state.
    at_hit = 1 if site.startswith("service.snapshot") else max(1, len(script) // 2)
    CRASH_POINTS.arm(site, at_hit=at_hit, mode="raise")
    crashes = 0
    try:
        for position, op in enumerate(script):
            while True:
                try:
                    await service.submit(dict(op))
                    break
                except CrashPointFired:
                    # The daemon "died" mid-operation: restart from
                    # snapshot + WAL and retry the same keyed op — the
                    # dedup window makes the retry exactly-once.
                    crashes += 1
                    service.abort()
                    service = AllocationService(config)
                    await service.start()
            if position == len(script) // 3:
                # Exercise the snapshot path mid-stream so the
                # service.snapshot.* sites actually get hit.
                try:
                    await service.snapshot()
                except CrashPointFired:
                    crashes += 1
                    service.abort()
                    service = AllocationService(config)
                    await service.start()
    finally:
        CRASH_POINTS.disarm()
    digests = service.shard_digests()
    dedup_hits = sum(shard.dedup_hits for shard in service.shards)
    await service.stop()
    return digests, crashes, dedup_hits


async def _submit_with_retry(
    service: AllocationService, op: Dict[str, Any], max_refusals: int = 64
) -> int:
    """Submit one keyed op, retrying through degraded-mode refusals.

    Returns how many typed ``storage_unavailable`` refusals the op ate
    before the recovery probe healed the shard.  A refused batch is
    guaranteed un-applied, so retrying the same keyed op verbatim is
    exactly-once.
    """
    refusals = 0
    while True:
        try:
            await service.submit(dict(op))
            return refusals
        except StorageUnavailable:
            refusals += 1
            if refusals >= max_refusals:
                raise


async def _storage_fault_run(
    kind: str, target_sub: str, script: List[Dict[str, Any]], workdir: str
) -> Tuple[List[str], int]:
    """Arm one write-fault kind against one path family; return digests.

    The fault is armed *after* start (the recovery snapshot must not
    eat it) and fires mid-stream: WAL faults drop the owning shard into
    degraded mode until its probe heals it; snapshot faults turn the
    mid-script snapshot cut into a typed refusal that succeeds on
    retry.
    """
    safe = f"{kind}-{target_sub}".replace(".", "-").replace("/", "-")
    data_dir = os.path.join(workdir, f"storage-{safe}")
    service = AllocationService(_service_config(data_dir=data_dir))
    await service.start()
    refusals = 0
    # Snapshot paths only see a couple of writes per cut, so fire on
    # the first; WAL paths see one write per op, so fire mid-stream.
    at_hit = 1 if "snapshot" in target_sub else max(1, len(script) // 4)
    FS_FAULTS.arm(FsFaultPlan(kind=kind, at_hit=at_hit, path_substring=target_sub))
    try:
        for position, op in enumerate(script):
            refusals += await _submit_with_retry(service, op)
            if position == len(script) // 3:
                # Cut a snapshot mid-stream so snapshot-path faults have
                # a write to hit; retry the cut through typed refusals.
                while True:
                    try:
                        await service.snapshot()
                        break
                    except StorageUnavailable:
                        refusals += 1
    finally:
        FS_FAULTS.reset()
    digests = service.shard_digests()
    await service.stop()
    return digests, refusals


def _flip_victim(data_dir: str, target: str) -> str:
    """Pick the file the bit flip corrupts: fattest WAL or newest snapshot."""
    names = sorted(os.listdir(data_dir))
    if target == "wal":
        wals = [n for n in names if n.endswith(".wal")]
        victims = [
            n
            for n in wals
            if os.path.getsize(os.path.join(data_dir, n)) > 0
        ]
        if not victims:
            raise RuntimeError(f"no non-empty WAL to corrupt in {data_dir}")
        victim = max(victims, key=lambda n: os.path.getsize(os.path.join(data_dir, n)))
    else:
        gens = [n for n in names if parse_generation(n) is not None]
        if not gens:
            raise RuntimeError(f"no snapshot generation to corrupt in {data_dir}")
        victim = max(gens, key=lambda n: parse_generation(n) or 0)
    return os.path.join(data_dir, victim)


async def _bitflip_run(
    target: str, site: str, script: List[Dict[str, Any]], workdir: str, seed: int
) -> Tuple[List[str], bool]:
    """Crash at ``site``, flip one seeded bit in a ``target`` file, recover.

    Returns the final digests plus whether ``fsck`` caught the flip —
    the acceptance bar is *both*: detection before restart, exact state
    after restart + full keyed resubmission.
    """
    safe = f"{target}-{site}".replace(".", "-")
    data_dir = os.path.join(workdir, f"bitflip-{safe}")
    config = _service_config(data_dir=data_dir)
    service = AllocationService(config)
    await service.start()
    # Arm after start: the recovery snapshot also traverses the
    # snapshot crash sites and must complete.
    at_hit = 1 if site.startswith("service.snapshot") else max(1, len(script) // 2)
    CRASH_POINTS.arm(site, at_hit=at_hit, mode="raise")
    crashed = False
    try:
        for position, op in enumerate(script):
            try:
                await service.submit(dict(op))
            except CrashPointFired:
                crashed = True
                break
            if position == len(script) // 3:
                try:
                    await service.snapshot()
                except CrashPointFired:
                    crashed = True
                    break
    finally:
        CRASH_POINTS.disarm()
    if not crashed:
        raise RuntimeError(f"crash site {site} never fired")
    service.abort()
    # The node is dead; the disk rots one bit in a surviving file.
    seeded_flip(_flip_victim(data_dir, target), seed=seed)
    fsck_detected = not run_fsck(data_dir).ok
    # Restart: recovery must quarantine / fall back, never crash.
    service = AllocationService(config)
    await service.start()
    for op in script:
        await _submit_with_retry(service, op)
    digests = service.shard_digests()
    await service.stop()
    return digests, fsck_detected


def run(n_ops: int = 48, seed: int = 0) -> ServiceChaosResult:
    return asyncio.run(_run_async(n_ops=n_ops, seed=seed))


async def _run_async(n_ops: int, seed: int) -> ServiceChaosResult:
    script = _script(n_ops)
    reference = await _reference(script)
    result = ServiceChaosResult(n_ops=n_ops, seed=seed, reference_digests=reference)
    with tempfile.TemporaryDirectory(prefix="repro-service-chaos-") as workdir:
        for profile in CHAOS_PROFILES:
            digests, kinds, stats = await _network_run(profile, seed, script, workdir)
            result.network[profile] = (digests == reference, kinds, stats)
        for site in CRASH_POINTS.sites():
            digests, crashes, dedup_hits = await _crash_run(site, script, workdir)
            result.crashes[site] = (digests == reference, crashes, dedup_hits)
        for kind in STORAGE_FAULT_KINDS:
            for target, target_sub in _STORAGE_TARGETS:
                digests, refusals = await _storage_fault_run(
                    kind, target_sub, script, workdir
                )
                result.storage_faults[f"{kind}@{target}"] = (
                    digests == reference,
                    refusals,
                )
        for target, _ in _STORAGE_TARGETS:
            for site in _BITFLIP_SITES:
                digests, fsck_detected = await _bitflip_run(
                    target, site, script, workdir, seed
                )
                result.bitflips[f"{target}@{site}"] = (
                    digests == reference,
                    fsck_detected,
                )
    return result


def render(result: ServiceChaosResult) -> str:
    parts: List[str] = [
        f"E-X8/E-X9 service chaos — {result.n_ops} keyed ops, fault seed "
        f"{result.seed}; digests vs fault-free reference",
        "",
        "E-X8 network fault profiles (through the chaos proxy):",
    ]
    rows = []
    for profile, (match, kinds, stats) in result.network.items():
        faults = sum(kinds.values())
        rows.append(
            (
                profile,
                "match" if match else "MISMATCH",
                faults,
                stats["retries"],
                stats["reconnects"],
            )
        )
    parts.append(
        format_table(
            headers=["profile", "state digest", "faults", "retries", "reconnects"],
            rows=rows,
        )
    )
    parts.append("")
    parts.append("crash points (die mid-operation, restart, retry):")
    crash_rows = []
    for site, (match, crashes, dedup_hits) in result.crashes.items():
        crash_rows.append(
            (site, "match" if match else "MISMATCH", crashes, dedup_hits)
        )
    parts.append(
        format_table(
            headers=["crash site", "state digest", "crashes", "dedup hits"],
            rows=crash_rows,
        )
    )
    parts.append("")
    parts.append("E-X9 storage write faults (degraded mode + probe recovery):")
    storage_rows = []
    for label, (match, refusals) in result.storage_faults.items():
        kind, _, target = label.partition("@")
        storage_rows.append(
            (kind, target, "match" if match else "MISMATCH", refusals)
        )
    parts.append(
        format_table(
            headers=["fault kind", "target", "state digest", "typed refusals"],
            rows=storage_rows,
        )
    )
    parts.append("")
    parts.append("E-X9 post-crash bit flips (quarantine + generation fallback):")
    flip_rows = []
    for label, (match, detected) in result.bitflips.items():
        target, _, site = label.partition("@")
        flip_rows.append(
            (
                target,
                site,
                "detected" if detected else "MISSED",
                "match" if match else "MISMATCH",
            )
        )
    parts.append(
        format_table(
            headers=["flip target", "crash site", "fsck", "state digest"],
            rows=flip_rows,
        )
    )
    parts.append("")
    parts.append(
        "verdict: "
        + (
            "all runs bit-identical to the fault-free reference"
            if result.all_match
            else "STATE DIVERGED under faults — investigate"
        )
    )
    return "\n".join(parts)
