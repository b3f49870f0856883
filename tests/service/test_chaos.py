"""The chaos layer itself: crash points, fault schedules, and the proxy.

Determinism is the contract under test: the same fault seed must yield
the same schedule, the same proxy event log, and the same crash-point
firing — and with everything disabled the layer must be invisible
(pure pass-through, zero events, bit-identical responses).
"""

import asyncio
import json
import os

import pytest

from repro.core.allocator import AllocatorConfig
from repro.service import AllocationServer, AllocationService, ServiceConfig
from repro.service.chaos import (
    CHAOS_PROFILES,
    CRASH_POINTS,
    ChaosConfig,
    ChaosProxy,
    CrashPointFired,
    CrashPoints,
    make_chaos_config,
    schedule_preview,
    seeded_crash_plan,
)


@pytest.fixture(autouse=True)
def _clean_crash_points():
    CRASH_POINTS.reset()
    yield
    CRASH_POINTS.reset()


def _config(**overrides):
    defaults = dict(
        allocator=AllocatorConfig(
            algorithm="greedy_bucketing",
            seed=11,
            min_records=3,
        ),
        n_shards=3,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ---------------------------------------------------------------------------
# Crash points
# ---------------------------------------------------------------------------


def test_crash_sites_are_registered_at_import():
    sites = CRASH_POINTS.sites()
    assert "shard.wal-append.before" in sites
    assert "shard.wal-append.after" in sites
    assert "shard.apply.before" in sites
    assert "shard.apply.after" in sites
    assert "service.snapshot.before" in sites
    assert "service.snapshot.after" in sites


def test_crash_point_fires_on_nth_hit_and_auto_disarms():
    points = CrashPoints()
    site = points.register("test.site")
    points.arm(site, at_hit=3)
    points.hit(site)
    points.hit(site)
    with pytest.raises(CrashPointFired) as excinfo:
        points.hit(site)
    assert excinfo.value.site == site
    assert excinfo.value.hit == 3
    assert points.armed is None  # auto-disarm: recovery must not re-crash
    points.hit(site)  # no longer raises
    assert points.fired == [(site, 3)]


def test_crash_point_ignores_other_sites():
    points = CrashPoints()
    a = points.register("a")
    b = points.register("b")
    points.arm(a, at_hit=1)
    points.hit(b)  # not armed for b
    with pytest.raises(CrashPointFired):
        points.hit(a)


def test_crash_point_arm_validation():
    points = CrashPoints()
    site = points.register("a")
    with pytest.raises(ValueError):
        points.arm("unknown")
    with pytest.raises(ValueError):
        points.arm(site, at_hit=0)
    with pytest.raises(ValueError):
        points.arm(site, mode="segfault")


def test_seeded_crash_plan_is_deterministic():
    sites = ("a", "b", "c")
    assert seeded_crash_plan(7, sites) == seeded_crash_plan(7, sites)
    plans = {seeded_crash_plan(seed, sites) for seed in range(32)}
    assert len(plans) > 1  # the seed actually varies the plan
    site, at_hit = seeded_crash_plan(0, sites)
    assert site in sites and at_hit >= 1


# ---------------------------------------------------------------------------
# Fault schedules
# ---------------------------------------------------------------------------


def test_default_config_is_disabled():
    config = ChaosConfig()
    assert not config.enabled
    assert schedule_preview(config, 0, "c2s", 10) == []


def test_profiles_cover_every_kind():
    assert make_chaos_config("none").enabled is False
    for profile in CHAOS_PROFILES:
        make_chaos_config(profile)  # no profile raises
    with pytest.raises(ValueError):
        make_chaos_config("hurricane")


def test_schedule_is_deterministic_per_seed_connection_direction():
    config = make_chaos_config("mixed", seed=5)
    first = schedule_preview(config, 0, "c2s", 50)
    assert first == schedule_preview(config, 0, "c2s", 50)
    assert first != schedule_preview(config, 1, "c2s", 50)
    assert first != schedule_preview(config, 0, "s2c", 50)
    assert first != schedule_preview(make_chaos_config("mixed", seed=6), 0, "c2s", 50)
    offsets = [offset for offset, _ in first]
    assert offsets == sorted(offsets)
    assert all(offset > 0 for offset in offsets)


def test_garbage_payloads_are_undecodable_json():
    # Garbage must be *detectable* corruption: strict JSON rejects the
    # injected control bytes, so a mangled line can never silently
    # parse as a different valid request.
    from repro.service.chaos import ChaosSchedule

    schedule = ChaosSchedule(make_chaos_config("garbage", seed=3), 0, "c2s")
    for _ in range(64):
        event = schedule.pop()
        assert event.kind == "garbage"
        assert event.payload
        assert all(byte < 8 for byte in event.payload)
        with pytest.raises(json.JSONDecodeError):
            json.loads(b'{"a": 1' + event.payload + b"}")


# ---------------------------------------------------------------------------
# The proxy (live sockets)
# ---------------------------------------------------------------------------


async def _proxy_session(tmpdir: str, profile: str, seed: int, n_ops: int):
    """Drive a scripted raw-socket session through a proxy; return
    (proxy event log, responses received before any tear-down)."""
    upstream = os.path.join(tmpdir, f"up-{profile}-{seed}.sock")
    downstream = os.path.join(tmpdir, f"down-{profile}-{seed}.sock")
    service = AllocationService(_config())
    await service.start()
    server = AllocationServer(service, socket_path=upstream)
    await server.start()
    proxy = ChaosProxy(upstream, downstream, make_chaos_config(profile, seed=seed))
    await proxy.start()
    responses = []
    try:
        for i in range(n_ops):
            try:
                reader, writer = await asyncio.open_unix_connection(downstream)
                writer.write(
                    (
                        json.dumps(
                            {
                                "id": i,
                                "op": "allocate",
                                "category": "proc",
                                "task_id": i,
                            }
                        )
                        + "\n"
                    ).encode()
                )
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line:
                    responses.append(json.loads(line))
                writer.close()
            except (OSError, asyncio.TimeoutError, json.JSONDecodeError):
                continue
    finally:
        await proxy.stop()
        await server.stop()
        await service.stop()
    return list(proxy.events), responses


@pytest.mark.service
def test_proxy_pass_through_is_invisible(tmp_path):
    """Default-off: zero events, responses identical to a direct session."""

    async def scenario():
        events, via_proxy = await _proxy_session(str(tmp_path), "none", 0, 6)
        service = AllocationService(_config())
        await service.start()
        direct = []
        for i in range(6):
            result = await service.submit(
                {"op": "allocate", "category": "proc", "task_id": i}
            )
            direct.append({"ok": True, "result": result, "id": i})
        await service.stop()
        return events, via_proxy, direct

    events, via_proxy, direct = asyncio.run(scenario())
    assert events == []
    assert via_proxy == direct


@pytest.mark.service
def test_proxy_event_log_replays_identically(tmp_path):
    """Same seed + same traffic => byte-identical fault schedule."""

    async def scenario():
        first_events, _ = await _proxy_session(str(tmp_path) + "/a", "mixed", 4, 12)
        second_events, _ = await _proxy_session(str(tmp_path) + "/b", "mixed", 4, 12)
        return first_events, second_events

    os.makedirs(str(tmp_path) + "/a")
    os.makedirs(str(tmp_path) + "/b")
    first, second = asyncio.run(scenario())
    assert first == second
    assert first  # the mixed profile actually fired faults


@pytest.mark.service
def test_proxy_drop_profile_tears_connections(tmp_path):
    async def scenario():
        return await _proxy_session(str(tmp_path), "drop", 2, 10)

    events, responses = asyncio.run(scenario())
    kinds = {kind for _, _, _, kind in events}
    assert kinds == {"disconnect"}
    # Some requests died mid-flight, yet the surviving responses are
    # well-formed allocations.
    assert len(responses) < 10
    for response in responses:
        assert response["ok"] is True
        assert "allocation" in response["result"]
