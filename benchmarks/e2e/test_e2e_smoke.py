"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs the one command at ``--quick`` sizes, untraced and traced, and
checks the contract around it: metric names where the tables say,
seed-deterministic generators, tracing wrappers fully removed.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import generators  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SERVICE_WORKLOADS = ("svc-wire-durable", "svc-batch-ingest", "core-hot-greedy")
WIRE_WORKLOADS = ("svc-wire-durable", "svc-batch-ingest")


def _run_quick(*extra: str) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *extra],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    final = json.loads(done.stdout.strip().splitlines()[-1])
    final["elapsed_s"] = time.perf_counter() - started
    return final


@pytest.fixture(scope="module")
def quick_e2e() -> dict:
    return _run_quick()


@pytest.fixture(scope="module")
def quick_traced() -> dict:
    return _run_quick("--traced")


def test_benchmark_json_mirrors_the_runner() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["run_seconds"] == run.REFERENCE_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_generators_are_seed_deterministic() -> None:
    scale = run.QUICK_SECONDS / run.REFERENCE_SECONDS
    for make in (
        generators.wire_durable_inputs,
        generators.batch_ingest_inputs,
        generators.hot_greedy_inputs,
    ):
        first = generators.ops_hash(make(7, scale))
        assert first == generators.ops_hash(make(7, scale))
        assert first != generators.ops_hash(make(8, scale))


def test_quick_runs_fit_the_smoke_budget(quick_e2e: dict, quick_traced: dict) -> None:
    assert quick_e2e["elapsed_s"] < 30.0
    assert quick_traced["elapsed_s"] < 30.0


def test_end_to_end_metrics_on_every_workload(quick_e2e: dict) -> None:
    assert quick_e2e["correct"] is True and quick_e2e["failed"] == 0
    assert set(quick_e2e["metrics"]) == set(run.WORKLOADS)
    for workload, metrics in quick_e2e["metrics"].items():
        assert list(metrics) == [name for name, *_ in run.END_TO_END], workload
        for name, unit, _, _ in run.END_TO_END:
            assert metrics[name]["unit"] == unit
            assert metrics[name]["value"] > 0, (workload, name)


def test_per_layer_metrics_where_their_layer_runs(quick_traced: dict) -> None:
    assert quick_traced["correct"] is True and quick_traced["failed"] == 0
    names = [name for name, *_ in run.PER_LAYER]
    values = {
        workload: {name: entry["value"] for name, entry in metrics.items()}
        for workload, metrics in quick_traced["metrics"].items()
    }
    for workload in run.WORKLOADS:
        assert list(values[workload]) == names, workload

    def layer(workload: str, prefix: str) -> dict:
        return {n: v for n, v in values[workload].items() if n.startswith(prefix)}

    # A layer that does not run reads 0: no edge or WAL in-process, no sim
    # outside sim-topeft, nothing but allocator-side layers inside it.
    for prefix in ("client.", "server.", "checkpoint."):
        assert not any(layer("core-hot-greedy", prefix).values()), prefix
    for workload in SERVICE_WORKLOADS:
        assert not any(layer(workload, "sim.").values()), workload
    for prefix in ("client.", "protocol.", "server.", "service.", "shards.", "checkpoint."):
        assert not any(layer("sim-topeft", prefix).values()), prefix

    for workload in WIRE_WORKLOADS:
        for name in (
            "client.calls_per_kop",
            "client.edge_interval_us_per_op",
            "protocol.parse_us_per_op",
            "protocol.encode_us_per_op",
            "protocol.request_bytes_per_op",
            "protocol.response_bytes_per_op",
            "server.interval_self_us_per_op",
            "checkpoint.append_us_per_op",
            "checkpoint.encode_frame_us_per_op",
            "checkpoint.write_us_per_op",
            "checkpoint.fsync_us_per_op",
            "checkpoint.fsyncs_per_kop",
            "checkpoint.wal_bytes_per_op",
            "shards.batch_ops_mean",
        ):
            assert values[workload][name] > 0, (workload, name)
    assert values["svc-wire-durable"]["protocol.validate_calls_per_op"] == 2.0
    for name in (
        "service.recovery_s",
        "service.snapshot_s",
        "service.snapshot_bytes",
        "shards.replay_s",
        "checkpoint.recover_read_s",
    ):
        assert values["svc-wire-durable"][name] > 0, name
    for workload in SERVICE_WORKLOADS:
        for name in (
            "service.submit_interval_self_us_per_op",
            "service.start_s",
            "shards.queue_wait_us_per_op",
            "shards.commit_interval_self_us_per_op",
            "shards.apply_op_self_us_per_op",
            "protocol.validate_us_per_op",
        ):
            assert values[workload][name] > 0, (workload, name)
    for workload in run.WORKLOADS:
        for name in (
            "allocator.allocate_us",
            "allocator.allocate_p95_us",
            "allocator.observe_us",
            "allocator.calls_per_kop",
            "allocator.share_pct",
            "records.add_us",
            "records.adds_per_kop",
            "partition.compute_us",
            "partition.computes_per_kop",
            "partition.computes_per_allocate",
            "loop.unattributed_us_per_op",
        ):
            assert values[workload][name] > 0, (workload, name)
        assert "trace.overhead_pct" in values[workload]
    for name, value in layer("sim-topeft", "sim.").items():
        assert value > 0, name


def test_traced_pass_leaves_hot_greedy_digests_unchanged(quick_traced: dict) -> None:
    with open(os.path.join(HERE, "out", "raw-layers-core-hot-greedy.json"), encoding="utf-8") as f:
        raw = json.load(f)["raw"]
    assert raw["untraced"]["digests"] == raw["traced"]["digests"]
    assert len(raw["traced"]["digests"]) == 4


def test_tracing_wrappers_are_fully_removed() -> None:
    def lookup(target: str):
        owner, attr = tracing.resolve(target)
        return vars(owner)[attr]

    checkpoint = importlib.import_module("repro.checkpoint")
    before = [lookup(target) for target, _, _ in tracing._TARGETS]
    installed = tracing.install(tracing.Tracer())
    try:
        during = [lookup(target) for target, _, _ in tracing._TARGETS]
        assert all(new is not old for new, old in zip(during, before))
    finally:
        tracing.uninstall(installed)
    after = [lookup(target) for target, _, _ in tracing._TARGETS]
    assert all(new is old for new, old in zip(after, before))
    assert checkpoint.set_fs_fault_injector(None) is None
