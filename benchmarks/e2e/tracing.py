"""Span tracing of each layer's public functions, from outside ``src/``.

:func:`install` replaces public attributes *at the lookup site* (the
module global or class attribute the caller actually reads) with
wrappers that record one span per call — name, start, end, parent span,
request id — into an in-memory list; :func:`uninstall` puts every
original object back (identity-checked by the smoke test).  No file
under ``src/`` is edited and nothing is recorded in an untraced run.

Two kinds of span, kept apart in every derived metric:

*busy* spans come from synchronous functions.  The benchmark runs one
thread on one event loop, so busy spans never overlap except by proper
nesting, and their self times plus the wall time outside any busy span
(``loop.unattributed_us_per_op``) add up to the traced wall exactly.

*interval* spans come from ``async`` functions.  While one is open the
loop also serves the other connection, so an interval decomposes a
request's latency, not the CPU.

A span's self time is its duration minus the part its direct children
cover (the union, since an ``asyncio.gather`` runs children concurrently).
"""

from __future__ import annotations

import contextvars
import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_now = time.perf_counter_ns

# Span record layout (a list, mutated in place when the call returns).
NAME, START, END, PARENT, RID = range(5)

#: (``module:attribute`` or ``module:Class.attribute``, span name, kind) —
#: every entry is a public name of its layer, patched where it is looked up.
_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.client:encode", "client.encode", "sync"),
    ("repro.service.client:AsyncServiceClient.call", "client.call", "async"),
    ("repro.service.client:AsyncServiceClient.allocate_batch", "client.allocate_batch", "async"),
    ("repro.service.server:parse_line", "protocol.parse", "sync"),
    ("repro.service.server:validate_request", "protocol.validate", "sync"),
    ("repro.service.server:ok_response", "protocol.ok_response", "sync"),
    ("repro.service.server:encode", "protocol.encode", "sync"),
    ("repro.service.service:validate_request", "protocol.validate", "sync"),
    ("repro.service.service:recover_jsonl", "checkpoint.recover_read", "sync"),
    ("repro.service.service:AllocationService.submit", "service.submit", "async"),
    ("repro.service.service:AllocationService.submit_batch", "service.submit_batch", "async"),
    ("repro.service.service:AllocationService.start", "service.start", "async"),
    ("repro.service.service:AllocationService.snapshot", "service.snapshot", "async"),
    ("repro.service.shards:AllocationShard.submit", "shards.submit", "async"),
    ("repro.service.shards:AllocationShard.submit_many", "shards.submit_many", "async"),
    ("repro.service.shards:AllocationShard.replay", "shards.replay", "sync"),
    ("repro.service.shards:apply_op", "shards.apply_op", "sync"),
    ("repro.checkpoint:JournalWriter.append_many", "checkpoint.append_many", "sync"),
    ("repro.checkpoint:encode_frame", "checkpoint.encode_frame", "sync"),
    ("repro.core.allocator:TaskOrientedAllocator.allocate", "allocator.allocate", "sync"),
    (
        "repro.core.allocator:TaskOrientedAllocator.allocate_retry",
        "allocator.allocate_retry",
        "sync",
    ),
    ("repro.core.allocator:TaskOrientedAllocator.observe", "allocator.observe", "sync"),
    ("repro.core.records:RecordList.add", "records.add", "sync"),
    ("repro.core.greedy:GreedyBucketing.compute_break_indices", "partition.compute", "sync"),
    (
        "repro.core.exhaustive:ExhaustiveBucketing.compute_break_indices",
        "partition.compute",
        "sync",
    ),
    ("repro.sim.scheduler:Scheduler.try_dispatch", "sim.try_dispatch", "sync"),
    ("repro.sim.pool:WorkerPool.find_fit", "sim.find_fit", "sync"),
    ("repro.sim.invariants:InvariantChecker.check_event", "sim.check_event", "sync"),
)


def resolve(target: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of a ``module:[Class.]attribute`` target."""
    module_path, _, qualified = target.partition(":")
    owner: Any = importlib.import_module(module_path)
    class_name, _, attr = qualified.rpartition(".")
    if class_name:
        owner = getattr(owner, class_name)
    return owner, attr


#: Spans of the server session, whose enclosing ``_respond`` is private:
#: the server interval of a request runs from its parse to its encode.
_SERVER_CHILDREN = (
    "protocol.parse",
    "protocol.validate",
    "protocol.ok_response",
    "protocol.encode",
    "service.submit",
    "service.submit_batch",
)


class Tracer:
    """In-memory span store plus the few counters spans cannot carry."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.kinds: List[str] = []
        self.spans: List[List[Any]] = []
        #: Open busy spans, innermost last (one thread => one stack).
        self.stack: List[int] = []
        #: Innermost open interval span / request id of the current task.
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=-1)
        self.rid: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
            "rid", default=None
        )
        #: phase boundary -> (first span index at or after it, time in ns)
        self.marks: Dict[str, Tuple[int, int]] = {}
        # Shard queue bookkeeping, matched by op identity: an op document
        # is one object from ``submit_many`` through the WAL entry to
        # ``apply_op``.  id() is safe while the submitter holds the op.
        self._submitted: Dict[int, Tuple[int, Optional[str]]] = {}
        self._commit_of: Dict[int, List[int]] = {}
        self.counters: Dict[str, float] = {}
        #: Copy of ``counters`` taken at the end of the timed phase.
        self.timed_counters: Dict[str, float] = {}
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.counters = dict.fromkeys(
            (
                "queue_wait_ns",
                "queued_ops",
                "commit_self_ns",
                "commits",
                "committed_ops",
                "request_bytes",
                "response_bytes",
            ),
            0,
        )

    def name_id(self, name: str, kind: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.kinds.append(kind)
        return self.names.index(name)

    def mark(self, which: str) -> None:
        """Note a phase boundary; ``start`` zeroes the timed-phase counters."""
        self.marks[which] = (len(self.spans), _now())
        if which == "start":
            self._reset_counters()
        elif which == "end":
            self.timed_counters = dict(self.counters)

    def begin_request(self, rid: str) -> None:
        """In-process callers have no wire id: the driver names the request."""
        self.rid.set(rid)

    # -- wrappers ----------------------------------------------------------------

    def wrap_sync(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[[List[Any], tuple], None]] = None,
        after: Optional[Callable[[List[Any], tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        name_id = self.name_id(name, "sync")
        spans, stack, current, rid = self.spans, self.stack, self.current, self.rid

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name_id, 0, 0, stack[-1] if stack else current.get(), rid.get()]
            stack.append(len(spans))
            spans.append(record)
            if before is not None:
                before(record, args)
            record[START] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = _now()
                stack.pop()
            if after is not None:
                after(record, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_async(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[[List[Any], tuple], None]] = None,
        after: Optional[Callable[[List[Any], tuple], None]] = None,
    ) -> Callable[..., Any]:
        name_id = self.name_id(name, "async")
        spans, current, rid = self.spans, self.current, self.rid

        async def traced(*args: Any, **kwargs: Any) -> Any:
            parent = current.get()
            record = [name_id, 0, 0, parent, rid.get()]
            index = len(spans)
            spans.append(record)
            token = current.set(index)
            if before is not None:
                before(record, args)
            record[START] = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                record[END] = _now()
                current.reset(token)
                if after is not None:
                    after(record, args)
                if parent >= 0 and spans[parent][RID] is None:
                    spans[parent][RID] = record[RID]

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- hooks that carry request ids and queue timing ----------------------------

    def _client_encoded(self, record: List[Any], args: tuple, result: bytes) -> None:
        rid = args[0].get("id")
        record[RID] = rid
        self.rid.set(rid)
        enclosing = self.current.get()
        if enclosing >= 0:
            self.spans[enclosing][RID] = rid

    def _parsed(self, record: List[Any], args: tuple, result: Dict[str, Any]) -> None:
        rid = result.get("id")
        record[RID] = rid
        self.rid.set(rid)
        self.counters["request_bytes"] += len(args[0])

    def _response_encoded(self, record: List[Any], args: tuple, result: bytes) -> None:
        record[RID] = args[0].get("id")
        self.counters["response_bytes"] += len(result)

    def _shard_submitted(self, record: List[Any], args: tuple) -> None:
        entry = (_now(), record[RID])
        for op in args[1]:
            self._submitted[id(op)] = entry

    def _commit_started(self, op: Dict[str, Any], commit: List[int]) -> None:
        """``op`` left the queue: its commit (``[start, busy ns]``) began."""
        submitted = self._submitted.get(id(op))
        if submitted is not None:
            self.counters["queue_wait_ns"] += commit[0] - submitted[0]
            self.counters["queued_ops"] += 1
            self._commit_of[id(op)] = commit

    def _appending(self, record: List[Any], args: tuple) -> None:
        commit = [_now(), 0]
        record.append(commit)
        for entry in args[1]:
            self._commit_started(entry["op"], commit)
        self.counters["commits"] += 1
        self.counters["committed_ops"] += len(args[1])

    def _appended(self, record: List[Any], args: tuple, result: None) -> None:
        record.pop()[1] += record[END] - record[START]

    def _applying(self, record: List[Any], args: tuple) -> None:
        op = args[1]
        commit = self._commit_of.get(id(op))
        if commit is None and id(op) in self._submitted:
            # No WAL: the op's commit starts with its own apply.
            commit = [_now(), 0]
            self._commit_started(op, commit)
        submitted = self._submitted.get(id(op))
        if submitted is not None:
            record[RID] = submitted[1]
        record.append(commit)

    def _applied(self, record: List[Any], args: tuple, result: Any) -> None:
        commit = record.pop()
        if commit is not None:
            commit[1] += record[END] - record[START]

    def _shard_replied(self, record: List[Any], args: tuple) -> None:
        ops = args[1]
        commit = self._commit_of.get(id(ops[0])) if ops else None
        if commit is not None:
            self.counters["commit_self_ns"] += record[END] - commit[0] - commit[1]
        for op in ops:
            self._submitted.pop(id(op), None)
            self._commit_of.pop(id(op), None)

    # -- output -------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans column-wise (times in ns since the first span)."""
        origin = self.spans[0][START] if self.spans else 0
        rids: Dict[Optional[str], int] = {None: -1}
        rid_column = [rids.setdefault(span[RID], len(rids) - 1) for span in self.spans]
        doc = {
            "names": self.names,
            "kinds": self.kinds,
            "marks": {which: [index, at - origin] for which, (index, at) in self.marks.items()},
            "request_ids": [rid for rid in rids if rid is not None],
            "name": [span[NAME] for span in self.spans],
            "start_ns": [span[START] - origin for span in self.spans],
            "end_ns": [span[END] - origin for span in self.spans],
            "parent": [span[PARENT] for span in self.spans],
            "request": rid_column,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


class _FsTimer:
    """Timing stand-in for the filesystem fault injector (injects nothing)."""

    def __init__(self, tracer: Tracer) -> None:
        self.write = tracer.wrap_sync("checkpoint.write", self._write)
        self.fsync = tracer.wrap_sync("checkpoint.fsync", self._fsync)

    @staticmethod
    def _write(handle: Any, text: str, path: str) -> None:
        handle.write(text)

    @staticmethod
    def _fsync(handle: Any, path: str) -> None:
        os.fsync(handle.fileno())


Installed = List[Tuple[Any, str, Any]]


def install(tracer: Tracer) -> Installed:
    """Patch every target; returns what :func:`uninstall` needs."""
    hooks: Dict[str, Dict[str, Any]] = {
        "client.encode": {"after": tracer._client_encoded},
        "protocol.parse": {"after": tracer._parsed},
        "protocol.encode": {"after": tracer._response_encoded},
        "shards.submit_many": {"before": tracer._shard_submitted, "after": tracer._shard_replied},
        "checkpoint.append_many": {"before": tracer._appending, "after": tracer._appended},
        "shards.apply_op": {"before": tracer._applying, "after": tracer._applied},
    }
    installed: Installed = []
    for target, span_name, kind in _TARGETS:
        owner, attr = resolve(target)
        original = vars(owner)[attr]
        wrap = tracer.wrap_sync if kind == "sync" else tracer.wrap_async
        setattr(owner, attr, wrap(span_name, original, **hooks.get(span_name, {})))
        installed.append((owner, attr, original))
    checkpoint = importlib.import_module("repro.checkpoint")
    previous = checkpoint.set_fs_fault_injector(_FsTimer(tracer))
    installed.append((checkpoint, "set_fs_fault_injector", previous))
    return installed


def uninstall(installed: Installed) -> None:
    """Restore every patched attribute (and the previous fs injector)."""
    for owner, attr, original in reversed(installed):
        if attr == "set_fs_fault_injector":
            owner.set_fs_fault_injector(original)
        else:
            setattr(owner, attr, original)


# -- derived metrics --------------------------------------------------------------------


class _Table:
    """Column view of the spans with self times and coverage computed."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        self.names = tracer.names
        self.name = np.fromiter((s[NAME] for s in spans), dtype=np.int64, count=len(spans))
        self.start = np.fromiter((s[START] for s in spans), dtype=np.int64, count=len(spans))
        self.end = np.fromiter((s[END] for s in spans), dtype=np.int64, count=len(spans))
        self.parent = np.fromiter((s[PARENT] for s in spans), dtype=np.int64, count=len(spans))
        self.rid = [s[RID] for s in spans]
        self.duration = self.end - self.start
        sync_name = np.array([kind == "sync" for kind in tracer.kinds], dtype=bool)
        self.sync = sync_name[self.name] if len(spans) else np.zeros(0, dtype=bool)
        # Spans are appended at entry, so index order is start order and
        # one sweep computes, per parent, the union its children cover.
        covered = [0] * len(spans)
        cursor = [0] * len(spans)
        start, end = self.start.tolist(), self.end.tolist()
        for index, parent in enumerate(self.parent.tolist()):
            if parent >= 0:
                begin = max(start[index], cursor[parent])
                if end[index] > begin:
                    covered[parent] += end[index] - begin
                    cursor[parent] = end[index]
        self.self_time = self.duration - np.asarray(covered, dtype=np.int64)
        parent_sync = np.zeros(len(spans), dtype=bool)
        has_parent = self.parent >= 0
        parent_sync[has_parent] = self.sync[self.parent[has_parent]]
        #: Busy spans not nested in another busy span.
        self.top_busy = self.sync & ~parent_sync

    def select(self, name: str, lo: int, hi: int) -> np.ndarray:
        """Indices of the spans called ``name`` in ``[lo, hi)``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        index = np.flatnonzero(self.name[lo:hi] == self.names.index(name)) + lo
        return index


def layer_metrics(tracer: Tracer, result: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition (see README.md).

    Raises ``AssertionError`` when two busy spans overlap without
    nesting, or when busy self times plus the unattributed remainder do
    not add up to the traced wall — either would make the breakdown a
    fiction.
    """
    table = _Table(tracer)
    lo, t_start = tracer.marks["start"]
    hi, t_end = tracer.marks["end"]
    n_spans = len(tracer.spans)
    ops = float(result["timed_ops"])
    wall_ns = float(t_end - t_start)
    counters = tracer.timed_counters

    def timed(name: str) -> np.ndarray:
        return table.select(name, lo, hi)

    def total(indices: np.ndarray, column: np.ndarray) -> float:
        return float(column[indices].sum())

    def per_op_us(ns: float) -> float:
        return ns / 1e3 / ops

    def mean_us(indices: np.ndarray) -> float:
        return float(table.duration[indices].mean()) / 1e3 if len(indices) else 0.0

    def seconds(name: str, first: int = 0) -> float:
        return total(table.select(name, first, n_spans), table.duration) / 1e9

    # Busy accounting over the timed phase.
    top = np.flatnonzero(table.top_busy[lo:hi]) + lo
    if len(top) > 1:
        assert (table.start[top][1:] >= table.end[top][:-1]).all(), "busy spans overlap"
    busy_ns = total(top, table.duration)
    busy_all = np.flatnonzero(table.sync[lo:hi]) + lo
    assert abs(total(busy_all, table.self_time) - busy_ns) <= 1e-6 * max(busy_ns, 1.0), (
        "busy self times do not add up to the top-level busy time"
    )
    unattributed_ns = wall_ns - busy_ns
    assert unattributed_ns >= 0, "busy time exceeds the traced wall"

    metrics: Dict[str, float] = {}

    # client / server: intervals matched by request id.
    calls = timed("client.call")
    parses, encodes = timed("protocol.parse"), timed("protocol.encode")
    parse_start = {table.rid[i]: int(table.start[i]) for i in parses}
    server_interval: Dict[Any, int] = {}
    for i in encodes:
        begun = parse_start.get(table.rid[i])
        if begun is not None:
            server_interval[table.rid[i]] = int(table.end[i]) - begun
    edge_ns = sum(
        int(table.duration[i]) - server_interval.get(table.rid[i], 0) for i in calls
    )
    server_children_ns = 0.0
    for name in _SERVER_CHILDREN:
        indices = timed(name)
        indices = indices[table.parent[indices] < 0]
        server_children_ns += total(indices, table.duration)
    metrics["client.calls_per_kop"] = 1e3 * len(calls) / ops
    metrics["client.edge_interval_us_per_op"] = per_op_us(edge_ns)
    metrics["client.retries"] = float(result.get("client_retries", 0))
    metrics["client.reconnects"] = float(result.get("client_reconnects", 0))
    validates = timed("protocol.validate")
    metrics["protocol.parse_us_per_op"] = per_op_us(total(parses, table.duration))
    metrics["protocol.validate_us_per_op"] = per_op_us(total(validates, table.duration))
    metrics["protocol.encode_us_per_op"] = per_op_us(total(encodes, table.duration))
    metrics["protocol.validate_calls_per_op"] = len(validates) / ops
    metrics["protocol.request_bytes_per_op"] = counters["request_bytes"] / ops
    metrics["protocol.response_bytes_per_op"] = counters["response_bytes"] / ops
    metrics["server.interval_self_us_per_op"] = per_op_us(
        sum(server_interval.values()) - server_children_ns if len(encodes) else 0.0
    )
    metrics["server.rejected_requests"] = float(result.get("server_rejected_requests", 0))

    # service: interval self time of submit / submit_batch.
    submits = np.concatenate([timed("service.submit"), timed("service.submit_batch")])
    metrics["service.submit_interval_self_us_per_op"] = per_op_us(total(submits, table.self_time))
    starts = table.select("service.start", 0, n_spans)
    metrics["service.start_s"] = float(table.duration[starts[-1]]) / 1e9 if len(starts) else 0.0
    metrics["service.snapshot_s"] = seconds("service.snapshot", hi)
    metrics["service.snapshot_bytes"] = float(result.get("snapshot_bytes", 0))
    metrics["service.recovery_s"] = float(result.get("recovery_s", 0.0))

    # shards: queue wait and commit interval from the op-identity counters.
    queued = max(counters["queued_ops"], 1)
    applies = timed("shards.apply_op")
    metrics["shards.queue_wait_us_per_op"] = counters["queue_wait_ns"] / 1e3 / queued
    metrics["shards.batch_ops_mean"] = counters["committed_ops"] / max(counters["commits"], 1)
    metrics["shards.commit_interval_self_us_per_op"] = per_op_us(counters["commit_self_ns"])
    metrics["shards.apply_op_self_us_per_op"] = per_op_us(total(applies, table.self_time))
    metrics["shards.replay_s"] = seconds("shards.replay", hi)
    metrics["shards.dedup_hits"] = float(result.get("dedup_hits", 0))
    metrics["shards.shed"] = float(result.get("shed", 0))

    # checkpoint: WAL group commit.
    appends, frames = timed("checkpoint.append_many"), timed("checkpoint.encode_frame")
    writes, fsyncs = timed("checkpoint.write"), timed("checkpoint.fsync")
    metrics["checkpoint.append_us_per_op"] = per_op_us(total(appends, table.self_time))
    metrics["checkpoint.encode_frame_us_per_op"] = per_op_us(total(frames, table.duration))
    metrics["checkpoint.write_us_per_op"] = per_op_us(total(writes, table.duration))
    metrics["checkpoint.fsync_us_per_op"] = per_op_us(total(fsyncs, table.duration))
    metrics["checkpoint.fsyncs_per_kop"] = 1e3 * len(fsyncs) / ops
    metrics["checkpoint.recover_read_s"] = seconds("checkpoint.recover_read", hi)
    metrics["checkpoint.wal_bytes_per_op"] = float(result.get("wal_bytes_per_op", 0.0))

    # allocator / records / partition: per-call means.
    allocates, retries = timed("allocator.allocate"), timed("allocator.allocate_retry")
    observes = timed("allocator.observe")
    allocator_calls = np.concatenate([allocates, retries, observes])
    allocator_ns = total(allocator_calls, table.duration)
    adds, computes = timed("records.add"), timed("partition.compute")
    metrics["allocator.allocate_us"] = mean_us(allocates)
    metrics["allocator.allocate_p95_us"] = (
        float(np.percentile(table.duration[allocates], 95)) / 1e3 if len(allocates) else 0.0
    )
    metrics["allocator.retry_us"] = mean_us(retries)
    metrics["allocator.observe_us"] = mean_us(observes)
    metrics["allocator.calls_per_kop"] = 1e3 * len(allocator_calls) / ops
    metrics["allocator.share_pct"] = 100.0 * allocator_ns / wall_ns
    metrics["records.add_us"] = mean_us(adds)
    metrics["records.adds_per_kop"] = 1e3 * len(adds) / ops
    metrics["partition.compute_us"] = mean_us(computes)
    metrics["partition.computes_per_kop"] = 1e3 * len(computes) / ops
    metrics["partition.computes_per_allocate"] = len(computes) / max(
        len(allocates) + len(retries), 1
    )

    metrics["loop.unattributed_us_per_op"] = per_op_us(unattributed_ns)

    # sim: the manager's event loop.
    dispatch_ns = total(timed("sim.try_dispatch"), table.duration)
    is_sim = "sim_events" in result
    metrics["sim.events"] = float(result.get("sim_events", 0))
    metrics["sim.events_per_task"] = metrics["sim.events"] / ops
    metrics["sim.dispatch_s"] = dispatch_ns / 1e9
    metrics["sim.dispatch_share_pct"] = 100.0 * dispatch_ns / wall_ns
    metrics["sim.find_fit_s"] = total(timed("sim.find_fit"), table.duration) / 1e9
    metrics["sim.invariants_s"] = total(timed("sim.check_event"), table.duration) / 1e9
    metrics["sim.allocator_s"] = allocator_ns / 1e9 if is_sim else 0.0
    metrics["sim.other_s"] = unattributed_ns / 1e9 if is_sim else 0.0
    metrics["sim.awe_mean"] = float(result.get("awe_mean", 0.0))
    return metrics
