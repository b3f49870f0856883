"""Unit and property tests for the whole-program call graph.

The graph is the substrate every F-analysis trusts: edges must resolve
through imports, annotations, and ``self.attr`` types, and the whole
structure must be deterministic — module discovery order or unrelated
additions must never change what the analyses see.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.core import ModuleSource, Project
from repro.analysis.flow.graph import FILE_HANDLE, CallGraph

pytestmark = pytest.mark.analysis


def _graph(sources) -> CallGraph:
    project = Project(ModuleSource(path=p, text=t) for p, t in sources)
    return CallGraph.build(project)


ALLOCATOR_SRC = '''\
class TaskOrientedAllocator:
    def observe(self, category, value):
        return value
'''

SHARDS_SRC = '''\
from repro.core.allocator import TaskOrientedAllocator


class AllocationShard:
    def __init__(self):
        self.allocator = TaskOrientedAllocator()

    def commit(self, op):
        self.allocator.observe("cat", 1.0)


# reproflow: sync-boundary -- group commit is the sanctioned stall
def group_commit(shard: AllocationShard):
    shard.commit({})


def spill(doc):
    with open("/tmp/x", "a") as handle:
        handle.write(str(doc))
'''

SERVER_SRC = '''\
from repro.service.shards import AllocationShard, group_commit


async def drain(shard: AllocationShard):
    group_commit(shard)
    shard.commit({})
'''

MODS = [
    ("repro/core/allocator.py", ALLOCATOR_SRC),
    ("repro/service/shards.py", SHARDS_SRC),
    ("repro/service/server.py", SERVER_SRC),
]


# -- resolution ------------------------------------------------------------------------


def test_annotation_types_resolve_method_calls():
    graph = _graph(MODS)
    callees = {
        e.callee for e in graph.outgoing("repro.service.shards.group_commit")
    }
    assert "repro.service.shards.AllocationShard.commit" in callees


def test_self_attr_constructor_types_resolve_bound_calls():
    graph = _graph(MODS)
    callees = {
        e.callee
        for e in graph.outgoing("repro.service.shards.AllocationShard.commit")
    }
    assert "repro.core.allocator.TaskOrientedAllocator.observe" in callees


def test_imported_function_calls_are_internal_edges():
    graph = _graph(MODS)
    edges = {
        e.callee: e.internal for e in graph.outgoing("repro.service.server.drain")
    }
    assert edges["repro.service.shards.group_commit"] is True
    assert edges["repro.service.shards.AllocationShard.commit"] is True


def test_with_open_binds_a_file_handle():
    graph = _graph(MODS)
    callees = {e.callee for e in graph.outgoing("repro.service.shards.spill")}
    assert f"{FILE_HANDLE}.write" in callees


def test_sync_boundary_annotation_captures_reason():
    graph = _graph(MODS)
    info = graph.functions["repro.service.shards.group_commit"]
    assert info.sync_boundary == "group commit is the sanctioned stall"
    assert graph.functions["repro.service.shards.spill"].sync_boundary is None


# -- stability -------------------------------------------------------------------------


@given(st.permutations(MODS))
def test_signature_is_module_order_independent(ordering):
    assert _graph(ordering).signature() == _graph(MODS).signature()


@given(st.text(alphabet="abcdefghij", min_size=1, max_size=8))
def test_unrelated_module_never_removes_edges(stem):
    extra = (
        f"repro/extra_{stem}.py",
        f"def helper_{stem}():\n    return print('{stem}')\n",
    )
    base_rows = set(_graph(MODS).signature())
    grown_rows = set(_graph(MODS + [extra]).signature())
    assert base_rows <= grown_rows


def test_rebuilding_the_same_project_is_deterministic():
    assert _graph(MODS).signature() == _graph(MODS).signature()
