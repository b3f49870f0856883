"""Tests for the dynamic DAG builder."""

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.workflows.dag import DynamicDAG


def consumption():
    return ResourceVector.of(cores=1, memory=100, disk=10)


class TestDynamicDAG:
    def test_ids_assigned_densely(self):
        dag = DynamicDAG()
        ids = [dag.add_task("a", consumption(), 1.0) for _ in range(3)]
        assert ids == [0, 1, 2]
        assert len(dag) == 3

    def test_dependencies_must_point_backwards(self):
        dag = DynamicDAG()
        dag.add_task("a", consumption(), 1.0)
        with pytest.raises(ValueError):
            dag.add_task("b", consumption(), 1.0, dependencies=[5])

    def test_parents_and_children(self):
        dag = DynamicDAG()
        a = dag.add_task("map", consumption(), 1.0)
        b = dag.add_task("map", consumption(), 1.0)
        c = dag.add_task("reduce", consumption(), 1.0, dependencies=[a, b])
        assert dag.parents_of(c) == (a, b)
        assert dag.children_of(a) == (c,)

    def test_levels(self):
        dag = DynamicDAG()
        a = dag.add_task("x", consumption(), 1.0)
        b = dag.add_task("x", consumption(), 1.0, dependencies=[a])
        c = dag.add_task("x", consumption(), 1.0, dependencies=[b])
        d = dag.add_task("x", consumption(), 1.0)
        levels = dag.levels()
        assert levels == {a: 0, b: 1, c: 2, d: 0}
        assert dag.level_of(c) == 2

    def test_critical_path(self):
        dag = DynamicDAG()
        a = dag.add_task("x", consumption(), 10.0)
        b = dag.add_task("x", consumption(), 20.0, dependencies=[a])
        dag.add_task("x", consumption(), 5.0)
        assert dag.critical_path_length() == pytest.approx(30.0)

    def test_duplicate_dependencies_deduped(self):
        dag = DynamicDAG()
        a = dag.add_task("x", consumption(), 1.0)
        b = dag.add_task("x", consumption(), 1.0, dependencies=[a, a, a])
        assert dag.parents_of(b) == (a,)

    def test_to_workflow_runs_in_simulator(self):
        from repro.core.allocator import AllocatorConfig
        from repro.sim.manager import SimulationConfig, WorkflowManager
        from repro.sim.pool import PoolConfig

        dag = DynamicDAG()
        maps = [dag.add_task("map", consumption(), 5.0) for _ in range(4)]
        dag.add_task("reduce", consumption(), 10.0, dependencies=maps)
        workflow = dag.to_workflow("mapreduce")
        manager = WorkflowManager(
            workflow,
            SimulationConfig(
                allocator=AllocatorConfig(algorithm="max_seen", seed=0),
                pool=PoolConfig(
                    n_workers=2,
                    capacity=ResourceVector.of(cores=4, memory=4000, disk=4000),
                ),
            ),
        )
        result = manager.run()
        assert result.ledger.n_tasks == 5

    def test_empty_dag_to_workflow_rejected(self):
        with pytest.raises(ValueError):
            DynamicDAG().to_workflow("empty")


def reference_structure(dependencies, durations):
    """Brute-force parents, children, levels and longest weighted paths.

    Relaxes every edge until nothing changes, so it assumes nothing about
    the order the tasks were added in.
    """
    n = len(dependencies)
    parents = [tuple(sorted(set(deps))) for deps in dependencies]
    children = [tuple(c for c in range(n) if p in parents[c]) for p in range(n)]
    edges = [(p, c) for c in range(n) for p in parents[c]]
    level = [0] * n
    longest = list(durations)
    changed = True
    while changed:
        changed = False
        for p, c in edges:
            if level[p] + 1 > level[c]:
                level[c] = level[p] + 1
                changed = True
            if longest[p] + durations[c] > longest[c]:
                longest[c] = longest[p] + durations[c]
                changed = True
    return parents, children, level, max(longest)


class TestStructureQueries:
    def test_level_of_deep_chain(self):
        dag = DynamicDAG()
        previous = dag.add_task("x", consumption(), 1.0)
        for _ in range(2999):
            previous = dag.add_task("x", consumption(), 1.0, dependencies=[previous])
        assert dag.level_of(previous) == 2999
        assert dag.critical_path_length() == pytest.approx(3000.0)

    def test_level_of_two_wide_lattice(self):
        # Each task depends on both tasks of the layer before: 2^22 root
        # paths reach the last layer, so walking paths is not an option.
        dag = DynamicDAG()
        layer = [dag.add_task("x", consumption(), 1.0) for _ in range(2)]
        for _ in range(22):
            layer = [dag.add_task("x", consumption(), 1.0, dependencies=layer)
                     for _ in range(2)]
        assert len(dag) == 46
        assert [dag.level_of(t) for t in layer] == [22, 22]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_on_random_dags(self, seed):
        rng = np.random.default_rng(seed)
        n = 150
        dependencies, durations = [], []
        dag = DynamicDAG()
        for task_id in range(n):
            k = int(rng.integers(0, min(task_id, 4) + 1))
            deps = [int(d) for d in rng.integers(0, task_id, size=k)] if task_id else []
            duration = float(rng.uniform(0.5, 50.0))
            assert dag.add_task("x", consumption(), duration, dependencies=deps) == task_id
            dependencies.append(deps)
            durations.append(duration)
        parents, children, level, critical = reference_structure(dependencies, durations)
        for task_id in range(n):
            assert dag.parents_of(task_id) == parents[task_id]
            assert dag.children_of(task_id) == children[task_id]
            assert dag.level_of(task_id) == level[task_id]
        assert dag.levels() == dict(enumerate(level))
        assert dag.critical_path_length() == critical

    @pytest.mark.parametrize("query", ["parents_of", "children_of", "level_of"])
    @pytest.mark.parametrize("task_id", [-1, 2, 7])
    def test_unknown_ids_raise_index_error(self, query, task_id):
        dag = DynamicDAG()
        dag.add_task("x", consumption(), 1.0)
        dag.add_task("x", consumption(), 1.0, dependencies=[0])
        with pytest.raises(IndexError, match=f"task {task_id} "):
            getattr(dag, query)(task_id)

    def test_empty_dag_queries(self):
        dag = DynamicDAG()
        assert dag.levels() == {}
        assert dag.critical_path_length() == 0.0
