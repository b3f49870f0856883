"""Dynamic dependency graphs for structured workflows.

The paper's evaluation workflows are dependency-free task streams, but
dynamic workflow systems exist precisely because applications generate
*dependent* tasks at runtime (Figure 1).  :class:`DynamicDAG` is the
builder the example applications use to express such structures —
map-reduce trees, multi-stage pipelines — and hand them to the
simulator as a :class:`~repro.workflows.spec.WorkflowSpec`.

A task may only depend on earlier IDs, so ID order is already a
topological order.  The graph is kept as plain per-task lists: parents
are the task's sorted ``dependencies``, children are appended as later
tasks name it, and each task's level and duration-weighted longest
path are computed once, from its parents' entries, when it is added.
So every structure query a workflow manager makes (levels, critical
path) is a lookup or one pass.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.resources import ResourceVector
from repro.workflows.spec import TaskSpec, WorkflowSpec

__all__ = ["DynamicDAG"]


class DynamicDAG:
    """Incrementally built task dependency graph.

    Tasks are added in submission order (IDs are assigned densely from
    0) and may only depend on already-added tasks — the defining
    property of dynamically generated workflows.

    Examples
    --------
    >>> from repro.core.resources import ResourceVector
    >>> from repro.workflows.dag import DynamicDAG
    >>> dag = DynamicDAG()
    >>> maps = [dag.add_task("map", ResourceVector.of(cores=1, memory=500),
    ...                      duration=30.0) for _ in range(4)]
    >>> reduce_id = dag.add_task("reduce", ResourceVector.of(cores=2, memory=2000),
    ...                          duration=60.0, dependencies=maps)
    >>> dag.level_of(reduce_id)
    1
    """

    def __init__(self) -> None:
        self._specs: List[TaskSpec] = []
        self._children: List[List[int]] = []
        # Longest path ending at each task: in edges, and weighted by duration.
        self._level: List[int] = []
        self._longest: List[float] = []

    def add_task(
        self,
        category: str,
        consumption: ResourceVector,
        duration: float,
        dependencies: Sequence[int] = (),
    ) -> int:
        """Append a task; returns its assigned ID."""
        task_id = len(self._specs)
        deps = tuple(sorted(set(int(d) for d in dependencies)))
        for dep in deps:
            if not (0 <= dep < task_id):
                raise ValueError(
                    f"task {task_id} cannot depend on {dep}: dependencies must "
                    "reference earlier tasks"
                )
        spec = TaskSpec(
            task_id=task_id,
            category=category,
            consumption=consumption,
            duration=duration,
            dependencies=deps,
        )
        self._specs.append(spec)
        self._children.append([])
        for dep in deps:
            self._children[dep].append(task_id)
        self._level.append(1 + max((self._level[d] for d in deps), default=-1))
        self._longest.append(
            spec.duration + max((self._longest[d] for d in deps), default=0.0)
        )
        return task_id

    # -- structure queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._specs)

    def _index(self, task_id: int) -> int:
        if not (0 <= task_id < len(self._specs)):
            raise IndexError(f"task {task_id} is not in the DAG")
        return task_id

    def parents_of(self, task_id: int) -> Tuple[int, ...]:
        return self._specs[self._index(task_id)].dependencies

    def children_of(self, task_id: int) -> Tuple[int, ...]:
        return tuple(self._children[self._index(task_id)])

    def level_of(self, task_id: int) -> int:
        """Longest path (in edges) from any root to this task."""
        return self._level[self._index(task_id)]

    def levels(self) -> Dict[int, int]:
        """Level of every task, keyed by task ID."""
        return dict(enumerate(self._level))

    def critical_path_length(self) -> float:
        """Longest duration-weighted chain — the ideal lower bound on makespan."""
        return max(self._longest, default=0.0)

    # -- export ----------------------------------------------------------------------

    def to_workflow(self, name: str) -> WorkflowSpec:
        """Freeze the DAG into an immutable workflow specification."""
        return WorkflowSpec(name=name, tasks=self._specs)
