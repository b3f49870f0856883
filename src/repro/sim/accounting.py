"""Waste and efficiency accounting (Section II-C, implemented exactly).

The ledger ingests every finished attempt and folds them into the
paper's two metrics:

* **Resource waste** per task and resource:
  ``t * (a - c)`` internal fragmentation on the successful attempt plus
  ``sum_i a_i * t_i`` over the failed (exhausted) attempts.
* **Absolute Workflow Efficiency (AWE)** per resource:
  total consumption ``sum_i c_i * t_i`` over total allocation
  ``sum_i (a_i * t_i + sum_j a_ij * t_ij)``.

Attempts lost to worker eviction are *not* part of the paper's model —
its metrics are defined to be independent of the worker pool — so their
held allocation is accumulated in a separate ``eviction`` bucket that
never enters AWE.  Per-category breakdowns and the per-task usages are
kept alongside the totals; the per-task usages are columns (one
``array('d')`` per resource for consumption and one for allocation),
so a completed task costs the ledger about 80 bytes, and a
:class:`TaskUsage` row is built only when one is asked for.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.core.resources import RESOURCES, TIME, Resource
from repro.sim.task import AttemptOutcome, SimTask

__all__ = ["WasteBreakdown", "TaskUsage", "Ledger"]


@dataclass
class WasteBreakdown:
    """Accumulated waste of one resource, split by cause.

    All figures are resource-seconds (e.g. MB*s for memory).
    """

    internal_fragmentation: float = 0.0
    failed_allocation: float = 0.0
    eviction: float = 0.0

    @property
    def total(self) -> float:
        """The paper's ResourceWaste: fragmentation + failed allocation.

        Eviction holdings are excluded by definition (see module doc).
        """
        return self.internal_fragmentation + self.failed_allocation

    def fraction_failed(self) -> float:
        """Share of the (paper-defined) waste due to failed allocations."""
        if self.total <= 0:
            return 0.0
        return self.failed_allocation / self.total

    def __add__(self, other: "WasteBreakdown") -> "WasteBreakdown":
        return WasteBreakdown(
            internal_fragmentation=self.internal_fragmentation + other.internal_fragmentation,
            failed_allocation=self.failed_allocation + other.failed_allocation,
            eviction=self.eviction + other.eviction,
        )


@dataclass(frozen=True)
class TaskUsage:
    """One completed task's contribution to the metrics."""

    task_id: int
    category: str
    consumption: Mapping[Resource, float]   # c * t per resource
    allocation: Mapping[Resource, float]    # all attempts' a * t per resource
    n_failed_attempts: int
    n_evicted_attempts: int


class Ledger:
    """Accumulates attempts; answers waste and AWE queries."""

    def __init__(self, resources: Tuple[Resource, ...]) -> None:
        if not resources:
            raise ValueError("ledger needs at least one resource to track")
        self._resources = resources
        self._consumption: Dict[Resource, float] = {r: 0.0 for r in resources}
        self._allocation: Dict[Resource, float] = {r: 0.0 for r in resources}
        self._waste: Dict[Resource, WasteBreakdown] = {r: WasteBreakdown() for r in resources}
        self._by_category: Dict[str, Dict[Resource, WasteBreakdown]] = {}
        self._category_consumption: Dict[str, Dict[Resource, float]] = {}
        self._category_allocation: Dict[str, Dict[Resource, float]] = {}
        # Per-task usage, one entry per completed task in completion order.
        self._task_ids = array("q")
        self._task_categories: List[str] = []
        self._task_consumption: Dict[Resource, array[float]] = {r: array("d") for r in resources}
        self._task_allocation: Dict[Resource, array[float]] = {r: array("d") for r in resources}
        self._task_failed = array("q")
        self._task_evicted = array("q")
        self._n_attempts = 0
        self._n_failed = 0
        self._n_evicted = 0
        self._n_quarantined = 0

    # -- ingestion ---------------------------------------------------------------

    def record_task(self, task: SimTask) -> None:
        """Fold a *completed* task's attempt history into the totals."""
        if not task.attempts or task.attempts[-1].outcome is not AttemptOutcome.SUCCESS:
            raise ValueError(
                f"task {task.task_id} has no successful final attempt to account"
            )
        # The vectors' component dicts, read directly; an absent
        # resource is 0.0, as ``ResourceVector.__getitem__`` has it.
        final = task.attempts[-1]
        final_allocation = final.allocation.raw
        true_peaks = task.spec.consumption.raw
        duration = task.spec.duration

        cat = task.category
        cat_waste, cat_cons, cat_alloc = self._category_tables(cat)

        for res in self._resources:
            # Wall time's "peak consumption" is the duration itself.
            peak = duration if res is TIME else true_peaks.get(res, 0.0)
            consumed = peak * duration
            self._task_consumption[res].append(consumed)
            self._consumption[res] += consumed
            cat_cons[res] += consumed

            allocated = 0.0
            for attempt in task.attempts:
                held = attempt.allocation.raw.get(res, 0.0) * attempt.runtime
                if attempt.outcome is AttemptOutcome.EVICTED:
                    self._waste[res].eviction += held
                    cat_waste[res].eviction += held
                    continue
                allocated += held
                if attempt.outcome is AttemptOutcome.EXHAUSTED:
                    self._waste[res].failed_allocation += held
                    cat_waste[res].failed_allocation += held
            # Internal fragmentation of the successful attempt: t*(a - c).
            frag = (final_allocation.get(res, 0.0) - peak) * final.runtime
            # Numerical guard: the success condition guarantees a >= c.
            frag = max(0.0, frag)
            self._waste[res].internal_fragmentation += frag
            cat_waste[res].internal_fragmentation += frag

            self._task_allocation[res].append(allocated)
            self._allocation[res] += allocated
            cat_alloc[res] += allocated

        n_failed = 0
        n_evicted = 0
        for attempt in task.attempts:
            if attempt.outcome is AttemptOutcome.EXHAUSTED:
                n_failed += 1
            elif attempt.outcome is AttemptOutcome.EVICTED:
                n_evicted += 1
        self._n_attempts += len(task.attempts)
        self._n_failed += n_failed
        self._n_evicted += n_evicted
        self._task_ids.append(task.task_id)
        self._task_categories.append(cat)
        self._task_failed.append(n_failed)
        self._task_evicted.append(n_evicted)

    def record_quarantined(self, task: SimTask) -> None:
        """Fold a *quarantined* task's burned attempts into the totals.

        A quarantined task never completes, so it contributes no
        consumption — every exhausted attempt it burned is pure
        failed-allocation waste (charged to total allocation so AWE
        honestly reflects the burn), and evicted attempts land in the
        eviction bucket exactly as for completed tasks.  Cascade-
        quarantined descendants arrive with zero attempts and only bump
        the counter.
        """
        if task.attempts and task.attempts[-1].outcome is AttemptOutcome.SUCCESS:
            raise ValueError(
                f"task {task.task_id} succeeded; account it with record_task"
            )
        cat = task.category
        if task.attempts:
            cat_waste, _, cat_alloc = self._category_tables(cat)
            for res in self._resources:
                for attempt in task.attempts:
                    held = attempt.allocation[res] * attempt.runtime
                    if attempt.outcome is AttemptOutcome.EVICTED:
                        self._waste[res].eviction += held
                        cat_waste[res].eviction += held
                        continue
                    self._allocation[res] += held
                    cat_alloc[res] += held
                    self._waste[res].failed_allocation += held
                    cat_waste[res].failed_allocation += held
            for attempt in task.attempts:
                self._n_attempts += 1
                if attempt.outcome is AttemptOutcome.EXHAUSTED:
                    self._n_failed += 1
                elif attempt.outcome is AttemptOutcome.EVICTED:
                    self._n_evicted += 1
        self._n_quarantined += 1

    def _category_tables(
        self, cat: str
    ) -> Tuple[Dict[Resource, WasteBreakdown], Dict[Resource, float], Dict[Resource, float]]:
        """The category's waste, consumption and allocation tables.

        They are built together the first time the category is seen.
        """
        cat_waste = self._by_category.get(cat)
        if cat_waste is None:
            cat_waste = self._by_category[cat] = {r: WasteBreakdown() for r in self._resources}
            self._category_consumption[cat] = {r: 0.0 for r in self._resources}
            self._category_allocation[cat] = {r: 0.0 for r in self._resources}
        return cat_waste, self._category_consumption[cat], self._category_allocation[cat]

    # -- queries --------------------------------------------------------------------

    @property
    def resources(self) -> Tuple[Resource, ...]:
        return self._resources

    @property
    def n_tasks(self) -> int:
        return len(self._task_ids)

    @property
    def n_attempts(self) -> int:
        return self._n_attempts

    @property
    def n_failed_attempts(self) -> int:
        return self._n_failed

    @property
    def n_evicted_attempts(self) -> int:
        return self._n_evicted

    @property
    def n_quarantined(self) -> int:
        """Tasks accounted as dead-lettered (never completed)."""
        return self._n_quarantined

    def awe(self, resource: Resource) -> float:
        """Absolute Workflow Efficiency for one resource, in [0, 1]."""
        allocated = self._allocation[resource]
        if allocated <= 0.0:
            return 1.0 if self._consumption[resource] <= 0.0 else 0.0
        return self._consumption[resource] / allocated

    def waste(self, resource: Resource) -> WasteBreakdown:
        return self._waste[resource]

    def total_consumption(self, resource: Resource) -> float:
        return self._consumption[resource]

    def categories(self) -> Tuple[str, ...]:
        return tuple(self._by_category)

    def awe_of_category(self, category: str, resource: Resource) -> float:
        allocated = self._category_allocation[category][resource]
        consumed = self._category_consumption[category][resource]
        if allocated <= 0.0:
            return 1.0 if consumed <= 0.0 else 0.0
        return consumed / allocated

    def waste_of_category(self, category: str, resource: Resource) -> WasteBreakdown:
        return self._by_category[category][resource]

    def task_usages(self) -> Tuple[TaskUsage, ...]:
        """Every completed task's usage, in completion order (rows built here)."""
        return tuple(TaskUsage(*row) for row in self._rows())

    def _rows(
        self,
    ) -> Iterator[Tuple[int, str, Dict[Resource, float], Dict[Resource, float], int, int]]:
        """The per-task columns as rows, in :class:`TaskUsage` field order."""
        consumption, allocation = self._task_consumption, self._task_allocation
        for i, (task_id, category, n_failed, n_evicted) in enumerate(
            zip(self._task_ids, self._task_categories, self._task_failed, self._task_evicted)
        ):
            yield (
                task_id,
                category,
                {res: col[i] for res, col in consumption.items()},
                {res: col[i] for res, col in allocation.items()},
                n_failed,
                n_evicted,
            )

    def task_series(self, resource: Resource) -> Tuple[array[float], array[float]]:
        """Per-task ``(consumption, allocation)`` of one resource, in completion order.

        Copies of the ledger's columns; ``KeyError`` for a resource the
        ledger does not track, as :meth:`awe` has it.
        """
        return self._task_consumption[resource][:], self._task_allocation[resource][:]

    # -- checkpointing ----------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of every accumulator (exact floats).

        Resources are stored by key; :meth:`from_state` resolves them
        back through the registry, so restored ledgers answer every
        query (AWE, waste, per-category, per-task) bit-identically.
        """
        def by_key(mapping: Mapping[Resource, float]) -> Dict[str, float]:
            return {res.key: value for res, value in mapping.items()}

        def waste_by_key(mapping: Mapping[Resource, WasteBreakdown]) -> Dict[str, list]:
            return {
                res.key: [w.internal_fragmentation, w.failed_allocation, w.eviction]
                for res, w in mapping.items()
            }

        return {
            "resources": [res.key for res in self._resources],
            "consumption": by_key(self._consumption),
            "allocation": by_key(self._allocation),
            "waste": waste_by_key(self._waste),
            "by_category": {
                cat: waste_by_key(per_res) for cat, per_res in self._by_category.items()
            },
            "category_consumption": {
                cat: by_key(m) for cat, m in self._category_consumption.items()
            },
            "category_allocation": {
                cat: by_key(m) for cat, m in self._category_allocation.items()
            },
            "tasks": [
                {
                    "task_id": task_id,
                    "category": category,
                    "consumption": by_key(consumption),
                    "allocation": by_key(allocation),
                    "n_failed_attempts": n_failed,
                    "n_evicted_attempts": n_evicted,
                }
                for task_id, category, consumption, allocation, n_failed, n_evicted in self._rows()
            ],
            "n_attempts": self._n_attempts,
            "n_failed": self._n_failed,
            "n_evicted": self._n_evicted,
            "n_quarantined": self._n_quarantined,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Ledger":
        """Rebuild a ledger captured by :meth:`state_dict`."""
        def by_res(mapping: Mapping[str, float]) -> Dict[Resource, float]:
            return {RESOURCES.get(key): float(value) for key, value in mapping.items()}

        def waste_by_res(mapping: Mapping[str, list]) -> Dict[Resource, WasteBreakdown]:
            return {
                RESOURCES.get(key): WasteBreakdown(
                    internal_fragmentation=float(frag),
                    failed_allocation=float(failed),
                    eviction=float(evicted),
                )
                for key, (frag, failed, evicted) in mapping.items()
            }

        new = cls(tuple(RESOURCES.get(key) for key in state["resources"]))
        new._consumption = by_res(state["consumption"])
        new._allocation = by_res(state["allocation"])
        new._waste = waste_by_res(state["waste"])
        new._by_category = {
            cat: waste_by_res(per_res) for cat, per_res in state["by_category"].items()
        }
        new._category_consumption = {
            cat: by_res(m) for cat, m in state["category_consumption"].items()
        }
        new._category_allocation = {
            cat: by_res(m) for cat, m in state["category_allocation"].items()
        }
        for doc in state["tasks"]:
            new._task_ids.append(int(doc["task_id"]))
            new._task_categories.append(doc["category"])
            for res, col in new._task_consumption.items():
                col.append(float(doc["consumption"][res.key]))
            for res, col in new._task_allocation.items():
                col.append(float(doc["allocation"][res.key]))
            new._task_failed.append(int(doc["n_failed_attempts"]))
            new._task_evicted.append(int(doc["n_evicted_attempts"]))
        new._n_attempts = int(state["n_attempts"])
        new._n_failed = int(state["n_failed"])
        new._n_evicted = int(state["n_evicted"])
        new._n_quarantined = int(state.get("n_quarantined", 0))
        return new

    def identity_holds(self) -> bool:
        """Sanity identity: allocation = consumption + waste, per resource.

        ``sum a*t = sum c*t + fragmentation + failed`` — exact up to
        float rounding; tests assert it after every simulation.
        """
        for res in self._resources:
            lhs = self._allocation[res]
            rhs = (
                self._consumption[res]
                + self._waste[res].internal_fragmentation
                + self._waste[res].failed_allocation
            )
            scale = max(abs(lhs), abs(rhs), 1.0)
            if abs(lhs - rhs) > 1e-6 * scale:
                return False
        return True
