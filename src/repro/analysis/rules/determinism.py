"""R1 ``wall-clock``: no wall-clock reads in the simulation or allocator.

``time.time()`` / ``time.monotonic()`` / ``datetime.now()`` inside
``repro.sim`` or ``repro.core`` make results depend on host speed: the
simulation owns its clock (``engine.now``), and golden traces,
bit-identical parallel grids and digest-verified resume all assume it
is the only one.  (``repro.checkpoint`` legitimately reads the wall
clock to pace snapshots and is outside the scope.)  Where a clock or
RNG value *ends up* — a ``state_dict()`` return, a WAL payload, a wire
response — is F3's business, which shares :data:`CLOCK_CALLS`.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis._ast_utils import ImportMap, resolve_call_target
from repro.analysis.core import Finding, Project, Rule, register_rule
from repro.analysis.flow.graph import CallGraph

__all__ = ["CLOCK_CALLS", "WallClockRule"]

#: Fully-qualified callables that read the wall clock.
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

@register_rule
class WallClockRule(Rule):
    id = "R1"
    name = "wall-clock"
    description = (
        "no wall-clock reads (time.time/monotonic, datetime.now/today) in repro.sim/repro.core"
    )

    def run(self, project: Project, graph: CallGraph) -> Iterable[Finding]:
        for module, tree in project.parsed("repro/sim", "repro/core"):
            imports = ImportMap.from_tree(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_call_target(imports, node.func)
                if target in CLOCK_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock read {target}() in simulation/allocator code; "
                        "use the engine clock (engine.now) so runs replay identically",
                    )
