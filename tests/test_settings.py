"""Every setting of the allocator and the simulator is set by a caller.

A stdlib ``ast`` walk over ``src/``, ``benchmarks/`` and ``scripts/``
(tests and examples are not callers) must find each field of
:class:`~repro.core.allocator.AllocatorConfig` and
:class:`~repro.sim.manager.SimulationConfig` passed as a keyword to a
call of that class or of a conduit that forwards keywords into one:
``dataclasses.replace``, ``ExperimentConfig.with_``,
``ExperimentConfig.simulation_config`` and ``run_cell``.  A field no
caller sets is a constant with a setting's cost; make it the constant,
or put it on ``ALLOWED`` with the reason it stays.  ``ExperimentConfig``
is checked against the CLI by reprolint's R7.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, Set

from repro.core.allocator import AllocatorConfig
from repro.sim.manager import SimulationConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLERS = ("src", "benchmarks", "scripts")
CONFIGS = (AllocatorConfig, SimulationConfig)
CONDUITS = ("replace", "with_", "simulation_config", "run_cell")
#: Fields no caller sets, as ``{field: "why it stays"}``.
ALLOWED: Dict[str, str] = {
    "resources": "the paper's optional wall-time resource and registered kinds",
    "max_events": "a livelock bound, sized from the task count when unset",
}


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def keywords_set() -> Set[str]:
    """Keywords passed to a config class or a conduit anywhere in the callers."""
    callees = {cls.__name__ for cls in CONFIGS} | set(CONDUITS)
    found: Set[str] = set()
    for top in CALLERS:
        for directory, subdirs, names in os.walk(os.path.join(REPO, top)):
            subdirs[:] = [d for d in subdirs if d != "__pycache__"]
            for name in names:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Call) and _callee(node) in callees:
                        found.update(kw.arg for kw in node.keywords if kw.arg)
    return found


def test_every_setting_is_set_outside_the_tests():
    fields = {f.name for cls in CONFIGS for f in dataclasses.fields(cls)}
    unset = fields - keywords_set()
    assert unset == set(ALLOWED), (
        f"no caller sets {sorted(unset - set(ALLOWED))}; "
        f"set now, so off ALLOWED: {sorted(set(ALLOWED) - unset)}"
    )
