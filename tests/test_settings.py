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

The same holds for every ``__init__`` parameter of a registered
algorithm: ``_build_algorithm`` wires it (the names it tests
``in accepted``), or a caller passes it as a keyword of
``make_algorithm`` / ``with_algorithm`` or as a key of an
``algorithm_kwargs={...}`` literal; else it goes on
``ALGORITHM_ALLOWED``.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import textwrap
from typing import Dict, Iterator, Set

from repro.core.allocator import AllocatorConfig, _build_algorithm, _init_parameters
from repro.core.base import ALGORITHM_REGISTRY
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
#: Algorithm constructor parameters no caller sets, as ``{"algorithm.param": "why"}``.
ALGORITHM_ALLOWED: Dict[str, str] = {}


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _calls() -> Iterator[ast.Call]:
    """Every call in the caller trees."""
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
                    if isinstance(node, ast.Call):
                        yield node


def keywords_set() -> Set[str]:
    """Keywords passed to a config class or a conduit anywhere in the callers."""
    callees = {cls.__name__ for cls in CONFIGS} | set(CONDUITS)
    found: Set[str] = set()
    for call in _calls():
        if _callee(call) in callees:
            found.update(kw.arg for kw in call.keywords if kw.arg)
    return found


def algorithm_keywords_set() -> Set[str]:
    """Algorithm parameters a caller passes: keywords of ``make_algorithm``
    and ``with_algorithm``, keys of ``algorithm_kwargs={...}`` literals."""
    found: Set[str] = set()
    for call in _calls():
        if _callee(call) in ("make_algorithm", "with_algorithm"):
            found.update(kw.arg for kw in call.keywords if kw.arg)
        for kw in call.keywords:
            if kw.arg == "algorithm_kwargs" and isinstance(kw.value, ast.Dict):
                found.update(
                    key.value for key in kw.value.keys if isinstance(key, ast.Constant)
                )
    return found


def wired_by_the_allocator() -> Set[str]:
    """The parameter names ``_build_algorithm`` tests ``in accepted``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(_build_algorithm)))
    return {
        node.left.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.ops[0], ast.In)
        and isinstance(node.comparators[0], ast.Name)
        and node.comparators[0].id == "accepted"
    }


def test_every_setting_is_set_outside_the_tests():
    fields = {f.name for cls in CONFIGS for f in dataclasses.fields(cls)}
    unset = fields - keywords_set()
    assert unset == set(ALLOWED), (
        f"no caller sets {sorted(unset - set(ALLOWED))}; "
        f"set now, so off ALLOWED: {sorted(set(ALLOWED) - unset)}"
    )


def test_every_algorithm_parameter_is_wired_or_set_outside_the_tests():
    assert wired_by_the_allocator() == {"capacity", "granularity", "rng"}
    set_by_callers = wired_by_the_allocator() | algorithm_keywords_set()
    unset = {
        f"{name}.{param}"
        for name, cls in ALGORITHM_REGISTRY.items()
        if cls.__module__.startswith("repro.")
        for param in list(_init_parameters(cls))[1:]
        if param not in set_by_callers
    }
    assert unset == set(ALGORITHM_ALLOWED), (
        f"no caller sets {sorted(unset - set(ALGORITHM_ALLOWED))}; "
        f"set now, so off ALGORITHM_ALLOWED: {sorted(set(ALGORITHM_ALLOWED) - unset)}"
    )
