"""Every setting of a config class is set by a caller.

A stdlib ``ast`` walk over the caller trees (tests and examples are not
callers) must find each field of the seven config classes in
``CONFIGS`` passed as a keyword to a call of that class or of a conduit
that forwards keywords into it.  ``dataclasses.replace`` forwards into
any class: it counts for every class with the field.
:class:`~repro.experiments.config.ExperimentConfig` is the CLI's config,
so only ``repro/cli.py`` counts as its caller.  A field no caller sets
is a constant with a setting's cost; make it the constant, or put it on
``ALLOWED`` with the reason it stays.

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
import functools
import inspect
import os
import textwrap
from typing import Dict, Iterator, Sequence, Set, Tuple

from repro.core.allocator import AllocatorConfig, _build_algorithm, _init_parameters
from repro.core.base import ALGORITHM_REGISTRY
from repro.experiments.config import ExperimentConfig
from repro.service.chaos import ChaosConfig
from repro.service.client import RetryPolicy
from repro.service.config import ServiceConfig
from repro.sim.manager import SimulationConfig
from repro.sim.pool import PoolConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLERS = ("src", "benchmarks", "scripts")
#: ``{class: (caller trees, callees besides the class that forward into it)}``.
CONFIGS = {
    ExperimentConfig: (("src/repro/cli.py",), ("with_",)),
    AllocatorConfig: (CALLERS, ("replace", "simulation_config", "run_cell")),
    SimulationConfig: (CALLERS, ("replace",)),
    PoolConfig: (CALLERS, ("replace",)),
    ServiceConfig: (CALLERS, ("replace",)),
    RetryPolicy: (CALLERS, ("replace",)),
    ChaosConfig: (CALLERS, ("replace", "make_chaos_config")),
}
#: Fields no caller sets, as ``{"Class.field": "why it stays"}``.
ALLOWED: Dict[str, str] = {
    "AllocatorConfig.resources": "the paper's optional wall-time resource and registered kinds",
    "SimulationConfig.max_events": "a livelock bound, sized from the task count when unset",
    "SimulationConfig.profile": "the kill model: swapped by the profile tests, an axis to come",
    "PoolConfig.capacity": "the worker shape that a registered resource kind needs",
    "PoolConfig.churn": "the simulator's one adversity model; ChurnConfig is reached only here",
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


@functools.lru_cache(maxsize=None)
def _calls_under(top: str) -> Tuple[ast.Call, ...]:
    """Every call in one caller tree (a directory or a single file)."""
    root = os.path.join(REPO, top)
    paths = [root] if os.path.isfile(root) else []
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = [d for d in subdirs if d != "__pycache__"]
        paths.extend(os.path.join(directory, n) for n in names if n.endswith(".py"))
    calls = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        calls.extend(node for node in ast.walk(tree) if isinstance(node, ast.Call))
    return tuple(calls)


def _calls(trees: Sequence[str] = CALLERS) -> Iterator[ast.Call]:
    for top in trees:
        yield from _calls_under(top)


def keywords_set(cls: type) -> Set[str]:
    """Keywords passed to ``cls`` or one of its conduits by its callers."""
    trees, conduits = CONFIGS[cls]
    callees = {cls.__name__, *conduits}
    found: Set[str] = set()
    for call in _calls(trees):
        if _callee(call) in callees:
            found.update(kw.arg for kw in call.keywords if kw.arg)
    return found


def unset_settings() -> Set[str]:
    unset: Set[str] = set()
    for cls in CONFIGS:
        found = keywords_set(cls)
        unset.update(
            f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls) if f.name not in found
        )
    return unset


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
    unset = unset_settings()
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
