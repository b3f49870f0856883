"""Every module under ``src/repro`` is reached from an entry point.

A static walk over the ``import`` statements of ``repro.cli`` (the
``repro-experiments`` script) and ``repro.analysis.__main__``
(``python -m repro.analysis``) must reach every module of the package.
Importing a module runs its package's ``__init__``, so a package counts
as reached when one of its submodules is.  A module that only tests or
examples import has no consumer; delete it, or put it on ``ALLOWED``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Set

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ENTRY_POINTS = ("repro.cli", "repro.analysis.__main__")
#: Public API that no entry point imports, as ``{module: "who uses it"}``.
ALLOWED: Dict[str, str] = {}


def modules_under_src() -> Dict[str, str]:
    """``{dotted module name: path}`` for every ``*.py`` under ``src/repro``."""
    found = {}
    for directory, subdirs, names in os.walk(os.path.join(SRC, "repro")):
        subdirs[:] = [d for d in subdirs if d != "__pycache__"]
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                parts = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                found[".".join(parts)] = path
    return found


def imported_names(path: str) -> Set[str]:
    """Every dotted name an ``import`` in ``path`` may load, lazy ones included.

    The package imports absolutely only, so relative imports are not resolved.
    """
    names: Set[str] = set()
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def reached_modules() -> Set[str]:
    modules = modules_under_src()
    reached: Set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        module = todo.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        parent = module.rpartition(".")[0]
        if parent:
            todo.append(parent)
        todo.extend(imported_names(modules[module]))
    return reached


def test_every_module_is_reached_from_an_entry_point():
    unreached = set(modules_under_src()) - reached_modules()
    assert unreached == set(ALLOWED), f"no entry point imports {sorted(unreached)}"
