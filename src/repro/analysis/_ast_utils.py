"""Shared AST helpers for reprolint rules.

The rules need to answer "what does this call actually invoke?" in the
presence of aliased imports (``import time as _time``, ``import numpy
as np``, ``from random import randint as ri``).  :class:`ImportMap`
records the module/member bindings of a file and
:func:`resolve_call_target` flattens a call's function expression to a
fully qualified dotted origin (``numpy.random.seed``,
``time.monotonic``, ``datetime.datetime.now``) when it can.

Resolution is intentionally best-effort: it only follows top-level
names bound by import statements, never dataflow.  That keeps rules
fast and predictable — anything the resolver cannot see simply does
not fire, and the runtime test layers remain the backstop.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ImportMap",
    "dotted_name",
    "resolve_call_target",
    "self_attribute_fields",
]


class ImportMap:
    """Local name -> imported origin bindings for one module."""

    def __init__(self) -> None:
        #: local alias -> dotted module name, e.g. ``{"np": "numpy"}``.
        self.modules: Dict[str, str] = {}
        #: local alias -> (module, member), e.g. ``{"ri": ("random", "randint")}``.
        self.members: Dict[str, Tuple[str, str]] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a`` to package ``a``;
                    # ``import a.b as c`` binds ``c`` to module ``a.b``.
                    imports.modules[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: out of resolver scope
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imports.members[alias.asname or alias.name] = (node.module, alias.name)
        return imports

    def resolve_name(self, name: str) -> Optional[str]:
        """Dotted origin of a bare name, if bound by an import."""
        if name in self.members:
            module, member = self.members[name]
            return f"{module}.{member}"
        if name in self.modules:
            return self.modules[name]
        return None


def dotted_name(node: ast.AST) -> Optional[List[str]]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]`` (None for non-chains)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def resolve_call_target(imports: ImportMap, func: ast.AST) -> Optional[str]:
    """Fully qualified dotted origin of a call's function expression.

    ``np.random.seed`` (with ``import numpy as np``) resolves to
    ``numpy.random.seed``; ``monotonic`` (with ``from time import
    monotonic``) resolves to ``time.monotonic``; ``datetime.now`` (with
    ``from datetime import datetime``) resolves to
    ``datetime.datetime.now``.  Returns ``None`` when the base name is
    not import-bound.
    """
    if isinstance(func, ast.Name):
        return imports.resolve_name(func.id)
    parts = dotted_name(func)
    if not parts:
        return None
    origin = imports.resolve_name(parts[0])
    if origin is None:
        return None
    return ".".join([origin, *parts[1:]])


def self_attribute_fields(fn: ast.FunctionDef) -> frozenset:
    """Instance fields a method touches: ``self.X`` mentions, minus calls.

    Attributes used purely as bound-method call targets
    (``self._rebuild()``) are excluded — they are behaviour, not
    serialized state — while reads, writes, and mutations
    (``self._rng``, ``self._cache.clear`` receivers, subscripts) count.
    Used by the ``state_dict``/``load_state`` field-set diff.
    """
    args = fn.args.posonlyargs + fn.args.args
    if not args:
        return frozenset()
    self_name = args[0].arg
    call_funcs = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            call_funcs.add(id(node.func))
    fields = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
            and id(node) not in call_funcs
        ):
            fields.add(node.attr)
    return frozenset(fields)
