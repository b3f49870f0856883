"""Crash-safety rules: snapshot symmetry and atomic artifact writes.

R3 ``state-symmetry``
    A class that can serialize itself (``state_dict``) must also be
    able to restore (``load_state`` method or ``from_state``
    classmethod), and vice versa.  When both ``state_dict`` and
    ``load_state`` exist, the sets of ``self.<field>`` instance
    attributes they touch must match — a field serialized but never
    restored (or restored but never saved) is exactly the bug that
    makes a resumed run diverge from an uninterrupted one.
R4 ``raw-artifact-write``
    File writes outside :mod:`repro.checkpoint` must go through its
    atomic helpers (``write_text_atomic`` / ``write_json_atomic``) or
    its journal writer (``JournalWriter``).  A bare ``open(path, "w")``, ``json.dump`` or
    ``Path.write_text`` can leave a torn half-file behind a crash,
    which the resume machinery would then trust.  That includes the
    service's WAL and snapshot files.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional

from repro.analysis._ast_utils import ImportMap, resolve_call_target, self_attribute_fields
from repro.analysis.core import Finding, Project, Rule, register_rule
from repro.analysis.flow.graph import CallGraph

__all__ = ["RawArtifactWriteRule", "StateSymmetryRule"]

#: Modules allowed to perform raw writes: the atomic-write helpers
#: themselves, and the analysis package (stdlib-only by design, so its
#: SARIF report cannot use them).
WRITE_EXEMPT_PREFIXES = ("repro/checkpoint.py", "repro/analysis")

#: ``open()`` mode characters that make a call a write.
_WRITE_MODE_CHARS = frozenset("wax+")


def _restore_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    methods: Dict[str, ast.FunctionDef] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in (
            "state_dict",
            "load_state",
            "from_state",
        ):
            methods[stmt.name] = stmt
    return methods


@register_rule
class StateSymmetryRule(Rule):
    id = "R3"
    name = "state-symmetry"
    description = (
        "classes defining state_dict must define load_state/from_state (and vice "
        "versa), with matching serialized/restored field sets"
    )

    def run(self, project: Project, graph: CallGraph) -> Iterable[Finding]:
        for module, tree in project.parsed("repro"):
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                methods = _restore_methods(cls)
                save = methods.get("state_dict")
                load = methods.get("load_state")
                build = methods.get("from_state")
                if save is not None and load is None and build is None:
                    yield self.finding(
                        module,
                        save,
                        f"{cls.name}.state_dict has no restore counterpart; define "
                        "load_state (in place) or a from_state classmethod so "
                        "checkpoints of this class can be resumed",
                    )
                if save is None and (load is not None or build is not None):
                    other = load if load is not None else build
                    assert other is not None
                    yield self.finding(
                        module,
                        other,
                        f"{cls.name}.{other.name} restores state that nothing "
                        "serializes; define the matching state_dict",
                    )
                if save is not None and load is not None:
                    saved = self_attribute_fields(save)
                    restored = self_attribute_fields(load)
                    missing = sorted(saved - restored)
                    extra = sorted(restored - saved)
                    if missing or extra:
                        details = []
                        if missing:
                            details.append("serialized but never restored: " + ", ".join(missing))
                        if extra:
                            details.append("restored but never serialized: " + ", ".join(extra))
                        yield self.finding(
                            module,
                            load,
                            f"{cls.name}.state_dict/load_state touch different field "
                            f"sets ({'; '.join(details)}); a resumed instance would "
                            "diverge from the original",
                        )


def _open_write_mode(call: ast.Call) -> Optional[str]:
    """The write-ish mode string of an ``open()`` call, if statically known."""
    mode_node: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        if _WRITE_MODE_CHARS & set(mode_node.value):
            return mode_node.value
    return None


@register_rule
class RawArtifactWriteRule(Rule):
    id = "R4"
    name = "raw-artifact-write"
    description = (
        "artifact writes outside repro.checkpoint must use its atomic helpers "
        "(no bare open(..., 'w'), json.dump, or Path.write_text/write_bytes)"
    )

    def run(self, project: Project, graph: CallGraph) -> Iterable[Finding]:
        for module, tree in project.parsed("repro"):
            if module.in_package(*WRITE_EXEMPT_PREFIXES):
                continue
            imports = ImportMap.from_tree(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open":
                    mode = _open_write_mode(node)
                    if mode is not None:
                        yield self.finding(
                            module,
                            node,
                            f"bare open(..., {mode!r}) write; a crash mid-write leaves a "
                            "torn file — use repro.checkpoint.write_text_atomic or "
                            "JournalWriter",
                        )
                    continue
                if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
                    yield self.finding(
                        module,
                        node,
                        f"Path.{func.attr}() is not atomic (truncate-then-write); use "
                        "repro.checkpoint.write_text_atomic",
                    )
                    continue
                target = resolve_call_target(imports, func)
                if target in ("json.dump", "pickle.dump"):
                    yield self.finding(
                        module,
                        node,
                        f"{target}() streams into an already-truncated file; serialize to "
                        "a string and use repro.checkpoint.write_json_atomic",
                    )
