"""F5 ``protocol-drift``: one wire-op vocabulary across every surface.

The op names live in four places that can silently diverge:

1. ``repro.service.protocol.REQUEST_OPS`` — the authoritative set,
   assembled from constants in :mod:`repro.service.shards`;
2. the server dispatch (``op == "..."`` comparisons in
   ``repro.service.server``) — admin and batch ops must be dispatched
   explicitly (mutating ops ride the submit fallthrough);
3. the client SDKs — every class in ``repro.service.client`` that
   builds ``{"op": ...}`` request payloads should offer a typed helper
   for every op;
4. the ``docs/SERVICE.md`` *Wire protocol* table.

F5 folds the module-level constants (cross-module, through imported
names and tuple concatenation), harvests comparisons/payload literals,
parses the doc table found beside the scanned tree (a missing
SERVICE.md is itself a finding), and flags any asymmetric difference.
No dynamic information is used — everything is literal/constant-foldable
by design, which is itself part of the contract this analysis protects.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.core import Finding, ModuleSource, Project, Rule, register_rule
from repro.analysis.flow.graph import CallGraph, module_dotted_name

__all__ = ["ProtocolDriftAnalysis"]

_Folded = Union[str, Tuple[str, ...]]

_DOC_ROW_RE = re.compile(r"^\|\s*`(?P<op>[a-z_]+)`\s*\|")


@register_rule
class ProtocolDriftAnalysis(Rule):
    id = "F5"
    name = "protocol-drift"
    description = (
        "wire op vocabulary drift between protocol constants, server "
        "dispatch, client SDK helpers, and SERVICE.md"
    )

    #: Module holding the authoritative op set.
    PROTOCOL_MODULE = "repro.service.protocol"
    #: Name of the authoritative constant inside it.
    REQUEST_OPS_NAME = "REQUEST_OPS"
    #: Admin-op constant: these (plus the batch op) must be dispatched
    #: explicitly by the server; mutating ops use the submit fallthrough.
    ADMIN_OPS_NAME = "ADMIN_OPS"
    BATCH_OP = "allocate_batch"
    SERVER_MODULE = "repro.service.server"
    CLIENT_MODULE = "repro.service.client"
    #: Doc (key into ``Project.docs``) and the section holding the table.
    DOC_PATH = "docs/SERVICE.md"
    DOC_SECTION = "## Wire protocol"

    def run(self, project: Project, graph: CallGraph) -> Iterable[Finding]:
        folder = _ConstantFolder(project, graph)
        anchor = folder.assignment(self.PROTOCOL_MODULE, self.REQUEST_OPS_NAME)
        if anchor is None:
            return  # project does not contain the protocol module
        protocol_module, anchor_node = anchor
        request_ops = self._as_ops(
            folder.fold(self.PROTOCOL_MODULE, self.REQUEST_OPS_NAME)
        )
        if request_ops is None:
            yield self.finding(
                protocol_module,
                anchor_node,
                f"`{self.REQUEST_OPS_NAME}` is not constant-foldable to a "
                "tuple of string literals; the wire vocabulary must stay "
                "statically enumerable",
            )
            return
        admin_ops = self._as_ops(
            folder.fold(self.PROTOCOL_MODULE, self.ADMIN_OPS_NAME)
        ) or set()

        yield from self._check_server(graph, request_ops, admin_ops)
        yield from self._check_clients(graph, folder, request_ops)
        yield from self._check_docs(project, protocol_module, anchor_node, request_ops)

    @staticmethod
    def _as_ops(folded: Optional[_Folded]) -> Optional[Set[str]]:
        if isinstance(folded, tuple) and all(isinstance(x, str) for x in folded):
            return set(folded)
        return None

    # -- server dispatch --------------------------------------------------------

    def _check_server(
        self, graph: CallGraph, request_ops: Set[str], admin_ops: Set[str]
    ) -> Iterable[Finding]:
        module = _module_by_dotted(graph, self.SERVER_MODULE)
        if module is None:
            return
        compared: Dict[str, ast.AST] = {}
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            exprs = [node.left, *node.comparators]
            if not any(self._mentions_op(e) for e in exprs):
                continue
            for expr in exprs:
                if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                    compared.setdefault(expr.value, expr)
        for op, node in sorted(compared.items()):
            if op not in request_ops:
                yield self.finding(
                    module,
                    node,
                    f"server dispatch compares against op `{op}` which is "
                    f"not in {self.PROTOCOL_MODULE}.{self.REQUEST_OPS_NAME}",
                )
        must_dispatch = (admin_ops | {self.BATCH_OP}) & request_ops
        for op in sorted(must_dispatch - set(compared)):
            yield self.finding(
                module,
                1,
                f"server dispatch never handles op `{op}` (admin/batch ops "
                "need an explicit branch; only mutating ops may ride the "
                "submit fallthrough)",
            )

    @staticmethod
    def _mentions_op(expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id == "op":
                return True
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value == "op"
            ):
                return True
        return False

    # -- client SDK surfaces ----------------------------------------------------

    def _check_clients(
        self, graph: CallGraph, folder: "_ConstantFolder", request_ops: Set[str]
    ) -> Iterable[Finding]:
        prefix = self.CLIENT_MODULE + "."
        for cls_qualname in sorted(graph.classes):
            if not cls_qualname.startswith(prefix):
                continue
            cls = graph.classes[cls_qualname]
            ops: Dict[str, ast.AST] = {}
            for method in cls.methods.values():
                for node in graph._own_body_walk(method.node):
                    if not isinstance(node, ast.Dict):
                        continue
                    for key, value in zip(node.keys, node.values):
                        if (
                            isinstance(key, ast.Constant)
                            and key.value == "op"
                        ):
                            literal = folder.fold_expr(method.module, value)
                            if isinstance(literal, str):
                                ops.setdefault(literal, value)
            if not ops:
                continue  # not a request-building SDK surface
            short = cls_qualname.rsplit(".", 1)[-1]
            for op, node in sorted(ops.items()):
                if op not in request_ops:
                    yield self.finding(
                        cls.module,
                        node,
                        f"client `{short}` sends op `{op}` which is not in "
                        f"{self.PROTOCOL_MODULE}.{self.REQUEST_OPS_NAME}",
                    )
            for op in sorted(request_ops - set(ops)):
                yield self.finding(
                    cls.module,
                    cls.node,
                    f"client `{short}` offers no helper for wire op `{op}`; "
                    "every op in REQUEST_OPS needs a typed SDK entry point",
                )

    # -- documentation ----------------------------------------------------------

    def _check_docs(
        self,
        project: Project,
        protocol_module: ModuleSource,
        anchor: ast.AST,
        request_ops: Set[str],
    ) -> Iterable[Finding]:
        text = project.docs.get(self.DOC_PATH)
        if text is None:
            yield self.finding(
                protocol_module,
                anchor,
                f"{self.DOC_PATH} was not found beside the scanned tree, so its "
                f"`{self.DOC_SECTION[3:]}` table cannot be checked against "
                f"{self.REQUEST_OPS_NAME}",
            )
            return
        doc_ops = self._doc_ops(text)
        for op in sorted(request_ops - doc_ops):
            yield self.finding(
                protocol_module,
                anchor,
                f"wire op `{op}` is missing from the {self.DOC_PATH} "
                f"`{self.DOC_SECTION[3:]}` table",
            )
        for op in sorted(doc_ops - request_ops):
            yield self.finding(
                protocol_module,
                anchor,
                f"{self.DOC_PATH} documents wire op `{op}` which is not in "
                f"{self.REQUEST_OPS_NAME}",
            )

    def _doc_ops(self, text: str) -> Set[str]:
        ops: Set[str] = set()
        in_section = False
        for line in text.splitlines():
            if line.startswith("## "):
                in_section = line.strip() == self.DOC_SECTION
                continue
            if not in_section:
                continue
            match = _DOC_ROW_RE.match(line.strip())
            if match is not None:
                ops.add(match.group("op"))
        return ops


def _module_by_dotted(graph: CallGraph, dotted: str) -> Optional[ModuleSource]:
    ctx = graph._contexts.get(dotted)
    return ctx.module if ctx is not None else None


class _ConstantFolder:
    """Cross-module folding of string/tuple module-level constants."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.graph = graph
        #: module dotted name -> {top-level name -> value expression}.
        self._assigns: Dict[str, Dict[str, Tuple[ModuleSource, ast.expr]]] = {}
        for module, tree in project.parsed():
            dotted = module_dotted_name(module.package_path)
            table: Dict[str, Tuple[ModuleSource, ast.expr]] = {}
            for stmt in tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    table[stmt.targets[0].id] = (module, stmt.value)
                elif (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None
                ):
                    table[stmt.target.id] = (module, stmt.value)
            self._assigns[dotted] = table

    def assignment(
        self, module_dotted: str, name: str
    ) -> Optional[Tuple[ModuleSource, ast.expr]]:
        return self._assigns.get(module_dotted, {}).get(name)

    def fold(
        self, module_dotted: str, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[_Folded]:
        seen = _seen if _seen is not None else set()
        key = f"{module_dotted}.{name}"
        if key in seen:
            return None  # cycle
        seen.add(key)
        entry = self.assignment(module_dotted, name)
        if entry is None:
            return None
        module, expr = entry
        return self.fold_expr(module, expr, seen)

    def fold_expr(
        self,
        module: ModuleSource,
        expr: ast.expr,
        _seen: Optional[Set[str]] = None,
    ) -> Optional[_Folded]:
        seen = _seen if _seen is not None else set()
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, (ast.Tuple, ast.List)):
            parts: List[str] = []
            for element in expr.elts:
                folded = self.fold_expr(module, element, seen)
                if not isinstance(folded, str):
                    return None
                parts.append(folded)
            return tuple(parts)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            left = self.fold_expr(module, expr.left, seen)
            right = self.fold_expr(module, expr.right, seen)
            if isinstance(left, tuple) and isinstance(right, tuple):
                return left + right
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return None
        if isinstance(expr, (ast.Name, ast.Attribute)):
            resolved = self.graph.resolve_in_module(module, expr)
            if resolved is None:
                # A plain top-level name in the same module.
                if isinstance(expr, ast.Name):
                    dotted = module_dotted_name(module.package_path)
                    return self.fold(dotted, expr.id, seen)
                return None
            owner, _, name = resolved.rpartition(".")
            if owner in self._assigns:
                return self.fold(owner, name, seen)
            return None
        return None
