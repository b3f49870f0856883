"""Project-wide symbol table and call graph for the whole-program rules (F…).

The graph layer answers three questions the per-file AST rules cannot:

* **Who is who** — every function and method in the project gets a
  stable module-qualified name (``repro.service.shards.AllocationShard.
  _commit_inner``) derived from its package path, so identities survive
  formatting and reordering.
* **Who calls whom** — call expressions are resolved through aliased
  imports, ``self``, parameter/variable annotations, class attribute
  types inferred from ``__init__`` bodies, and constructor calls, then
  classified as *internal* edges (both ends in the project) or
  *external* targets (``os.fsync``, ``time.sleep``...).  Resolution is
  deliberately best-effort and sound-by-silence: a call the resolver
  cannot type simply produces no edge, and the runtime test layers stay
  the backstop.
* **What colour is a function** — ``async def`` vs sync, plus the
  *sync-boundary* annotation: a function whose ``def`` line (or the
  line above it) carries ``# reproflow: sync-boundary -- <reason>`` is
  a sanctioned place for blocking I/O, and path searches stop there.

Everything is pure stdlib and deterministic: same sources in, same
graph out, independent of dict iteration order (all adjacency lists are
sorted).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis._ast_utils import ImportMap, dotted_name
from repro.analysis.core import ModuleSource, Project

__all__ = [
    "FILE_HANDLE",
    "SYNC_BOUNDARY_RE",
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "module_dotted_name",
]

FunctionAst = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Pseudo-type assigned to names bound from ``open()`` / ``os.fdopen()``:
#: method calls on such receivers (``.write``, ``.flush``) are file I/O.
FILE_HANDLE = "<file-handle>"

#: A deliberate blocking choke point: ``# reproflow: sync-boundary -- reason``.
SYNC_BOUNDARY_RE = re.compile(
    r"#\s*reproflow:\s*sync-boundary(?:\s*(?:--|:)\s*(?P<reason>.*))?"
)

#: Builtins treated as call targets even though no import binds them.
_BUILTIN_CALLS = frozenset({"open", "print", "input"})

#: Constructors producing a file handle.
_FILE_FACTORIES = frozenset({"open", "os.fdopen", "io.open", "tempfile.NamedTemporaryFile"})


def module_dotted_name(package_path: str) -> str:
    """``repro/service/shards.py`` -> ``repro.service.shards``."""
    path = package_path
    if path.endswith("/__init__.py"):
        path = path[: -len("/__init__.py")]
    elif path.endswith(".py"):
        path = path[:-3]
    return path.replace("/", ".")


@dataclass
class FunctionInfo:
    """One function or method, with its resolved identity and colouring."""

    qualname: str
    module: ModuleSource
    node: FunctionAst
    is_async: bool
    cls: Optional[str] = None  # owning class qualname, if a method
    #: Reason text of a ``# reproflow: sync-boundary`` annotation
    #: (empty string for an annotation without a reason), or ``None``.
    sync_boundary: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno

    def __repr__(self) -> str:
        return f"FunctionInfo({self.qualname!r}, async={self.is_async})"


@dataclass
class ClassInfo:
    """One class: its methods, declared bases, and inferred attribute types."""

    qualname: str
    module: ModuleSource
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Base classes as resolved dotted names (best-effort).
    bases: List[str] = field(default_factory=list)
    #: ``self.<attr>`` -> inferred type (a class qualname or FILE_HANDLE).
    attr_types: Dict[str, str] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"ClassInfo({self.qualname!r}, methods={sorted(self.methods)})"


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site."""

    caller: str
    callee: str
    node: ast.Call
    internal: bool

    @property
    def line(self) -> int:
        return self.node.lineno


class _ModuleContext:
    """Per-module resolution context: imports + top-level symbol map."""

    def __init__(self, module: ModuleSource, dotted: str) -> None:
        self.module = module
        self.dotted = dotted
        assert module.tree is not None
        self.imports = ImportMap.from_tree(module.tree)
        #: top-level name -> function/class qualname in this module.
        self.top_level: Dict[str, str] = {}


class CallGraph:
    """The whole-program call graph over a :class:`Project`.

    Build once with :meth:`build`; every analysis shares the instance.
    """

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._contexts: Dict[str, _ModuleContext] = {}
        #: caller qualname -> outgoing edges, in source order.
        self.edges: Dict[str, List[CallEdge]] = {}
        #: caller qualname -> {id(call node) -> resolved target}.
        self._by_call_node: Dict[str, Dict[int, CallEdge]] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls()
        modules = sorted(
            (m for m in project if m.tree is not None),
            key=lambda m: m.package_path,
        )
        for module in modules:
            graph._register_module(module)
        for ctx in graph._contexts.values():
            graph._infer_class_attrs(ctx)
        for info in graph._functions_sorted():
            graph._build_edges(info)
        return graph

    def _functions_sorted(self) -> List[FunctionInfo]:
        return [self.functions[name] for name in sorted(self.functions)]

    def _register_module(self, module: ModuleSource) -> None:
        dotted = module_dotted_name(module.package_path)
        ctx = _ModuleContext(module, dotted)
        self._contexts[dotted] = ctx
        assert module.tree is not None
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(ctx, node, prefix=dotted, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._register_class(ctx, node)

    def _register_class(self, ctx: _ModuleContext, node: ast.ClassDef) -> None:
        qualname = f"{ctx.dotted}.{node.name}"
        info = ClassInfo(qualname=qualname, module=ctx.module, node=node)
        for base in node.bases:
            resolved = self._resolve_dotted(ctx, base)
            if resolved is not None:
                info.bases.append(resolved)
        self.classes[qualname] = info
        ctx.top_level[node.name] = qualname
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._register_function(ctx, item, prefix=qualname, cls=qualname)
                info.methods[item.name] = fn

    def _register_function(
        self,
        ctx: _ModuleContext,
        node: FunctionAst,
        prefix: str,
        cls: Optional[str],
    ) -> FunctionInfo:
        qualname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=ctx.module,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            cls=cls,
            sync_boundary=self._sync_boundary(ctx.module, node),
        )
        self.functions[qualname] = info
        if cls is None:
            ctx.top_level[node.name] = qualname
        # Nested defs become their own nodes under the parent's qualname.
        for inner in ast.walk(node):
            if inner is node:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._enclosing_def(node, inner) is node:
                    self._register_function(ctx, inner, prefix=qualname, cls=cls)
        return info

    @staticmethod
    def _enclosing_def(root: FunctionAst, target: ast.AST) -> Optional[ast.AST]:
        """The innermost def/class between ``root`` and ``target``."""
        enclosing: Optional[ast.AST] = None

        def visit(node: ast.AST, current: ast.AST) -> None:
            nonlocal enclosing
            for child in ast.iter_child_nodes(node):
                if child is target:
                    enclosing = current
                    return
                nxt = (
                    child
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    )
                    else current
                )
                visit(child, nxt)
                if enclosing is not None:
                    return

        visit(root, root)
        return enclosing

    @staticmethod
    def _sync_boundary(module: ModuleSource, node: FunctionAst) -> Optional[str]:
        for lineno in (node.lineno, node.lineno - 1):
            if 1 <= lineno <= len(module.lines):
                match = SYNC_BOUNDARY_RE.search(module.lines[lineno - 1])
                if match is not None:
                    return (match.group("reason") or "").strip()
        return None

    # -- type/annotation resolution --------------------------------------------

    def _resolve_dotted(self, ctx: _ModuleContext, expr: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted origin."""
        parts = dotted_name(expr)
        if not parts:
            return None
        base = parts[0]
        if base in ctx.top_level and len(parts) == 1:
            return ctx.top_level[base]
        origin = ctx.imports.resolve_name(base)
        if origin is not None:
            return ".".join([origin, *parts[1:]])
        if base in ctx.top_level:
            return ".".join([ctx.top_level[base], *parts[1:]])
        return None

    def resolve_in_module(self, module: ModuleSource, expr: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain against ``module``'s namespace.

        Public variant of :meth:`_resolve_dotted` for analyses that need
        to identify non-call references (raised exception classes,
        ``except`` handler types, module constants).
        """
        ctx = self._contexts.get(module_dotted_name(module.package_path))
        if ctx is None:
            return None
        return self._resolve_dotted(ctx, expr)

    def _resolve_annotation(self, ctx: _ModuleContext, expr: ast.AST) -> Optional[str]:
        """A type annotation -> class qualname (or FILE_HANDLE), best-effort."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                parsed = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
            return self._resolve_annotation(ctx, parsed)
        if isinstance(expr, (ast.Name, ast.Attribute)):
            resolved = self._resolve_dotted(ctx, expr)
            if resolved is not None and resolved in self.classes:
                return resolved
            if resolved in ("typing.TextIO", "typing.BinaryIO", "typing.IO"):
                return FILE_HANDLE
            return None
        if isinstance(expr, ast.Subscript):
            # Optional[X], List[X], "X | None" — first resolvable element wins.
            for child in ast.walk(expr.slice):
                if isinstance(child, (ast.Name, ast.Attribute)):
                    resolved = self._resolve_annotation(ctx, child)
                    if resolved is not None:
                        return resolved
            return None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            return self._resolve_annotation(ctx, expr.left) or self._resolve_annotation(
                ctx, expr.right
            )
        return None

    def _constructed_class(self, ctx: _ModuleContext, value: ast.AST) -> Optional[str]:
        """Type of ``value`` when it is a constructor or file-factory call."""
        if not isinstance(value, ast.Call):
            return None
        target = self._resolve_dotted(ctx, value.func)
        if target is None and isinstance(value.func, ast.Name):
            if value.func.id in _BUILTIN_CALLS:
                target = value.func.id
        if target is None:
            return None
        if target in _FILE_FACTORIES:
            return FILE_HANDLE
        if target in self.classes:
            return target
        return None

    def _infer_class_attrs(self, ctx: _ModuleContext) -> None:
        """Populate ``ClassInfo.attr_types`` from every method body."""
        for cls in self.classes.values():
            if cls.module is not ctx.module:
                continue
            for method in cls.methods.values():
                self_name = _self_name(method.node)
                if self_name is None:
                    continue
                for node in ast.walk(method.node):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.AST] = None
                    annotation: Optional[ast.AST] = None
                    if isinstance(node, ast.AnnAssign):
                        target, value, annotation = node.target, node.value, node.annotation
                    elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        continue
                    attr = target.attr
                    inferred: Optional[str] = None
                    if annotation is not None:
                        inferred = self._resolve_annotation(ctx, annotation)
                    if inferred is None and value is not None:
                        inferred = self._constructed_class(ctx, value)
                    if inferred is not None and attr not in cls.attr_types:
                        cls.attr_types[attr] = inferred

    # -- method lookup ---------------------------------------------------------

    def lookup_method(self, cls_qualname: str, name: str) -> Optional[FunctionInfo]:
        """Resolve ``name`` on a class, walking declared bases depth-first."""
        seen: Set[str] = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            stack.extend(cls.bases)
        return None

    # -- edge construction -----------------------------------------------------

    def _local_env(self, ctx: _ModuleContext, info: FunctionInfo) -> Dict[str, str]:
        """Parameter/local name -> type (class qualname or FILE_HANDLE)."""
        env: Dict[str, str] = {}
        args = info.node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if info.cls is not None and all_args:
            env[all_args[0].arg] = info.cls
        for arg in all_args:
            if arg.annotation is not None:
                resolved = self._resolve_annotation(ctx, arg.annotation)
                if resolved is not None:
                    env[arg.arg] = resolved
        for node in self._own_body_walk(info.node):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                resolved = self._resolve_annotation(ctx, node.annotation)
                if resolved is not None:
                    env.setdefault(node.target.id, resolved)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._constructed_class(ctx, node.value)
                    if inferred is not None:
                        env.setdefault(target.id, inferred)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                # ``for shard in self._shards`` — annotations record the
                # element type (List[AllocationShard] resolves to the
                # class), so the loop variable gets that type.
                element = self._type_of_simple(ctx, env, node.iter)
                if element is not None:
                    env.setdefault(node.target.id, element)
            elif isinstance(node, ast.withitem) and isinstance(
                node.optional_vars, ast.Name
            ):
                # ``with open(path) as handle`` — the bound name takes the
                # constructed type (usually FILE_HANDLE).
                inferred = self._constructed_class(ctx, node.context_expr)
                if inferred is not None:
                    env.setdefault(node.optional_vars.id, inferred)
        return env

    def _type_of_simple(
        self, ctx: _ModuleContext, env: Dict[str, str], expr: ast.AST
    ) -> Optional[str]:
        """Type of a Name / ``self.attr`` / constructor expression."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            base_type = env.get(expr.value.id)
            if base_type is not None and base_type in self.classes:
                return self.classes[base_type].attr_types.get(expr.attr)
            return None
        if isinstance(expr, ast.Call):
            return self._constructed_class(ctx, expr)
        return None

    @staticmethod
    def _own_body_walk(fn: FunctionAst) -> Iterator[ast.AST]:
        """Walk a function body without descending into nested defs."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _type_of(
        self,
        ctx: _ModuleContext,
        info: FunctionInfo,
        env: Dict[str, str],
        expr: ast.AST,
    ) -> Optional[str]:
        return self._type_of_simple(ctx, env, expr)

    def _resolve_call(
        self,
        ctx: _ModuleContext,
        info: FunctionInfo,
        env: Dict[str, str],
        local_defs: Dict[str, str],
        call: ast.Call,
    ) -> Optional[Tuple[str, bool]]:
        """Resolve one call to ``(target, internal)`` or ``None``."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in local_defs:
                return local_defs[name], True
            if name in ctx.top_level:
                target = ctx.top_level[name]
                return self._constructor_or_function(target)
            origin = ctx.imports.resolve_name(name)
            if origin is not None:
                return self._constructor_or_function(origin)
            if name in _BUILTIN_CALLS:
                return name, False
            return None
        if isinstance(func, ast.Attribute):
            receiver_type = self._type_of(ctx, info, env, func.value)
            if receiver_type == FILE_HANDLE:
                return f"{FILE_HANDLE}.{func.attr}", False
            if receiver_type is not None and receiver_type in self.classes:
                method = self.lookup_method(receiver_type, func.attr)
                if method is not None:
                    return method.qualname, True
                return f"{receiver_type}.{func.attr}", False
            dotted = self._resolve_dotted(ctx, func)
            if dotted is not None:
                return self._constructor_or_function(dotted)
            return None
        return None

    def _constructor_or_function(self, target: str) -> Tuple[str, bool]:
        if target in self.functions:
            return target, True
        if target in self.classes:
            init = self.lookup_method(target, "__init__")
            if init is not None:
                return init.qualname, True
            return target, True  # class without __init__: edge to the class
        if target in _FILE_FACTORIES:
            return target, False
        return target, False

    def _build_edges(self, info: FunctionInfo) -> None:
        ctx = self._contexts[module_dotted_name(info.module.package_path)]
        env = self._local_env(ctx, info)
        local_defs: Dict[str, str] = {}
        for child in ast.iter_child_nodes(info.node):
            for node in ast.walk(child):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested = f"{info.qualname}.{node.name}"
                    if nested in self.functions:
                        local_defs.setdefault(node.name, nested)
        edges: List[CallEdge] = []
        for node in self._own_body_walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve_call(ctx, info, env, local_defs, node)
            if resolved is None:
                continue
            target, internal = resolved
            edges.append(
                CallEdge(caller=info.qualname, callee=target, node=node, internal=internal)
            )
        edges.sort(key=lambda e: (e.node.lineno, e.node.col_offset, e.callee))
        self.edges[info.qualname] = edges
        self._by_call_node[info.qualname] = {id(edge.node): edge for edge in edges}

    # -- queries ---------------------------------------------------------------

    def outgoing(self, qualname: str) -> Sequence[CallEdge]:
        return self.edges.get(qualname, ())

    def edge_for_call(self, caller: str, call: ast.Call) -> Optional[CallEdge]:
        return self._by_call_node.get(caller, {}).get(id(call))

    def signature(self) -> Tuple[Tuple[str, str, bool], ...]:
        """Order-independent structural fingerprint (for stability tests)."""
        rows: Set[Tuple[str, str, bool]] = set()
        for edges in self.edges.values():
            for edge in edges:
                rows.add((edge.caller, edge.callee, edge.internal))
        return tuple(sorted(rows))


def _self_name(fn: FunctionAst) -> Optional[str]:
    args = [*fn.args.posonlyargs, *fn.args.args]
    return args[0].arg if args else None
