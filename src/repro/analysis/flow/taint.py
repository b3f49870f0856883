"""F3 ``taint-lane``: wall-clock/RNG values must not reach durable lanes.

The local rule R1 rejects wall-clock *call sites* in the packages where
they are banned outright.  F3 covers the lanes where the ban is about
*where the value ends up*: a ``time.time()`` or ``uuid.uuid4()`` read
is fine for pacing or logging, but the moment the value flows into a
``state_dict()`` return, a WAL frame payload, or a wire protocol
response, replays stop being bit-identical.

The engine is a flow-insensitive interprocedural taint analysis with
callee summaries: per function it tracks which locals/attributes carry
values originating at a source call, and summarises (a) which taint
reaches the return value and (b) which parameters flow into a sink.
Summaries propagate over the call graph to a fixpoint, so a source in
``__init__`` stored on ``self`` and encoded onto the wire three calls
later is still caught.  Findings are anchored at the **source** call
site — one ``# reprolint: disable=F3`` pragma (with a reason) at the
source silences every lane it feeds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.core import Finding, ModuleSource, Project, Rule, register_rule
from repro.analysis.flow.graph import CallGraph, FunctionInfo
from repro.analysis.rules.determinism import CLOCK_CALLS

__all__ = ["SINK_CALLS", "SOURCE_CALLS", "TaintLaneAnalysis"]

#: Method names that draw from (and therefore advance) an RNG stream.
RNG_DRAW_METHODS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "exponential",
        "gauss",
        "integers",
        "lognormvariate",
        "normal",
        "normalvariate",
        "paretovariate",
        "poisson",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "standard_normal",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Fully-qualified calls whose return value is tainted (the clock reads
#: shared with R1, plus identity/entropy reads; RNG draws match by name).
SOURCE_CALLS = frozenset(CLOCK_CALLS) | frozenset(
    {"uuid.uuid1", "uuid.uuid4", "os.urandom"}
)

#: Call targets that are durable/wire lanes: any tainted argument is a
#: violation.
SINK_CALLS: Dict[str, str] = {
    "repro.checkpoint.JournalWriter.append": "WAL frame payload (JournalWriter.append)",
    "repro.checkpoint.JournalWriter.append_many": (
        "WAL frame payload (JournalWriter.append_many)"
    ),
    "repro.checkpoint.append_jsonl": "WAL frame payload (append_jsonl)",
    "repro.checkpoint.encode_frame": "WAL frame payload (encode_frame)",
    "repro.service.protocol.encode": "wire payload (protocol.encode)",
    "repro.service.protocol.ok_response": "wire response (ok_response)",
    "repro.service.protocol.error_response": "wire response (error_response)",
}


@dataclass(frozen=True, order=True)
class _Src:
    """A concrete taint origin: one source call site."""

    path: str
    line: int
    col: int
    label: str


@dataclass(frozen=True, order=True)
class _Param:
    """Symbolic origin: taint entering through parameter ``index``."""

    index: int


Origin = Union[_Src, _Param]


@dataclass(frozen=True, order=True)
class _Sink:
    """One lane a tainted value reached."""

    label: str
    path: str
    line: int


@dataclass
class _Summary:
    """What a function does with taint, as seen by its callers."""

    returns: Set[Origin]
    sinks: Set[Tuple[int, _Sink]]

    def snapshot(self) -> Tuple[object, object]:
        return (frozenset(self.returns), frozenset(self.sinks))


def _is_source(target: Optional[str]) -> Optional[str]:
    """Short label if ``target`` is a taint source, else ``None``."""
    if target is None:
        return None
    if target in SOURCE_CALLS:
        return target
    if target.startswith("secrets."):
        return target
    if target.startswith("random."):
        tail = target.rsplit(".", 1)[-1]
        if tail in RNG_DRAW_METHODS or tail in {"getrandbits", "randbytes"}:
            return target
    if target.startswith("numpy.random."):
        tail = target.rsplit(".", 1)[-1]
        if tail in RNG_DRAW_METHODS:
            return target
    return None


@register_rule
class TaintLaneAnalysis(Rule):
    id = "F3"
    name = "taint-lane"
    description = (
        "wall-clock / unseeded-RNG values flowing into state_dict() "
        "returns, WAL frame payloads, or protocol responses"
    )

    MAX_ROUNDS = 30

    def run(self, project: Project, graph: CallGraph) -> Iterable[Finding]:
        engine = _TaintEngine(graph)
        engine.solve()
        modules: Dict[str, ModuleSource] = {m.path: m for m in project}
        for src, sink in sorted(engine.findings):
            module = modules.get(src.path)
            if module is None:  # pragma: no cover - source is always scanned
                continue
            yield self.finding(
                module,
                src.line,
                f"nondeterministic value from `{src.label}()` flows into "
                f"{sink.label} at {sink.path}:{sink.line}; derive it from "
                "seeded/logical state or suppress at this source with a reason",
            )


class _TaintEngine:
    """Interprocedural fixpoint over function summaries + attr taint."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, _Summary] = {
            q: _Summary(returns=set(), sinks=set()) for q in graph.functions
        }
        #: ``(class_qualname, attr)`` -> concrete origins stored there.
        self.attr_taint: Dict[Tuple[str, str], Set[_Src]] = {}
        self.findings: Set[Tuple[_Src, _Sink]] = set()

    def solve(self) -> None:
        order = sorted(self.graph.functions)
        for _ in range(TaintLaneAnalysis.MAX_ROUNDS):
            before = (
                tuple(self.summaries[q].snapshot() for q in order),
                tuple(sorted((k, frozenset(v)) for k, v in self.attr_taint.items())),
            )
            for qualname in order:
                self._analyze(self.graph.functions[qualname], report=False)
            after = (
                tuple(self.summaries[q].snapshot() for q in order),
                tuple(sorted((k, frozenset(v)) for k, v in self.attr_taint.items())),
            )
            if after == before:
                break
        for qualname in order:
            self._analyze(self.graph.functions[qualname], report=True)

    # -- per-function analysis -------------------------------------------------

    def _analyze(self, info: FunctionInfo, report: bool) -> None:
        fn = _FunctionPass(self, info, report)
        fn.run()
        summary = self.summaries[info.qualname]
        summary.returns |= fn.returns
        summary.sinks |= fn.sinks


class _FunctionPass:
    """One flow-insensitive pass over a single function body."""

    def __init__(self, engine: _TaintEngine, info: FunctionInfo, report: bool) -> None:
        self.engine = engine
        self.graph = engine.graph
        self.info = info
        self.report = report
        self.returns: Set[Origin] = set()
        self.sinks: Set[Tuple[int, _Sink]] = set()
        args = info.node.args
        self.params: List[str] = [
            a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        ]
        self.env: Dict[str, Set[Origin]] = {
            name: {_Param(i)} for i, name in enumerate(self.params)
        }
        self.self_name: Optional[str] = (
            self.params[0] if info.cls is not None and self.params else None
        )

    def run(self) -> None:
        statements = [
            node
            for node in self.graph._own_body_walk(self.info.node)
            if isinstance(node, (ast.stmt, ast.withitem))
        ]
        for _ in range(6):
            before = {name: set(taints) for name, taints in self.env.items()}
            for node in statements:
                self._statement(node)
            if self.env == before:
                break

    # -- statements ------------------------------------------------------------

    def _statement(self, node: Union[ast.stmt, ast.withitem]) -> None:
        if isinstance(node, ast.Assign):
            taint = self._expr(node.value)
            for target in node.targets:
                self._assign(target, taint)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._expr(node.value))
        elif isinstance(node, ast.AugAssign):
            self._assign(node.target, self._expr(node.value), augment=True)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                taint = self._expr(node.value)
                self.returns |= taint
                if self.info.name == "state_dict":
                    sink = _Sink(
                        label="a state_dict() return",
                        path=self.info.module.path,
                        line=node.lineno,
                    )
                    self._hit_sink(taint, sink)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._assign(node.target, self._expr(node.iter))
        elif isinstance(node, ast.withitem):
            taint = self._expr(node.context_expr)
            if node.optional_vars is not None:
                self._assign(node.optional_vars, taint)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _assign(
        self, target: ast.expr, taint: Set[Origin], augment: bool = False
    ) -> None:
        del augment  # |= below is already additive (flow-insensitive)
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taint)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint)
        elif isinstance(target, ast.Subscript):
            # Storing a tainted element taints the container.
            self._expr(target.slice)
            self._assign(target.value, taint)
        elif isinstance(target, ast.Attribute):
            if (
                self.self_name is not None
                and isinstance(target.value, ast.Name)
                and target.value.id == self.self_name
                and self.info.cls is not None
            ):
                concrete = {o for o in taint if isinstance(o, _Src)}
                if concrete:
                    key = (self.info.cls, target.attr)
                    self.engine.attr_taint.setdefault(key, set()).update(concrete)
            else:
                self._expr(target.value)

    # -- expressions -----------------------------------------------------------

    def _expr(self, expr: ast.expr) -> Set[Origin]:
        if isinstance(expr, ast.Name):
            return set(self.env.get(expr.id, ()))
        if isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Attribute):
            taint: Set[Origin] = set(self._expr(expr.value))
            if (
                self.self_name is not None
                and isinstance(expr.value, ast.Name)
                and expr.value.id == self.self_name
                and self.info.cls is not None
            ):
                taint |= self.engine.attr_taint.get((self.info.cls, expr.attr), set())
            return taint
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Await):
            return self._expr(expr.value)
        result: Set[Origin] = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                result |= self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._assign(child.target, self._expr(child.iter))
                for cond in child.ifs:
                    self._expr(cond)
        return result

    def _call(self, call: ast.Call) -> Set[Origin]:
        edge = self.graph.edge_for_call(self.info.qualname, call)
        target = edge.callee if edge is not None else None
        internal = edge.internal if edge is not None else False

        receiver_taint: Optional[Set[Origin]] = None
        if isinstance(call.func, ast.Attribute):
            receiver_taint = self._expr(call.func.value)
        elif not isinstance(call.func, ast.Name):
            receiver_taint = self._expr(call.func)

        positional: List[Set[Origin]] = []
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                positional.append(self._expr(arg.value))
            else:
                positional.append(self._expr(arg))
        keyword_taints: Dict[str, Set[Origin]] = {}
        spilled: Set[Origin] = set()
        for kw in call.keywords:
            taint = self._expr(kw.value)
            if kw.arg is None:
                spilled |= taint
            else:
                keyword_taints[kw.arg] = taint
        all_args: Set[Origin] = set().union(*positional) if positional else set()
        for taint in keyword_taints.values():
            all_args |= taint
        all_args |= spilled
        if receiver_taint:
            all_args |= receiver_taint

        source = _is_source(target)
        if source is not None:
            origin = _Src(
                path=self.info.module.path,
                line=call.lineno,
                col=call.col_offset,
                label=source,
            )
            return all_args | {origin}

        if target is not None and target in SINK_CALLS:
            sink = _Sink(
                label=SINK_CALLS[target],
                path=self.info.module.path,
                line=call.lineno,
            )
            for taint in [*positional, *keyword_taints.values(), spilled]:
                self._hit_sink(taint, sink)
            return all_args

        if internal and target is not None and target in self.engine.summaries:
            return self._internal_call(
                call, target, receiver_taint, positional, keyword_taints
            )

        # Unknown/external call: taint flows through conservatively.
        return all_args

    def _internal_call(
        self,
        call: ast.Call,
        target: str,
        receiver_taint: Optional[Set[Origin]],
        positional: Sequence[Set[Origin]],
        keyword_taints: Dict[str, Set[Origin]],
    ) -> Set[Origin]:
        callee = self.graph.functions[target]
        summary = self.engine.summaries[target]
        bound = callee.cls is not None and isinstance(call.func, ast.Attribute)
        # Parameter-index -> caller taint for this call.
        by_index: Dict[int, Set[Origin]] = {}
        offset = 1 if bound else 0
        if bound and receiver_taint is not None:
            by_index[0] = set(receiver_taint)
        for i, taint in enumerate(positional):
            by_index.setdefault(i + offset, set()).update(taint)
        callee_params = [
            a.arg
            for a in [
                *callee.node.args.posonlyargs,
                *callee.node.args.args,
                *callee.node.args.kwonlyargs,
            ]
        ]
        for name, taint in keyword_taints.items():
            if name in callee_params:
                by_index.setdefault(callee_params.index(name), set()).update(taint)

        for index, sink in summary.sinks:
            self._hit_sink(by_index.get(index, set()), sink)

        result: Set[Origin] = set()
        for origin in summary.returns:
            if isinstance(origin, _Param):
                result |= by_index.get(origin.index, set())
            else:
                result.add(origin)
        return result

    # -- sinks -----------------------------------------------------------------

    def _hit_sink(self, taint: Set[Origin], sink: _Sink) -> None:
        for origin in taint:
            if isinstance(origin, _Src):
                if self.report:
                    self.engine.findings.add((origin, sink))
            else:
                self.sinks.add((origin.index, sink))
