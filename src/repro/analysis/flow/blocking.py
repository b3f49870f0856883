"""F1 ``loop-blocking``: blocking primitives reachable from the event loop.

The allocation daemon is a single asyncio process; one synchronous
``os.fsync`` on the event loop stalls *every* connection and shard.  The
service survives because blocking I/O is confined to a small set of
deliberate choke points (the WAL group commit, the quiesced snapshot
cut, startup recovery) — each annotated in source with
``# reproflow: sync-boundary -- <reason>``.

F1 proves the confinement: starting from every ``async def`` in
``repro.service``, it walks the call graph (never descending into a
sync-boundary function) and flags any reachable call to a blocking
primitive — ``os.fsync``, ``time.sleep``, ``subprocess``, ``open``, or
``write``/``flush`` on a file handle — with the path that reaches it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Finding, Project, Rule, register_rule
from repro.analysis.flow.graph import FILE_HANDLE, CallGraph

__all__ = ["BLOCKING_CALLS", "FILE_BLOCKING_METHODS", "LoopBlockingAnalysis"]

#: External call targets that block the calling thread.
BLOCKING_CALLS = frozenset(
    {
        "os.fsync",
        "os.fdatasync",
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "open",
        "io.open",
        "os.fdopen",
        "tempfile.NamedTemporaryFile",
        "tempfile.mkstemp",
    }
)

#: Methods on a file handle that perform blocking I/O.
FILE_BLOCKING_METHODS = frozenset({"write", "writelines", "flush"})


@register_rule
class LoopBlockingAnalysis(Rule):
    id = "F1"
    name = "loop-blocking"
    description = (
        "blocking I/O primitives reachable from async service functions "
        "outside annotated sync boundaries"
    )

    #: Package prefix whose ``async def`` functions root the search.
    ASYNC_ROOT_PACKAGE = "repro/service"

    def run(self, project: Project, graph: CallGraph) -> Iterable[Finding]:
        roots = sorted(
            info.qualname
            for info in graph.functions.values()
            if info.is_async
            and info.module.in_package(self.ASYNC_ROOT_PACKAGE)
            and info.sync_boundary is None
        )
        # BFS with a parent map so every finding can show one example
        # path from an async root to the blocking call.
        parent: Dict[str, Optional[str]] = {}
        queue: "deque[str]" = deque()
        for root in roots:
            if root not in parent:
                parent[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for edge in graph.outgoing(current):
                if not edge.internal or edge.callee in parent:
                    continue
                callee_info = graph.functions.get(edge.callee)
                if callee_info is not None and callee_info.sync_boundary is not None:
                    continue  # sanctioned choke point: do not descend
                parent[edge.callee] = current
                queue.append(edge.callee)

        seen_sites: Set[Tuple[str, int, int]] = set()
        for qualname in sorted(parent):
            info = graph.functions.get(qualname)
            if info is None:
                continue
            for edge in graph.outgoing(qualname):
                if edge.internal or not self._is_blocking(edge.callee):
                    continue
                site = (info.module.path, edge.node.lineno, edge.node.col_offset)
                if site in seen_sites:
                    continue
                seen_sites.add(site)
                chain = self._chain(parent, qualname)
                yield self.finding(
                    info.module,
                    edge.node,
                    f"blocking call `{self._label(edge.callee)}` runs on the "
                    f"event loop via {' -> '.join(chain)}; route it through "
                    "asyncio.to_thread or annotate the containing function "
                    "with `# reproflow: sync-boundary -- <reason>`",
                )

    @staticmethod
    def _is_blocking(target: str) -> bool:
        if target in BLOCKING_CALLS:
            return True
        prefix = FILE_HANDLE + "."
        return target.startswith(prefix) and target[len(prefix) :] in FILE_BLOCKING_METHODS

    @staticmethod
    def _label(target: str) -> str:
        prefix = FILE_HANDLE + "."
        if target.startswith(prefix):
            return f"<file>.{target[len(prefix):]}"
        return target

    @staticmethod
    def _chain(parent: Dict[str, Optional[str]], qualname: str) -> List[str]:
        chain = [qualname]
        current = qualname
        while True:
            upstream = parent.get(current)
            if upstream is None:
                break
            chain.append(upstream)
            current = upstream
        chain.reverse()
        return chain
