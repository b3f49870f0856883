"""Whole-program rules over ``src/repro``, on one shared call graph.

The per-module rules in :mod:`repro.analysis.rules` catch local
violations; the conventions the allocation service lives by — no
blocking I/O on the event loop, no wall-clock/RNG taint in durable
payloads, a drift-free wire vocabulary — are *interprocedural*.  This
package builds a project-wide symbol table and call graph
(:mod:`repro.analysis.flow.graph`) and registers three rules that walk
it, with the same base class, registry, pragmas and runner as the
per-module ones:

===  =====================  ====================================================
F1   ``loop-blocking``      blocking primitives reachable from ``async def``
                            functions in ``repro.service`` outside the
                            sanctioned sync-boundary set
F3   ``taint-lane``         wall-clock / unseeded-RNG values flowing into
                            ``state_dict()`` returns, WAL payloads, or wire
                            responses (callee-summary propagation)
F5   ``protocol-drift``     wire op vocabulary drift between ``protocol.py``,
                            server dispatch, the client SDKs, and SERVICE.md
===  =====================  ====================================================

Deliberate synchronous choke points carry a
``# reproflow: sync-boundary -- <reason>`` annotation, which F1 never
descends past (see ``docs/ANALYSIS.md``).
"""

from __future__ import annotations

from repro.analysis.flow import blocking, drift, taint  # noqa: F401  (import registers)
from repro.analysis.flow.graph import CallEdge, CallGraph, ClassInfo, FunctionInfo

__all__ = ["CallEdge", "CallGraph", "ClassInfo", "FunctionInfo"]
