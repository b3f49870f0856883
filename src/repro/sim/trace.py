"""Canonical event traces: record what a run *did*, reproducibly.

The simulator's determinism guarantee ("same seeds, same run") is only
enforceable if a run's behaviour can be serialized canonically.  A
:class:`TraceRecorder` subscribes to a manager's event stream and
renders every scheduling decision — dispatches, completions, kills,
evictions, worker churn and quarantines — as one text line with exact
(``repr``-based) float formatting, so two runs are behaviourally
identical exactly when their traces are byte-identical.

Uses:

* **Golden-trace regression tests** (``tests/golden/``): canonical
  seeded runs are committed as text; a refactor that silently changes
  scheduling or retry semantics flips bytes in the replayed trace and
  fails the suite.
* **Replay determinism checks**: the churn property tests compare
  traces across two runs from the same seeds.
* **Debugging**: a trace diff pinpoints the first divergent decision
  between two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping

from repro.core.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.sim.manager import WorkflowManager

__all__ = ["SimEvent", "TraceRecorder", "format_event"]


@dataclass(frozen=True)
class SimEvent:
    """One manager-level event: a kind plus its payload fields."""

    time: float
    kind: str
    fields: Mapping[str, object]


def _format_value(value: object) -> str:
    if isinstance(value, ResourceVector):
        return "|".join(
            f"{res.key}:{value[res]!r}"
            for res in sorted(value, key=lambda r: r.key)
        )
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def format_event(event: SimEvent) -> str:
    """Render one event as its canonical single-line form."""
    parts = [f"t={event.time!r}", event.kind]
    parts.extend(f"{key}={_format_value(value)}" for key, value in event.fields.items())
    return " ".join(parts)


class TraceRecorder:
    """Accumulates a manager's event stream as canonical text lines.

    >>> from repro.sim.trace import TraceRecorder   # doctest: +SKIP
    >>> recorder = TraceRecorder(manager)           # doctest: +SKIP
    >>> manager.run()                               # doctest: +SKIP
    >>> print(recorder.text())                      # doctest: +SKIP
    """

    def __init__(self, manager: "WorkflowManager") -> None:
        self.lines: List[str] = []
        manager.add_event_listener(self._record)

    def _record(self, event: SimEvent) -> None:
        self.lines.append(format_event(event))

    def text(self) -> str:
        """The full trace, one event per line, trailing newline."""
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def __len__(self) -> int:
        return len(self.lines)
