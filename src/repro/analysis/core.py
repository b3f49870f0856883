"""Core model of the repo's static-analysis lane.

The repo's reproducibility story (bit-identical parallel grids,
digest-verified resume, golden traces, a service that replays exactly)
rests on whole-repo coding invariants — no wall-clock reads in the
simulation, paired ``state_dict``/``load_state``, atomic artifact
writes, no blocking I/O on the event loop, no clock taint in durable
payloads.  This module defines the vocabulary every analyzer speaks:

``Finding``
    One violation: file, line, column, rule id, severity, message.
``Rule``
    Base class of every analyzer, per-module (``R…``) and whole-program
    (``F…``) alike; concrete rules register themselves with
    :func:`register_rule` and implement :meth:`Rule.run`.
``ModuleSource`` / ``Project``
    A parsed source file (with its suppression pragmas) and the set of
    files analyzed together, plus the documents doc-aware rules read.

Suppression uses inline pragmas, the one exemption mechanism::

    risky_call()  # reprolint: disable=R4  # reason for the exemption

``disable=`` accepts a comma-separated list of rule ids (``R4``), rule
names (``raw-artifact-write``), or ``all``.  A trailing pragma
suppresses findings reported on its own line; a pragma on a
standalone comment line also covers the line below it (for statements
too long to carry the comment).

The framework is deliberately stdlib-only so the lint lane needs no
third-party installs beyond the interpreter.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - the graph module imports this one
    from repro.analysis.flow.graph import CallGraph

__all__ = [
    "Finding",
    "ModuleSource",
    "Project",
    "Rule",
    "Severity",
    "all_rules",
    "format_pragma",
    "get_rule",
    "parse_pragma",
    "register_rule",
    "split_source_root",
]


class Severity(str, Enum):
    """How bad a finding is; both levels gate the lint lane."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """A single rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    name: str
    severity: Severity
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable identity (the SARIF ``fingerprints`` entry)."""
        return f"{self.path}:{self.rule}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity.value,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}[{self.name}] {self.severity.value}: {self.message}"
        )

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


# -- pragmas ---------------------------------------------------------------------------

#: Matches ``# reprolint: disable=R1,raw-artifact-write`` anywhere in a line.
PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)

#: Token that suppresses every rule on the line.
ALL_RULES = "all"


def parse_pragma(line: str) -> Optional[FrozenSet[str]]:
    """Extract the suppressed rule tokens from one source line.

    Returns ``None`` when the line carries no pragma, otherwise the
    (lower-cased) set of rule ids/names.  ``disable=all`` yields the
    special token :data:`ALL_RULES`.
    """
    match = PRAGMA_RE.search(line)
    if match is None:
        return None
    tokens = {tok.strip().lower() for tok in match.group("rules").split(",")}
    return frozenset(tok for tok in tokens if tok)


def format_pragma(rules: Sequence[str]) -> str:
    """Render a pragma comment suppressing ``rules`` (inverse of parse)."""
    if not rules:
        raise ValueError("cannot format a pragma with no rules")
    return "# reprolint: disable=" + ",".join(rules)


# -- source model ----------------------------------------------------------------------


def split_source_root(path: str) -> Tuple[Optional[str], str]:
    """``(checkout root, package path)`` of a source file.

    The cut is at the *innermost* ``src/`` component that holds
    ``repro/``, so ``/w/src/co/src/repro/sim/engine.py`` is
    ``("/w/src/co", "repro/sim/engine.py")`` whichever directory the
    scan started from.  A path with no ``src/repro`` (an in-memory
    fixture such as ``repro/sim/mod.py``) is its own package path and
    has no root.
    """
    parts = path.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return "/".join(parts[:i]) or ("/" if i else "."), "/".join(parts[i + 1 :])
    return None, "/".join(parts)


class ModuleSource:
    """One parsed Python file plus its suppression pragmas.

    ``path`` is how the file is reported; ``package_path`` is the
    import-root-relative path rules scope on (``repro/sim/engine.py``
    regardless of whether the tree was scanned as ``src/repro/...``).
    """

    def __init__(self, path: str, text: str, package_path: Optional[str] = None) -> None:
        self.path = path.replace("\\", "/")
        self.text = text
        self.package_path = package_path or split_source_root(self.path)[1]
        self.lines: List[str] = text.splitlines()
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(text, filename=self.path)
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = exc
        self._disabled: Dict[int, FrozenSet[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            tokens = parse_pragma(line)
            if tokens is None:
                continue
            self._disabled[lineno] = self._disabled.get(lineno, frozenset()) | tokens
            if line.lstrip().startswith("#"):
                # A standalone comment-line pragma also covers the next line.
                self._disabled[lineno + 1] = self._disabled.get(lineno + 1, frozenset()) | tokens

    def suppressed(self, line: int, rule_id: str, rule_name: str) -> bool:
        """True when a pragma on ``line`` disables the given rule."""
        tokens = self._disabled.get(line)
        if tokens is None:
            return False
        return ALL_RULES in tokens or rule_id.lower() in tokens or rule_name.lower() in tokens

    def in_package(self, *prefixes: str) -> bool:
        """True when this module lives under any of the package prefixes."""
        return any(
            self.package_path == p or self.package_path.startswith(p.rstrip("/") + "/")
            for p in prefixes
        )

    def __repr__(self) -> str:
        return f"ModuleSource({self.path!r})"


class Project:
    """The modules analyzed together, and the documents beside them.

    ``docs`` maps a checkout-relative document path (``docs/SERVICE.md``)
    to its text; a document the scanned tree does not have is absent.
    """

    def __init__(
        self, modules: Iterable[ModuleSource], docs: Optional[Dict[str, str]] = None
    ) -> None:
        self.modules: List[ModuleSource] = list(modules)
        self.docs: Dict[str, str] = dict(docs or {})
        self._by_package: Dict[str, ModuleSource] = {m.package_path: m for m in self.modules}

    def get(self, package_path: str) -> Optional[ModuleSource]:
        return self._by_package.get(package_path)

    def parsed(self, *prefixes: str) -> Iterator[Tuple[ModuleSource, ast.Module]]:
        """``(module, tree)`` of each parsed module under any of ``prefixes`` (all if none)."""
        for module in self.modules:
            if module.tree is not None and (not prefixes or module.in_package(*prefixes)):
                yield module, module.tree

    def __iter__(self) -> Iterator[ModuleSource]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


# -- rules -----------------------------------------------------------------------------


class Rule(abc.ABC):
    """Base class of every analyzer.

    Subclasses set the class attributes and yield :class:`Finding`
    objects from :meth:`run`.  Rules must be deterministic and
    side-effect free: same project in, same findings out.  Pragma
    suppression is applied by the runner, so ``run`` reports
    everything it sees.
    """

    #: Short stable identifier (``R1``, ``F3``); used in pragmas.
    id: str = ""
    #: Human-readable kebab-case name, also accepted in pragmas.
    name: str = ""
    severity: Severity = Severity.ERROR
    #: One-line description shown by ``--list-rules`` and the docs.
    description: str = ""

    @abc.abstractmethod
    def run(self, project: Project, graph: "CallGraph") -> Iterable[Finding]:
        """Yield findings for the project (``graph`` is its shared call graph)."""

    def finding(
        self,
        module: ModuleSource,
        node: Union[ast.AST, int],
        message: str,
    ) -> Finding:
        """Build a finding anchored at ``node`` (or a bare line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            path=module.path,
            line=line,
            col=col,
            rule=self.id,
            name=self.name,
            severity=self.severity,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    if not issubclass(cls, Rule):
        raise TypeError(f"{cls!r} is not a Rule subclass")
    instance = cls()
    if not instance.id or not instance.name:
        raise ValueError(f"{cls.__name__} must define non-empty id and name")
    for existing in _REGISTRY.values():
        if existing.id == instance.id or existing.name == instance.name:
            raise ValueError(
                f"duplicate rule registration: {instance.id}/{instance.name} "
                f"collides with {existing.id}/{existing.name}"
            )
    _REGISTRY[instance.id] = instance
    return cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, ordered by id (F1, …, R1, …)."""
    _ensure_builtin_rules()
    return tuple(sorted(_REGISTRY.values(), key=lambda r: (len(r.id), r.id)))


def get_rule(token: str) -> Optional[Rule]:
    """Look a rule up by id or name (case-insensitive)."""
    _ensure_builtin_rules()
    token = token.lower()
    for rule in _REGISTRY.values():
        if rule.id.lower() == token or rule.name.lower() == token:
            return rule
    return None


def _ensure_builtin_rules() -> None:
    """Import the analyzer packages so their ``register_rule`` calls run."""
    from repro.analysis import flow as _flow  # noqa: F401  (import registers)
    from repro.analysis import rules as _rules  # noqa: F401  (import registers)
