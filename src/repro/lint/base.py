"""Core abstractions of the repo-specific linter.

A :class:`Rule` inspects one parsed module (an :mod:`ast` tree) together
with a :class:`FileContext` describing where the file sits in the repo —
library code under ``src/repro``, test code, CLI entry module — and emits
:class:`Violation` records.  Rules are self-describing: each carries a
stable ``rule_id``, a human rationale, and a pair of fixture snippets
(``violating_example`` / ``clean_example``) that double as executable
documentation and as the positive/negative cases of the rule's tests.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import ClassVar

#: The one subpackage that may read the wall clock: ``Tracer.span``
#: stamps each span's ``wall_ms``.  Every other library module reports
#: the simulated ``CostModel`` clock only (REPRO002).
WALL_CLOCK_SUBPACKAGE = "telemetry"

#: Module basenames treated as CLI entry points, exempt from the
#: library-hygiene rule (REPRO004): user-facing output via ``print`` is
#: their job.
CLI_BASENAMES = frozenset({"__main__.py", "cli.py"})


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location.

    Attributes:
        path: the file's display path (as passed to the linter).
        line: 1-based source line.
        col: 0-based source column.
        rule_id: the emitting rule's stable identifier (``REPROxxx``).
        message: human-readable description of the violation.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """Format as a ``path:line:col: RULE message`` diagnostic line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Where a module sits in the repository, as rules care about it.

    Attributes:
        display_path: the path shown in diagnostics.
        module_parts: dotted-module path components relative to the
            ``repro`` package root (``("repro", "core", "tmerge")``), or an
            empty tuple for files outside the library.
        is_test: whether the file lives under ``tests``/``benchmarks`` or
            is named ``test_*.py``/``conftest.py``.
    """

    display_path: str
    module_parts: tuple[str, ...] = ()
    is_test: bool = False

    @property
    def is_library(self) -> bool:
        """True for modules inside the ``repro`` package (library code)."""
        return bool(self.module_parts) and self.module_parts[0] == "repro"

    @property
    def basename(self) -> str:
        """The file's basename (``tmerge.py``)."""
        return PurePosixPath(self.display_path.replace("\\", "/")).name

    @property
    def is_init(self) -> bool:
        """True for package ``__init__.py`` modules."""
        return self.basename == "__init__.py"

    @property
    def is_cli(self) -> bool:
        """True for CLI entry modules (``__main__.py``, ``cli.py``)."""
        return self.basename in CLI_BASENAMES

    @property
    def subpackage(self) -> str | None:
        """The first-level subpackage name (``core`` for
        ``repro.core.tmerge``), or ``None`` outside the library."""
        if self.is_library and len(self.module_parts) >= 2:
            return self.module_parts[1]
        return None

    @property
    def is_cost_path(self) -> bool:
        """True for library modules on the simulated-cost path: every one
        outside :data:`WALL_CLOCK_SUBPACKAGE`."""
        return self.is_library and self.subpackage != WALL_CLOCK_SUBPACKAGE


def context_for_path(display_path: str) -> FileContext:
    """Classify ``display_path`` into a :class:`FileContext`.

    The classifier is purely lexical so it works identically on real repo
    files and on synthetic fixture trees: a file is library code when its
    path contains a ``repro`` component that follows a ``src`` component
    (``src/repro/core/tmerge.py``) or leads the relative path
    (``repro/core/tmerge.py``); it is test code when any component is
    ``tests`` or ``benchmarks`` or the basename looks like pytest input.
    """
    parts = PurePosixPath(display_path.replace("\\", "/")).parts
    module_parts: tuple[str, ...] = ()
    for index, part in enumerate(parts):
        if part != "repro":
            continue
        preceded_by_src = index > 0 and parts[index - 1] == "src"
        if preceded_by_src or index == 0:
            module_parts = tuple(parts[index:])
            if module_parts and module_parts[-1].endswith(".py"):
                module_parts = module_parts[:-1] + (module_parts[-1][:-3],)
            break
    basename = parts[-1] if parts else ""
    is_test = (
        any(part in ("tests", "benchmarks") for part in parts[:-1])
        or basename.startswith("test_")
        or basename == "conftest.py"
    )
    return FileContext(
        display_path=display_path,
        module_parts=module_parts,
        is_test=is_test,
    )


class Rule(abc.ABC):
    """One invariant check over a parsed module.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies_to` narrows the rule's scope (library-only rules,
    cost-path-only rules, …) and defaults to library code.
    """

    #: Stable identifier used in diagnostics and ``--select``.
    rule_id: ClassVar[str]
    #: One-line summary shown by ``--list-rules``.
    title: ClassVar[str]
    #: Why the invariant matters for this repo.
    rationale: ClassVar[str]
    #: A minimal snippet the rule must flag (used by the rule's tests).
    violating_example: ClassVar[str]
    #: A minimal snippet the rule must pass (used by the rule's tests).
    clean_example: ClassVar[str]
    #: Virtual path fixtures are linted under; chosen so scoped rules fire.
    example_path: ClassVar[str] = "src/repro/core/example.py"

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on the file described by ``ctx``."""
        return ctx.is_library

    @abc.abstractmethod
    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Return every violation of this rule in ``tree``."""

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` at ``node``'s location."""
        return Violation(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


@dataclass
class LintReport:
    """Aggregate result of one lint run.

    Attributes:
        violations: every violation found, in (path, line, col) order.
        files_checked: how many Python files were parsed.
        parse_errors: ``(path, message)`` for files that failed to parse;
            these fail the run just like violations do.
    """

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the run found nothing wrong."""
        return not self.violations and not self.parse_errors
