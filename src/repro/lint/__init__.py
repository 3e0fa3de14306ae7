"""repro.lint — repo-specific static analysis for the TMerge stack.

A self-contained, stdlib-:mod:`ast` linter (no third-party dependencies)
enforcing the invariants the reproduction's correctness rests on:

* **REPRO001** — randomness only via an injected ``np.random.Generator``
  (reproducible Thompson draws, BBox sampling, Bernoulli trials).
* **REPRO002** — no wall-clock reads in the library outside
  ``telemetry`` (``Tracer.span``); all cost is charged to the simulated
  ``scorer.cost`` clock.
* **REPRO003** — no mutable default arguments.
* **REPRO004** — no bare ``except:`` or ``print()`` in library code.
* **REPRO005** — no star imports.
* **REPRO006** — no float ``==``/``!=`` in ``core``.
* **REPRO007** — public functions/classes carry docstrings and return
  annotations.
* **REPRO008** — every ``__all__`` entry resolves to a real binding.
* **REPRO009** — no hand-rolled retry loops; retries flow through
  ``repro.resilience`` so backoff lands on the simulated clock.
* **REPRO010** — observers are injected; no module-level ``Telemetry()``
  / registry / ``DecisionLedger()`` singletons.

Run it with ``python -m repro.lint src tests benchmarks examples``
(non-zero exit on violations), or programmatically via
:func:`lint_paths` / :func:`lint_source`.  Rules self-document through ``--list-rules`` and
carry their own violating/clean fixture snippets.
"""

from repro.lint.base import (
    FileContext,
    LintReport,
    Rule,
    Violation,
    context_for_path,
)
from repro.lint.cli import main
from repro.lint.engine import iter_python_files, lint_paths, lint_source
from repro.lint.rules import ALL_RULES, RULES_BY_ID

__all__ = [
    "FileContext",
    "LintReport",
    "Rule",
    "Violation",
    "context_for_path",
    "main",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "ALL_RULES",
    "RULES_BY_ID",
]
