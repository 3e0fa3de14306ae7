"""The repo-specific rule set (REPRO001–REPRO008).

Each rule encodes one invariant the TMerge reproduction depends on but the
test suite can only spot-check — reproducible randomness, simulated-cost
purity, well-formed public API.  Rules carry their own fixtures
(``violating_example`` / ``clean_example``); ``tests/test_lint.py`` runs
every rule against both.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint.base import FileContext, Rule, Violation

#: ``numpy.random`` attributes that *construct* generators rather than
#: drawing from hidden global state; these are the only sanctioned way to
#: obtain randomness.
ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: Wall-clock reads that would leak real time into simulated-cost results.
WALL_CLOCK_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)


def _attribute_chain(node: ast.AST) -> tuple[str, ...] | None:
    """Resolve ``np.random.seed`` into ``("np", "random", "seed")``.

    Returns ``None`` when the expression is not a pure name/attribute
    chain (e.g. a subscript or call in the middle).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class NoAmbientRandomnessRule(Rule):
    """REPRO001 — randomness must flow through an injected Generator."""

    rule_id = "REPRO001"
    title = "no ambient randomness in library code"
    rationale = (
        "Thompson draws, BBox sampling and Bernoulli trials must be "
        "reproducible from a single seed, so library code may not touch "
        "the stdlib `random` module or numpy's global RNG; construct a "
        "`np.random.Generator` (e.g. `default_rng(seed)`) and pass it in."
    )
    violating_example = textwrap.dedent(
        """\
        import numpy as np

        def draw() -> float:
            \"\"\"Draw.\"\"\"
            return float(np.random.rand())
        """
    )
    clean_example = textwrap.dedent(
        """\
        \"\"\"Fixture.\"\"\"
        import numpy as np

        def draw(rng: np.random.Generator) -> float:
            \"\"\"Draw.\"\"\"
            return float(rng.random())
        """
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Flag stdlib-``random`` imports and numpy global-RNG usage."""
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        violations.append(
                            self.violation(
                                ctx,
                                node,
                                "stdlib `random` is banned in library code; "
                                "accept an `rng: np.random.Generator` "
                                "parameter seeded from the run's "
                                "`SeedSequence` substream",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    violations.append(
                        self.violation(
                            ctx,
                            node,
                            "stdlib `random` is banned in library code; "
                            "accept an `rng: np.random.Generator` parameter "
                            "seeded from the run's `SeedSequence` substream",
                        )
                    )
                elif node.module in ("numpy.random", "np.random"):
                    for alias in node.names:
                        if alias.name not in ALLOWED_NP_RANDOM:
                            violations.append(
                                self.violation(
                                    ctx,
                                    node,
                                    f"`from numpy.random import {alias.name}` "
                                    "draws from global state; only Generator "
                                    "constructors may be imported",
                                )
                            )
            elif isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if (
                    chain is not None
                    and len(chain) == 3
                    and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                    and chain[2] not in ALLOWED_NP_RANDOM
                ):
                    violations.append(
                        self.violation(
                            ctx,
                            node,
                            f"`{'.'.join(chain)}()` uses numpy's global RNG; "
                            "draw from an injected `rng: "
                            "np.random.Generator` parameter seeded from the "
                            "run's `SeedSequence` substream",
                        )
                    )
        return violations


class SimulatedCostOnlyRule(Rule):
    """REPRO002 — no wall-clock reads in the library outside telemetry."""

    rule_id = "REPRO002"
    title = "no wall-clock reads outside `Tracer.span`"
    rationale = (
        "All figures report the simulated `scorer.cost` clock, and "
        "`benchmarks/e2e` is the one harness that times the system; a "
        "`time.time()`/`perf_counter()` read anywhere in the library "
        "but `telemetry` (where `Tracer.span` stamps `wall_ms`) turns "
        "reproducible cost accounting into machine-dependent wall time."
    )
    violating_example = textwrap.dedent(
        """\
        import time

        def elapsed() -> float:
            \"\"\"Elapsed.\"\"\"
            return time.perf_counter()
        """
    )
    clean_example = textwrap.dedent(
        """\
        \"\"\"Fixture.\"\"\"

        def elapsed(cost: object) -> float:
            \"\"\"Elapsed simulated seconds.\"\"\"
            return cost.seconds
        """
    )

    example_path = "src/repro/experiments/example.py"

    def applies_to(self, ctx: FileContext) -> bool:
        """Every library module outside ``telemetry``."""
        return ctx.is_cost_path

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Flag ``time.<clock>()`` calls and ``from time import <clock>``."""
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in WALL_CLOCK_FUNCTIONS:
                        violations.append(
                            self.violation(
                                ctx,
                                node,
                                f"`from time import {alias.name}` outside "
                                "`Tracer.span`; charge the injected "
                                "`CostModel` clock (`scorer.cost`, read via "
                                "`cost.seconds`/`cost.milliseconds`) instead",
                            )
                        )
            elif isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] == "time"
                    and chain[1] in WALL_CLOCK_FUNCTIONS
                ):
                    violations.append(
                        self.violation(
                            ctx,
                            node,
                            f"`{'.'.join(chain)}()` reads the wall clock "
                            "outside `Tracer.span`; charge the injected "
                            "`CostModel` clock (`scorer.cost`, read via "
                            "`cost.seconds`/`cost.milliseconds`) instead",
                        )
                    )
        return violations


class NoMutableDefaultsRule(Rule):
    """REPRO003 — no mutable default argument values."""

    rule_id = "REPRO003"
    title = "no mutable default arguments"
    rationale = (
        "A mutable default is shared across calls; samplers constructed "
        "twice would silently share state and break run isolation."
    )
    violating_example = textwrap.dedent(
        """\
        def collect(items: list = []) -> list:
            \"\"\"Collect.\"\"\"
            return items
        """
    )
    clean_example = textwrap.dedent(
        """\
        \"\"\"Fixture.\"\"\"

        def collect(items: list | None = None) -> list:
            \"\"\"Collect.\"\"\"
            return items if items is not None else []
        """
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def applies_to(self, ctx: FileContext) -> bool:
        """All linted files, tests included."""
        return True

    def _is_mutable(self, node: ast.AST | None) -> bool:
        if node is None:
            return False
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Flag list/dict/set(/comprehension) defaults on any function."""
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        violations.append(
                            self.violation(
                                ctx,
                                default,
                                "mutable default argument is shared across "
                                "calls; default to None and build inside",
                            )
                        )
        return violations


class LibraryHygieneRule(Rule):
    """REPRO004 — no bare ``except:`` or ``print()`` in library code."""

    rule_id = "REPRO004"
    title = "no bare except / print in library code"
    rationale = (
        "Bare excepts swallow KeyboardInterrupt and real bugs; prints from "
        "library code pollute benchmark output.  CLI entry modules "
        "(`__main__.py`, `cli.py`) are exempt — user-facing output is "
        "their job."
    )
    violating_example = textwrap.dedent(
        """\
        def load() -> None:
            \"\"\"Load.\"\"\"
            try:
                print("loading")
            except:
                pass
        """
    )
    clean_example = textwrap.dedent(
        """\
        \"\"\"Fixture.\"\"\"

        def load() -> None:
            \"\"\"Load.\"\"\"
            try:
                prepare()
            except ValueError:
                raise

        def prepare() -> None:
            \"\"\"Prepare.\"\"\"
        """
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Library modules that are not CLI entry points."""
        return ctx.is_library and not ctx.is_cli

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Flag ``except:`` handlers with no type and ``print(...)`` calls."""
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        "bare `except:` swallows everything including "
                        "KeyboardInterrupt; name the exception",
                    )
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        "`print()` in library code; return data or use a "
                        "CLI entry module for user-facing output",
                    )
                )
        return violations


class NoStarImportsRule(Rule):
    """REPRO005 — no ``from module import *``."""

    rule_id = "REPRO005"
    title = "no star imports"
    rationale = (
        "Star imports defeat the __all__ resolution check (REPRO008) and "
        "make the provenance of names unauditable."
    )
    violating_example = "from os.path import *\n"
    clean_example = '"""Fixture."""\nfrom os.path import join\n\n_ = join\n'

    def applies_to(self, ctx: FileContext) -> bool:
        """All linted files, tests included."""
        return True

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Flag any ``import *``."""
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "*" for alias in node.names
            ):
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"star import from `{node.module}`; import names "
                        "explicitly",
                    )
                )
        return violations


class NoFloatEqualityRule(Rule):
    """REPRO006 — no float ``==``/``!=`` in core arithmetic."""

    rule_id = "REPRO006"
    title = "no float equality comparisons in core"
    rationale = (
        "Posterior means, confidence radii and normalized distances are "
        "accumulated floats; exact equality against a float literal is "
        "almost always a latent bug (use tolerances, `math.isclose`, or "
        "compare counts instead)."
    )
    violating_example = textwrap.dedent(
        """\
        def converged(mean: float) -> bool:
            \"\"\"Converged.\"\"\"
            return mean == 0.5
        """
    )
    clean_example = textwrap.dedent(
        """\
        \"\"\"Fixture.\"\"\"
        import math

        def converged(mean: float) -> bool:
            \"\"\"Converged.\"\"\"
            return math.isclose(mean, 0.5, abs_tol=1e-9)
        """
    )

    _FLOAT_ATTRS = frozenset({"inf", "nan"})

    def applies_to(self, ctx: FileContext) -> bool:
        """Only ``repro.core``."""
        return ctx.subpackage == "core"

    def _is_float_literal(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            return self._is_float_literal(node.operand)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "float"
        chain = _attribute_chain(node)
        if chain is not None and len(chain) == 2:
            return (
                chain[0] in ("math", "np", "numpy")
                and chain[1] in self._FLOAT_ATTRS
            )
        return False

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Flag ``==``/``!=`` comparisons with a float-literal operand."""
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if self._is_float_literal(left) or self._is_float_literal(
                    right
                ):
                    violations.append(
                        self.violation(
                            ctx,
                            node,
                            "float equality comparison; use a tolerance "
                            "(`math.isclose`) or compare integer counts",
                        )
                    )
        return violations


class PublicApiDocsRule(Rule):
    """REPRO007 — public API must be documented and annotated."""

    rule_id = "REPRO007"
    title = "public functions/classes need docstrings and return annotations"
    rationale = (
        "The paper reproduction is also a reference implementation; every "
        "public name must state what it computes (docstring) and what it "
        "returns (annotation) so invariants are auditable from signatures."
    )
    violating_example = textwrap.dedent(
        """\
        def score(x):
            return x * 2.0
        """
    )
    clean_example = textwrap.dedent(
        """\
        \"\"\"Fixture.\"\"\"

        def score(x: float) -> float:
            \"\"\"Double the input.\"\"\"
            return x * 2.0
        """
    )

    def _is_stub(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Protocol/overload stubs (`...`-only bodies) are exempt."""
        body = [
            stmt
            for stmt in node.body
            if not (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            )
        ]
        return len(body) == 1 and (
            (
                isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and body[0].value.value is Ellipsis
            )
        )

    def _check_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
        owner: str | None,
    ) -> list[Violation]:
        name = node.name
        qualified = f"{owner}.{name}" if owner else name
        if name.startswith("_"):
            return []
        if self._is_stub(node):
            return []
        violations = []
        if ast.get_docstring(node) is None:
            violations.append(
                self.violation(
                    ctx, node, f"public function `{qualified}` lacks a docstring"
                )
            )
        if node.returns is None:
            violations.append(
                self.violation(
                    ctx,
                    node,
                    f"public function `{qualified}` lacks a return annotation",
                )
            )
        return violations

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Check module, class and method docstrings/annotations."""
        violations: list[Violation] = []
        if ast.get_docstring(tree) is None:
            violations.append(
                self.violation(ctx, tree, "module lacks a docstring")
            )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                violations.extend(self._check_function(node, ctx, None))
            elif isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    violations.append(
                        self.violation(
                            ctx,
                            node,
                            f"public class `{node.name}` lacks a docstring",
                        )
                    )
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        violations.extend(
                            self._check_function(member, ctx, node.name)
                        )
        return violations


class AllExportsResolveRule(Rule):
    """REPRO008 — every ``__all__`` entry resolves to a real binding."""

    rule_id = "REPRO008"
    title = "__all__ entries must resolve"
    rationale = (
        "A stale `__all__` entry raises AttributeError only when someone "
        "star-imports or introspects; resolving it statically catches the "
        "drift at lint time."
    )
    violating_example = textwrap.dedent(
        """\
        \"\"\"Module.\"\"\"
        from os.path import join

        __all__ = ["join", "missing_name"]
        """
    )
    clean_example = textwrap.dedent(
        """\
        \"\"\"Module.\"\"\"
        from os.path import join

        __all__ = ["join"]
        """
    )
    example_path = "src/repro/core/__init__.py"

    def _bound_names(self, body: list[ast.stmt]) -> set[str]:
        """Names bound at module level, descending into if/try blocks."""
        names: set[str] = set()
        for stmt in body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    names.add(
                        alias.asname
                        if alias.asname
                        else alias.name.split(".")[0]
                    )
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name != "*":
                        names.add(alias.asname if alias.asname else alias.name)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            names.add(name_node.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    names.add(stmt.target.id)
            elif isinstance(stmt, ast.If):
                names |= self._bound_names(stmt.body)
                names |= self._bound_names(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                names |= self._bound_names(stmt.body)
                names |= self._bound_names(stmt.orelse)
                names |= self._bound_names(stmt.finalbody)
                for handler in stmt.handlers:
                    names |= self._bound_names(handler.body)
        return names

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Resolve every literal ``__all__`` entry against module bindings."""
        exports: list[tuple[ast.AST, str]] = []
        for stmt in tree.body:
            target_names = []
            if isinstance(stmt, ast.Assign):
                target_names = [
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                ]
                value = stmt.value
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                target_names = [stmt.target.id]
                value = stmt.value
            else:
                continue
            if "__all__" not in target_names:
                continue
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        exports.append((element, element.value))
        if not exports:
            return []
        bound = self._bound_names(tree.body)
        violations: list[Violation] = []
        seen: set[str] = set()
        for node, name in exports:
            if name in seen:
                violations.append(
                    self.violation(
                        ctx, node, f"duplicate `__all__` entry `{name}`"
                    )
                )
                continue
            seen.add(name)
            if name not in bound:
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"`__all__` exports `{name}` but the module never "
                        "binds it",
                    )
                )
        return violations


class NoHandRolledRetryRule(Rule):
    """REPRO009 — retries must flow through ``repro.resilience``."""

    rule_id = "REPRO009"
    title = "no hand-rolled retry loops in library code"
    rationale = (
        "A bare `while True: try/except: continue` retry neither charges "
        "backoff to the simulated clock nor consults the circuit breaker, "
        "so its cost and failure behavior are invisible to the "
        "experiments.  Retries belong in `repro.resilience.retry_call`, "
        "where attempts, penalties and backoff are accounted uniformly."
    )
    violating_example = textwrap.dedent(
        """\
        def fetch(client) -> float:
            \"\"\"Fetch.\"\"\"
            while True:
                try:
                    return client.call()
                except ValueError:
                    continue
        """
    )
    clean_example = textwrap.dedent(
        '''\
        """Fixture."""
        from repro.resilience import RetryPolicy, retry_call


        def fetch(client: object, clock: object) -> float:
            """Fetch one value, retrying through the shared policy."""
            return retry_call(client.call, RetryPolicy(), clock)
        '''
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Library code, except the resilience package itself."""
        return ctx.is_library and ctx.subpackage != "resilience"

    @staticmethod
    def _is_retry_loop(loop: ast.While | ast.For) -> bool:
        """A loop retries when a contained handler swallows the failure.

        A handler that re-raises, breaks, or returns escapes the loop and
        is ordinary error handling; a handler with none of those keeps
        looping over the same attempt — a retry.
        """
        for node in ast.walk(loop):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                escapes = any(
                    isinstance(inner, (ast.Raise, ast.Break, ast.Return))
                    for stmt in handler.body
                    for inner in ast.walk(stmt)
                )
                if not escapes:
                    return True
        return False

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Flag ``while``/``for range(...)`` loops that swallow-and-retry."""
        violations: list[Violation] = []
        seen: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.While):
                loop = node
            elif (
                isinstance(node, ast.For)
                and isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "range"
            ):
                loop = node
            else:
                continue
            if id(loop) in seen:
                continue
            seen.add(id(loop))
            if self._is_retry_loop(loop):
                violations.append(
                    self.violation(
                        ctx,
                        loop,
                        "hand-rolled retry loop; route the retry through "
                        "`repro.resilience.retry_call` so backoff and "
                        "failures are accounted on the simulated clock",
                    )
                )
        return violations


#: Observer types whose import-time construction REPRO010 bans, each
#: mapped to the subpackage that defines it (where it is exempt).
_OBSERVER_HOMES = {
    "Telemetry": "telemetry",
    "MetricsRegistry": "telemetry",
    "Tracer": "telemetry",
    "DecisionLedger": "provenance",
}


class InjectedTelemetryRule(Rule):
    """REPRO010 — observers are injected, never module-level singletons."""

    rule_id = "REPRO010"
    title = (
        "telemetry and decision ledgers must be injected "
        "(no module-level singletons)"
    )
    rationale = (
        "A module-level `Telemetry()` (or bare `MetricsRegistry` / "
        "`Tracer` / `DecisionLedger`) is ambient global "
        "state: every run records into the same object, so two "
        "experiments in one process contaminate each other's counters — "
        "and, since the ledger rides in checkpoints, each other's resume "
        "state — and tests pass or fail by import order.  The owner of a "
        "run constructs one Telemetry, attaches the ledger to it, and "
        "injects it down through constructors."
    )
    violating_example = textwrap.dedent(
        """\
        \"\"\"Fixture.\"\"\"
        from repro.telemetry import Telemetry

        TELEMETRY = Telemetry()
        """
    )
    clean_example = textwrap.dedent(
        '''\
        """Fixture."""
        from repro.telemetry import Telemetry


        def build_run_telemetry() -> Telemetry:
            """Construct the run-scoped telemetry an owner injects down."""
            return Telemetry()
        '''
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Library code (each type is exempt in its own package)."""
        return ctx.is_library

    @staticmethod
    def _called_name(func: ast.expr) -> str | None:
        """The simple or attribute name a call targets, if any."""
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _scan(
        self, node: ast.AST, ctx: FileContext, out: list[Violation]
    ) -> None:
        """Flag observer constructions reachable at import time.

        Recurses through module-level statements, class bodies, and
        conditional/try blocks (all of which execute on import) but not
        into function or lambda bodies (which execute per call, where
        instance-scoped construction is legitimate).
        """
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        name = (
            self._called_name(node.func)
            if isinstance(node, ast.Call)
            else None
        )
        if name in _OBSERVER_HOMES and _OBSERVER_HOMES[name] != ctx.subpackage:
            out.append(
                self.violation(
                    ctx,
                    node,
                    f"`{name}()` constructed at "
                    "import time; construct it in the run owner and "
                    "inject it through constructors "
                    f"({self.rule_id})",
                )
            )
        for child in ast.iter_child_nodes(node):
            self._scan(child, ctx, out)

    def check(self, tree: ast.Module, ctx: FileContext) -> list[Violation]:
        """Flag import-time observer singletons."""
        violations: list[Violation] = []
        for stmt in tree.body:
            self._scan(stmt, ctx, violations)
        return violations


#: Every shipped rule, in rule-id order.  The engine and the tests iterate
#: this list; registering a new rule means appending here.
ALL_RULES: tuple[Rule, ...] = (
    NoAmbientRandomnessRule(),
    SimulatedCostOnlyRule(),
    NoMutableDefaultsRule(),
    LibraryHygieneRule(),
    NoStarImportsRule(),
    NoFloatEqualityRule(),
    PublicApiDocsRule(),
    AllExportsResolveRule(),
    NoHandRolledRetryRule(),
    InjectedTelemetryRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
