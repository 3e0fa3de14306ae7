"""Lightweight wall-clock profiling hooks.

Unlike everything else in the telemetry package, the profiler measures
*real* time — it answers "where does the Python implementation spend its
wall-clock", which is orthogonal to the simulated cost the figures
report.  Wall-clock reads are therefore confined to this module (the
cost-path packages are lint-barred from them by REPRO002); decorated
functions in ``core``/``reid`` never touch a clock themselves.

The :func:`profiled` decorator instruments *methods of objects that
carry a ``telemetry`` attribute*: at call time it looks up
``self.telemetry`` and records the call on its profiler — no globals,
no registration (REPRO010).  When the object has no telemetry bound,
the call passes straight through with one attribute lookup of overhead.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


@dataclass
class FunctionStats:
    """Accumulated timing of one profiled function.

    Attributes:
        name: the profile label (function qualname by default).
        calls: invocation count.
        total_seconds: summed wall-clock time across calls.
        max_seconds: slowest single call.
    """

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        """Average wall-clock seconds per call."""
        return self.total_seconds / self.calls if self.calls else 0.0


class Profiler:
    """Per-function wall-time accumulation with a top-N hotspot report."""

    def __init__(self) -> None:
        self._stats: dict[str, FunctionStats] = {}

    def record(self, name: str, seconds: float) -> None:
        """Account one call of ``name`` that took ``seconds``."""
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = FunctionStats(name)
        stats.calls += 1
        stats.total_seconds += seconds
        stats.max_seconds = max(stats.max_seconds, seconds)

    def stats_snapshot(self) -> list[list]:
        """Every function's ``[name, calls, total_seconds, max_seconds]``,
        in first-call order (a worker ships this home in its telemetry
        payload)."""
        return [
            [s.name, s.calls, s.total_seconds, s.max_seconds]
            for s in self._stats.values()
        ]

    def merge_stats(self, snapshot: list[list]) -> None:
        """Fold a :meth:`stats_snapshot` into this profiler.

        Calls and totals add; the slowest call is the maximum of both.
        """
        for name, calls, total, slowest in snapshot:
            stats = self._stats.get(name)
            if stats is None:
                stats = self._stats[name] = FunctionStats(name)
            stats.calls += int(calls)
            stats.total_seconds += float(total)
            stats.max_seconds = max(stats.max_seconds, float(slowest))

    def hotspots(self, top: int = 10) -> list[FunctionStats]:
        """The ``top`` most expensive functions by total wall time."""
        ranked = sorted(
            self._stats.values(),
            key=lambda s: (-s.total_seconds, s.name),
        )
        return ranked[:top]

    def report(self, top: int = 10) -> str:
        """Render the hotspot table as plain text."""
        rows = self.hotspots(top)
        if not rows:
            return "no profiled calls recorded"
        lines = ["hotspots (wall time):"]
        for stats in rows:
            lines.append(
                f"  {stats.name}: {stats.calls} calls, "
                f"{stats.total_seconds * 1e3:.2f} ms total, "
                f"{stats.mean_seconds * 1e6:.1f} us/call"
            )
        return "\n".join(lines)


def profiled(fn: F | None = None, *, name: str | None = None) -> Callable:
    """Profile a method through its object's injected telemetry.

    Apply to methods of classes whose instances (optionally) carry a
    ``telemetry`` attribute holding a
    :class:`~repro.telemetry.facade.Telemetry`.  Calls are timed with
    ``time.perf_counter`` and recorded under ``name`` (the function's
    qualname by default); when ``self.telemetry`` is ``None`` or absent
    the wrapper is a passthrough.
    """

    def decorate(func: F) -> F:
        label = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(self, *args: object, **kwargs: object) -> object:
            telemetry = getattr(self, "telemetry", None)
            if telemetry is None:
                return func(self, *args, **kwargs)
            start = time.perf_counter()
            try:
                return func(self, *args, **kwargs)
            finally:
                telemetry.profiler.record(
                    label, time.perf_counter() - start
                )

        return wrapper  # type: ignore[return-value]

    if fn is not None:
        return decorate(fn)
    return decorate
