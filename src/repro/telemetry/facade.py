"""The injectable :class:`Telemetry` facade.

One ``Telemetry`` object bundles the observability primitives — a
:class:`~repro.telemetry.metrics.MetricsRegistry`, a
:class:`~repro.telemetry.tracing.Tracer` and, when the run records
merge decisions, a :class:`~repro.provenance.DecisionLedger` — behind
the handful of shortcuts call sites actually use (``count``,
``observe``, ``span``, ``record``).

Ownership model (lint-enforced by REPRO010): the run owns one
``Telemetry`` — the ingestion pipeline, the parallel engine, the
streaming service, a sweep, the CLI, a test — and the ledger rides on
it.  Components record into the Telemetry they are handed and never ask
whether anyone is watching: an unobserved run records into a private
instance nobody reads.  Recording never touches RNG state or the
simulated clock, so results are bit-identical with observation on or
off (DESIGN.md §11).
"""

from __future__ import annotations

import copy
from contextlib import AbstractContextManager

from repro.provenance.ledger import DecisionLedger
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Span, Tracer


class Telemetry:
    """Metrics + tracing (+ an optional decision ledger) for one run.

    Args:
        clock: optional simulated clock (a
            :class:`~repro.reid.cost.CostModel`) for span timestamps;
            usually bound later via :meth:`bind_clock` because the cost
            model is created inside the run being observed.
        ledger: optional :class:`~repro.provenance.DecisionLedger`
            receiving :meth:`record` calls; without one, :meth:`record`
            is a no-op.
    """

    def __init__(
        self,
        clock: object | None = None,
        ledger: DecisionLedger | None = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock)
        self.ledger = ledger

    @classmethod
    def for_run(
        cls,
        telemetry: Telemetry | None,
        ledger: DecisionLedger | None,
    ) -> Telemetry:
        """Resolve a run owner's ``telemetry=`` / ``ledger=`` pair into
        the one Telemetry the run records into.

        No telemetry gives a private instance carrying ``ledger``.  A
        telemetry with no new ``ledger`` is returned as is; otherwise a
        shallow copy shares its metrics and tracer and carries
        ``ledger``, so the caller's object is never mutated.
        """
        if telemetry is None:
            return cls(ledger=ledger)
        if ledger is None or ledger is telemetry.ledger:
            return telemetry
        view = copy.copy(telemetry)
        view.ledger = ledger
        return view

    @property
    def clock(self) -> object | None:
        """The simulated clock spans are stamped with (may be ``None``)."""
        return self.tracer.clock

    def bind_clock(self, clock: object) -> None:
        """Point span timestamps at ``clock`` (idempotent, cheap)."""
        self.tracer.bind_clock(clock)

    # ------------------------------------------------------------------
    # Recording shortcuts
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.metrics.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` in histogram ``name``."""
        self.metrics.observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.metrics.set_gauge(name, value)

    def span(self, name: str, **attributes: object) -> AbstractContextManager[Span]:
        """Open a traced span (see :meth:`Tracer.span`)."""
        return self.tracer.span(name, **attributes)

    def record(
        self, kind: str, *, tau: int | None = None, **data: object
    ) -> None:
        """Record one decision event on the ledger (no-op without one)."""
        if self.ledger is not None:
            self.ledger.record(kind, tau=tau, **data)

    def begin_window(self, window: int) -> None:
        """Stamp subsequent decision events with ``window`` (see
        :meth:`DecisionLedger.begin_window`; no-op without a ledger)."""
        if self.ledger is not None:
            self.ledger.begin_window(window)

    # ------------------------------------------------------------------
    # Window payloads (the parallel engine's reassembly seam)
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Everything this (window-local) Telemetry recorded, as one
        picklable payload for :meth:`absorb`.

        The counters are a delta by construction: a window's Telemetry
        starts empty.
        """
        return {
            "counters": self.metrics.counters_snapshot(),
            "histograms": self.metrics.histograms_snapshot(),
            "spans": [
                span.to_dict()
                for span in sorted(self.tracer.spans, key=lambda s: s.span_id)
            ],
            "ledger": [] if self.ledger is None else self.ledger.to_dicts(),
        }

    def absorb(self, payload: dict) -> None:
        """Fold an :meth:`export` payload into this Telemetry.

        Callers absorb in window-index order: counters and histograms
        add up in that order, spans are re-numbered with their wall
        times (:meth:`Tracer.absorb`) and decision events re-sequenced
        (:meth:`DecisionLedger.absorb`), so the merged state is
        worker-count independent, span wall times aside.  Events are
        dropped when this
        Telemetry carries no ledger.
        """
        self.metrics.merge_delta(payload["counters"])
        self.metrics.merge_histograms(payload["histograms"])
        self.tracer.absorb(
            [Span.from_dict(span) for span in payload["spans"]]
        )
        if self.ledger is not None:
            self.ledger.absorb(payload["ledger"])

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, top: int = 10) -> str:
        """Metrics plus the ``top`` span hotspots (:meth:`Tracer.hotspots`)
        as plain text."""
        rows = self.tracer.hotspots(top)
        lines = ["hotspots (wall time):"] if rows else ["no spans recorded"]
        for name, spans, wall_ms in rows:
            lines.append(f"  {name}: {spans} spans, {wall_ms:.2f} ms total")
        return "\n\n".join(
            part for part in (self.metrics.report(), "\n".join(lines)) if part
        )
