"""Span-based tracing on two clocks.

A :class:`Tracer` produces nested :class:`Span` records whose timestamps
come from the *simulated* :class:`~repro.reid.cost.CostModel` clock, so
a span's duration is exactly the simulated milliseconds the traced
region charged.  Each span also carries ``wall_ms``, the real time its
``with`` body took: the library's one wall clock, and the one span
field that is not bit-reproducible.  :meth:`Tracer.hotspots` ranks span
names by that wall time.  Spans carry deterministic sequential ids (no
UUIDs, no wall-clock epochs), nest through an explicit stack, and
export to JSONL one object per finished span.

Usage::

    tracer = Tracer(clock=cost)
    with tracer.span("window", window_id=3):
        with tracer.span("merge", method="TMerge"):
            ...
    tracer.export_jsonl("trace.jsonl")
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One traced region of a run.

    Attributes:
        span_id: deterministic sequential id (1-based, in start order).
        parent_id: enclosing span's id, or ``None`` for roots.
        name: region name (``"window"``, ``"merge"``).
        start_ms: simulated milliseconds at entry.
        end_ms: simulated milliseconds at exit (``None`` while open).
        attributes: caller-supplied key/value context.
        wall_ms: real milliseconds the span was open (0.0 while open);
            not reproducible, unlike every other field.
    """

    span_id: int
    parent_id: int | None
    name: str
    start_ms: float
    end_ms: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    wall_ms: float = 0.0

    @property
    def duration_ms(self) -> float:
        """Simulated milliseconds between entry and exit (0.0 while open)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def to_dict(self) -> dict[str, object]:
        """JSON-able form (the JSONL line payload)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attributes": dict(self.attributes),
            "wall_ms": self.wall_ms,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        parent = payload["parent_id"]
        end = payload["end_ms"]
        return cls(
            span_id=int(payload["span_id"]),  # type: ignore[arg-type]
            parent_id=None if parent is None else int(parent),  # type: ignore[arg-type]
            name=str(payload["name"]),
            start_ms=float(payload["start_ms"]),  # type: ignore[arg-type]
            end_ms=None if end is None else float(end),  # type: ignore[arg-type]
            attributes=dict(payload.get("attributes") or {}),  # type: ignore[arg-type]
            wall_ms=float(payload["wall_ms"]),  # type: ignore[arg-type]
        )


class Tracer:
    """Builds nested spans timed on an injected simulated clock.

    Args:
        clock: any object with a ``milliseconds`` attribute (usually a
            :class:`~repro.reid.cost.CostModel`).  ``None`` stamps all
            spans at 0.0 until :meth:`bind_clock` is called — tracing
            structure still works, durations read as zero.
    """

    def __init__(self, clock: object | None = None) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    def bind_clock(self, clock: object) -> None:
        """Attach (or replace) the clock spans read their timestamps from."""
        self.clock = clock

    def _now(self) -> float:
        if self.clock is None:
            return 0.0
        return float(self.clock.milliseconds)

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a child span of the current span for the ``with`` body.

        The span is appended to :attr:`spans` on exit (children finish
        before parents, so the list is in completion order; sort by
        ``span_id`` for start order), its ``wall_ms`` stamped with the
        ``perf_counter`` time the body took.
        """
        parent = self.current
        record = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            start_ms=self._now(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        self._stack.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.wall_ms = (time.perf_counter() - start) * 1e3
            self._stack.pop()
            record.end_ms = self._now()
            self.spans.append(record)

    def absorb(
        self, spans: list[Span], parent_id: int | None = None
    ) -> list[Span]:
        """Adopt finished spans from another tracer (a worker's).

        Every absorbed span receives a fresh sequential id from this
        tracer; internal parent/child links are remapped, and root spans
        are re-parented under ``parent_id`` (default: the currently open
        span, or ``None``).  Timestamps and ``wall_ms`` are kept
        verbatim — they remain on the *worker's* clocks (window-local
        simulated milliseconds for parallel runs).  Absorbed spans are
        appended in id (start) order.
        """
        if parent_id is None and self.current is not None:
            parent_id = self.current.span_id
        id_map: dict[int, int] = {}
        adopted: list[Span] = []
        for span in sorted(spans, key=lambda s: s.span_id):
            new_id = self._next_id
            self._next_id += 1
            id_map[span.span_id] = new_id
            new_parent = (
                id_map.get(span.parent_id, parent_id)
                if span.parent_id is not None
                else parent_id
            )
            record = Span(
                span_id=new_id,
                parent_id=new_parent,
                name=span.name,
                start_ms=span.start_ms,
                end_ms=span.end_ms,
                attributes=dict(span.attributes),
                wall_ms=span.wall_ms,
            )
            self.spans.append(record)
            adopted.append(record)
        return adopted

    def hotspots(self, top: int = 10) -> list[tuple[str, int, float]]:
        """The ``top`` span names by total wall time, heaviest first.

        Each row is ``(name, spans, total wall ms)``; a span's wall time
        includes its children's, so nested names overlap.
        """
        counts: dict[str, int] = {}
        totals: dict[str, float] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
            totals[span.name] = totals.get(span.name, 0.0) + span.wall_ms
        ranked = sorted(counts, key=lambda name: (-totals[name], name))
        return [(name, counts[name], totals[name]) for name in ranked[:top]]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """All finished spans as JSONL, one object per line, in id order."""
        ordered = sorted(self.spans, key=lambda s: s.span_id)
        return "\n".join(
            json.dumps(span.to_dict(), sort_keys=True) for span in ordered
        )

    def export_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns spans written."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            if text:
                fh.write(text + "\n")
        return len(self.spans)


def spans_from_jsonl(text: str) -> list[Span]:
    """Parse JSONL produced by :meth:`Tracer.to_jsonl` back into spans."""
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans
