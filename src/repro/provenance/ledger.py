"""The bounded, injected merge-decision ledger.

A :class:`DecisionLedger` collects
:class:`~repro.provenance.events.DecisionEvent` records from every layer
of a run — TMerge iterations, ULB prune passes, resilience
interventions, streaming backpressure verdicts — into one bounded,
insertion-ordered log.  TMerge iterations go into the ledger's open
:class:`~repro.provenance.events.SampleBlock` instead, which the ledger
closes into one ``sample`` event before it records any other event, when
it snapshots its state, and when the run ends (:meth:`close_samples`):
the log stays in τ order, and a snapshot holds every sample up to its τ.

Ownership model (lint-enforced by REPRO010): a ledger is constructed by
whoever owns a run and rides on the run's
:class:`~repro.telemetry.Telemetry`; components record through
:meth:`Telemetry.record <repro.telemetry.Telemetry.record>`, a no-op
when no ledger is attached.  Recording never touches RNG state or the
simulated clock — ledger-enabled runs are bit-identical to plain ones
(proven by ``tests/test_provenance_equivalence.py``).

Parallel runs record into per-window worker-local ledgers that the
reassembly stage folds back in window-index order via :meth:`absorb`
(re-assigning sequence numbers exactly like
:meth:`~repro.telemetry.tracing.Tracer.absorb` re-ids spans), so the
merged log is worker-count independent.  The full ledger state
round-trips through :meth:`state_dict` / :meth:`load_state_dict`, which
is how it survives checkpoint/restore bit-exactly inside TMerge
snapshots; the streaming service instead journals the events
(:meth:`events_since`) next to a snapshot of :meth:`header`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Iterator

from repro.provenance.events import EVENT_SAMPLE, DecisionEvent, SampleBlock

#: Default event-capacity bound.  Generous for any test/bench workload
#: (a window records a handful of events: its ``window``, ``sample``
#: blocks, ``ulb`` passes and ``final``) while keeping a runaway soak
#: from growing without bound.
DEFAULT_MAX_EVENTS = 100_000


class DecisionLedger:
    """A bounded, insertion-ordered log of merge decisions.

    Args:
        max_events: capacity bound on events — a ``sample`` block is one
            event, whatever its row count; the oldest events are dropped
            (and counted in :attr:`n_dropped`) once it is exceeded.
            ``None`` means unbounded — only sensible for short diagnostic
            runs.
    """

    def __init__(self, max_events: int | None = DEFAULT_MAX_EVENTS) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1 (or None)")
        self.max_events = max_events
        self._events: deque[DecisionEvent] = deque()
        #: Events recorded over the ledger's lifetime (drops included).
        self.n_recorded = 0
        #: Events evicted by the capacity bound.
        self.n_dropped = 0
        self._window: int | None = None
        #: The open sample block TMerge appends its iterations to.
        self.samples = SampleBlock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin_window(self, window: int | None) -> None:
        """Set the window index stamped on subsequently recorded events.

        The recorders (TMerge, ULB, the resilience seam) do not know
        which window they are running — the window owner (pipeline,
        parallel worker, streaming service) does, and declares it here.
        """
        self._window = None if window is None else int(window)

    @property
    def current_window(self) -> int | None:
        """The window index events are currently stamped with."""
        return self._window

    def record(
        self, kind: str, *, tau: int | None = None, **data: object
    ) -> DecisionEvent:
        """Append one event (stamped with the current window context),
        after closing the open sample block."""
        self.close_samples()
        event = DecisionEvent(
            seq=self.n_recorded,
            kind=kind,
            window=self._window,
            tau=tau,
            data=dict(data),
        )
        self._append(event)
        return event

    def close_samples(self) -> None:
        """Record the open sample block's rows as one ``sample`` event
        (a no-op when it holds none)."""
        block = self.samples
        if len(block):
            event = DecisionEvent(
                seq=self.n_recorded,
                kind=EVENT_SAMPLE,
                window=self._window,
                tau=block.last_tau,
                data=block.data(),
            )
            block.clear()
            self._append(event)

    def _append(self, event: DecisionEvent) -> None:
        self._events.append(event)
        self.n_recorded += 1
        if self.max_events is not None and len(self._events) > self.max_events:
            self._events.popleft()
            self.n_dropped += 1

    def absorb(self, payloads: Iterable[dict]) -> None:
        """Fold another ledger's exported events into this one.

        ``payloads`` are :meth:`DecisionEvent.to_dict` dicts (what a
        worker ships home in its
        :class:`~repro.parallel.executor.WindowOutcome`).  Sequence
        numbers are re-assigned in this ledger's order — the absorbed
        events keep their window stamps and relative order, exactly like
        worker spans through ``Tracer.absorb``.  Callers absorb in
        window-index order, so the merged log is worker-count
        independent.
        """
        self.close_samples()
        for payload in payloads:
            event = DecisionEvent.from_dict(payload)
            event.seq = self.n_recorded
            self._append(event)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[DecisionEvent]:
        return iter(self._events)

    @property
    def events(self) -> list[DecisionEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def events_for_window(self, window: int) -> list[DecisionEvent]:
        """The retained events stamped with ``window``, oldest first."""
        return [e for e in self._events if e.window == window]

    def events_since(self, seq: int) -> list[DecisionEvent]:
        """The retained events with a sequence number of at least ``seq``,
        oldest first.

        Scans from the newest event back, so the cost is the number of
        events returned, not the ledger's size (a checkpoint journals
        just the events recorded since its predecessor).
        """
        tail = []
        for event in reversed(self._events):
            if event.seq < seq:
                break
            tail.append(event)
        tail.reverse()
        return tail

    # ------------------------------------------------------------------
    # State round-trip (checkpoints) and JSONL export
    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        """Every retained event as a pure-JSON payload."""
        return [event.to_dict() for event in self._events]

    def header(self) -> dict:
        """The restorable state except the events themselves (which a
        streaming checkpoint journals separately)."""
        return {
            "max_events": self.max_events,
            "n_recorded": self.n_recorded,
            "n_dropped": self.n_dropped,
            "window": self._window,
        }

    def state_dict(self) -> dict:
        """Full restorable state (for checkpoint payloads); closes the
        open sample block first."""
        self.close_samples()
        return {**self.header(), "events": self.to_dicts()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`.

        Replaces the ledger's contents wholesale — a resumed run's
        re-recorded pre-checkpoint events are overwritten by the
        snapshot, which is what makes kill+resume ledgers bit-exact.
        The open sample block is dropped with the rest.
        """
        self.samples.clear()
        max_events = state["max_events"]
        self.max_events = None if max_events is None else int(max_events)
        self._events = deque(
            DecisionEvent.from_dict(payload) for payload in state["events"]
        )
        self.n_recorded = int(state["n_recorded"])
        self.n_dropped = int(state["n_dropped"])
        window = state.get("window")
        self._window = None if window is None else int(window)

    def to_jsonl(self) -> str:
        """The retained events as JSON-lines text (one event per line)."""
        return "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in self._events
        )

    def export_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns the event count."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self._events)


def events_from_jsonl(text: str) -> list[DecisionEvent]:
    """Parse JSON-lines text produced by :meth:`DecisionLedger.to_jsonl`."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(DecisionEvent.from_dict(json.loads(line)))
    return events


def load_events_jsonl(path: str) -> list[DecisionEvent]:
    """Read a JSONL ledger export from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return events_from_jsonl(handle.read())
