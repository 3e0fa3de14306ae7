"""repro.provenance — the merge-decision provenance ledger.

Answers the question telemetry aggregates cannot: *why* did TMerge merge
(or refuse to merge) a specific pair of tracks?  A bounded, injected
:class:`DecisionLedger` records compact deterministic
:class:`DecisionEvent` records: one columnar ``sample`` block per stretch
of TMerge iterations, and one event per window, ULB prune pass,
resilience intervention, backpressure verdict and final verdict.
:func:`explain_pair` reconstructs the full decision chain for any pair
from the live ledger or a JSONL export (the ``python -m
repro.experiments explain`` CLI).

The ledger rides on the run's :class:`~repro.telemetry.Telemetry`
(DESIGN.md §11): always injected (lint rule REPRO010), off by
default, and bit-transparent — recording never touches RNG state or the
simulated clock, so ledger-enabled runs are bit-identical to plain ones
across seeds, fault profiles, worker counts and batch sizes
(``tests/test_provenance_equivalence.py``).
"""

from repro.provenance.events import (
    EVENT_DEGRADE,
    EVENT_FAULT,
    EVENT_FINAL,
    EVENT_KINDS,
    EVENT_SAMPLE,
    EVENT_ULB,
    EVENT_WINDOW,
    DecisionEvent,
    SampleBlock,
    sample_rows,
)
from repro.provenance.explain import (
    VERDICT_CANDIDATE,
    VERDICT_NOT_SELECTED,
    VERDICT_ULB_ACCEPTED,
    VERDICT_ULB_REJECTED,
    VERDICT_UNRESOLVED,
    DecisionChain,
    DecisionStep,
    explain_pair,
    windows_containing,
)
from repro.provenance.ledger import (
    DEFAULT_MAX_EVENTS,
    DecisionLedger,
    events_from_jsonl,
    load_events_jsonl,
)

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "DecisionChain",
    "DecisionEvent",
    "DecisionLedger",
    "DecisionStep",
    "EVENT_DEGRADE",
    "EVENT_FAULT",
    "EVENT_FINAL",
    "EVENT_KINDS",
    "EVENT_SAMPLE",
    "EVENT_ULB",
    "EVENT_WINDOW",
    "SampleBlock",
    "VERDICT_CANDIDATE",
    "VERDICT_NOT_SELECTED",
    "VERDICT_ULB_ACCEPTED",
    "VERDICT_ULB_REJECTED",
    "VERDICT_UNRESOLVED",
    "events_from_jsonl",
    "explain_pair",
    "load_events_jsonl",
    "sample_rows",
    "windows_containing",
]
