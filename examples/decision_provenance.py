#!/usr/bin/env python
"""Scenario: *why* did the merger accept — or prune — this track pair?

Aggregate metrics say how well TMerge did; the decision-provenance
ledger (DESIGN.md §11) says *why* each individual call went the way it
did.  This example attaches a :class:`~repro.provenance.DecisionLedger`
to a seeded ingestion run (pure observation — the merge results are
bit-identical with it on or off), exports the event log to JSONL the
way an operator would (``python -m repro.experiments serve
--ledger-out``), reloads it, and reconstructs two full decision chains
with :func:`~repro.provenance.explain_pair`: one pair the merger
accepted as a polyonymous candidate, and one it pruned.  The same
chains are available from the terminal via ``python -m
repro.experiments explain --ledger <file> --pair A B``.
"""

import tempfile
from pathlib import Path

from repro import TMerge, TracktorTracker, simulate_world
from repro.core.pipeline import IngestionPipeline
from repro.provenance import DecisionLedger, explain_pair, load_events_jsonl
from repro.synth.datasets import mot17_like


def build_pipeline(ledger):
    """The quickstart pipeline with a decision ledger attached."""
    return IngestionPipeline(
        tracker=TracktorTracker(),
        merger=TMerge(
            k=0.1, tau_max=400, batch_size=10, seed=3,
            ulb_scale=0.3, ulb_interval=10,
        ),
        window_length=300,
        ledger=ledger,
    )


def pick_pairs(events):
    """One accepted and one pruned pair from the recorded final verdicts.

    Every window's ``window`` event lists the candidate pairs in arm
    order; its ``final`` event lists the chosen arm indices.  The first
    window that both chose and rejected something gives us our two
    chains.
    """
    windows = {
        e.window: e.data["pairs"] for e in events if e.kind == "window"
    }
    for event in events:
        if event.kind != "final":
            continue
        pairs = windows[event.window]
        chosen = set(event.data["chosen"])
        pruned = [i for i in range(len(pairs)) if i not in chosen]
        if chosen and pruned:
            accepted = tuple(pairs[next(iter(sorted(chosen)))])
            rejected = tuple(pairs[pruned[0]])
            return event.window, accepted, rejected
    raise RuntimeError("no window produced both an accept and a prune")


def main(n_frames: int = 600) -> None:
    """Run seeded, export the ledger, explain one accept and one prune."""
    world = simulate_world(mot17_like().config, n_frames=n_frames, seed=2)
    ledger = DecisionLedger()
    result = build_pipeline(ledger).run(world)
    print(
        f"ingested {n_frames} frames in {len(result.windows)} windows: "
        f"{len(result.tracks)} tracks -> "
        f"{len(result.merged_tracks)} after merging"
    )
    print(
        f"ledger: {len(ledger)} events recorded "
        f"({ledger.n_dropped} dropped by the capacity bound)"
    )

    # --- export the way an operator would, and reload ------------------
    path = Path(tempfile.mkdtemp()) / "decision_ledger.jsonl"
    n_written = ledger.export_jsonl(str(path))
    events = load_events_jsonl(str(path))
    assert [e.to_dict() for e in events] == ledger.to_dicts()
    print(f"exported {n_written} events to {path} and reloaded them\n")

    # --- reconstruct one accept and one prune chain --------------------
    window, accepted, rejected = pick_pairs(events)
    chain = explain_pair(events, accepted, window=window)
    print(f"=== why was pair {accepted} ACCEPTED? ===")
    print(chain.render())
    print()
    chain = explain_pair(events, rejected, window=window)
    print(f"=== why was pair {rejected} PRUNED? ===")
    print(chain.render())


if __name__ == "__main__":
    main()
