"""Regenerate ``explain_golden.json`` — pinned decision chains.

Run from the repo root after a *conscious* change to what
``explain_pair`` reports::

    PYTHONPATH=src python tests/fixtures/make_explain_golden.py

The fixture pins the decision chains ``explain_pair`` rebuilds for a few
pairs of four seeded ledger-on runs: a planted window at B=1 and at B=8
with ULB pruning on (so ``ulb`` steps appear), and the 240-frame
chaos-baseline pipeline under the ``window-crash`` profile, once
restarting crashed windows from scratch (two ``window`` events in one
window) and once resuming them from a mid-window checkpoint.  Each step
keeps its ``tau``, ``kind``, ``summary`` and ``detail``; sequence
numbers are left out, since they depend on how the ledger groups
events.  ``tests/test_provenance.py::TestExplainGolden`` asserts the
current code reproduces every chain.
"""

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

from helpers import StubReidModel, planted_pairs  # noqa: E402

from repro.core.pipeline import IngestionPipeline  # noqa: E402
from repro.core.tmerge import TMerge  # noqa: E402
from repro.detect import NoisyDetector  # noqa: E402
from repro.faults import fault_profile  # noqa: E402
from repro.provenance import DecisionLedger, explain_pair  # noqa: E402
from repro.reid import CostModel, ReidScorer  # noqa: E402
from repro.resilience import CheckpointStore  # noqa: E402
from repro.scenarios import build_scenario, scenario_by_name  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.track import TracktorTracker  # noqa: E402

OUT = Path(__file__).parent / "explain_golden.json"


def _planted_ledger(batch_size: int) -> DecisionLedger:
    ledger = DecisionLedger()
    ledger.begin_window(0)
    pairs, _ = planted_pairs(n_distinct=8, track_len=6)
    scorer = ReidScorer(
        StubReidModel(noise=0.05, seed=9),
        cost=CostModel(),
        telemetry=Telemetry(ledger=ledger),
    )
    TMerge(
        k=0.2, tau_max=300, seed=1, batch_size=batch_size,
        ulb_scale=0.1, ulb_interval=10,
    ).run(pairs, scorer)
    return ledger


def _crash_ledger(checkpoint_interval: int | None) -> DecisionLedger:
    world = build_scenario(scenario_by_name("chaos-baseline"), seed=21).world
    detections = NoisyDetector().detect_video(world, seed=2)
    tracks = TracktorTracker().run(detections)
    ledger = DecisionLedger()
    merger = TMerge(
        k=0.1, tau_max=150, batch_size=8, seed=3,
        checkpoint_interval=checkpoint_interval,
        checkpoint_store=(
            CheckpointStore() if checkpoint_interval is not None else None
        ),
    )
    IngestionPipeline(
        tracker=TracktorTracker(),
        merger=merger,
        window_length=100,
        reid_seed=1,
        workers=1,
        parallel_backend="thread",
        fault_profile=fault_profile("window-crash", seed=11),
        ledger=ledger,
    ).run_on_tracks(world, detections, tracks)
    return ledger


def _picked_arms(events, window: int) -> list[int]:
    """Up to four arms of ``window``, one per verdict when present: the
    first ULB-accepted, ULB-rejected, plainly chosen and unchosen arm."""
    final = [e for e in events if e.window == window and e.kind == "final"]
    data = final[-1].data
    accepted = list(data["ulb_accepted"])
    rejected = list(data["ulb_rejected"])
    chosen = [a for a in data["chosen"] if a not in accepted]
    ruled = set(data["chosen"]) | set(rejected)
    unchosen = [a for a in range(data["n_pairs"]) if a not in ruled]
    return [group[0] for group in (accepted, rejected, chosen, unchosen)
            if group]


def _chains(ledger: DecisionLedger) -> list[dict]:
    events = ledger.events
    windows = sorted({e.window for e in events if e.kind == "window"})
    faulted = sorted({e.window for e in events if e.kind == "fault"})
    window = (faulted or windows)[0]
    table = next(
        e for e in events if e.window == window and e.kind == "window"
    ).data["pairs"]
    chains = []
    for arm in _picked_arms(events, window):
        chain = explain_pair(events, tuple(table[arm]), window=window)
        chains.append({
            "pair": list(chain.pair),
            "window": chain.window,
            "arm": chain.arm,
            "verdict": chain.verdict,
            "final_score": chain.final_score,
            "n_observations": chain.n_observations,
            "steps": [
                {
                    "tau": step.tau,
                    "kind": step.kind,
                    "summary": step.summary,
                    "detail": step.detail,
                }
                for step in chain.steps
            ],
        })
    return chains


#: The pinned runs, by name.
RUNS = {
    "planted-b1": lambda: _planted_ledger(1),
    "planted-b8": lambda: _planted_ledger(8),
    "crash-restart-b8": lambda: _crash_ledger(None),
    "crash-resume-b8": lambda: _crash_ledger(7),
}


def build_golden() -> dict:
    """Every pinned run's chains, as pure JSON."""
    return json.loads(json.dumps(
        {name: _chains(run()) for name, run in RUNS.items()}
    ))


if __name__ == "__main__":
    OUT.write_text(json.dumps(build_golden(), sort_keys=True) + "\n")
    print(f"wrote {OUT}")
