"""Ledger overhead — decision provenance must be (simulated-)free.

Runs the same MOT-17-like evaluation twice: plain, and with a
:class:`~repro.provenance.DecisionLedger` plus full telemetry attached.
The transparency contract (DESIGN.md §11) says recording never touches
the algorithm: recall, ReID invocations and the simulated clock must be
*bit-identical*, and that is asserted here — a strictly stronger check
than the gate's 5% simulated-ms tolerance, which guards the same number
against drift across commits.  The wall-clock price of recording is
machine-dependent and lands in the ungated ``extras`` (overhead ratio,
events recorded, events per simulated second).  Each variant runs
:data:`REPEATS` times, interleaved, and the fastest run of each counts:
one ~0.1 s run on a shared host reads anywhere from 0.8x to 1.5x.
"""

import time

from conftest import publish, record_summary

from repro.core.tmerge import TMerge
from repro.experiments.reporting import format_table
from repro.experiments.sweeps import evaluate_merger
from repro.provenance import DecisionLedger
from repro.telemetry import Telemetry

TAU_MAX = 400
#: Timed runs per variant (the fastest counts).
REPEATS = 5


def _factory():
    return TMerge(k=0.1, tau_max=TAU_MAX, batch_size=10, seed=3)


def _run(videos, *, observed: bool):
    ledger = DecisionLedger() if observed else None
    telemetry = Telemetry() if observed else None
    start = time.perf_counter()
    point = evaluate_merger(
        _factory, videos, telemetry=telemetry, ledger=ledger
    )
    wall_s = time.perf_counter() - start
    return {
        "point": point,
        "wall_s": wall_s,
        "ledger": ledger,
    }


def _fastest(runs):
    return min(runs, key=lambda run: run["wall_s"])


def test_ledger_overhead(mot17_videos):
    plain_runs, observed_runs = [], []
    for _ in range(REPEATS):
        plain_runs.append(_run(mot17_videos, observed=False))
        observed_runs.append(_run(mot17_videos, observed=True))
    plain = _fastest(plain_runs)
    observed = _fastest(observed_runs)
    ledger = observed["ledger"]

    # Transparency: every observed run is the plain run, bit for bit,
    # and records the same log.
    for run in plain_runs + observed_runs:
        assert run["point"] == plain["point"]
    for run in observed_runs:
        assert run["ledger"].to_dicts() == ledger.to_dicts()
    assert len(ledger) > 0

    simulated_ms = observed["point"].simulated_seconds * 1000.0
    overhead = (
        observed["wall_s"] / plain["wall_s"]
        if plain["wall_s"] > 0
        else float("inf")
    )
    events_per_sim_s = (
        len(ledger) / observed["point"].simulated_seconds
        if observed["point"].simulated_seconds > 0
        else float("inf")
    )
    publish(
        "ledger_overhead",
        format_table(
            ["variant", "wall s", "sim s", "REC", "events"],
            [
                [
                    "plain",
                    round(plain["wall_s"], 3),
                    round(plain["point"].simulated_seconds, 2),
                    round(plain["point"].rec, 3),
                    0,
                ],
                [
                    "ledger + telemetry",
                    round(observed["wall_s"], 3),
                    round(observed["point"].simulated_seconds, 2),
                    round(observed["point"].rec, 3),
                    len(ledger),
                ],
            ],
            title=(
                "Decision-ledger overhead — same evaluation with and "
                "without provenance recording (bit-identical results)"
            ),
        ),
    )
    record_summary(
        "ledger_overhead",
        recall=observed["point"].rec,
        reid_invocations=observed["point"].reid_invocations,
        simulated_ms=simulated_ms,
        extras={
            "plain_wall_s": plain["wall_s"],
            "observed_wall_s": observed["wall_s"],
            "wall_overhead_ratio": overhead,
            "ledger_events": float(len(ledger)),
            "events_per_simulated_s": events_per_sim_s,
        },
    )
