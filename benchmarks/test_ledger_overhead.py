"""Ledger overhead — decision provenance must be (simulated-)free.

Runs the same MOT-17-like evaluation plain, and with a
:class:`~repro.provenance.DecisionLedger` plus full telemetry attached.
The transparency contract (DESIGN.md §11) says recording never touches
the algorithm: recall, ReID invocations and the simulated clock must be
*bit-identical*, and that is asserted here — a strictly stronger check
than the gate's 5% simulated-ms tolerance, which guards the same number
against drift across commits.  The observed variant runs twice and must
record the same log both times.  What recording costs on the wall clock
is the e2e benchmark's to measure: its stream-kitti workload carries the
ledger (``benchmarks/e2e``).
"""

from conftest import publish, record_summary

from repro.core.tmerge import TMerge
from repro.experiments.reporting import format_table
from repro.experiments.sweeps import evaluate_merger
from repro.provenance import DecisionLedger
from repro.telemetry import Telemetry

TAU_MAX = 400


def _factory():
    return TMerge(k=0.1, tau_max=TAU_MAX, batch_size=10, seed=3)


def _observed(videos):
    """One evaluation with a ledger and telemetry attached."""
    ledger = DecisionLedger()
    point = evaluate_merger(
        _factory, videos, telemetry=Telemetry(), ledger=ledger
    )
    return point, ledger


def test_ledger_overhead(mot17_videos):
    plain = evaluate_merger(_factory, mot17_videos)
    observed, ledger = _observed(mot17_videos)
    again, ledger_again = _observed(mot17_videos)

    # Transparency: every observed run is the plain run, bit for bit,
    # and records the same log.
    assert observed == plain and again == plain
    assert ledger_again.to_dicts() == ledger.to_dicts()
    assert len(ledger) > 0

    events_per_sim_s = (
        len(ledger) / observed.simulated_seconds
        if observed.simulated_seconds > 0
        else float("inf")
    )
    publish(
        "ledger_overhead",
        format_table(
            ["variant", "sim s", "REC", "events"],
            [
                [
                    "plain",
                    round(plain.simulated_seconds, 2),
                    round(plain.rec, 3),
                    0,
                ],
                [
                    "ledger + telemetry",
                    round(observed.simulated_seconds, 2),
                    round(observed.rec, 3),
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
        recall=observed.rec,
        reid_invocations=observed.reid_invocations,
        simulated_ms=observed.simulated_seconds * 1000.0,
        extras={
            "ledger_events": float(len(ledger)),
            "events_per_simulated_s": events_per_sim_s,
        },
    )
