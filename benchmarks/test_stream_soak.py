"""Chaos soak — the streaming service over a long faulty feed.

Drives the watermark-driven streaming service over a feed an order of
magnitude longer than its resident-window bound, with arrival disorder
and the ``flaky-reid`` fault profile active, *kills* it mid-feed and
resumes from its checkpoint.  Every service records a decision ledger,
so the resume reads the ledger back from the checkpoint journal.
Asserts the robustness contract end to end: stitched emissions and the
resumed ledger bit-identical to an uninterrupted run, peak resident
windows within the configured bound, nothing shed under the lossless
policy — and records recall / ReID-invocation / simulated-ms
metrics (plus soak extras) into ``bench_summary.json`` for the gate.
"""

from conftest import SMOKE, publish, record_summary

from repro.core.tmerge import TMerge
from repro.experiments.reporting import format_table
from repro.faults import fault_profile
from repro.metrics.matching import match_tracks_to_gt, polyonymous_pairs
from repro.provenance import DecisionLedger
from repro.resilience import CheckpointStore
from repro.streaming import StreamingIngestionService, SyntheticFeedSource
from repro.synth.datasets import mot17_like
from repro.synth.world import simulate_world
from repro.track import TracktorTracker

N_FRAMES = 600 if SMOKE else 1800
WINDOW_LENGTH = 100
MAX_OPEN_WINDOWS = 8
KILL_AFTER = 3


def _service(store, ledger):
    return StreamingIngestionService(
        TracktorTracker(),
        TMerge(k=0.1, tau_max=300, batch_size=10, seed=3),
        window_length=WINDOW_LENGTH,
        allowed_lateness=4,
        max_open_windows=MAX_OPEN_WINDOWS,
        workers=2,
        parallel_backend="thread",
        fault_profile=fault_profile("flaky-reid", seed=11),
        store=store,
        ledger=ledger,
    )


def test_stream_soak_kill_resume(benchmark):
    world = simulate_world(mot17_like().config, N_FRAMES, seed=4)
    source = SyntheticFeedSource(
        world,
        disorder_ms=60.0,
        disorder_seed=5,
        fault_profile=fault_profile("flaky-reid", seed=11),
    )

    reference_ledger = DecisionLedger()
    resumed_ledger = DecisionLedger()

    def soak():
        reference = _service(CheckpointStore(), reference_ledger).run(source)
        store = CheckpointStore()
        first = _service(store, DecisionLedger()).run(
            source, stop_after_windows=KILL_AFTER
        )
        resumed = _service(store, resumed_ledger).run(source)
        return reference, first, resumed

    reference, first, resumed = benchmark.pedantic(
        soak, rounds=1, iterations=1
    )

    # --- robustness contract ------------------------------------------
    stitched = first.fingerprints() + resumed.fingerprints()
    assert stitched == reference.fingerprints()
    assert resumed.counters == reference.counters
    assert resumed.cost.state_dict() == reference.cost.state_dict()
    assert resumed_ledger.to_dicts() == reference_ledger.to_dicts()
    assert len(reference_ledger) > 0
    n_windows = len(reference.emissions)
    assert n_windows * (WINDOW_LENGTH // 2) >= N_FRAMES  # feed covered
    assert reference.peak_open_windows <= MAX_OPEN_WINDOWS
    assert reference.counters.get("stream.frames_shed_late", 0.0) == 0.0
    assert reference.counters["stream.frames_in"] == N_FRAMES

    # --- quality + cost metrics for the gate --------------------------
    tracks = {
        pair.track_a.track_id: pair.track_a
        for emission in reference.emissions
        for pair in emission.pairs
    }
    tracks.update(
        (pair.track_b.track_id, pair.track_b)
        for emission in reference.emissions
        for pair in emission.pairs
    )
    assignment = match_tracks_to_gt(list(tracks.values()), world)
    found = 0
    total = 0
    for emission in reference.emissions:
        gt = polyonymous_pairs(emission.pairs, assignment)
        found += len(emission.result.candidate_keys & gt)
        total += len(gt)
    recall = found / total if total else 1.0
    cost = reference.cost.state_dict()
    invocations = cost["n_extractions"] + cost["n_batched_extractions"]

    rows = [
        ["windows emitted", n_windows],
        ["peak open windows", reference.peak_open_windows],
        ["recall over soak", round(recall, 4)],
        ["reid invocations", int(invocations)],
        ["simulated ms", round(cost["ms"], 1)],
        ["transient faults absorbed",
         int(reference.resilience_stats.get("transient_faults", 0.0))],
        ["degraded windows",
         int(reference.counters.get("stream.windows_degraded", 0.0))],
    ]
    publish(
        "stream_soak",
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"Streaming soak — {N_FRAMES} frames, flaky-reid, "
                f"killed after {KILL_AFTER} windows and resumed "
                "(bit-identical)"
            ),
        ),
    )
    record_summary(
        "stream_soak",
        recall=recall,
        reid_invocations=invocations,
        simulated_ms=cost["ms"],
        extras={
            "peak_open_windows": reference.peak_open_windows,
            "windows": n_windows,
            "transient_faults": reference.resilience_stats.get(
                "transient_faults", 0.0
            ),
            "degraded_windows": reference.counters.get(
                "stream.windows_degraded", 0.0
            ),
        },
    )
