"""Differential restart tests: kill + resume is bit-identical.

The streaming service's headline robustness guarantee: a service
SIGKILLed at a window boundary and rebuilt from its
:class:`~repro.resilience.CheckpointStore` emits exactly what an
uninterrupted run would have — candidates, scores, degraded flags,
simulated clock, lifetime counters, all bit-for-bit — across ReID
seeds × fault profiles, repeated crashes, a real process-restart
simulation (fresh store reading the disk mirror, decision ledger and
its journal included), and worker-count changes across the crash.  Runs
inside CI's chaos matrix.
"""

import pytest

from helpers import env_batch_size

from repro.core.tmerge import TMerge
from repro.faults import fault_profile
from repro.provenance import DecisionLedger
from repro.resilience import CheckpointStore
from repro.streaming import StreamingIngestionService, SyntheticFeedSource
from repro.telemetry import Telemetry
from repro.track import TracktorTracker

SEEDS = (1, 5)
PROFILES = (None, "flaky-reid", "window-crash")
FAULT_SEED = 11


def _profile(name):
    return None if name is None else fault_profile(name, seed=FAULT_SEED)


def _source(world, profile):
    return SyntheticFeedSource(
        world, disorder_ms=50.0, disorder_seed=3, fault_profile=profile
    )


def _merger(batch_size):
    return TMerge(k=0.1, tau_max=100, batch_size=batch_size, seed=3)


def _service(
    store, *, seed=1, profile=None, workers=1, telemetry=None, ledger=None,
    window_length=100, merger=None,
):
    return StreamingIngestionService(
        TracktorTracker(),
        merger or _merger(env_batch_size(10)),
        window_length=window_length,
        allowed_lateness=4,
        max_open_windows=8,
        reid_seed=seed,
        workers=workers,
        parallel_backend="thread",
        fault_profile=profile,
        store=store,
        telemetry=telemetry,
        ledger=ledger,
    )


def _final_digest(result):
    """Lifetime state that must match however many crashes happened."""
    return {
        "counters": result.counters,
        "cost": result.cost.state_dict(),
        "resilience": result.resilience_stats,
        "watermark": result.watermark,
        "position": result.position,
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile_name", PROFILES)
def test_kill_resume_bit_identical(scenario_world, seed, profile_name):
    profile = _profile(profile_name)
    source = _source(scenario_world, profile)
    reference = _service(
        CheckpointStore(), seed=seed, profile=profile
    ).run(source)
    assert not reference.stopped
    assert len(reference.emissions) >= 4

    store = CheckpointStore()
    first = _service(store, seed=seed, profile=profile).run(
        source, stop_after_windows=2
    )
    assert first.stopped
    assert len(first.emissions) == 2
    resumed = _service(store, seed=seed, profile=profile).run(source)
    assert not resumed.stopped

    stitched = first.fingerprints() + resumed.fingerprints()
    assert stitched == reference.fingerprints()
    assert _final_digest(resumed) == _final_digest(reference)


def test_repeated_crashes_still_identical(scenario_world):
    """Crashing after every single window changes nothing."""
    source = _source(scenario_world, None)
    reference = _service(CheckpointStore()).run(source)

    store = CheckpointStore()
    fingerprints = []
    for _ in range(len(reference.emissions) + 1):
        result = _service(store).run(source, stop_after_windows=1)
        fingerprints.extend(result.fingerprints())
        if not result.stopped:
            break
    assert fingerprints == reference.fingerprints()
    assert _final_digest(result) == _final_digest(reference)


def test_disk_backed_process_restart(scenario_world, tmp_path):
    """A brand-new store over the same directory = a new process."""
    source = _source(scenario_world, _profile("flaky-reid"))
    reference = _service(
        CheckpointStore(), profile=_profile("flaky-reid")
    ).run(source)

    ckpt_dir = str(tmp_path / "ckpts")
    first = _service(
        CheckpointStore(path=ckpt_dir), profile=_profile("flaky-reid")
    ).run(source, stop_after_windows=2)
    # the "process" dies here; only the files survive
    resumed = _service(
        CheckpointStore(path=ckpt_dir), profile=_profile("flaky-reid")
    ).run(source)
    stitched = first.fingerprints() + resumed.fingerprints()
    assert stitched == reference.fingerprints()
    assert _final_digest(resumed) == _final_digest(reference)


@pytest.mark.parametrize(
    "changed, written, running",
    (
        (dict(window_length=60), "window_length=100", "window_length=60"),
        (dict(merger=_merger(None)), "batch=8", "batch=None"),
    ),
    ids=("window_length", "batch"),
)
def test_resume_refuses_another_configuration(
    scenario_world, tmp_path, changed, written, running
):
    """A snapshot resumes only under the window length and merger batch
    it was written with; anything else would emit shifted windows or
    diverge from the interrupted run."""
    source = _source(scenario_world, None)
    ckpt_dir = str(tmp_path / "ckpts")
    _service(CheckpointStore(path=ckpt_dir), merger=_merger(8)).run(
        source, stop_after_windows=2
    )
    with pytest.raises(ValueError) as excinfo:
        _service(CheckpointStore(path=ckpt_dir), **changed).run(source)
    message = str(excinfo.value)
    assert written in message
    assert running in message


def test_disk_backed_restart_with_ledger(scenario_world, tmp_path):
    """A new process resumes the decision ledger from the disk journal."""
    profile = _profile("flaky-reid")
    source = _source(scenario_world, profile)
    reference_ledger = DecisionLedger()
    reference = _service(
        CheckpointStore(), profile=profile, ledger=reference_ledger
    ).run(source)

    ckpt_dir = str(tmp_path / "ckpts")
    first = _service(
        CheckpointStore(path=ckpt_dir), profile=profile,
        ledger=DecisionLedger(),
    ).run(source, stop_after_windows=2)
    assert sorted(p.suffix for p in (tmp_path / "ckpts").iterdir()) == [
        ".json", ".jsonl"
    ]
    resumed_ledger = DecisionLedger()
    resumed = _service(
        CheckpointStore(path=ckpt_dir), profile=profile,
        ledger=resumed_ledger,
    ).run(source)
    stitched = first.fingerprints() + resumed.fingerprints()
    assert stitched == reference.fingerprints()
    assert _final_digest(resumed) == _final_digest(reference)
    assert resumed_ledger.to_dicts() == reference_ledger.to_dicts()
    assert list((tmp_path / "ckpts").iterdir()) == []  # feed done


def test_torn_journal_tail_is_dropped(scenario_world, tmp_path):
    """Records appended after the last save (a crash between a journal
    append and its snapshot) are dropped on resume, bit-identically."""
    source = _source(scenario_world, None)
    reference_ledger = DecisionLedger()
    reference = _service(CheckpointStore(), ledger=reference_ledger).run(
        source
    )

    ckpt_dir = tmp_path / "ckpts"
    key = ["stream", "stream"]
    first = _service(
        CheckpointStore(path=str(ckpt_dir)), ledger=DecisionLedger()
    ).run(source, stop_after_windows=2)
    crashed = CheckpointStore(path=str(ckpt_dir))
    crashed.append(key, [{"seq": -1, "kind": "window", "window": 99}])
    (journal,) = ckpt_dir.glob("*.jsonl")
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"seq": -2, "kind": "sam')  # cut off mid-append

    second = _service(
        CheckpointStore(path=str(ckpt_dir)), ledger=DecisionLedger()
    ).run(source, stop_after_windows=1)
    store = CheckpointStore(path=str(ckpt_dir))
    header = store.load(key)["ledger"]
    records = store.journal(key, header["journal"])
    assert all(record["seq"] >= 0 for record in records)
    assert len(journal.read_text().splitlines()) == 1 + header["journal"]

    resumed_ledger = DecisionLedger()
    resumed = _service(store, ledger=resumed_ledger).run(source)
    stitched = (
        first.fingerprints() + second.fingerprints() + resumed.fingerprints()
    )
    assert stitched == reference.fingerprints()
    assert resumed_ledger.to_dicts() == reference_ledger.to_dicts()


def test_fresh_start_discards_stale_journal(scenario_world, tmp_path):
    """A journal with no snapshot beside it — a crash cut off the first
    append before the first save — is discarded: the run starts fresh."""
    source = _source(scenario_world, None)
    reference_ledger = DecisionLedger()
    _service(CheckpointStore(), ledger=reference_ledger).run(source)

    ckpt_dir = tmp_path / "ckpts"
    CheckpointStore(path=str(ckpt_dir)).append(
        ["stream", "stream"], [{"seq": 0, "kind": "final"}] * 5
    )
    (journal,) = ckpt_dir.glob("*.jsonl")
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"seq": 5, "ki')
    first = _service(
        CheckpointStore(path=str(ckpt_dir)), ledger=DecisionLedger()
    ).run(source, stop_after_windows=2)
    assert first.stopped and first.emissions[0].index == 0
    resumed_ledger = DecisionLedger()
    _service(
        CheckpointStore(path=str(ckpt_dir)), ledger=resumed_ledger
    ).run(source)
    assert resumed_ledger.to_dicts() == reference_ledger.to_dicts()


def test_worker_count_change_across_crash(scenario_world):
    """Resuming with a different fan-out must not change results."""
    source = _source(scenario_world, None)
    reference = _service(CheckpointStore()).run(source)

    store = CheckpointStore()
    first = _service(store, workers=1).run(source, stop_after_windows=2)
    resumed = _service(store, workers=3).run(source)
    stitched = first.fingerprints() + resumed.fingerprints()
    assert stitched == reference.fingerprints()
    assert _final_digest(resumed) == _final_digest(reference)


def test_fresh_store_means_fresh_start(scenario_world):
    """No snapshot → the service starts from offset 0, by design."""
    source = _source(scenario_world, None)
    killed = _service(CheckpointStore()).run(source, stop_after_windows=1)
    assert killed.stopped and killed.position < scenario_world.n_frames
    fresh = _service(CheckpointStore()).run(source)
    assert fresh.emissions[0].fingerprint() == killed.emissions[0].fingerprint()
    assert fresh.position == scenario_world.n_frames


def test_window_metrics_stitch_across_restart(scenario_world):
    """Per-emission counter deltas neither double-count nor drop.

    ``StreamRunResult.window_metrics`` holds one delta per emission; a
    kill + resume must partition the reference list exactly — the
    resumed service re-records nothing for windows already emitted and
    skips nothing for windows still pending.
    """
    source = _source(scenario_world, None)
    reference = _service(
        CheckpointStore(), telemetry=Telemetry()
    ).run(source)
    assert len(reference.window_metrics) == len(reference.emissions)

    store = CheckpointStore()
    first = _service(store, telemetry=Telemetry()).run(
        source, stop_after_windows=2
    )
    resumed = _service(store, telemetry=Telemetry()).run(source)
    assert len(first.window_metrics) == len(first.emissions)
    stitched = first.window_metrics + resumed.window_metrics
    assert stitched == reference.window_metrics


def test_absorbed_spans_stitch_across_restart(scenario_world):
    """Tracer.absorb across a restart covers each window exactly once."""
    source = _source(scenario_world, None)
    ref_telemetry = Telemetry()
    reference = _service(
        CheckpointStore(), telemetry=ref_telemetry
    ).run(source)

    store = CheckpointStore()
    first_telemetry = Telemetry()
    _service(store, telemetry=first_telemetry).run(
        source, stop_after_windows=2
    )
    resumed_telemetry = Telemetry()
    _service(store, telemetry=resumed_telemetry).run(source)

    def window_ids(telemetry):
        return [
            s.attributes["window_id"]
            for s in telemetry.tracer.spans
            if s.name == "stream.window"
        ]

    first_ids = window_ids(first_telemetry)
    resumed_ids = window_ids(resumed_telemetry)
    assert not set(first_ids) & set(resumed_ids)
    assert sorted(first_ids + resumed_ids) == sorted(
        window_ids(ref_telemetry)
    )
    assert sorted(window_ids(ref_telemetry)) == [
        e.index for e in reference.emissions
    ]

    def name_counts(telemetry):
        counts = {}
        for span in telemetry.tracer.spans:
            if span.name == "stream.run":
                continue  # one per run() call by construction
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    stitched = name_counts(first_telemetry)
    for name, count in name_counts(resumed_telemetry).items():
        stitched[name] = stitched.get(name, 0) + count
    assert stitched == name_counts(ref_telemetry)


def test_telemetry_counters_stitch_across_restart(scenario_world):
    """Registry counters over both halves sum to the reference run's."""
    source = _source(scenario_world, None)
    ref_telemetry = Telemetry()
    _service(CheckpointStore(), telemetry=ref_telemetry).run(source)
    ref_counters = ref_telemetry.metrics.counters_snapshot()

    store = CheckpointStore()
    first_telemetry = Telemetry()
    _service(store, telemetry=first_telemetry).run(
        source, stop_after_windows=2
    )
    resumed_telemetry = Telemetry()
    _service(store, telemetry=resumed_telemetry).run(source)

    stitched = dict(first_telemetry.metrics.counters_snapshot())
    for name, value in (
        resumed_telemetry.metrics.counters_snapshot().items()
    ):
        stitched[name] = stitched.get(name, 0.0) + value
    assert set(stitched) == set(ref_counters)
    for name, value in ref_counters.items():
        # approx: the split re-associates float accumulation order
        assert stitched[name] == pytest.approx(value), name
