"""Differential tests: the decision ledger is bit-transparent.

The provenance layer's contract (DESIGN.md §11) mirrors telemetry's:
attaching a :class:`~repro.provenance.DecisionLedger` never changes a
single merged bit — candidates, scores, iterations, the simulated
clock — across seeds × fault profiles × worker counts × batch sizes
(the CI chaos matrix re-runs this file at ``REPRO_BATCH_SIZE`` 1 and 8).
On top of transparency, the ledger itself must be deterministic: the
merged log is worker-count invariant, and a streaming service killed at
a window boundary and resumed from its checkpoint reconstructs the
bit-identical event log an uninterrupted run would have written.
Checkpoint-schema compatibility rules (TMerge v5, streaming v5) are
enforced here too, along with the streaming checkpoint's ledger journal:
each checkpoint appends only the events recorded since the previous
one, and a bounded ledger's journal stays bounded.
"""

import json

import pytest

from helpers import StubReidModel, planted_pairs

from repro.core.tmerge import TMerge
from repro.faults import fault_profile
from repro.provenance import DecisionLedger
from repro.reid import CostModel, ReidScorer
from repro.resilience import CheckpointStore
from repro.resilience.checkpoint import JOURNAL_COMPACT_FLOOR
from repro.streaming import (
    CHECKPOINT_VERSION as STREAM_CHECKPOINT_VERSION,
    StreamingIngestionService,
    SyntheticFeedSource,
)
from repro.telemetry import Telemetry
from repro.track import TracktorTracker

SEEDS = (1, 5)
PROFILES = (None, "flaky-reid", "window-crash")
FAULT_SEED = 11


def _profile(name):
    return None if name is None else fault_profile(name, seed=FAULT_SEED)


def _workload(noise: float = 0.05, ledger=None):
    """A planted pair set and a stub scorer whose Telemetry carries
    ``ledger`` (TMerge records through the scorer's Telemetry)."""
    pairs, _ = planted_pairs(n_distinct=8, track_len=6)
    scorer = ReidScorer(
        StubReidModel(noise=noise, seed=9),
        cost=CostModel(),
        telemetry=Telemetry(ledger=ledger),
    )
    return pairs, scorer


def _merge_fingerprint(result, scorer):
    return json.loads(json.dumps({
        "candidates": [list(k) for k in result.candidate_keys],
        "scores": sorted((list(k), v) for k, v in result.scores.items()),
        "iterations": result.iterations,
        "simulated_seconds": result.simulated_seconds,
        "cost": scorer.cost.state_dict(),
    }))


class TestMergerTransparency:
    """Ledger on/off bit-identity at the TMerge level (fast path)."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("batch_size", (1, 8))
    def test_ledger_does_not_change_results(self, seed, batch_size):
        config = dict(
            k=0.2, tau_max=300, seed=seed, batch_size=batch_size,
            ulb_scale=0.3, ulb_interval=10,
        )
        pairs, scorer = _workload()
        plain = TMerge(**config).run(pairs, scorer)
        plain_print = _merge_fingerprint(plain, scorer)

        ledger = DecisionLedger()
        pairs, scorer = _workload(ledger=ledger)
        observed = TMerge(**config).run(pairs, scorer)
        assert _merge_fingerprint(observed, scorer) == plain_print
        kinds = {event.kind for event in ledger}
        assert "window" in kinds and "sample" in kinds and "final" in kinds


@pytest.fixture(scope="module")
def tracked(chaos_world):
    from repro.detect import NoisyDetector
    from repro.track import TracktorTracker as Tracker

    detections = NoisyDetector().detect_video(chaos_world, seed=2)
    tracks = Tracker().run(detections)
    return detections, tracks


def _run_pipeline(make_pipeline, world, tracked, *, workers, seed,
                  profile=None, ledger=None):
    detections, tracks = tracked
    pipeline = make_pipeline(
        window_length=100,
        reid_seed=seed,
        workers=workers,
        parallel_backend="thread",
        fault_profile=_profile(profile),
        ledger=ledger,
    )
    return pipeline.run_on_tracks(world, detections, tracks)


def _pipeline_fingerprint(result):
    return {
        "candidates": [
            tuple(sorted(r.candidate_keys)) for r in result.window_results
        ],
        "scores": [
            tuple(sorted(r.scores.items())) for r in result.window_results
        ],
        "degraded": [r.degraded for r in result.window_results],
        "simulated_seconds": [
            r.simulated_seconds for r in result.window_results
        ],
        "cost": result.cost.state_dict(),
        "resilience": dict(result.resilience_stats),
    }


class TestPipelineTransparency:
    """Ledger on/off bit-identity through the sharded engine."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ledger_transparent_under_faults(
        self, make_pipeline, chaos_world, tracked, seed, profile
    ):
        plain = _run_pipeline(
            make_pipeline, chaos_world, tracked,
            workers=2, seed=seed, profile=profile,
        )
        ledger = DecisionLedger()
        observed = _run_pipeline(
            make_pipeline, chaos_world, tracked,
            workers=2, seed=seed, profile=profile, ledger=ledger,
        )
        assert _pipeline_fingerprint(observed) == _pipeline_fingerprint(
            plain
        )
        assert len(ledger) > 0

    def test_ledger_worker_count_invariant(
        self, make_pipeline, chaos_world, tracked
    ):
        """The absorbed log is identical for any worker count."""
        logs = {}
        for workers in (1, 2, 4):
            ledger = DecisionLedger()
            _run_pipeline(
                make_pipeline, chaos_world, tracked,
                workers=workers, seed=1, profile="window-crash",
                ledger=ledger,
            )
            logs[workers] = [event.to_dict() for event in ledger]
        assert logs[2] == logs[1]
        assert logs[4] == logs[1]
        kinds = {event["kind"] for event in logs[1]}
        assert "fault" in kinds  # the crash profile leaves fault events

    def test_serial_path_transparent(
        self, make_pipeline, chaos_world, tracked
    ):
        """The inline (workers=None) path is transparent too."""
        detections, tracks = tracked
        plain = make_pipeline(window_length=100).run_on_tracks(
            chaos_world, detections, tracks
        )
        ledger = DecisionLedger()
        observed = make_pipeline(
            window_length=100, ledger=ledger
        ).run_on_tracks(chaos_world, detections, tracks)
        assert _pipeline_fingerprint(observed) == _pipeline_fingerprint(
            plain
        )
        # The ledger stamps exactly the windows that had pairs to merge
        # (empty windows never reach the merger).
        windows = {e.window for e in ledger if e.kind == "window"}
        assert windows == {
            c for c, pairs in enumerate(plain.window_pairs) if pairs
        }


class TestEvaluateMergerTransparency:
    """The figure-bench entry point: attaching a Telemetry, a ledger or
    both never changes a :class:`MethodPoint`, on the serial loop and on
    the engine path, and the injected Telemetry sees the fault seams."""

    @pytest.fixture(scope="class")
    def videos(self):
        from repro.experiments.prep import prepare_dataset

        return prepare_dataset("mot17", 1, seed=0, n_frames=300)

    @pytest.mark.parametrize("workers", (None, 1))
    def test_observers_do_not_change_the_point(self, videos, workers):
        from repro.experiments.sweeps import evaluate_merger

        def evaluate(telemetry=None, ledger=None):
            return evaluate_merger(
                lambda: TMerge(k=0.1, tau_max=100, batch_size=10, seed=3),
                videos,
                fault_profile=_profile("flaky-reid"),
                telemetry=telemetry,
                ledger=ledger,
                workers=workers,
                parallel_backend="thread",
            )

        plain = evaluate()
        telemetry = Telemetry()
        assert evaluate(telemetry=telemetry) == plain
        ledger = DecisionLedger()
        assert evaluate(ledger=ledger) == plain
        both_telemetry, both_ledger = Telemetry(), DecisionLedger()
        assert evaluate(telemetry=both_telemetry, ledger=both_ledger) == plain

        assert len(ledger) > 0
        assert both_ledger.to_dicts() == ledger.to_dicts()
        for sink in (telemetry, both_telemetry):
            counters = sink.metrics.counters_snapshot()
            assert counters.get("faults.reid_failures", 0.0) > 0
        assert (
            both_telemetry.metrics.counters_snapshot()
            == telemetry.metrics.counters_snapshot()
        )


class TestScenarioTransparency:
    """Ledger bit-transparency holds under every regime the scenario
    matrix throws at the pipeline — surges, corruption, dropouts and
    compound storms, not just the friendly fixture world."""

    SCENARIOS = (
        "mot17-clear",
        "kitti-camera-dropout",
        "mot17-perfect-storm",
    )

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_ledger_transparent_under_scenario(self, name):
        from repro.core.pipeline import IngestionPipeline
        from repro.scenarios import (
            build_scenario,
            scenario_by_name,
            smoke_variant,
        )

        spec = smoke_variant(scenario_by_name(name))
        scenario = build_scenario(spec, seed=0)

        def run(ledger=None):
            pipeline = IngestionPipeline(
                tracker=TracktorTracker(),
                merger=TMerge(k=0.1, tau_max=80, batch_size=10, seed=3),
                window_length=spec.window_length,
                reid_seed=scenario.seeds.reid_seed,
                detector_seed=scenario.seeds.detector_seed,
                fault_profile=scenario.profile,
                workers=1,
                parallel_backend="thread",
                ledger=ledger,
            )
            return pipeline.run(scenario.world)

        plain = run()
        ledger = DecisionLedger()
        observed = run(ledger=ledger)
        assert _pipeline_fingerprint(observed) == _pipeline_fingerprint(
            plain
        )
        assert len(ledger) > 0


def _service(store, *, ledger=None, seed=1, profile=None,
             checkpoint_interval=None):
    """The streaming service under test; ``checkpoint_interval`` gives
    every window's TMerge its own mid-window snapshots, each of which
    closes the open ``sample`` block."""
    merger = TMerge(
        k=0.1, tau_max=100, batch_size=10, seed=3,
        checkpoint_interval=checkpoint_interval,
        checkpoint_store=(
            None if checkpoint_interval is None else CheckpointStore()
        ),
    )
    return StreamingIngestionService(
        TracktorTracker(),
        merger,
        window_length=100,
        allowed_lateness=4,
        max_open_windows=8,
        reid_seed=seed,
        workers=1,
        parallel_backend="thread",
        fault_profile=profile,
        store=store,
        ledger=ledger,
    )


def _source(world, profile=None):
    return SyntheticFeedSource(
        world, disorder_ms=50.0, disorder_seed=3, fault_profile=profile
    )


class TestStreamingLedger:
    """Kill+resume reconstructs a bit-identical ledger; emissions stay
    transparent; checkpoint-schema compat rules hold."""

    @pytest.mark.parametrize("profile_name", (None, "window-crash"))
    def test_kill_resume_ledger_bit_identical(
        self, chaos_world, profile_name
    ):
        profile = _profile(profile_name)
        source = _source(chaos_world, profile)
        reference_ledger = DecisionLedger()
        reference = _service(
            CheckpointStore(), ledger=reference_ledger, profile=profile
        ).run(source)
        assert not reference.stopped and len(reference.emissions) >= 4

        store = CheckpointStore()
        first = _service(
            store, ledger=DecisionLedger(), profile=profile
        ).run(source, stop_after_windows=2)
        assert first.stopped
        resumed_ledger = DecisionLedger()
        resumed = _service(
            store, ledger=resumed_ledger, profile=profile
        ).run(source)

        stitched = first.fingerprints() + resumed.fingerprints()
        assert stitched == reference.fingerprints()
        assert [e.to_dict() for e in resumed_ledger] == [
            e.to_dict() for e in reference_ledger
        ]

    def test_kill_resume_with_mid_window_blocks(self, chaos_world):
        """With TMerge snapshots inside every window, each snapshot closes
        a ``sample`` block; a service killed and resumed still rebuilds
        the uninterrupted run's log, block for block."""
        source = _source(chaos_world)
        reference_ledger = DecisionLedger()
        reference = _service(
            CheckpointStore(), ledger=reference_ledger,
            checkpoint_interval=7,
        ).run(source)
        blocks = [e for e in reference_ledger if e.kind == "sample"]
        assert len(blocks) > len(reference.emissions)
        for block in blocks:
            # A block closed by a snapshot ends on the snapshot's τ.
            assert block.tau == block.data["tau"][-1]
            assert block.data["tau"] == list(
                range(block.data["tau"][0], block.tau + 1)
            )

        store = CheckpointStore()
        first = _service(
            store, ledger=DecisionLedger(), checkpoint_interval=7
        ).run(source, stop_after_windows=2)
        assert first.stopped
        resumed_ledger = DecisionLedger()
        resumed = _service(
            store, ledger=resumed_ledger, checkpoint_interval=7
        ).run(source)
        assert (
            first.fingerprints() + resumed.fingerprints()
            == reference.fingerprints()
        )
        assert resumed_ledger.to_dicts() == reference_ledger.to_dicts()

    def test_emissions_transparent(self, chaos_world):
        plain = _service(CheckpointStore()).run(
            _source(chaos_world)
        )
        observed = _service(
            CheckpointStore(), ledger=DecisionLedger()
        ).run(_source(chaos_world))
        assert observed.fingerprints() == plain.fingerprints()
        assert observed.counters == plain.counters

    @pytest.mark.parametrize("with_ledger", (False, True))
    @pytest.mark.parametrize(
        "version",
        (None, STREAM_CHECKPOINT_VERSION - 1, STREAM_CHECKPOINT_VERSION + 1),
        ids=("missing", "older", "newer"),
    )
    def test_unsupported_version_refused(
        self, chaos_world, version, with_ledger
    ):
        source = _source(chaos_world)
        store = CheckpointStore()
        _service(store).run(source, stop_after_windows=1)
        payload = json.loads(json.dumps(store.load(["stream", "stream"])))
        if version is None:
            del payload["version"]
        else:
            payload["version"] = version
        store.save(["stream", "stream"], payload)
        ledger = DecisionLedger() if with_ledger else None
        with pytest.raises(ValueError) as excinfo:
            _service(store, ledger=ledger).run(source)
        message = str(excinfo.value)
        assert f"version {version!r} is not supported" in message
        assert f"only version {STREAM_CHECKPOINT_VERSION}" in message

    def test_ledgerless_snapshot_refused_with_ledger(self, chaos_world):
        """A snapshot without ledger state cannot resume into a ledger
        run: its pre-crash decision events would be missing."""
        source = _source(chaos_world)
        store = CheckpointStore()
        _service(store).run(source, stop_after_windows=1)
        with pytest.raises(ValueError, match="ledger"):
            _service(store, ledger=DecisionLedger()).run(source)

    def test_ledger_state_rides_in_checkpoint(self, chaos_world):
        source = _source(chaos_world)
        store = CheckpointStore()
        ledger = DecisionLedger()
        _service(store, ledger=ledger).run(source, stop_after_windows=2)
        payload = store.load(["stream", "stream"])
        assert payload["version"] == STREAM_CHECKPOINT_VERSION == 5
        header = payload["ledger"]
        assert header == {
            "max_events": ledger.max_events,
            "n_recorded": ledger.n_recorded,
            "n_dropped": ledger.n_dropped,
            "window": ledger.current_window,
            "journal": header["journal"],
        }
        records = store.journal(["stream", "stream"], header["journal"])
        retained = header["n_recorded"] - header["n_dropped"]
        assert retained == len(ledger) > 0
        assert records[len(records) - retained:] == ledger.to_dicts()


    @pytest.mark.parametrize("field", ("journal", "n_recorded"))
    def test_short_journal_refused(self, chaos_world, field):
        source = _source(chaos_world)
        store = CheckpointStore()
        _service(store, ledger=DecisionLedger()).run(
            source, stop_after_windows=2
        )
        payload = store.load(["stream", "stream"])
        payload["ledger"][field] += 5
        store.save(["stream", "stream"], payload)
        length = payload["ledger"]["journal"] - (field == "journal") * 5
        with pytest.raises(ValueError) as excinfo:
            _service(store, ledger=DecisionLedger()).run(source)
        message = str(excinfo.value)
        assert "stream" in message
        assert f"holds {length} records, fewer than the " in message

    def test_checkpoint_journals_only_new_events(self, chaos_world):
        """Checkpoint i appends exactly the events recorded since
        checkpoint i-1; the snapshot carries counters, not events."""
        store = CheckpointStore()
        appended, headers = [], []
        append, save = store.append, store.save

        def spy_append(key, records):
            appended.append(list(records))
            return append(key, records)

        def spy_save(key, state):
            headers.append(json.loads(json.dumps(state["ledger"])))
            save(key, state)

        store.append, store.save = spy_append, spy_save
        ledger = DecisionLedger()
        result = _service(store, ledger=ledger).run(_source(chaos_world))
        assert len(appended) == len(headers) == len(result.emissions) >= 4
        previous = 0
        for records, header in zip(appended, headers):
            assert set(header) == {
                "max_events", "n_recorded", "n_dropped", "window", "journal"
            }
            assert [r["seq"] for r in records] == list(
                range(previous, header["n_recorded"])
            )
            assert header["journal"] == header["n_recorded"]
            previous = header["n_recorded"]
        assert previous == ledger.n_recorded

    def test_ledgerless_service_writes_no_journal(self, chaos_world, tmp_path):
        store = CheckpointStore(path=str(tmp_path))
        _service(store).run(_source(chaos_world), stop_after_windows=2)
        assert store.load(["stream", "stream"])["ledger"] is None
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_bounded_ledger_kill_resume(self, chaos_world, tmp_path):
        """A capped ledger resumes with identical counters and events
        after a crash at every window, and its on-disk journal stays
        within the compaction bound.  TMerge snapshots every iteration,
        so each iteration is its own ``sample`` block and the run records
        enough events to overflow the cap and compact the journal."""
        source = _source(chaos_world)
        reference_ledger = DecisionLedger(max_events=50)
        reference = _service(
            CheckpointStore(), ledger=reference_ledger,
            checkpoint_interval=1,
        ).run(source)
        assert reference_ledger.n_dropped > 0

        ckpt_dir = tmp_path / "ckpts"
        fingerprints, bases = [], []
        for _ in range(len(reference.emissions) + 1):
            ledger = DecisionLedger(max_events=50)
            result = _service(
                CheckpointStore(path=str(ckpt_dir)), ledger=ledger,
                checkpoint_interval=1,
            ).run(source, stop_after_windows=1)
            fingerprints.extend(result.fingerprints())
            if not result.stopped:
                break
            (journal,) = ckpt_dir.glob("*.jsonl")
            lines = journal.read_text().splitlines()
            bases.append(json.loads(lines[0])["base"])
            assert len(lines) - 1 <= max(2 * 50, JOURNAL_COMPACT_FLOOR)
        assert fingerprints == reference.fingerprints()
        assert (ledger.n_recorded, ledger.n_dropped) == (
            reference_ledger.n_recorded, reference_ledger.n_dropped
        )
        assert ledger.to_dicts() == reference_ledger.to_dicts()
        assert max(bases) > 0  # the journal was compacted


class TestTMergeCheckpointCompat:
    """TMerge v5 schema: ledger state rides along; a snapshot without
    it refuses to resume into a ledger-attached run.

    These tests use a *noiseless* scorer: TMerge checkpoints never
    capture the caller-owned scorer's RNG, so after a resume the raw
    observed distances would differ with feature noise (results stay
    bit-identical — the quantized outcomes match — but the ledger
    records ``d_norm`` verbatim).  With noise off, ``d_norm`` is a pure
    function of the pair and the whole event log is bit-comparable."""

    def _captured_payload(self, *, ledger=None):
        pairs, scorer = _workload(noise=0.0, ledger=ledger)
        store = CheckpointStore()
        captured = {}
        orig_save = store.save

        def spy(key, state):
            if state["tau"] == 120 and "payload" not in captured:
                captured["payload"] = json.loads(json.dumps(state))
            orig_save(key, state)

        store.save = spy
        result = TMerge(
            k=0.2, tau_max=300, seed=4, checkpoint_interval=40,
            checkpoint_store=store,
        ).run(pairs, scorer)
        assert "payload" in captured
        return captured["payload"], _merge_fingerprint(result, scorer)

    def test_ledger_payload_round_trips(self):
        ledger = DecisionLedger()
        payload, reference = self._captured_payload(ledger=ledger)
        assert payload["ledger"] is not None

        resumed_ledger = DecisionLedger()
        pairs, scorer = _workload(noise=0.0, ledger=resumed_ledger)
        store = CheckpointStore()
        store.save([list(p.key) for p in pairs], payload)
        resumed = TMerge(
            k=0.2, tau_max=300, seed=4, checkpoint_interval=40,
            checkpoint_store=store,
        ).run(pairs, scorer)
        assert _merge_fingerprint(resumed, scorer) == reference
        assert [e.to_dict() for e in resumed_ledger] == [
            e.to_dict() for e in ledger
        ]

    def test_ledgerless_payload_refused_with_ledger(self):
        payload, _ = self._captured_payload(ledger=None)
        assert payload["ledger"] is None

        pairs, scorer = _workload(noise=0.0, ledger=DecisionLedger())
        store = CheckpointStore()
        store.save([list(p.key) for p in pairs], payload)
        with pytest.raises(ValueError, match="ledger"):
            TMerge(
                k=0.2, tau_max=300, seed=4, checkpoint_interval=40,
                checkpoint_store=store,
            ).run(pairs, scorer)

    def test_ledger_payload_fine_without_ledger(self):
        ledger = DecisionLedger()
        payload, reference = self._captured_payload(ledger=ledger)
        pairs, scorer = _workload(noise=0.0)
        store = CheckpointStore()
        store.save([list(p.key) for p in pairs], payload)
        resumed = TMerge(
            k=0.2, tau_max=300, seed=4, checkpoint_interval=40,
            checkpoint_store=store,
        ).run(pairs, scorer)
        assert _merge_fingerprint(resumed, scorer) == reference
