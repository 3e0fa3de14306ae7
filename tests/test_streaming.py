"""Unit and differential tests for the streaming ingestion subsystem.

Covers the building blocks (watermark, reorder buffer, backpressure
queue, replayable feed source, lazy per-window seeds, incremental
tracker sessions) and the service-level guarantees short of restart
(which has its own differential suite, ``test_streaming_restart.py``):
disorder healed within the allowed lateness, shedding beyond it,
bounded resident memory over feeds much longer than the bound, and the
backpressure policies' deterministic decisions.
"""

import json

import numpy as np
import pytest

from helpers import tiny_scene_config, tiny_world

from repro.core.tmerge import TMerge
from repro.core.windows import partition_windows, window_at
from repro.detect import NoisyDetector
from repro.resilience import CheckpointStore
from repro.streaming import (
    BackpressurePolicy,
    FrameEvent,
    IntakeQueue,
    ReorderBuffer,
    StreamingIngestionService,
    SyntheticFeedSource,
    WatermarkTracker,
)
from repro.synth.world import simulate_world
from repro.track import IoUTracker, TracktorTracker


def _roundtrip(state):
    """Force the pure-JSON contract the checkpoint store relies on."""
    return json.loads(json.dumps(state))


class TestWatermark:
    def test_trails_max_frame_by_lateness(self):
        wm = WatermarkTracker(allowed_lateness=3)
        assert wm.observe(10) == 7
        assert wm.observe(4) == 7  # late arrival does not regress it
        assert wm.observe(12) == 9

    def test_zero_lateness_tracks_max(self):
        wm = WatermarkTracker()
        assert wm.observe(0) == 0
        assert wm.observe(5) == 5

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            WatermarkTracker(allowed_lateness=-1)
        with pytest.raises(ValueError):
            WatermarkTracker().observe(-1)

    def test_state_roundtrip(self):
        wm = WatermarkTracker(allowed_lateness=2)
        wm.observe(9)
        clone = WatermarkTracker()
        clone.load_state_dict(_roundtrip(wm.state_dict()))
        assert clone.watermark == wm.watermark
        assert clone.observe(9) == wm.watermark


class TestReorderBuffer:
    def test_releases_in_order_with_gaps(self):
        buf = ReorderBuffer()
        assert buf.add(2, [])
        assert buf.add(0, [])
        released = buf.release(2)
        assert [frame for frame, _ in released] == [0, 1, 2]
        assert released[1][1] is None  # frame 1 never arrived

    def test_late_and_duplicate_shed(self):
        buf = ReorderBuffer()
        buf.add(0, [])
        buf.release(0)
        assert not buf.add(0, [])  # already released
        assert buf.add(3, [])
        assert not buf.add(3, [])  # duplicate of a pending frame

    def test_state_roundtrip(self):
        world = tiny_world(n_frames=4)
        detections = NoisyDetector().detect_video(world, seed=2)
        buf = ReorderBuffer()
        buf.add(1, detections[1])
        buf.add(0, detections[0])
        buf.release(0)
        clone = ReorderBuffer()
        clone.load_state_dict(_roundtrip(buf.state_dict()))
        assert clone.last_released == buf.last_released
        out = clone.release(1)
        assert out[0][0] == 1
        assert [d.to_dict() for d in out[0][1]] == [
            d.to_dict() for d in detections[1]
        ]


class TestBackpressurePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BackpressurePolicy(mode="bogus")
        with pytest.raises(ValueError):
            BackpressurePolicy(capacity=0)
        with pytest.raises(ValueError):
            BackpressurePolicy(latency_slo_ms=-1.0)

    def test_degrade_triggers(self):
        policy = BackpressurePolicy(
            mode="degrade", capacity=4, latency_slo_ms=100.0
        )
        assert not policy.should_degrade(4, 50.0)
        assert policy.should_degrade(5, 50.0)  # over capacity
        assert policy.should_degrade(0, 150.0)  # over SLO
        lossless = BackpressurePolicy(mode="block", capacity=4)
        assert not lossless.should_degrade(100, 1e9)


class TestIntakeQueue:
    def _event(self, frame):
        return FrameEvent(frame=frame, detections=[], arrival_ms=frame * 1.0)

    def test_block_refuses_at_capacity(self):
        queue = IntakeQueue(BackpressurePolicy(mode="block", capacity=2))
        assert queue.admit(self._event(0))
        assert queue.admit(self._event(1))
        assert not queue.admit(self._event(2))
        queue.pop()
        assert queue.admit(self._event(2))
        assert queue.n_shed == 0

    def test_drop_oldest_sheds_head(self):
        queue = IntakeQueue(
            BackpressurePolicy(mode="drop-oldest", capacity=2)
        )
        for frame in range(4):
            assert queue.admit(self._event(frame))
        assert queue.n_shed == 2
        assert queue.pop().frame == 2  # 0 and 1 were shed

    def test_state_roundtrip(self):
        queue = IntakeQueue(BackpressurePolicy(capacity=8))
        queue.admit(self._event(0))
        queue.admit(self._event(1))
        clone = IntakeQueue(BackpressurePolicy(capacity=8))
        clone.load_state_dict(_roundtrip(queue.state_dict()))
        assert clone.depth == 2
        assert clone.pop().frame == 0
        assert clone.peak_depth == queue.peak_depth


class TestFeedSource:
    @pytest.fixture(scope="class")
    def world(self):
        return tiny_world(n_frames=60, seed=13)

    def test_offset_replay_is_exact(self, world):
        source = SyntheticFeedSource(
            world, disorder_ms=80.0, disorder_seed=4
        )
        full = list(source.events())
        assert len(full) == source.n_events == 60
        for start in (0, 1, 17, 59, 60):
            tail = list(source.events(start=start))
            assert [e.to_dict() for e in tail] == [
                e.to_dict() for e in full[start:]
            ]

    def test_arrival_order_and_bounded_disorder(self, world):
        source = SyntheticFeedSource(
            world, disorder_ms=80.0, disorder_seed=4
        )
        events = list(source.events())
        arrivals = [e.arrival_ms for e in events]
        assert arrivals == sorted(arrivals)
        frames = [e.frame for e in events]
        assert frames != sorted(frames)  # jitter actually reorders
        assert sorted(frames) == list(range(60))
        # displacement is bounded by the jitter/interval ratio
        max_shift = max(abs(pos - frame) for pos, frame in enumerate(frames))
        assert max_shift <= 80.0 / source.frame_interval_ms + 1

    def test_payloads_match_offline_detector(self, world):
        detections = NoisyDetector().detect_video(world, seed=2)
        source = SyntheticFeedSource(world, detector_seed=2)
        for event in source.events():
            expected = detections[event.frame]
            assert [d.to_dict() for d in event.detections] == [
                d.to_dict() for d in expected
            ]


class TestLazyWindowSeeds:
    """The streaming service addresses window seeds by spawn key; they
    must be the children the list-spawn derivation hands out."""

    def test_single_window_seeds_match_batch_list(self):
        from repro.parallel import single_window_seeds

        batch = np.random.SeedSequence(7).spawn(6)
        for c in (0, 3, 5):
            lazy = single_window_seeds(7, c)
            assert (
                lazy.model.generate_state(4).tolist()
                == batch[c].generate_state(4).tolist()
            )

    def test_fault_seams_match_batch_list(self):
        from repro.faults import fault_profile
        from repro.parallel import single_window_seeds

        profile = fault_profile("flaky-reid", seed=11)
        # Seam roots 0 (call), 1 (corrupt) and 3 (crash) of the
        # profile's four, each spawned into one child per window.
        roots = np.random.SeedSequence(profile.seed).spawn(4)
        batch = {
            name: roots[stream].spawn(4)
            for name, stream in (("call", 0), ("corrupt", 1), ("crash", 3))
        }
        for c in (0, 2, 3):
            lazy = single_window_seeds(5, c, profile)
            for name, children in batch.items():
                assert (
                    getattr(lazy, name).generate_state(4).tolist()
                    == children[c].generate_state(4).tolist()
                )


class TestWindowAt:
    def test_matches_partition(self):
        for length in (2, 10, 100, 101):
            windows = partition_windows(333, length)
            for w in windows:
                assert window_at(w.index, length) == w

    def test_validation(self):
        with pytest.raises(ValueError):
            window_at(-1, 10)
        with pytest.raises(ValueError):
            window_at(0, 1)


class TestTrackerStreamSessions:
    @pytest.mark.parametrize("tracker_cls", [TracktorTracker, IoUTracker])
    def test_checkpointed_session_matches_uninterrupted(self, tracker_cls):
        world = tiny_world(n_frames=80, seed=9)
        detections = NoisyDetector().detect_video(world, seed=3)
        tracker = tracker_cls()

        whole = tracker.stream()
        closed_whole = []
        for frame, dets in enumerate(detections):
            closed_whole.extend(whole.advance(frame, dets))
        closed_whole.extend(whole.flush())

        first = tracker.stream()
        closed_split = []
        for frame in range(40):
            closed_split.extend(first.advance(frame, detections[frame]))
        state = _roundtrip(first.state_dict())
        second = tracker.stream()
        second.load_state_dict(state)
        for frame in range(40, 80):
            closed_split.extend(second.advance(frame, detections[frame]))
        closed_split.extend(second.flush())

        assert [t.to_dict() for t in closed_split] == [
            t.to_dict() for t in closed_whole
        ]

    def test_earliest_open_frame(self):
        world = tiny_world(n_frames=30, seed=9)
        detections = NoisyDetector().detect_video(world, seed=3)
        stream = TracktorTracker().stream()
        for frame in range(10):
            stream.advance(frame, detections[frame])
        earliest = stream.earliest_open_frame()
        assert earliest is not None and 0 <= earliest < 10
        stream.flush()
        assert stream.earliest_open_frame() is None


def _service(store=None, *, tracker=None, profile=None, policy=None,
             workers=1, window_length=100, lateness=4, max_open=8):
    return StreamingIngestionService(
        tracker or TracktorTracker(),
        TMerge(k=0.1, tau_max=100, batch_size=10, seed=3),
        window_length=window_length,
        allowed_lateness=lateness,
        max_open_windows=max_open,
        policy=policy,
        workers=workers,
        parallel_backend="thread",
        fault_profile=profile,
        store=store,
    )


class TestStreamingService:
    @pytest.fixture(scope="class")
    def stream_world(self):
        return tiny_world(n_frames=240, seed=21, initial_objects=6,
                          max_objects=10, spawn_rate=0.03)

    def test_disorder_healed_within_lateness(self, stream_world):
        """Jitter within the allowed lateness never changes emissions."""
        ordered = SyntheticFeedSource(stream_world)
        jittered = SyntheticFeedSource(
            stream_world, disorder_ms=60.0, disorder_seed=3
        )
        a = _service().run(ordered)
        b = _service().run(jittered)

        def content(result):
            # lag_ms legitimately differs (it tracks arrival times);
            # everything the merge produced must not.
            return [
                {k: v for k, v in fp.items() if k != "lag_ms"}
                for fp in result.fingerprints()
            ]

        assert content(a) == content(b)
        assert b.counters.get("stream.frames_shed_late", 0.0) == 0.0

    def test_beyond_lateness_is_shed_and_counted(self, stream_world):
        jittered = SyntheticFeedSource(
            stream_world, disorder_ms=90.0, disorder_seed=3
        )
        result = _service(lateness=0).run(jittered)
        shed = result.counters["stream.frames_shed_late"]
        assert shed > 0
        assert result.counters["stream.frames_missing"] == shed
        assert (
            result.counters["stream.frames_in"]
            == stream_world.n_frames
        )

    def test_degrade_policy_marks_results(self, stream_world):
        policy = BackpressurePolicy(
            mode="degrade", capacity=4, latency_slo_ms=200.0
        )
        source = SyntheticFeedSource(stream_world)
        result = _service(policy=policy).run(source)
        degraded = [e for e in result.emissions if e.result.degraded]
        assert degraded
        assert (
            result.counters["stream.windows_degraded"] == len(degraded)
        )
        # degraded windows pay no simulated ReID cost
        assert all(
            e.result.simulated_seconds == 0.0 for e in degraded
        )

    def test_drop_oldest_sheds_events(self, stream_world):
        policy = BackpressurePolicy(mode="drop-oldest", capacity=2)
        source = SyntheticFeedSource(stream_world)
        result = _service(policy=policy).run(source)
        assert result.counters["stream.events_shed_queue"] > 0
        assert result.peak_queue_depth <= 2
        assert (
            result.counters["stream.frames_in"]
            + result.counters["stream.events_shed_queue"]
            == stream_world.n_frames
        )

    def test_policy_decisions_are_deterministic(self, stream_world):
        for mode, kwargs in (
            ("drop-oldest", dict(capacity=2)),
            ("degrade", dict(capacity=4, latency_slo_ms=200.0)),
        ):
            policy = BackpressurePolicy(mode=mode, **kwargs)
            source = SyntheticFeedSource(stream_world)
            a = _service(policy=policy).run(source)
            b = _service(policy=policy).run(source)
            assert a.fingerprints() == b.fingerprints()
            assert a.counters == b.counters

    def test_memory_bound_over_long_feed(self):
        """Peak resident windows stays ≤ the bound for a feed 10× longer."""
        bound = 4
        config = tiny_scene_config(
            min_track_length=5, max_track_length=20,
            initial_objects=4, max_objects=8, spawn_rate=0.05,
        )
        world = simulate_world(config, 900, seed=3)
        source = SyntheticFeedSource(world)
        service = _service(
            window_length=40, lateness=2, max_open=bound
        )
        result = service.run(source)
        n_windows = len(result.emissions)
        assert n_windows >= 10 * bound
        assert result.peak_open_windows <= bound

    def test_worker_count_invariance(self, stream_world):
        source = SyntheticFeedSource(
            stream_world, disorder_ms=50.0, disorder_seed=3
        )
        serial = _service(workers=1).run(source)
        fanned = _service(workers=4).run(source)
        assert serial.fingerprints() == fanned.fingerprints()
        assert serial.cost.state_dict() == fanned.cost.state_dict()

    @pytest.mark.parametrize("workers", (1, 2))
    def test_candidates_are_members_of_the_emitted_pairs(
        self, chaos_world, workers
    ):
        """A window's pairs are built once: the emitted candidates are
        the very objects the emission's ``pairs`` holds."""
        result = _service(workers=workers).run(
            SyntheticFeedSource(chaos_world)
        )
        candidates = [
            (emission, candidate)
            for emission in result.emissions
            for candidate in emission.result.candidates
        ]
        assert candidates
        for emission, candidate in candidates:
            assert any(candidate is pair for pair in emission.pairs)

    def test_checkpoint_discarded_on_completion(self, stream_world):
        store = CheckpointStore()
        source = SyntheticFeedSource(stream_world)
        _service(store).run(source)
        assert store.load(["stream", "stream"]) is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            _service(window_length=1)
        with pytest.raises(ValueError):
            _service(max_open=0)
        with pytest.raises(ValueError):
            _service(workers=0)


class TestExampleSmoke:
    def test_streaming_example_runs_small(self, capsys):
        import importlib.util
        from pathlib import Path

        path = (
            Path(__file__).parent.parent
            / "examples"
            / "streaming_ingestion.py"
        )
        spec = importlib.util.spec_from_file_location("example_stream", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(n_frames=240, window_length=120, kill_after=1)
        out = capsys.readouterr().out
        assert "bit-identical to uninterrupted run: True" in out


class TestServeCli:
    def test_serve_kill_resume(self, capsys):
        from repro.experiments.__main__ import main

        assert main([
            "serve", "--frames", "240", "--window-length", "120",
            "--kill-after", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to uninterrupted run" in out
        assert "Streaming service" in out
