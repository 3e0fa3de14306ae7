"""Behavioural tests for all five trackers.

Uses scripted detection streams where ground truth is unambiguous: a
steadily moving object must keep one TID; a long detection gap must split
the track for short-memory trackers.
"""

import numpy as np
import pytest

from helpers import make_detection

from repro.detect import Detection
from repro.geometry import BBox
from repro.track import (
    DeepSortTracker,
    IoUTracker,
    SortTracker,
    Tracker,
    TracktorTracker,
    UmaTracker,
)

ALL_TRACKERS = [
    IoUTracker,
    SortTracker,
    DeepSortTracker,
    TracktorTracker,
    UmaTracker,
]


def moving_object_stream(
    n_frames: int, gap: tuple[int, int] | None = None, speed: float = 4.0
) -> list[list[Detection]]:
    """One object moving right; optionally absent during ``gap`` frames."""
    frames = []
    for t in range(n_frames):
        if gap and gap[0] <= t < gap[1]:
            frames.append([])
            continue
        frames.append(
            [make_detection(100 + speed * t, 200, 50, 100, source_id=1)]
        )
    return frames


def two_objects_stream(n_frames: int) -> list[list[Detection]]:
    """Two well-separated objects moving in parallel."""
    frames = []
    for t in range(n_frames):
        frames.append(
            [
                make_detection(100 + 4 * t, 100, 50, 100, source_id=1),
                make_detection(100 + 4 * t, 600, 50, 100, source_id=2),
            ]
        )
    return frames


@pytest.mark.parametrize("tracker_cls", ALL_TRACKERS)
class TestAllTrackers:
    def test_single_object_single_track(self, tracker_cls):
        tracks = tracker_cls().run(moving_object_stream(40))
        assert len(tracks) == 1
        assert len(tracks[0]) >= 35

    def test_two_objects_two_tracks(self, tracker_cls):
        tracks = tracker_cls().run(two_objects_stream(40))
        assert len(tracks) == 2
        sources = sorted(t.dominant_source() for t in tracks)
        assert sources == [1, 2]

    def test_long_gap_fragments_short_memory(self, tracker_cls):
        # Gap of 60 frames exceeds every tracker's memory.
        tracks = tracker_cls().run(
            moving_object_stream(120, gap=(40, 100))
        )
        assert len(tracks) == 2
        assert all(t.dominant_source() == 1 for t in tracks)

    def test_min_length_filter(self, tracker_cls):
        # A 3-frame object is below the default min_length of 5.
        frames = [
            [make_detection(100 + 4 * t, 200)] if t < 3 else []
            for t in range(20)
        ]
        tracks = tracker_cls().run(frames)
        assert tracks == []

    def test_low_confidence_ignored(self, tracker_cls):
        frames = [
            [make_detection(100 + 4 * t, 200, confidence=0.1)]
            for t in range(20)
        ]
        assert tracker_cls().run(frames) == []

    def test_track_ids_dense_from_zero(self, tracker_cls):
        tracks = tracker_cls().run(two_objects_stream(30))
        assert sorted(t.track_id for t in tracks) == list(range(len(tracks)))

    def test_empty_stream(self, tracker_cls):
        assert tracker_cls().run([[] for _ in range(10)]) == []

    def test_observations_strictly_increasing(self, tracker_cls):
        tracks = tracker_cls().run(moving_object_stream(30))
        for track in tracks:
            frames = track.frames
            assert frames == sorted(frames)
            assert len(set(frames)) == len(frames)


class TestMemoryDifferences:
    def test_short_gap_bridged_by_long_memory_only(self):
        """A 6-frame gap kills IoU tracks but Tracktor
        (regression with patience) and DeepSORT-with-appearance bridge it."""
        stream = moving_object_stream(60, gap=(30, 36), speed=2.0)
        assert len(IoUTracker().run(stream)) == 2
        assert len(TracktorTracker().run(stream)) == 1

        rng = np.random.default_rng(0)
        latent = rng.normal(size=8)

        def embedder(detection):
            return latent + rng.normal(0, 0.05, size=8)

        deep = DeepSortTracker(embedder=embedder, max_age=20)
        assert len(deep.run(stream)) == 1

    def test_deepsort_appearance_reassociation(self):
        """With an embedder keyed to source identity, DeepSORT re-links
        across a gap that defeats pure-motion matching (object jumps)."""
        rng = np.random.default_rng(0)
        latents = {1: rng.normal(size=8), 2: rng.normal(size=8)}

        def embedder(detection):
            base = latents[detection.source_id]
            return base + rng.normal(0, 0.05, size=8)

        frames = []
        for t in range(30):
            frames.append([make_detection(100 + 4 * t, 100, source_id=1)])
        for t in range(30, 36):
            frames.append([])
        # Object reappears displaced (teleport: motion match fails).
        for t in range(36, 60):
            frames.append([make_detection(600 + 4 * t, 400, source_id=1)])
        tracker = DeepSortTracker(embedder=embedder, max_age=20)
        tracks = tracker.run(frames)
        # Appearance may or may not bridge a teleport depending on the
        # cascade; what must hold is that all tracks trace back to object 1.
        assert all(t.dominant_source() == 1 for t in tracks)
        assert 1 <= len(tracks) <= 2


class TestTracktorSpecifics:
    def test_suppresses_overlapping_new_tracks(self):
        # Two detections of the same spot: only one track is created.
        frames = []
        for t in range(20):
            frames.append(
                [
                    make_detection(100 + 4 * t, 200, source_id=1),
                    make_detection(102 + 4 * t, 202, source_id=1,
                                   confidence=0.95),
                ]
            )
        tracks = TracktorTracker().run(frames)
        assert len(tracks) == 1

    def test_velocity_extrapolation_bridges_motion(self):
        # During a short gap the track coasts with its velocity, so it can
        # reclaim the object when it reappears further along.
        stream = moving_object_stream(60, gap=(30, 35), speed=6.0)
        tracks = TracktorTracker(patience=8).run(stream)
        assert len(tracks) == 1


class TestFinalize:
    def test_renumbering_sorted_by_first_frame(self):
        from repro.track.base import Track

        t1 = Track(10)
        t1.append(5, make_detection(0, 0))
        for f in range(6, 12):
            t1.append(f, make_detection(0, 0))
        t2 = Track(3)
        for f in range(0, 7):
            t2.append(f, make_detection(100, 100))
        result = Tracker.finalize([t1, t2], min_length=5)
        assert [t.track_id for t in result] == [0, 1]
        assert result[0].first_frame == 0
