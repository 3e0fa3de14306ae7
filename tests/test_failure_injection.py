"""Failure injection: degenerate inputs every public component must survive."""

import numpy as np
import pytest

from helpers import make_detection, make_track, stub_scorer, tiny_world

from repro.core import (
    BaselineMerger,
    LcbMerger,
    ProportionalMerger,
    TMerge,
    build_track_pairs,
    merge_tracks,
    partition_windows,
    WindowedTracks,
)
from repro.core.pairs import TrackPair
from repro.detect import NoisyDetector
from repro.metrics.identity import evaluate_identity
from repro.metrics.matching import match_tracks_to_gt
from repro.query import CoOccurrenceQuery, CountQuery, TrackStore
from repro.track import TracktorTracker
from repro.track.base import Track

ALL_MERGERS = [
    lambda: BaselineMerger(k=0.5),
    lambda: ProportionalMerger(eta=0.5, k=0.5, seed=0),
    lambda: LcbMerger(tau_max=50, k=0.5, seed=0),
    lambda: TMerge(k=0.5, tau_max=50, seed=0),
    lambda: TMerge(k=0.5, tau_max=20, batch_size=4, seed=0),
    # The Figure 8 ablation shape: no BetaInit priors, no ULB pruning.
    lambda: TMerge(k=0.5, tau_max=50, thr_s=None, use_ulb=False, seed=0),
]


@pytest.mark.parametrize("factory", ALL_MERGERS)
class TestDegenerateMergerInputs:
    def test_empty_pair_set(self, factory):
        result = factory().run([], stub_scorer())
        assert result.candidates == []
        assert result.n_pairs == 0

    def test_single_pair(self, factory):
        pairs = build_track_pairs(
            [make_track(0, [0, 1], source_id=1),
             make_track(1, [5, 6], source_id=2)]
        )
        result = factory().run(pairs, stub_scorer())
        assert len(result.candidates) == 1

    def test_single_bbox_tracks(self, factory):
        """Pairs with a 1x1 BBox-pair pool exhaust after one draw."""
        pairs = build_track_pairs(
            [
                make_track(0, [0], source_id=1),
                make_track(1, [5], source_id=2),
                make_track(2, [9], source_id=1),
            ]
        )
        result = factory().run(pairs, stub_scorer())
        assert result.candidates
        assert all(0.0 <= v <= 1.0 for v in result.scores.values())


class TestDegenerateStructures:
    def test_window_with_single_track_has_no_pairs(self):
        assert build_track_pairs([make_track(0, [0, 1])]) == []

    def test_tracker_on_clutter_only_stream(self):
        frames = [
            [make_detection(50.0 * i, 50.0, source_id=None)]
            for i in range(3)
        ] + [[] for _ in range(10)]
        tracks = TracktorTracker().run(frames)
        # Too short to survive min_length.
        assert tracks == []

    def test_metrics_on_empty_world_frames(self):
        world = tiny_world(n_frames=10, seed=0, initial_objects=0,
                           spawn_rate=0.0)
        identity = evaluate_identity([], world)
        assert identity.idf1 == 1.0

    def test_matching_with_no_tracks(self):
        world = tiny_world(n_frames=20, seed=1)
        assignment = match_tracks_to_gt([], world)
        assert assignment.identity == {}

    def test_merge_empty_everything(self):
        merged, id_map = merge_tracks([], [])
        assert merged == []
        assert id_map == {}

    def test_queries_on_empty_store(self):
        store = TrackStore()
        assert CountQuery(min_frames=10).evaluate(store).count == 0
        result = CoOccurrenceQuery(group_size=3, min_frames=10).evaluate(store)
        assert result.count == 0

    def test_windowing_single_frame_video(self):
        windows = partition_windows(1, 10)
        assert len(windows) == 1
        windowed = WindowedTracks.assign([], windows)
        assert windowed.tracks_of(0) == []

    def test_detector_on_empty_world(self):
        world = tiny_world(n_frames=5, seed=0, initial_objects=0,
                           spawn_rate=0.0)
        from repro.detect import DetectorConfig

        detections = NoisyDetector(
            DetectorConfig(clutter_rate=0.0)
        ).detect_video(world, seed=0)
        assert all(frame == [] for frame in detections)


class TestScoresStayNormalized:
    @pytest.mark.parametrize("factory", ALL_MERGERS)
    def test_scores_in_unit_interval_under_noise(self, factory):
        pairs = build_track_pairs(
            [make_track(i, [i * 10, i * 10 + 1], source_id=i)
             for i in range(5)]
        )
        result = factory().run(pairs, stub_scorer(noise=0.5, seed=9))
        assert all(0.0 <= v <= 1.0 for v in result.scores.values())
