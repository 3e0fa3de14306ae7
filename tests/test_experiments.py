"""Tests for the experiment harness (prep, sweeps, reporting, figures)."""

import pytest

from repro.core.baseline import BaselineMerger
from repro.core.tmerge import TMerge
from repro.experiments import (
    MethodPoint,
    evaluate_merger,
    format_table,
    prepare_video,
    rec_fps_sweep,
)
from repro.experiments.sweeps import fps_at_rec
from repro.synth.datasets import DatasetPreset
from helpers import tiny_scene_config


@pytest.fixture(scope="module")
def tiny_preset():
    return DatasetPreset(
        name="tiny",
        config=tiny_scene_config(max_track_length=100),
        video_frames=150,
        default_window=200,
    )


@pytest.fixture(scope="module")
def prepared(tiny_preset):
    return [prepare_video(tiny_preset, seed=s) for s in (0, 1)]


class TestPrepareVideo:
    def test_structure(self, prepared):
        video = prepared[0]
        assert video.n_frames == 150
        assert len(video.window_pairs) == len(video.windows)
        assert len(video.window_gt) == len(video.windows)
        for pairs, gt in zip(video.window_pairs, video.window_gt):
            keys = {p.key for p in pairs}
            assert gt <= keys

    def test_preset_by_name_path(self):
        video = prepare_video("kitti", seed=0, n_frames=60, window_length=100)
        assert video.n_frames == 60


class TestEvaluateMerger:
    def test_baseline_point(self, prepared):
        point = evaluate_merger(lambda: BaselineMerger(k=0.2), prepared)
        assert point.method == "BL"
        assert 0.0 <= point.rec <= 1.0
        assert point.fps > 0
        assert point.simulated_seconds > 0

    def test_sweep_returns_points(self, prepared):
        points = rec_fps_sweep(
            [
                (100, lambda: TMerge(k=0.2, tau_max=100, seed=3)),
                (400, lambda: TMerge(k=0.2, tau_max=400, seed=3)),
            ],
            prepared,
        )
        assert len(points) == 2
        assert points[0].parameter == 100
        # Larger budgets cost more simulated time.
        assert points[1].simulated_seconds >= points[0].simulated_seconds


class TestFpsAtRec:
    def test_interpolation(self):
        points = [
            MethodPoint("X", rec=0.5, fps=100.0, simulated_seconds=1.0),
            MethodPoint("X", rec=0.9, fps=20.0, simulated_seconds=5.0),
        ]
        value = fps_at_rec(points, 0.7)
        assert value == pytest.approx(60.0)

    def test_unreachable_target(self):
        points = [MethodPoint("X", rec=0.5, fps=100.0, simulated_seconds=1.0)]
        assert fps_at_rec(points, 0.9) is None

    def test_exact_point(self):
        points = [MethodPoint("X", rec=0.8, fps=42.0, simulated_seconds=1.0)]
        assert fps_at_rec(points, 0.8) == 42.0


class TestFormatTable:
    def test_renders(self):
        text = format_table(
            ["method", "fps"],
            [["BL", 1.234567], ["TMerge", None]],
            title="Table II",
        )
        assert "Table II" in text
        assert "1.235" in text
        assert "-" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestRewindow:
    def test_rewindow_preserves_tracks(self, prepared):
        from repro.experiments.prep import rewindow

        video = prepared[0]
        rewound = rewindow(video, 100)
        assert rewound.tracks is video.tracks
        assert rewound.assignment is video.assignment
        assert len(rewound.windows) > len(video.windows)
        total_before = sum(len(b) for b in video.window_pairs)
        # Every track is still owned exactly once.
        owned = sum(
            1
            for pairs in rewound.window_pairs
            for _ in pairs
        )
        assert owned >= 0  # structural smoke; ownership checked below
        from repro.core.windows import WindowedTracks

        windowed = WindowedTracks.assign(video.tracks, rewound.windows)
        assert sum(len(b) for b in windowed.assignments) == len(video.tracks)


class TestVideoPolyonymousKeys:
    def test_video_level_pairs(self):
        from helpers import make_track
        from repro.metrics.matching import (
            match_tracks_by_source,
            video_polyonymous_keys,
        )

        tracks = [
            make_track(0, [0, 1], source_id=7),
            make_track(1, [100, 101], source_id=7),
            make_track(2, [5000, 5001], source_id=7),  # far away fragment
            make_track(3, [0, 1], source_id=8),
        ]
        assignment = match_tracks_by_source(tracks)
        keys = video_polyonymous_keys(tracks, assignment)
        assert keys == {(0, 1), (0, 2), (1, 2)}
