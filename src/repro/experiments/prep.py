"""Prepared evaluation data: everything upstream of the merging algorithms.

Simulating, detecting, tracking and ground-truth matching are shared across
every algorithm configuration in a sweep, so they are computed once per
(preset, seed) and reused.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pairs import PairKey, TrackPair
from repro.core.pipeline import window_pair_sets
from repro.core.windows import Window
from repro.detect import Detection, NoisyDetector
from repro.metrics.matching import (
    TrackGtAssignment,
    match_tracks_to_gt,
    polyonymous_pairs,
)
from repro.synth.datasets import DatasetPreset, preset_by_name
from repro.synth.world import VideoGroundTruth, simulate_world
from repro.track.base import Track, Tracker
from repro.track.tracktor import TracktorTracker


@dataclass
class PreparedVideo:
    """One video with tracking output and GT polyonymous labels.

    Attributes:
        world: simulated ground truth.
        detections: per-frame detector output.
        tracks: tracker output.
        windows: the temporal windows.
        window_pairs: ``P_c`` per window.
        window_gt: ``P*_c`` (GT polyonymous pair keys) per window.
        assignment: track → GT identity assignment.
    """

    world: VideoGroundTruth
    detections: list[list[Detection]]
    tracks: list[Track]
    windows: list[Window]
    window_pairs: list[list[TrackPair]]
    window_gt: list[set[PairKey]]
    assignment: TrackGtAssignment

    @property
    def n_frames(self) -> int:
        """Total frames in the prepared video."""
        return self.world.n_frames


def prepare_video(
    preset: DatasetPreset | str,
    seed: int = 0,
    n_frames: int | None = None,
    window_length: int | None = None,
    tracker: Tracker | None = None,
) -> PreparedVideo:
    """Simulate, detect, track and label one video.

    Args:
        preset: dataset preset or its name.
        seed: world seed; detector uses ``seed + 1000``.
        n_frames: override the preset's video length.
        window_length: override the preset's window length ``L``.
        tracker: tracker to use (default: Tracktor, the paper's primary).
    """
    if isinstance(preset, str):
        preset = preset_by_name(preset)
    frames = n_frames if n_frames is not None else preset.video_frames
    length = (
        window_length if window_length is not None else preset.default_window
    )
    tracker = tracker or TracktorTracker()

    world = simulate_world(preset.config, frames, seed=seed)
    detections = NoisyDetector().detect_video(world, seed=seed + 1000)
    tracks = tracker.run(detections)
    assignment = match_tracks_to_gt(tracks, world)

    windows, window_pairs = window_pair_sets(frames, tracks, length)
    return PreparedVideo(
        world=world,
        detections=detections,
        tracks=tracks,
        windows=windows,
        window_pairs=window_pairs,
        window_gt=[
            polyonymous_pairs(pairs, assignment) for pairs in window_pairs
        ],
        assignment=assignment,
    )


def rewindow(video: PreparedVideo, window_length: int) -> PreparedVideo:
    """Re-partition an already-prepared video with a different ``L``.

    Simulation, detection, tracking and GT matching are reused; only the
    windows, pair sets and per-window GT labels are rebuilt.  Used by the
    window-length sensitivity experiment (Figure 9).
    """
    windows, window_pairs = window_pair_sets(
        video.n_frames, video.tracks, window_length
    )
    return PreparedVideo(
        world=video.world,
        detections=video.detections,
        tracks=video.tracks,
        windows=windows,
        window_pairs=window_pairs,
        window_gt=[
            polyonymous_pairs(pairs, video.assignment)
            for pairs in window_pairs
        ],
        assignment=video.assignment,
    )


def prepare_dataset(
    preset: DatasetPreset | str,
    n_videos: int,
    seed: int = 0,
    n_frames: int | None = None,
    window_length: int | None = None,
    tracker: Tracker | None = None,
) -> list[PreparedVideo]:
    """Prepare ``n_videos`` videos with consecutive seeds."""
    return [
        prepare_video(
            preset,
            seed=seed + i,
            n_frames=n_frames,
            window_length=window_length,
            tracker=tracker,
        )
        for i in range(n_videos)
    ]
