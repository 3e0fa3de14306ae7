"""Unit tests for repro.detect."""

import numpy as np
import pytest

from helpers import tiny_scene_config, tiny_world

from repro.detect import DetectorConfig, NoisyDetector
from repro.synth.world import simulate_world


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(base_detect_prob=1.5)
        with pytest.raises(ValueError):
            DetectorConfig(clutter_rate=-1.0)


class TestNoisyDetector:
    def test_output_shape(self):
        world = tiny_world(n_frames=50)
        detections = NoisyDetector().detect_video(world, seed=0)
        assert len(detections) == 50

    def test_deterministic_with_seed(self):
        world = tiny_world(n_frames=50)
        detector = NoisyDetector()
        a = detector.detect_video(world, seed=3)
        b = detector.detect_video(world, seed=3)
        for frame_a, frame_b in zip(a, b):
            assert len(frame_a) == len(frame_b)
            for da, db in zip(frame_a, frame_b):
                assert da.bbox.to_xyxy() == db.bbox.to_xyxy()
                assert da.source_id == db.source_id

    def test_detections_inside_image(self):
        world = tiny_world(n_frames=80, seed=2)
        for frame in NoisyDetector().detect_video(world, seed=1):
            for det in frame:
                assert 0 <= det.bbox.x1 <= det.bbox.x2 <= world.config.width
                assert 0 <= det.bbox.y1 <= det.bbox.y2 <= world.config.height
                assert 0.0 <= det.confidence <= 1.0

    def test_visible_objects_mostly_detected(self):
        world = tiny_world(n_frames=100, seed=3)
        config = DetectorConfig(clutter_rate=0.0)
        detections = NoisyDetector(config).detect_video(world, seed=0)
        detected = 0
        visible = 0
        for frame, dets in enumerate(detections):
            sources = {d.source_id for d in dets}
            for state in world.frames[frame]:
                if state.visibility > 0.9:
                    visible += 1
                    if state.object_id in sources:
                        detected += 1
        assert visible > 0
        assert detected / visible > 0.9

    def test_invisible_objects_never_detected(self):
        world = tiny_world(n_frames=100, seed=4)
        config = DetectorConfig(min_visibility=0.5, clutter_rate=0.0)
        detections = NoisyDetector(config).detect_video(world, seed=0)
        for frame, dets in enumerate(detections):
            visibility = {
                s.object_id: s.visibility for s in world.frames[frame]
            }
            for det in dets:
                assert visibility[det.source_id] >= 0.5

    def test_clutter_marked_as_such(self):
        world = tiny_world(n_frames=60, seed=5, initial_objects=0,
                           spawn_rate=0.0)
        config = DetectorConfig(clutter_rate=2.0)
        detections = NoisyDetector(config).detect_video(world, seed=0)
        clutter = [d for frame in detections for d in frame]
        assert clutter, "expected clutter detections"
        assert all(d.source_id is None for d in clutter)

    def test_zero_clutter_rate(self):
        world = tiny_world(n_frames=60, seed=6)
        config = DetectorConfig(clutter_rate=0.0)
        detections = NoisyDetector(config).detect_video(world, seed=0)
        assert all(
            d.source_id is not None for frame in detections for d in frame
        )

    def test_glare_suppresses_detection(self):
        # A world fully covered by glare at strength 0 yields no real
        # detections during the glare frames.
        config = tiny_scene_config(
            glare_rate=0.0, initial_objects=3, spawn_rate=0.0
        )
        world = simulate_world(config, 30, seed=0)
        from repro.synth.events import GlareInterval

        world.glare.append(GlareInterval(0, 29, 0.0))
        # Rebuild visibility by re-simulating is overkill: glare applies at
        # world build time, so instead simulate a fresh world with heavy
        # glare directly.
        config2 = tiny_scene_config(
            glare_rate=1000.0,
            glare_duration=(30, 30),
            glare_strength=0.0,
            initial_objects=3,
            spawn_rate=0.0,
        )
        world2 = simulate_world(config2, 30, seed=0)
        detector = NoisyDetector(DetectorConfig(clutter_rate=0.0))
        detections = detector.detect_video(world2, seed=0)
        glared_frames = [
            f for f in range(30)
            if any(g.active_at(f) for g in world2.glare)
        ]
        assert glared_frames, "expected glare frames"
        for frame in glared_frames:
            assert detections[frame] == []
