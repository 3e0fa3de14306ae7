"""Unit tests for the identity metrics IDF1 / IDP / IDR (Fig. 12)."""

import numpy as np
import pytest

from helpers import make_detection, tiny_scene_config

from repro.core.merge import merge_tracks
from repro.geometry import BBox
from repro.metrics.identity import evaluate_identity
from repro.synth.motion import ConstantVelocity
from repro.synth.objects import GroundTruthObject, ObjectClass
from repro.synth.world import simulate_world
from repro.track.base import Track


def scripted_world(n_frames=40, n_objects=2):
    """A deterministic world: objects parked far apart, no occlusion."""
    config = tiny_scene_config(
        initial_objects=0, spawn_rate=0.0, n_static_occluders=0,
        glare_rate=0.0,
    )
    objects = []
    for i in range(n_objects):
        objects.append(
            GroundTruthObject(
                object_id=i,
                object_class=ObjectClass.PERSON,
                spawn_frame=0,
                lifetime=n_frames,
                size=(40.0, 80.0),
                motion=ConstantVelocity((120.0 + 200.0 * i, 240.0), (0.0, 0.0)),
                appearance=np.eye(config.appearance_dim)[i % 16],
            )
        )
    return simulate_world(config, n_frames, seed=0, extra_objects=objects)


def perfect_tracks(world):
    """Tracks that copy the ground truth exactly."""
    tracks = []
    for oid in sorted(world.objects):
        track = Track(oid)
        for frame, state in world.states_for(oid):
            track.append(
                frame,
                make_detection(
                    state.bbox.x1, state.bbox.y1,
                    state.bbox.width, state.bbox.height,
                    source_id=oid,
                ),
            )
        tracks.append(track)
    return tracks


class TestIdentityMetrics:
    def test_perfect_tracking(self):
        world = scripted_world()
        result = evaluate_identity(perfect_tracks(world), world)
        assert result.idf1 == pytest.approx(1.0)
        assert result.idp == pytest.approx(1.0)
        assert result.idr == pytest.approx(1.0)

    def test_empty_tracks(self):
        world = scripted_world()
        result = evaluate_identity([], world)
        assert result.idf1 == 0.0
        assert result.idfn > 0

    def test_fragmentation_lowers_idf1(self):
        world = scripted_world(n_objects=1, n_frames=40)
        [full] = perfect_tracks(world)
        first = Track(0)
        second = Track(1)
        for obs in full.observations:
            (first if obs.frame < 20 else second).append(
                obs.frame, obs.detection
            )
        fragmented = evaluate_identity([first, second], world)
        perfect = evaluate_identity([full], world)
        assert fragmented.idf1 < perfect.idf1
        # One fragment matches the GT trajectory (IDTP=20); the other's
        # 20 frames count as IDFP and the uncovered 20 GT frames as IDFN:
        # IDF1 = 2*20 / (2*20 + 20 + 20) = 0.5.
        assert fragmented.idf1 == pytest.approx(0.5, abs=0.05)

    def test_merging_restores_idf1(self):
        world = scripted_world(n_objects=1, n_frames=40)
        [full] = perfect_tracks(world)
        first = Track(0)
        second = Track(1)
        for obs in full.observations:
            (first if obs.frame < 20 else second).append(
                obs.frame, obs.detection
            )
        before = evaluate_identity([first, second], world)
        merged, _ = merge_tracks([first, second], [(0, 1)])
        after = evaluate_identity(merged, world)
        assert after.idf1 > before.idf1
        assert after.idf1 == pytest.approx(1.0)

    def test_idp_idr_tradeoff_with_clutter(self):
        world = scripted_world(n_objects=1)
        tracks = perfect_tracks(world)
        ghost = Track(99)
        for f in range(world.n_frames):
            ghost.append(f, make_detection(500.0, 50.0, source_id=None))
        result = evaluate_identity(tracks + [ghost], world)
        assert result.idp < 1.0  # clutter hurts precision
        assert result.idr == pytest.approx(1.0)  # recall unaffected
