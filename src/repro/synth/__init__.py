"""Synthetic video-world substrate.

The paper evaluates on MOT-17, KITTI and PathTrack.  Those datasets are not
available offline, so this package simulates ground-truth (GT) worlds with
the same *statistical* structure: objects entering/leaving a camera view,
moving under simple dynamics, getting occluded by each other and by static
scene elements, and suffering glare intervals that blind the detector.

The output of :func:`simulate_world` is a :class:`VideoGroundTruth` — per
frame, the set of visible GT objects with bounding boxes and visibility
fractions.  Everything downstream (detector, trackers, ReID simulator,
metrics) consumes only this, exactly as the paper's algorithms consume only
tracker output and ReID features, never pixels.
"""

from repro.synth.scene import SceneConfig
from repro.synth.objects import ObjectClass, GroundTruthObject
from repro.synth.motion import (
    ConstantVelocity,
    RandomWalk,
    WaypointPath,
    MotionModel,
)
from repro.synth.events import GlareInterval, StaticOccluder, glare_factor
from repro.synth.world import (
    GroundTruthState,
    VideoGroundTruth,
    simulate_world,
)
from repro.synth.datasets import (
    DatasetPreset,
    mot17_like,
    kitti_like,
    pathtrack_like,
)

__all__ = [
    "SceneConfig",
    "ObjectClass",
    "GroundTruthObject",
    "MotionModel",
    "ConstantVelocity",
    "RandomWalk",
    "WaypointPath",
    "GlareInterval",
    "StaticOccluder",
    "glare_factor",
    "GroundTruthState",
    "VideoGroundTruth",
    "simulate_world",
    "DatasetPreset",
    "mot17_like",
    "kitti_like",
    "pathtrack_like",
]
