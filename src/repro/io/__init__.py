"""Persistence and interchange formats.

* :mod:`repro.io.motchallenge` — read/write tracks and ground truth in the
  MOTChallenge CSV format, the lingua franca of the tracking community.
  This is how a deployment would feed *real* tracker output (instead of the
  simulator's) into TMerge, and how merged results would be handed to
  standard evaluation tooling.
"""

from repro.io.motchallenge import (
    read_detections_mot,
    read_tracks_mot,
    write_detections_mot,
    write_tracks_mot,
    world_to_mot_gt,
)

__all__ = [
    "read_detections_mot",
    "read_tracks_mot",
    "write_detections_mot",
    "write_tracks_mot",
    "world_to_mot_gt",
]
