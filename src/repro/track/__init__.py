"""Multi-object tracking substrate.

From-scratch implementations of the trackers the paper evaluates as
producers of (fragmented) tracks:

* :class:`IoUTracker` — greedy IoU association, no motion model.
* :class:`SortTracker` — Kalman filter + Hungarian assignment on IoU
  (Bewley et al., 2016).
* :class:`DeepSortTracker` — adds an appearance gallery and matching
  cascade (Wojke et al., 2017).
* :class:`TracktorTracker` — regression-style proxy: propagates each track's
  box to the nearest detection (Bergmann et al., 2019).
* :class:`UmaTracker` — unified motion + affinity proxy (Yin et al., 2020).

All consume per-frame :class:`~repro.detect.Detection` lists and emit
:class:`Track` objects.  They fragment for the same reasons their namesakes
do: detection gaps longer than ``max_age`` kill tracks, and re-appearing
objects get fresh IDs.
"""

from repro.track.base import Track, TrackObservation, Tracker
from repro.track.assignment import (
    hungarian,
    greedy_assignment,
    solve_assignment,
)
from repro.track.kalman import KalmanFilter, KalmanBoxTracker
from repro.track.iou_tracker import IoUTracker
from repro.track.sort import SortTracker
from repro.track.deepsort import DeepSortTracker
from repro.track.tracktor import TracktorTracker
from repro.track.uma import UmaTracker

__all__ = [
    "Track",
    "TrackObservation",
    "Tracker",
    "hungarian",
    "greedy_assignment",
    "solve_assignment",
    "KalmanFilter",
    "KalmanBoxTracker",
    "IoUTracker",
    "SortTracker",
    "DeepSortTracker",
    "TracktorTracker",
    "UmaTracker",
]
