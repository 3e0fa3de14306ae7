"""SORT: Simple Online and Realtime Tracking (Bewley et al., 2016).

A Kalman constant-velocity motion model per track plus optimal (Hungarian)
assignment on IoU between predicted boxes and detections.  With the paper's
stock parameters (``max_age`` of a few frames), occlusion gaps still kill
tracks, producing the polyonymous pairs TMerge exists to repair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detect import Detection
from repro.track.assignment import associate_iou
from repro.track.base import Track, Tracker
from repro.track.kalman import KalmanBoxTracker


@dataclass
class _SortTrack:
    track: Track
    kalman: KalmanBoxTracker


class SortTracker(Tracker):
    """SORT with from-scratch Kalman and Hungarian components.

    Args:
        iou_threshold: association gate on IoU with the predicted box.
        max_age: frames a track survives unmatched before deletion.
        min_hits: minimum matched detections before a track is reported
            (applied through ``min_length`` at finalization).
        min_length: tracks shorter than this are dropped from the output.
        min_confidence: detections below this score are ignored.
    """

    def __init__(
        self,
        iou_threshold: float = 0.3,
        max_age: int = 3,
        min_hits: int = 3,
        min_length: int = 5,
        min_confidence: float = 0.3,
    ) -> None:
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self.min_hits = min_hits
        self.min_length = max(min_length, min_hits)
        self.min_confidence = min_confidence

    def run(self, detections_per_frame: list[list[Detection]]) -> list[Track]:
        """Run the tracker over per-frame detections; return finished tracks."""
        active: list[_SortTrack] = []
        finished: list[Track] = []
        next_id = 0

        for frame, detections in enumerate(detections_per_frame):
            detections = [
                d for d in detections if d.confidence >= self.min_confidence
            ]
            matches = associate_iou(
                [st.kalman.predict() for st in active],
                [d.bbox for d in detections],
                self.iou_threshold,
            )

            matched_tracks = {r for r, _ in matches}
            matched_dets = {c for _, c in matches}
            for r, c in matches:
                active[r].kalman.update(detections[c].bbox)
                active[r].track.append(frame, detections[c])

            survivors = []
            for idx, st in enumerate(active):
                if idx in matched_tracks:
                    survivors.append(st)
                elif st.kalman.time_since_update > self.max_age:
                    finished.append(st.track)
                else:
                    survivors.append(st)
            active = survivors

            for c, detection in enumerate(detections):
                if c in matched_dets:
                    continue
                track = Track(next_id)
                track.append(frame, detection)
                active.append(_SortTrack(track, KalmanBoxTracker(detection.bbox)))
                next_id += 1

        finished.extend(st.track for st in active)
        return self.finalize(finished, self.min_length)
