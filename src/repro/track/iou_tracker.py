"""Greedy IoU tracker — the simplest association baseline.

No motion model, no appearance: each active track is represented by its last
box and greedily matched to the highest-IoU detection of the next frame.
Any detection gap kills the track immediately, so this tracker fragments
the most; it exists to stress the merging algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detect import Detection
from repro.track.assignment import associate_iou
from repro.track.base import Track, Tracker, TrackerStream


@dataclass
class _ActiveTrack:
    track: Track
    misses: int = 0


class IoUTracker(Tracker):
    """Greedy IoU association with a short miss tolerance.

    Args:
        iou_threshold: minimum IoU to associate a detection to a track.
        max_age: frames a track survives without a detection.
        min_length: tracks shorter than this are dropped from the output.
        min_confidence: detections below this score are ignored.
    """

    def __init__(
        self,
        iou_threshold: float = 0.4,
        max_age: int = 1,
        min_length: int = 5,
        min_confidence: float = 0.3,
    ) -> None:
        if not 0 < iou_threshold <= 1:
            raise ValueError("iou_threshold must be in (0, 1]")
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self.min_length = min_length
        self.min_confidence = min_confidence

    def run(self, detections_per_frame: list[list[Detection]]) -> list[Track]:
        """Run the tracker over per-frame detections; return finished tracks."""
        stream = self.stream()
        finished: list[Track] = []
        for frame, detections in enumerate(detections_per_frame):
            finished.extend(stream.advance(frame, detections))
        finished.extend(stream.flush())
        return self.finalize(finished, self.min_length)

    def stream(self) -> "IoUStream":
        """Open an incremental session (see :class:`TrackerStream`)."""
        return IoUStream(self)


class IoUStream(TrackerStream):
    """Frame-at-a-time greedy-IoU session with checkpointable state.

    Args:
        tracker: the configuration holder; never mutated.
    """

    def __init__(self, tracker: IoUTracker) -> None:
        self.tracker = tracker
        self.active: list[_ActiveTrack] = []
        self.next_id = 0
        self.last_frame = -1

    @property
    def close_lag(self) -> int:
        """A track dies ``max_age + 1`` frames after its last observation."""
        return self.tracker.max_age + 1

    def earliest_open_frame(self) -> int | None:
        """First frame of the oldest still-active track."""
        return min(
            (at.track.first_frame for at in self.active), default=None
        )

    def advance(self, frame: int, detections: list[Detection]) -> list[Track]:
        """Consume one frame; return tracks that just died (min-length
        filtered)."""
        if frame <= self.last_frame:
            raise ValueError(
                f"frames must strictly increase ({frame} after "
                f"{self.last_frame})"
            )
        self.last_frame = frame
        cfg = self.tracker
        active = self.active
        closed: list[Track] = []
        detections = [
            d for d in detections if d.confidence >= cfg.min_confidence
        ]
        matches = associate_iou(
            [at.track.observations[-1].bbox for at in active],
            [d.bbox for d in detections],
            cfg.iou_threshold,
            method="greedy",
        )

        matched_tracks = {r for r, _ in matches}
        matched_dets = {c for _, c in matches}
        for r, c in matches:
            active[r].track.append(frame, detections[c])
            active[r].misses = 0

        survivors: list[_ActiveTrack] = []
        for idx, at in enumerate(active):
            if idx in matched_tracks:
                survivors.append(at)
                continue
            at.misses += 1
            if at.misses > cfg.max_age:
                if len(at.track) >= cfg.min_length:
                    closed.append(at.track)
            else:
                survivors.append(at)
        self.active = survivors

        for c, detection in enumerate(detections):
            if c in matched_dets:
                continue
            track = Track(self.next_id)
            track.append(frame, detection)
            self.active.append(_ActiveTrack(track))
            self.next_id += 1
        return closed

    def flush(self) -> list[Track]:
        """Close every still-active track (end of feed)."""
        closed = [
            at.track
            for at in self.active
            if len(at.track) >= self.tracker.min_length
        ]
        self.active = []
        return closed

    def state_dict(self) -> dict:
        """Complete pure-JSON session state."""
        return {
            "next_id": self.next_id,
            "last_frame": self.last_frame,
            "active": [
                {"track": at.track.to_dict(), "misses": at.misses}
                for at in self.active
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a session captured by :meth:`state_dict`."""
        self.next_id = int(state["next_id"])
        self.last_frame = int(state["last_frame"])
        self.active = [
            _ActiveTrack(
                track=Track.from_dict(entry["track"]),
                misses=int(entry["misses"]),
            )
            for entry in state["active"]
        ]
