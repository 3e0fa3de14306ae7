"""Tracktor-style regression tracker (Bergmann et al., 2019).

Tracktor has no explicit motion model: it *regresses* each track's previous
box onto the current frame (the detector's regression head snaps it to the
nearest object) and only consults standalone detections to start new tracks.
Our proxy reproduces that control flow: an active track claims the detection
with the highest IoU against its (velocity-extrapolated) previous box; a
track with no claimable detection is suspended and dies after ``patience``
frames.  This is the paper's primary tracker ("Tracktor has the best
performance", §V-A) — good, but still fragmenting on real occlusions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detect import Detection
from repro.geometry import BBox, iou
from repro.track.assignment import associate_iou
from repro.track.base import Track, Tracker, TrackerStream


@dataclass
class _RegressedTrack:
    track: Track
    box: BBox
    velocity: tuple[float, float] = (0.0, 0.0)
    misses: int = 0

    def extrapolate(self) -> BBox:
        """Camera-motion-compensation stand-in: push the box along its
        recent velocity while suspended."""
        return self.box.translated(self.velocity[0], self.velocity[1])


class TracktorTracker(Tracker):
    """Regression-by-overlap tracker.

    Args:
        sigma_active: minimum IoU for an active track to claim a detection.
        new_det_confidence: minimum confidence for a detection to seed a
            new track (Tracktor only trusts confident detections here).
        patience: frames a suspended track survives before deletion.
        min_length: tracks shorter than this are dropped.
        min_confidence: detections below this score are invisible.
    """

    def __init__(
        self,
        sigma_active: float = 0.4,
        new_det_confidence: float = 0.5,
        patience: int = 8,
        min_length: int = 5,
        min_confidence: float = 0.3,
    ) -> None:
        self.sigma_active = sigma_active
        self.new_det_confidence = new_det_confidence
        self.patience = patience
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

    def stream(self) -> "TracktorStream":
        """Open an incremental session (see :class:`TrackerStream`)."""
        return TracktorStream(self)


class TracktorStream(TrackerStream):
    """Frame-at-a-time Tracktor session with checkpointable state.

    Args:
        tracker: the configuration holder; never mutated.
    """

    def __init__(self, tracker: TracktorTracker) -> None:
        self.tracker = tracker
        self.active: list[_RegressedTrack] = []
        self.next_id = 0
        self.last_frame = -1

    @property
    def close_lag(self) -> int:
        """A suspended track dies ``patience + 1`` frames after its last
        observation."""
        return self.tracker.patience + 1

    def earliest_open_frame(self) -> int | None:
        """First frame of the oldest still-active track."""
        return min(
            (rt.track.first_frame for rt in self.active), default=None
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
            [rt.extrapolate() for rt in active],
            [d.bbox for d in detections],
            cfg.sigma_active,
        )

        matched_tracks = {r for r, _ in matches}
        matched_dets = {c for _, c in matches}
        for r, c in matches:
            rt = active[r]
            detection = detections[c]
            old_cx, old_cy = rt.box.center
            new_cx, new_cy = detection.bbox.center
            rt.velocity = (new_cx - old_cx, new_cy - old_cy)
            rt.box = detection.bbox
            rt.misses = 0
            rt.track.append(frame, detection)

        survivors = []
        for idx, rt in enumerate(active):
            if idx in matched_tracks:
                survivors.append(rt)
                continue
            rt.misses += 1
            rt.box = rt.extrapolate()
            if rt.misses > cfg.patience:
                if len(rt.track) >= cfg.min_length:
                    closed.append(rt.track)
            else:
                survivors.append(rt)
        self.active = survivors

        for c, detection in enumerate(detections):
            if c in matched_dets:
                continue
            if detection.confidence < cfg.new_det_confidence:
                continue
            # Tracktor suppresses new tracks overlapping active ones
            # (they are assumed to be the same object), including tracks
            # this loop has just started.
            box = detection.bbox
            if any(iou(rt.box, box) > 0.3 for rt in self.active):
                continue
            track = Track(self.next_id)
            track.append(frame, detection)
            self.active.append(_RegressedTrack(track, detection.bbox))
            self.next_id += 1
        return closed

    def flush(self) -> list[Track]:
        """Close every still-active track (end of feed)."""
        closed = [
            rt.track
            for rt in self.active
            if len(rt.track) >= self.tracker.min_length
        ]
        self.active = []
        return closed

    def state_dict(self) -> dict:
        """Complete pure-JSON session state."""
        return {
            "next_id": self.next_id,
            "last_frame": self.last_frame,
            "active": [
                {
                    "track": rt.track.to_dict(),
                    "box": [rt.box.x1, rt.box.y1, rt.box.x2, rt.box.y2],
                    "velocity": list(rt.velocity),
                    "misses": rt.misses,
                }
                for rt in self.active
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a session captured by :meth:`state_dict`."""
        self.next_id = int(state["next_id"])
        self.last_frame = int(state["last_frame"])
        self.active = [
            _RegressedTrack(
                track=Track.from_dict(entry["track"]),
                box=BBox(*(float(v) for v in entry["box"])),
                velocity=(
                    float(entry["velocity"][0]),
                    float(entry["velocity"][1]),
                ),
                misses=int(entry["misses"]),
            )
            for entry in state["active"]
        ]
