"""Track data structures and the tracker interface.

A :class:`Track` is the paper's ``t_{c,k}``: a tracking-ID plus the ordered
sequence of its observations (the BBox sequence ``B_t``).  Trackers turn
per-frame detection lists into a list of tracks; each concrete tracker lives
in its own module.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.detect import Detection
from repro.geometry import BBox


@dataclass(frozen=True, slots=True)
class TrackObservation:
    """One (frame, detection) membership of a track."""

    frame: int
    detection: Detection

    def __reduce__(self):
        """Pickle through the constructor, not the slot-state hooks."""
        return (type(self), (self.frame, self.detection))

    @property
    def bbox(self) -> BBox:
        """The observed bounding box."""
        return self.detection.bbox


@dataclass(slots=True)
class Track:
    """A tracker-produced track: a TID plus its ordered observations.

    Attributes:
        track_id: the tracking identifier (TID) assigned by the tracker.
        observations: observations in increasing frame order.
    """

    track_id: int
    observations: list[TrackObservation] = field(default_factory=list)

    def __reduce__(self):
        """Pickle through the constructor, not the slot-state hooks."""
        return (type(self), (self.track_id, self.observations))

    def append(self, frame: int, detection: Detection) -> None:
        """Add an observation; frames must be strictly increasing."""
        if self.observations and frame <= self.observations[-1].frame:
            raise ValueError(
                f"track {self.track_id}: non-increasing frame {frame}"
            )
        self.observations.append(TrackObservation(frame, detection))

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def first_frame(self) -> int:
        """Frame index of the first observation."""
        if not self.observations:
            raise ValueError(f"track {self.track_id} is empty")
        return self.observations[0].frame

    @property
    def last_frame(self) -> int:
        """Frame index of the last observation."""
        if not self.observations:
            raise ValueError(f"track {self.track_id} is empty")
        return self.observations[-1].frame

    @property
    def bboxes(self) -> list[BBox]:
        """The paper's ``B_t``: the ordered BBox sequence of this track."""
        return [obs.bbox for obs in self.observations]

    @property
    def frames(self) -> list[int]:
        """All observation frame indices, in order."""
        return [obs.frame for obs in self.observations]

    def dominant_source(self) -> int | None:
        """Most frequent GT object behind this track (None for clutter).

        Used only by evaluation code to label tracks; the merging algorithms
        never call this.
        """
        counts: dict[int | None, int] = {}
        for obs in self.observations:
            key = obs.detection.source_id
            counts[key] = counts.get(key, 0) + 1
        if not counts:
            return None
        return max(counts, key=lambda k: counts[k])

    def overlaps_frames(self, other: "Track") -> bool:
        """Whether the two tracks coexist at some frame range."""
        return not (
            self.last_frame < other.first_frame
            or other.last_frame < self.first_frame
        )

    def to_dict(self) -> dict:
        """Pure-JSON form (used by streaming service checkpoints)."""
        return {
            "track_id": self.track_id,
            "observations": [
                [obs.frame, obs.detection.to_dict()]
                for obs in self.observations
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Track":
        """Rebuild a track from :meth:`to_dict` output."""
        track = cls(int(payload["track_id"]))
        for frame, detection in payload["observations"]:
            track.append(int(frame), Detection.from_dict(detection))
        return track


class Tracker(abc.ABC):
    """Interface every tracker implements: detections in, tracks out."""

    @abc.abstractmethod
    def run(self, detections_per_frame: list[list[Detection]]) -> list[Track]:
        """Track across an entire frame sequence.

        Args:
            detections_per_frame: ``detections_per_frame[t]`` lists the
                detections of frame ``t``.

        Returns:
            All tracks produced, including ones still alive at the end.
            Tracks shorter than the tracker's minimum length are dropped.
        """

    @staticmethod
    def finalize(tracks: list[Track], min_length: int) -> list[Track]:
        """Drop degenerate tracks and renumber TIDs densely from 0."""
        kept = [t for t in tracks if len(t) >= min_length]
        kept.sort(key=lambda t: (t.first_frame, t.track_id))
        for new_id, track in enumerate(kept):
            track.track_id = new_id
        return kept

    def stream(self) -> "TrackerStream":
        """Open an incremental tracking session (streaming ingestion).

        Trackers that support frame-at-a-time operation override this;
        the default signals that only batch :meth:`run` is available.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no incremental mode; "
            "use a streamable tracker (TracktorTracker, IoUTracker)"
        )


class TrackerStream(abc.ABC):
    """A frame-at-a-time tracking session with checkpointable state.

    The batch :meth:`Tracker.run` of a streamable tracker is defined as
    ``stream()`` + :meth:`advance` per frame + :meth:`flush` +
    ``finalize``, so feeding the same frames through a stream reproduces
    the batch association decisions exactly.  Unlike ``run``, a stream
    never renumbers TIDs: tracks keep their creation-order ids, which
    stay deterministic under incremental consumption (a global dense
    renumbering would require the whole feed).

    Frames must be advanced in strictly increasing order; the streaming
    service's watermark/reorder stage guarantees that.
    """

    @abc.abstractmethod
    def advance(self, frame: int, detections: list[Detection]) -> list[Track]:
        """Consume one frame; return tracks the tracker just closed.

        Returned tracks already satisfy the tracker's ``min_length``
        (shorter dying tracks are silently dropped, as in ``run``).
        """

    @abc.abstractmethod
    def flush(self) -> list[Track]:
        """Close and return all still-active tracks (end of feed)."""

    @property
    @abc.abstractmethod
    def close_lag(self) -> int:
        """Upper bound on frames between a track's last observation and
        the :meth:`advance` call that closes it (the tracker's patience);
        window finalization waits this many frames past a window's end."""

    @abc.abstractmethod
    def earliest_open_frame(self) -> int | None:
        """First frame of the oldest still-active track (``None`` when no
        track is active).  Windowed consumers use this to defer closing a
        window while a track it owns is still being extended — without
        it, tracks outliving the ``L ≥ 2·L_max`` assumption would close
        after their window was finalized and be dropped."""

    @abc.abstractmethod
    def state_dict(self) -> dict:
        """Complete pure-JSON session state (for durable checkpoints)."""

    @abc.abstractmethod
    def load_state_dict(self, state: dict) -> None:
        """Restore a session captured by :meth:`state_dict`."""
