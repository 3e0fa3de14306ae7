"""Feed events and the replayable synthetic source.

A streaming deployment consumes an *event log*: per-frame detection
payloads stamped with an arrival time, delivered in arrival order (which
is **not** frame order — network jitter reorders frames within a bounded
horizon).  :class:`SyntheticFeedSource` produces exactly that shape from
a simulated world, fully seeded: the same ``(world, seeds)`` always
yields the same event sequence, and :meth:`SyntheticFeedSource.events`
can start at any offset — the Kafka-style replayability the service's
durable restart relies on (a resumed service re-attaches at the offset
recorded in its checkpoint and sees the identical remainder).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.detect import Detection, NoisyDetector
from repro.faults.profiles import FaultProfile
from repro.synth.world import VideoGroundTruth

#: Default simulated inter-frame interval (≈ 30 fps).
DEFAULT_FRAME_INTERVAL_MS = 33.0


@dataclass(frozen=True, slots=True)
class FrameEvent:
    """One frame's detections arriving at the service intake.

    Attributes:
        frame: the frame index the payload belongs to (event time).
        detections: the detector output for that frame (may be empty —
            a dropped frame still arrives, as a blank payload).
        arrival_ms: simulated arrival timestamp at the intake queue
            (processing time); sources emit events in arrival order.
    """

    frame: int
    detections: list[Detection] = field(default_factory=list)
    arrival_ms: float = 0.0

    def __reduce__(self):
        """Pickle through the constructor, not the slot-state hooks."""
        return (type(self), (self.frame, self.detections, self.arrival_ms))

    def to_dict(self) -> dict:
        """Pure-JSON form (checkpointed while queued)."""
        return {
            "frame": self.frame,
            "detections": [d.to_dict() for d in self.detections],
            "arrival_ms": self.arrival_ms,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FrameEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            frame=int(payload["frame"]),
            detections=[
                Detection.from_dict(d) for d in payload["detections"]
            ],
            arrival_ms=float(payload["arrival_ms"]),
        )


class SyntheticFeedSource:
    """A seeded, offset-replayable event log over a simulated world.

    Per frame ``t`` the source runs the detector (same RNG discipline as
    :meth:`~repro.detect.detector.NoisyDetector.detect_video`, so frame
    payloads match the offline pipeline's), optionally blanks it through
    the fault profile's frame-drop injector, stamps it with arrival time
    ``t · frame_interval_ms + jitter`` where ``jitter ∈ [0,
    disorder_ms)``, and emits events in arrival order.  Because jitter
    is bounded, a frame can only be overtaken by frames at most
    ``ceil(disorder_ms / frame_interval_ms)`` slots behind it, so the
    internal reorder heap stays small and the stream is emitted lazily.

    Args:
        world: the simulated ground truth to detect over.
        detector: detection front-end (default configuration when
            omitted).
        detector_seed: seed of the detection noise.
        frame_interval_ms: nominal inter-frame arrival spacing.
        disorder_ms: arrival-jitter bound; ``0`` keeps the feed in
            frame order.
        disorder_seed: seed of the arrival jitter.
        fault_profile: optional chaos configuration; its frame-drop
            injector blanks a seeded subset of payloads upstream of the
            service, exactly as the offline pipeline applies it.
    """

    def __init__(
        self,
        world: VideoGroundTruth,
        detector: NoisyDetector | None = None,
        detector_seed: int = 2,
        frame_interval_ms: float = DEFAULT_FRAME_INTERVAL_MS,
        disorder_ms: float = 0.0,
        disorder_seed: int = 0,
        fault_profile: FaultProfile | None = None,
    ) -> None:
        if frame_interval_ms <= 0:
            raise ValueError("frame_interval_ms must be positive")
        if disorder_ms < 0:
            raise ValueError("disorder_ms must be non-negative")
        self.world = world
        self.detector = detector or NoisyDetector()
        self.detector_seed = detector_seed
        self.frame_interval_ms = frame_interval_ms
        self.disorder_ms = disorder_ms
        self.disorder_seed = disorder_seed
        self.fault_profile = fault_profile

    @property
    def n_events(self) -> int:
        """Total events the source will emit (one per world frame)."""
        return self.world.n_frames

    def events(self, start: int = 0) -> Iterator[FrameEvent]:
        """Yield the event log in arrival order, from offset ``start``.

        The full log is always regenerated internally (the RNG streams
        must advance identically whatever the offset), so
        ``events(start=n)`` yields exactly what an uninterrupted
        consumer would have seen after its first ``n`` events — the
        replay contract behind crash-recoverable restart.
        """
        if start < 0:
            raise ValueError("start must be non-negative")
        detect_rng = np.random.default_rng(self.detector_seed)
        jitter_rng = np.random.default_rng(self.disorder_seed)
        dropper = (
            self.fault_profile.frame_injector()
            if self.fault_profile is not None
            and self.fault_profile.frame_drop_rate > 0
            else None
        )
        heap: list[tuple[float, int, list[Detection]]] = []
        emitted = 0

        def pop_ready(horizon_ms: float) -> Iterator[FrameEvent]:
            nonlocal emitted
            while heap and heap[0][0] <= horizon_ms:
                arrival, frame, detections = heapq.heappop(heap)
                emitted += 1
                if emitted > start:
                    yield FrameEvent(frame, detections, arrival)

        for frame in range(self.world.n_frames):
            detections = self.detector.detect_frame(
                self.world, frame, detect_rng
            )
            if dropper is not None:
                detections = dropper.apply([detections])[0]
            jitter = (
                float(jitter_rng.uniform(0.0, self.disorder_ms))
                if self.disorder_ms > 0
                else 0.0
            )
            arrival = frame * self.frame_interval_ms + jitter
            heapq.heappush(heap, (arrival, frame, detections))
            # Every future frame arrives at ≥ (frame+1)·interval, so
            # anything at or before that horizon is safely ordered.
            yield from pop_ready((frame + 1) * self.frame_interval_ms)
        yield from pop_ready(float("inf"))
