"""A stochastic object detector over the simulated ground truth.

The detector's failure modes are what create the track fragmentation the
paper sets out to repair: when an object's visibility drops (occlusion,
glare), the detection probability drops with it, detections go missing for a
stretch of frames, the tracker's track dies, and a *new* track (new TID) is
born when the object reappears — a polyonymous pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import BBox, clip_bbox
from repro.synth.world import VideoGroundTruth


@dataclass(frozen=True)
class Detection:
    """One detector output.

    Attributes:
        bbox: detected box (jittered, clipped to the image).
        confidence: detector score in [0, 1].
        source_id: GT object id behind this detection, or ``None`` for
            clutter.  Only the ReID simulator and the metrics peek at this;
            the trackers never do.
        visibility: visibility of the source object at this frame (1.0 for
            clutter).  Consumed by the ReID noise model.
    """

    bbox: BBox
    confidence: float
    source_id: int | None
    visibility: float

    @property
    def is_clutter(self) -> bool:
        """True for false-positive detections with no source object."""
        return self.source_id is None

    def to_dict(self) -> dict:
        """Pure-JSON form (used by streaming checkpoints and feeds)."""
        return {
            "bbox": [self.bbox.x1, self.bbox.y1, self.bbox.x2, self.bbox.y2],
            "confidence": self.confidence,
            "source_id": self.source_id,
            "visibility": self.visibility,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Detection":
        """Rebuild a detection from :meth:`to_dict` output."""
        x1, y1, x2, y2 = payload["bbox"]
        source = payload["source_id"]
        return cls(
            bbox=BBox(float(x1), float(y1), float(x2), float(y2)),
            confidence=float(payload["confidence"]),
            source_id=None if source is None else int(source),
            visibility=float(payload["visibility"]),
        )


@dataclass
class DetectorConfig:
    """Detection noise parameters.

    Attributes:
        base_detect_prob: detection probability for a fully visible object.
        visibility_power: detection probability scales as
            ``base * visibility ** visibility_power``; higher powers punish
            partial occlusion harder.
        min_visibility: below this visibility the object is never detected.
        center_jitter: std-dev of center localization noise, as a fraction of
            box size.
        size_jitter: std-dev of width/height noise, as a fraction of size.
        clutter_rate: expected false positives per frame (Poisson).
        clutter_size: nominal (width, height) of clutter boxes.
        confidence_noise: std-dev of the confidence score around its mean.
    """

    base_detect_prob: float = 0.97
    visibility_power: float = 1.6
    min_visibility: float = 0.25
    center_jitter: float = 0.03
    size_jitter: float = 0.04
    clutter_rate: float = 0.15
    clutter_size: tuple[float, float] = (70.0, 150.0)
    confidence_noise: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.base_detect_prob <= 1:
            raise ValueError("base_detect_prob must be in [0, 1]")
        if self.clutter_rate < 0:
            raise ValueError("clutter_rate must be non-negative")


class NoisyDetector:
    """Frame-by-frame stochastic detector over a simulated GT video."""

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()

    def detect_video(
        self, world: VideoGroundTruth, seed: int | np.random.Generator = 0
    ) -> list[list[Detection]]:
        """Run detection over every frame of ``world``.

        Returns:
            ``detections[t]`` is the detection list for frame ``t``.
        """
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        return [
            self.detect_frame(world, frame, rng)
            for frame in range(world.n_frames)
        ]

    def detect_frame(
        self,
        world: VideoGroundTruth,
        frame: int,
        rng: np.random.Generator,
    ) -> list[Detection]:
        """Detect objects in one frame."""
        cfg = self.config
        width, height = world.config.width, world.config.height
        detections: list[Detection] = []

        for state in world.frames[frame]:
            if state.visibility < cfg.min_visibility:
                continue
            p_detect = cfg.base_detect_prob * (
                state.visibility**cfg.visibility_power
            )
            if rng.random() > p_detect:
                continue

            box = state.bbox
            dx = rng.normal(0.0, cfg.center_jitter * box.width)
            dy = rng.normal(0.0, cfg.center_jitter * box.height)
            w = box.width * max(1.0 + rng.normal(0.0, cfg.size_jitter), 0.3)
            h = box.height * max(1.0 + rng.normal(0.0, cfg.size_jitter), 0.3)
            cx, cy = box.center
            noisy = clip_bbox(
                BBox.from_center(cx + dx, cy + dy, w, h), width, height
            )
            if noisy is None:
                continue
            confidence = min(
                max(
                    0.6 + 0.4 * state.visibility
                    + rng.normal(0.0, cfg.confidence_noise),
                    0.05,
                ),
                1.0,
            )
            detections.append(
                Detection(noisy, confidence, state.object_id, state.visibility)
            )

        detections.extend(self._clutter(width, height, rng))
        return detections

    def _clutter(
        self, width: float, height: float, rng: np.random.Generator
    ) -> list[Detection]:
        """Draw Poisson clutter (false positives) for one frame."""
        cfg = self.config
        count = int(rng.poisson(cfg.clutter_rate)) if cfg.clutter_rate else 0
        clutter = []
        cw, ch = cfg.clutter_size
        for _ in range(count):
            cx = float(rng.uniform(0, width))
            cy = float(rng.uniform(0.3 * height, height))
            jitter = min(max(1.0 + rng.normal(0.0, 0.3), 0.4), 2.0)
            box = clip_bbox(
                BBox.from_center(cx, cy, cw * jitter, ch * jitter),
                width,
                height,
            )
            if box is None:
                continue
            confidence = min(max(rng.normal(0.35, 0.1), 0.05), 0.8)
            clutter.append(Detection(box, confidence, None, 1.0))
        return clutter
