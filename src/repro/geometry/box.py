"""Axis-aligned bounding boxes.

A :class:`BBox` is stored in ``(x1, y1, x2, y2)`` corner format with floats,
matching the convention of the MOT benchmark tooling the paper builds on.
Helper constructors convert from center/size and top-left/size formats used
by the motion models and trackers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class BBox:
    """An axis-aligned bounding box in image coordinates.

    Attributes:
        x1: left edge.
        y1: top edge.
        x2: right edge (must satisfy ``x2 >= x1``).
        y2: bottom edge (must satisfy ``y2 >= y1``).
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"degenerate bbox: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    def __reduce__(self):
        """Pickle through the constructor, not the slot-state hooks."""
        return (type(self), (self.x1, self.y1, self.x2, self.y2))

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "BBox":
        """Build a box from its center point and width/height."""
        if w < 0 or h < 0:
            raise ValueError(f"negative bbox size: w={w}, h={h}")
        return cls(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)

    @classmethod
    def from_tlwh(cls, x: float, y: float, w: float, h: float) -> "BBox":
        """Build a box from its top-left corner and width/height."""
        if w < 0 or h < 0:
            raise ValueError(f"negative bbox size: w={w}, h={h}")
        return cls(x, y, x + w, y + h)

    @property
    def width(self) -> float:
        """Box width ``x2 - x1``."""
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        """Box height ``y2 - y1``."""
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        """Box area ``width * height``."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Center coordinates ``Φ(b)`` used for spatial distances (§IV-C)."""
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @property
    def aspect_ratio(self) -> float:
        """Width over height; infinite for zero-height boxes."""
        if self.height == 0:
            return math.inf
        return self.width / self.height

    def to_tlwh(self) -> tuple[float, float, float, float]:
        """As an ``(x, y, w, h)`` top-left/size tuple."""
        return (self.x1, self.y1, self.width, self.height)

    def to_xyxy(self) -> tuple[float, float, float, float]:
        """As an ``(x1, y1, x2, y2)`` corner tuple."""
        return (self.x1, self.y1, self.x2, self.y2)

    def translated(self, dx: float, dy: float) -> "BBox":
        """Return a copy shifted by ``(dx, dy)``."""
        return BBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def intersection(self, other: "BBox") -> "BBox | None":
        """Overlapping region with ``other``, or ``None`` if disjoint."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return BBox(x1, y1, x2, y2)


def center_distance(a: BBox, b: BBox) -> float:
    """Euclidean distance between box centers.

    This is the paper's spatial distance ``DisS`` ingredient
    ``‖Φ(b_a) − Φ(b_b)‖₂`` (Algorithm 3).
    """
    (ax, ay), (bx, by) = a.center, b.center
    return math.hypot(ax - bx, ay - by)


def clip_bbox(box: BBox, width: float, height: float) -> BBox | None:
    """Clip ``box`` to an image of the given size.

    Returns ``None`` when the box lies entirely outside the image, which the
    detection simulator treats as "object not visible".
    """
    x1 = min(max(box.x1, 0.0), width)
    y1 = min(max(box.y1, 0.0), height)
    x2 = min(max(box.x2, 0.0), width)
    y2 = min(max(box.y2, 0.0), height)
    if x2 <= x1 or y2 <= y1:
        return None
    return BBox(x1, y1, x2, y2)
