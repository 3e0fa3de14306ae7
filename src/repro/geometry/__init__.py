"""Geometric primitives shared across the library.

The unit of currency throughout :mod:`repro` is the axis-aligned bounding box
(:class:`BBox`).  Everything the paper's algorithms consume — spatial
distances for BetaInit, IoU for tracker association and ground-truth
matching — is built from the helpers in this package.
"""

from repro.geometry.box import BBox, center_distance, clip_bbox
from repro.geometry.iou import iou, iou_matrix

__all__ = [
    "BBox",
    "center_distance",
    "clip_bbox",
    "iou",
    "iou_matrix",
]
