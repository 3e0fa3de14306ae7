"""Intersection-over-union and vectorized pairwise geometry.

IoU drives (a) tracker association costs (SORT and friends) and (b) the
ground-truth matching used to label polyonymous track pairs.
The matrix forms operate on ``(N, 4)`` float arrays in ``xyxy`` layout so the
trackers can stay vectorized on dense scenes.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box import BBox


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in ``[0, 1]``.

    Computes with the IEEE operations of :func:`iou_matrix`, in its order
    (an empty overlap returns ``0.0`` at once), so ``iou(a, b) ==
    iou_matrix([a], [b])[0, 0]`` bit for bit on float coordinates (Python
    or numpy float64), up to the sign of a zero: touching, disjoint and
    zero-area pairs give ``0.0``.
    """
    ax1, ay1, ax2, ay2 = a.x1, a.y1, a.x2, a.y2
    bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
    w = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
    h = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def boxes_to_array(boxes: list[BBox]) -> np.ndarray:
    """Stack boxes into an ``(N, 4)`` xyxy array (empty-safe)."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.asarray([b.to_xyxy() for b in boxes], dtype=np.float64)


def iou_matrix(boxes_a: list[BBox], boxes_b: list[BBox]) -> np.ndarray:
    """Pairwise IoU between two box lists as an ``(len(a), len(b))`` array."""
    arr_a = boxes_to_array(boxes_a)
    arr_b = boxes_to_array(boxes_b)
    if arr_a.shape[0] == 0 or arr_b.shape[0] == 0:
        return np.zeros((arr_a.shape[0], arr_b.shape[0]), dtype=np.float64)

    x1 = np.maximum(arr_a[:, None, 0], arr_b[None, :, 0])
    y1 = np.maximum(arr_a[:, None, 1], arr_b[None, :, 1])
    x2 = np.minimum(arr_a[:, None, 2], arr_b[None, :, 2])
    y2 = np.minimum(arr_a[:, None, 3], arr_b[None, :, 3])

    inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
    area_a = (arr_a[:, 2] - arr_a[:, 0]) * (arr_a[:, 3] - arr_a[:, 1])
    area_b = (arr_b[:, 2] - arr_b[:, 0]) * (arr_b[:, 3] - arr_b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter

    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.where(union > 0, inter / union, 0.0)
    return result

