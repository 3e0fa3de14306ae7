"""Unit tests for repro.geometry.iou."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import BBox, iou, iou_matrix


class TestIou:
    def test_identical_boxes(self):
        box = BBox(0, 0, 10, 10)
        assert iou(box, box) == pytest.approx(1.0)

    def test_disjoint_zero(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(0, 5, 10, 15)
        # intersection 50, union 150
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_contained_box(self):
        outer = BBox(0, 0, 10, 10)
        inner = BBox(0, 0, 5, 5)
        assert iou(outer, inner) == pytest.approx(0.25)

    def test_zero_area_boxes(self):
        degenerate = BBox(5, 5, 5, 5)
        assert iou(degenerate, degenerate) == 0.0


class TestIouMatrix:
    def test_matches_scalar_iou(self):
        rng = np.random.default_rng(0)
        boxes_a = [
            BBox.from_center(rng.uniform(0, 50), rng.uniform(0, 50), 10, 10)
            for _ in range(5)
        ]
        boxes_b = [
            BBox.from_center(rng.uniform(0, 50), rng.uniform(0, 50), 12, 8)
            for _ in range(7)
        ]
        matrix = iou_matrix(boxes_a, boxes_b)
        assert matrix.shape == (5, 7)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert matrix[i, j] == pytest.approx(iou(a, b))

    def test_empty_inputs(self):
        assert iou_matrix([], []).shape == (0, 0)
        assert iou_matrix([BBox(0, 0, 1, 1)], []).shape == (1, 0)
        assert iou_matrix([], [BBox(0, 0, 1, 1)]).shape == (0, 1)

    def test_values_in_unit_interval(self):
        boxes = [BBox(i, 0, i + 5, 5) for i in range(0, 20, 2)]
        matrix = iou_matrix(boxes, boxes)
        assert (matrix >= 0).all() and (matrix <= 1).all()
        assert np.allclose(np.diag(matrix), 1.0)

    def test_symmetry(self):
        boxes = [BBox(i, i, i + 4, i + 6) for i in range(5)]
        matrix = iou_matrix(boxes, boxes)
        assert np.allclose(matrix, matrix.T)


@given(
    ax=st.floats(0, 100), ay=st.floats(0, 100),
    bx=st.floats(0, 100), by=st.floats(0, 100),
    w=st.floats(1, 30), h=st.floats(1, 30),
)
def test_iou_symmetric_and_bounded(ax, ay, bx, by, w, h):
    a = BBox.from_center(ax, ay, w, h)
    b = BBox.from_center(bx, by, w, h)
    value = iou(a, b)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert value == pytest.approx(iou(b, a))
