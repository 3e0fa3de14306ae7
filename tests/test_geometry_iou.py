"""Unit tests for repro.geometry.iou."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _bits(value) -> bytes:
    """The float64 bytes of ``value`` with a zero's sign dropped (numpy
    versions disagree on ``clip(-0.0, 0.0, None)``; ``1 - iou`` does not
    see the sign)."""
    return np.float64(value + 0.0).tobytes()


#: Coordinates from a coarse grid (so boxes touch, nest, coincide and
#: collapse to zero area) or any float in range.
_COORD = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 10.0]),
    st.floats(0, 100),
)
_SIZE = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0, 30)
)


@st.composite
def boxes(draw):
    """A box of Python floats or, as SORT's Kalman boxes may, of numpy
    float64 coordinates."""
    x1, y1 = draw(_COORD), draw(_COORD)
    x2, y2 = x1 + draw(_SIZE), y1 + draw(_SIZE)
    if draw(st.booleans()):
        x1, y1, x2, y2 = (np.float64(v) for v in (x1, y1, x2, y2))
    return BBox(x1, y1, x2, y2)


class TestScalarIouIdentity:
    """``iou`` repeats ``iou_matrix``'s IEEE operations, so the scalar
    association kernel gates on the same bits (DESIGN.md §9.3)."""

    @pytest.mark.parametrize(
        "a, b",
        [
            (BBox(0.0, 0.0, 1.0, 1.0), BBox(1.0, 0.0, 2.0, 1.0)),  # touching
            (BBox(0.0, 0.0, 1.0, 1.0), BBox(3.0, 3.0, 4.0, 5.0)),  # disjoint
            (BBox(0.0, 0.0, 10.0, 10.0), BBox(2.5, 1.0, 3.0, 9.0)),  # nested
            (BBox(0.1, 0.2, 7.3, 9.9), BBox(0.1, 0.2, 7.3, 9.9)),  # identical
            (BBox(2.0, 2.0, 2.0, 5.0), BBox(0.0, 0.0, 4.0, 4.0)),  # zero area
            (BBox(2.0, 2.0, 2.0, 2.0), BBox(2.0, 2.0, 2.0, 2.0)),
            (BBox(0.1, 0.1, 0.7, 0.3), BBox(0.2, 0.0, 0.9, 0.25)),
        ],
    )
    def test_named_cases(self, a, b):
        assert _bits(iou(a, b)) == _bits(iou_matrix([a], [b])[0, 0])

    @settings(max_examples=400, deadline=None)
    @given(a=boxes(), b=boxes())
    def test_matches_matrix_bit_for_bit(self, a, b):
        assert _bits(iou(a, b)) == _bits(iou_matrix([a], [b])[0, 0])

    def test_random_tables_bit_for_bit(self):
        # Overlapping boxes with arbitrary fractions, so every rounding
        # step shows; the second table carries numpy float64 corners.
        rng = np.random.default_rng(7)

        def draw(n, as_numpy):
            corners = rng.uniform(0.0, 40.0, size=(n, 2))
            sizes = rng.uniform(0.0, 25.0, size=(n, 2))
            boxes = []
            for (x, y), (w, h) in zip(corners, sizes):
                values = (x, y, x + w, y + h)
                if not as_numpy:
                    values = tuple(float(v) for v in values)
                boxes.append(BBox(*values))
            return boxes

        a, b = draw(40, as_numpy=False), draw(50, as_numpy=True)
        matrix = iou_matrix(a, b)
        assert (matrix > 0).sum() > 500
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                assert _bits(iou(box_a, box_b)) == _bits(matrix[i, j])
