"""Unit tests for repro.geometry.box."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import BBox, center_distance, clip_bbox


class TestBBoxConstruction:
    def test_corner_constructor(self):
        box = BBox(1.0, 2.0, 4.0, 8.0)
        assert box.width == 3.0
        assert box.height == 6.0
        assert box.area == 18.0

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            BBox(5.0, 0.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            BBox(0.0, 5.0, 10.0, 1.0)

    def test_zero_size_allowed(self):
        box = BBox(1.0, 1.0, 1.0, 1.0)
        assert box.area == 0.0

    def test_from_center(self):
        box = BBox.from_center(10.0, 20.0, 4.0, 6.0)
        assert box.to_xyxy() == (8.0, 17.0, 12.0, 23.0)
        assert box.center == (10.0, 20.0)

    def test_from_center_negative_size_raises(self):
        with pytest.raises(ValueError):
            BBox.from_center(0, 0, -1.0, 5.0)

    def test_from_tlwh(self):
        box = BBox.from_tlwh(1.0, 2.0, 3.0, 4.0)
        assert box.to_tlwh() == (1.0, 2.0, 3.0, 4.0)
        assert box.to_xyxy() == (1.0, 2.0, 4.0, 6.0)

    def test_from_tlwh_negative_raises(self):
        with pytest.raises(ValueError):
            BBox.from_tlwh(0, 0, 5.0, -2.0)


class TestBBoxProperties:
    def test_aspect_ratio(self):
        assert BBox.from_tlwh(0, 0, 10, 20).aspect_ratio == 0.5

    def test_aspect_ratio_zero_height(self):
        assert BBox(0, 0, 10, 0).aspect_ratio == math.inf

    def test_translated(self):
        box = BBox(0, 0, 2, 2).translated(3, -1)
        assert box.to_xyxy() == (3.0, -1.0, 5.0, 1.0)


class TestIntersection:
    def test_overlapping(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(5, 5, 15, 15)
        inter = a.intersection(b)
        assert inter is not None
        assert inter.to_xyxy() == (5.0, 5.0, 10.0, 10.0)

    def test_disjoint(self):
        assert BBox(0, 0, 1, 1).intersection(BBox(2, 2, 3, 3)) is None

    def test_touching_edges_is_none(self):
        assert BBox(0, 0, 1, 1).intersection(BBox(1, 0, 2, 1)) is None

    def test_contained(self):
        outer = BBox(0, 0, 10, 10)
        inner = BBox(2, 2, 4, 4)
        assert outer.intersection(inner).to_xyxy() == inner.to_xyxy()


class TestCenterDistance:
    def test_same_box_zero(self):
        box = BBox(0, 0, 4, 4)
        assert center_distance(box, box) == 0.0

    def test_pythagorean(self):
        a = BBox.from_center(0, 0, 2, 2)
        b = BBox.from_center(3, 4, 2, 2)
        assert center_distance(a, b) == pytest.approx(5.0)


class TestClipBBox:
    def test_inside_unchanged(self):
        box = BBox(10, 10, 20, 20)
        assert clip_bbox(box, 100, 100).to_xyxy() == box.to_xyxy()

    def test_partial_clip(self):
        box = BBox(-5, -5, 10, 10)
        clipped = clip_bbox(box, 100, 100)
        assert clipped.to_xyxy() == (0.0, 0.0, 10.0, 10.0)

    def test_fully_outside_returns_none(self):
        assert clip_bbox(BBox(200, 200, 300, 300), 100, 100) is None

    def test_outside_left(self):
        assert clip_bbox(BBox(-30, 10, -10, 20), 100, 100) is None


@given(
    cx=st.floats(-1e3, 1e3),
    cy=st.floats(-1e3, 1e3),
    w=st.floats(0.0, 1e3),
    h=st.floats(0.0, 1e3),
)
def test_from_center_roundtrip(cx, cy, w, h):
    """Center/size survive a from_center round trip (up to float error)."""
    box = BBox.from_center(cx, cy, w, h)
    rcx, rcy = box.center
    assert rcx == pytest.approx(cx, abs=1e-6)
    assert rcy == pytest.approx(cy, abs=1e-6)
    assert box.width == pytest.approx(w, abs=1e-6)
    assert box.height == pytest.approx(h, abs=1e-6)


@given(
    x1=st.floats(-100, 100), y1=st.floats(-100, 100),
    dx=st.floats(0, 100), dy=st.floats(0, 100),
    tx=st.floats(-50, 50), ty=st.floats(-50, 50),
)
def test_translation_preserves_area(x1, y1, dx, dy, tx, ty):
    box = BBox(x1, y1, x1 + dx, y1 + dy)
    assert box.translated(tx, ty).area == pytest.approx(box.area, rel=1e-9, abs=1e-6)
