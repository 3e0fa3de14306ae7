"""Unit tests for repro.track.assignment (Hungarian and greedy matching)."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.geometry import BBox, iou_matrix
from repro.track.assignment import (
    associate_iou,
    greedy_assignment,
    hungarian,
    solve_assignment,
)


def brute_force_cost(cost: np.ndarray) -> float:
    """Minimum assignment cost by exhaustive enumeration (small inputs)."""
    n, m = cost.shape
    if n <= m:
        best = float("inf")
        for perm in itertools.permutations(range(m), n):
            best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
        return best
    return brute_force_cost(cost.T)


def assignment_cost(cost: np.ndarray, pairs) -> float:
    return sum(cost[r, c] for r, c in pairs)


class TestHungarian:
    def test_identity_matrix(self):
        cost = 1.0 - np.eye(4)
        pairs = hungarian(cost)
        assert pairs == [(i, i) for i in range(4)]

    def test_known_example(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        pairs = hungarian(cost)
        assert assignment_cost(cost, pairs) == pytest.approx(5.0)

    def test_rectangular_more_cols(self):
        cost = np.array([[10.0, 1.0, 10.0, 10.0], [10.0, 10.0, 1.0, 10.0]])
        pairs = hungarian(cost)
        assert len(pairs) == 2
        assert assignment_cost(cost, pairs) == pytest.approx(2.0)

    def test_rectangular_more_rows(self):
        cost = np.array([[10.0, 1.0], [1.0, 10.0], [5.0, 5.0]])
        pairs = hungarian(cost)
        assert len(pairs) == 2
        assert assignment_cost(cost, pairs) == pytest.approx(2.0)

    def test_empty(self):
        assert hungarian(np.zeros((0, 0))) == []
        assert hungarian(np.zeros((0, 3))) == []

    def test_single_cell(self):
        assert hungarian(np.array([[7.0]])) == [(0, 0)]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros(5))

    def test_matches_scipy_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n, m = rng.integers(1, 9, size=2)
            cost = rng.uniform(0, 10, size=(n, m))
            ours = assignment_cost(cost, hungarian(cost))
            rows, cols = linear_sum_assignment(cost)
            theirs = cost[rows, cols].sum()
            assert ours == pytest.approx(theirs)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, m = rng.integers(1, 6, size=2)
            cost = rng.uniform(0, 10, size=(n, m))
            ours = assignment_cost(cost, hungarian(cost))
            assert ours == pytest.approx(brute_force_cost(cost))


class TestGreedy:
    def test_takes_cheapest_first(self):
        cost = np.array([[1.0, 2.0], [0.5, 3.0]])
        pairs = greedy_assignment(cost)
        # Greedy grabs (1,0)=0.5 then (0,1)=2.0 — total 2.5, not optimal 1+3.
        assert (1, 0) in pairs and (0, 1) in pairs

    def test_max_cost_gates(self):
        cost = np.array([[1.0, 9.0], [9.0, 9.0]])
        pairs = greedy_assignment(cost, max_cost=5.0)
        assert pairs == [(0, 0)]

    def test_empty(self):
        assert greedy_assignment(np.zeros((0, 4))) == []


class TestSolveAssignment:
    def test_gating_drops_expensive_pairs(self):
        cost = np.array([[0.1, 9.0], [9.0, 9.0]])
        pairs = solve_assignment(cost, max_cost=1.0)
        assert pairs == [(0, 0)]

    def test_all_gated(self):
        cost = np.full((3, 3), 10.0)
        assert solve_assignment(cost, max_cost=1.0) == []

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_assignment(np.zeros((2, 2)), method="magic")

    def test_greedy_method(self):
        cost = np.array([[0.1, 0.2], [0.2, 0.1]])
        pairs = solve_assignment(cost, method="greedy")
        assert pairs == [(0, 0), (1, 1)]

    def test_infinite_entries_treated_as_forbidden(self):
        cost = np.array([[np.inf, 1.0], [1.0, np.inf]])
        pairs = solve_assignment(cost, max_cost=5.0)
        assert pairs == [(0, 1), (1, 0)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_hungarian_optimal_property(n, m, seed):
    """Hungarian cost always equals scipy's optimum."""
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0, 100, size=(n, m))
    pairs = hungarian(cost)
    assert len(pairs) == min(n, m)
    rows = [r for r, _ in pairs]
    cols = [c for _, c in pairs]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    expected_rows, expected_cols = linear_sum_assignment(cost)
    assert assignment_cost(cost, pairs) == pytest.approx(
        cost[expected_rows, expected_cols].sum()
    )


def reference_solve(cost: np.ndarray, max_cost: float) -> list:
    """Gated solve by definition: Hungarian on the clamped matrix, then
    the gated pairs filtered out (the fast path must reproduce this)."""
    finite = np.isfinite(cost)
    finite_max = float(np.max(cost[finite], initial=0.0))
    sentinel = (max(finite_max, max_cost) + 1.0) * 10.0
    clamped = np.where(finite & (cost <= max_cost), cost, sentinel)
    return [(r, c) for r, c in hungarian(clamped) if cost[r, c] <= max_cost]


# Tracker-like costs (1 - IoU) around a gate of 0.6, plus ties, values above
# every gate and non-finite entries.
_COST_VALUES = st.sampled_from(
    [0.0, 0.1, 0.35, 0.35, 0.6, 0.61, 0.9, 1.0, 4.0, np.inf, np.nan]
)


@st.composite
def gated_matrices(draw, values=_COST_VALUES):
    """A cost matrix of either orientation plus a finite gate."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    flat = draw(st.lists(values, min_size=n * m, max_size=n * m))
    max_cost = draw(st.sampled_from([0.35, 0.6, 0.95, 2.0]))
    return np.asarray(flat, dtype=np.float64).reshape(n, m), max_cost


@st.composite
def conflict_free_matrices(draw):
    """At most one admissible entry per row and column: a random partial
    matching of cheap entries over a gated or non-finite background."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    background = draw(
        st.lists(
            st.sampled_from([0.61, 0.9, 1.0, 4.0, np.inf, np.nan]),
            min_size=n * m,
            max_size=n * m,
        )
    )
    cost = np.asarray(background, dtype=np.float64).reshape(n, m)
    cols = draw(st.permutations(range(m)))
    for row in range(n):
        if row < m and draw(st.booleans()):
            cost[row, cols[row]] = draw(st.sampled_from([0.0, 0.2, 0.6]))
    return cost, 0.6


class TestGatedFastPath:
    @settings(max_examples=300, deadline=None)
    @given(case=gated_matrices())
    def test_matches_filtered_hungarian(self, case):
        cost, max_cost = case
        assert solve_assignment(cost, max_cost=max_cost) == reference_solve(
            cost, max_cost
        )

    @settings(max_examples=200, deadline=None)
    @given(case=conflict_free_matrices())
    def test_conflict_free_skips_hungarian(self, case):
        cost, max_cost = case
        expected = reference_solve(cost, max_cost)
        forbidden = AssertionError("conflict-free frame reached Hungarian")
        with mock.patch(
            "repro.track.assignment.hungarian", side_effect=forbidden
        ):
            assert solve_assignment(cost, max_cost=max_cost) == expected
        admissible = np.isfinite(cost) & (cost <= max_cost)
        assert expected == [tuple(rc) for rc in np.argwhere(admissible)]

    def test_neg_inf_keeps_the_solver(self):
        # -inf is clamped like any forbidden entry but passes the final
        # filter, so it is returned when Hungarian assigns it.
        cost = np.array([[-np.inf, 0.9], [0.9, 0.9]])
        assert solve_assignment(cost, max_cost=0.5) == reference_solve(
            cost, 0.5
        )
        assert solve_assignment(cost, max_cost=0.5) == [(0, 0)]

    def test_sentinel_overflow_still_raises(self):
        # A gate near float max overflows the sentinel to inf; the solver
        # rejects that, conflict-free or not.
        cost = np.array([[np.inf, 0.5], [0.5, np.inf]])
        with pytest.raises(ValueError):
            reference_solve(cost, 1e308)
        with pytest.raises(ValueError):
            solve_assignment(cost, max_cost=1e308)


#: Boxes on a coarse grid: many overlap several others, so gates conflict.
_GRID_BOX = st.builds(
    lambda x, y, w, h: BBox(x, y, x + w, y + h),
    st.sampled_from([0.0, 1.0, 2.0, 3.5]),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from([0.0, 2.0, 3.0, 4.0]),
    st.sampled_from([1.0, 3.0, 4.0]),
)
_BOX_LISTS = st.lists(_GRID_BOX, max_size=6)
_MIN_IOU = st.sampled_from([0.0, 0.2, 0.3, 0.4, 0.5, 1.0])


class TestAssociateIou:
    """The kernel equals ``solve_assignment`` on ``1 - iou_matrix``."""

    @staticmethod
    def reference(predicted, detected, min_iou, method):
        cost = 1.0 - iou_matrix(predicted, detected)
        return solve_assignment(cost, 1.0 - min_iou, method)

    @settings(max_examples=400, deadline=None)
    @given(
        predicted=_BOX_LISTS,
        detected=_BOX_LISTS,
        min_iou=_MIN_IOU,
        method=st.sampled_from(["hungarian", "greedy"]),
    )
    def test_matches_solve_assignment(
        self, predicted, detected, min_iou, method
    ):
        assert associate_iou(
            predicted, detected, min_iou, method
        ) == self.reference(predicted, detected, min_iou, method)

    @pytest.mark.parametrize("method", ["hungarian", "greedy"])
    def test_empty_sides(self, method):
        box = BBox(0.0, 0.0, 1.0, 1.0)
        for predicted, detected in (([], []), ([box], []), ([], [box])):
            assert associate_iou(predicted, detected, 0.3, method) == []

    @pytest.mark.parametrize("method", ["hungarian", "greedy"])
    def test_conflict_falls_back(self, method):
        # Both tracks clear the gate on both detections; the optimum
        # (and greedy) pair each with its closer detection.
        predicted = [BBox(0.0, 0.0, 10.0, 10.0), BBox(1.0, 0.0, 11.0, 10.0)]
        detected = [BBox(1.5, 0.0, 11.5, 10.0), BBox(0.0, 0.0, 10.0, 10.0)]
        expected = self.reference(predicted, detected, 0.5, method)
        assert expected == [(0, 1), (1, 0)]
        with mock.patch(
            "repro.track.assignment.solve_assignment",
            wraps=solve_assignment,
        ) as solve:
            assert associate_iou(predicted, detected, 0.5, method) == expected
        assert solve.call_count == 1

    @pytest.mark.parametrize("method", ["hungarian", "greedy"])
    def test_conflict_free_skips_the_solver(self, method):
        predicted = [BBox(0.0, 0.0, 2.0, 2.0), BBox(20.0, 0.0, 22.0, 2.0)]
        detected = [
            BBox(20.5, 0.0, 22.5, 2.0),
            BBox(50.0, 50.0, 51.0, 51.0),
            BBox(0.0, 0.1, 2.0, 2.1),
        ]
        forbidden = AssertionError("conflict-free frame reached the solver")
        with mock.patch(
            "repro.track.assignment.solve_assignment", side_effect=forbidden
        ):
            matches = associate_iou(predicted, detected, 0.5, method)
        assert matches == [(0, 2), (1, 0)]
        assert matches == self.reference(predicted, detected, 0.5, method)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            associate_iou([], [], 0.5, method="auction")
