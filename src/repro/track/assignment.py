"""Linear assignment solvers.

:func:`hungarian` is a from-scratch O(n³) Kuhn–Munkres implementation using
the potentials/shortest-augmenting-path formulation; it handles rectangular
cost matrices by operating on rows ≤ columns and transposing otherwise.
:func:`greedy_assignment` is the cheap alternative some trackers (IoU
tracker) use.  :func:`solve_assignment` wraps either with cost gating, which
is how the trackers consume them.  :func:`associate_iou` is the
IoU-gated trackers' association kernel (IoU tracker, SORT, Tracktor).

With a finite gate, :func:`solve_assignment` first checks whether every row
and every column holds at most one admissible entry (finite and
``<= max_cost``).  That is the usual tracker frame, and there the answer is
exactly those entries in row order: the clamping sentinel exceeds every
admissible cost, so any optimal assignment of the clamped matrix contains
all of them, and filtering leaves nothing else.  Hungarian then runs only
on frames with conflicts (DESIGN.md §9.3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry import BBox, iou

_INF = float("inf")


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost assignment on a rectangular cost matrix.

    Args:
        cost: ``(n_rows, n_cols)`` array of finite costs.

    Returns:
        List of ``(row, col)`` pairs; every row (if ``n_rows <= n_cols``)
        or every column (otherwise) is matched.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    if cost.size == 0:
        return []
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")

    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    n, m = cost.shape  # n <= m

    # Potentials-based Hungarian; internal arrays are 1-indexed with column 0
    # acting as the virtual source of each augmenting path.
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    match = np.zeros(m + 1, dtype=np.int64)  # match[j] = row assigned to col j
    way = np.zeros(m + 1, dtype=np.int64)  # predecessor column on the path

    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(m + 1, _INF)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = int(match[j0])
            # Vectorized relaxation of all unused columns.
            free = ~used
            free[0] = False
            cols = np.nonzero(free)[0]
            reduced = cost[i0 - 1, cols - 1] - u[i0] - v[cols]
            better = reduced < minv[cols]
            improved_cols = cols[better]
            minv[improved_cols] = reduced[better]
            way[improved_cols] = j0

            pick = int(cols[np.argmin(minv[cols])])
            delta = minv[pick]
            # Update potentials along the alternating tree.
            used_cols = np.nonzero(used)[0]
            u[match[used_cols]] += delta
            v[used_cols] -= delta
            minv[cols] -= delta
            j0 = pick
            if match[j0] == 0:
                break
        # Augment along the stored predecessor path.
        while j0:
            j1 = int(way[j0])
            match[j0] = match[j1]
            j0 = j1

    pairs = []
    for j in range(1, m + 1):
        if match[j] != 0:
            row, col = int(match[j]) - 1, j - 1
            pairs.append((col, row) if transposed else (row, col))
    pairs.sort()
    return pairs


def greedy_assignment(
    cost: np.ndarray, max_cost: float = _INF
) -> list[tuple[int, int]]:
    """Greedy minimum-cost matching: repeatedly take the cheapest pair.

    Not optimal, but what cheap trackers (IoU tracker) actually use.

    Args:
        cost: ``(n_rows, n_cols)`` cost matrix.
        max_cost: pairs with cost above this are never matched.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    pairs = []
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    order = np.argsort(cost, axis=None)
    for flat in order:
        r, c = divmod(int(flat), cost.shape[1])
        if r in used_rows or c in used_cols:
            continue
        if cost[r, c] > max_cost:
            break
        pairs.append((r, c))
        used_rows.add(r)
        used_cols.add(c)
    pairs.sort()
    return pairs


def solve_assignment(
    cost: np.ndarray,
    max_cost: float = _INF,
    method: str = "hungarian",
) -> list[tuple[int, int]]:
    """Solve an assignment problem with cost gating.

    Costs above ``max_cost`` are treated as forbidden: the solver runs on a
    clamped matrix and gated pairs are dropped from the result.

    Args:
        cost: ``(n_rows, n_cols)`` cost matrix.
        max_cost: maximum admissible pair cost.
        method: ``"hungarian"`` (optimal) or ``"greedy"``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if method == "greedy":
        return greedy_assignment(cost, max_cost)
    if method != "hungarian":
        raise ValueError(f"unknown assignment method {method!r}")

    if np.isfinite(max_cost):
        # Clamp forbidden entries to a large-but-finite sentinel so the
        # solver stays numerically happy, then filter them out.
        finite = np.isfinite(cost)
        admissible = finite & (cost <= max_cost)
        finite_max = float(np.max(cost[finite], initial=0.0))
        sentinel = (max(finite_max, max_cost) + 1.0) * 10.0
        # Conflict-free gating (the common tracker frame): every optimal
        # assignment of the clamped matrix holds all admissible entries,
        # so the filtered result is exactly them.  -inf entries are
        # clamped yet pass the final filter, so they keep the solver.
        if (
            cost.ndim == 2
            and np.isfinite(sentinel)
            and admissible.sum(axis=0).max() <= 1
            and admissible.sum(axis=1).max() <= 1
            and not np.isneginf(cost).any()
        ):
            rows, cols = np.nonzero(admissible)
            return list(zip(rows.tolist(), cols.tolist()))
        clamped = np.where(admissible, cost, sentinel)
    else:
        clamped = cost
    pairs = hungarian(clamped)
    return [(r, c) for r, c in pairs if cost[r, c] <= max_cost]


def associate_iou(
    predicted: Sequence[BBox],
    detected: Sequence[BBox],
    min_iou: float,
    method: str = "hungarian",
) -> list[tuple[int, int]]:
    """Match track boxes to detection boxes on IoU, gated at ``min_iou``.

    Returns exactly ``solve_assignment(1.0 - iou_matrix(predicted,
    detected), 1.0 - min_iou, method)``, bit for bit, without the numpy
    round trip on the usual small, conflict-free frame.  The IoU rows come
    from the scalar :func:`~repro.geometry.iou` (the same IEEE operations
    as ``iou_matrix``) and each entry is gated as ``1.0 - iou <= max_cost``,
    the float test :func:`solve_assignment` applies.  When every row and
    every column holds at most one admissible entry, those entries are the
    answer in row order: Hungarian's sentinel argument (module docstring)
    covers the optimal method, and greedy takes every admissible pair
    before its first inadmissible one.  Otherwise the rows go to
    :func:`solve_assignment` unchanged.

    Box coordinates must be finite: the detector clips its boxes and
    :mod:`repro.io` rejects non-finite rows, so no tracker sees one.

    Args:
        predicted: one box per track (rows).
        detected: one box per detection (columns).
        min_iou: the smallest IoU a match may have.
        method: ``"hungarian"`` (optimal) or ``"greedy"``.

    Returns:
        ``(row, col)`` pairs sorted by row.
    """
    if method not in ("hungarian", "greedy"):
        raise ValueError(f"unknown assignment method {method!r}")
    if not predicted or not detected:
        return []
    max_cost = 1.0 - min_iou
    rows = [[iou(box, other) for other in detected] for box in predicted]
    matches = []
    taken: set[int] = set()
    for r, row in enumerate(rows):
        hits = [c for c, value in enumerate(row) if 1.0 - value <= max_cost]
        if len(hits) > 1 or (hits and hits[0] in taken):
            return solve_assignment(1.0 - np.array(rows), max_cost, method)
        if hits:
            taken.add(hits[0])
            matches.append((r, hits[0]))
    return matches
