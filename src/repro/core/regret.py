"""Regret accounting (§IV-E).

The paper defines the average regret of a run as the mean excess of each
iteration's observed normalized distance over ``s̃_min``, the smallest true
normalized pair score.  :class:`RegretTracker` accumulates it online so the
efficiency-analysis bench can plot ``E[R(τ_max)]`` against the
``O(sqrt(|P_c| log τ / τ))`` bound.
"""

from __future__ import annotations

import math
from collections.abc import Iterable


class RegretTracker:
    """Online average-regret accumulator.

    Args:
        s_min: the normalized score of the best (lowest-score) arm.
    """

    def __init__(self, s_min: float) -> None:
        if not 0.0 <= s_min <= 1.0:
            raise ValueError("s_min must be a normalized score in [0, 1]")
        self.s_min = s_min
        self._total = 0.0
        self._rounds = 0

    def record(self, observed: float) -> None:
        """Record one iteration's observed normalized distance d̃_τ."""
        self._total += observed - self.s_min
        self._rounds += 1

    def record_many(self, observed: Iterable[float]) -> None:
        """Record a batch of observations in order.

        Accumulates sequentially (float addition is not associative), so
        the running total is bit-identical to calling :meth:`record` once
        per element — the invariant the batched sampler's differential
        tests rely on.  Batches are at most ``batch_size`` long, so the
        Python loop is off the hot path.

        Args:
            observed: iterable of normalized distances d̃ (e.g. a numpy
                array of one batched iteration's observations).
        """
        for value in observed:
            self._total += float(value) - self.s_min
            self._rounds += 1

    @property
    def rounds(self) -> int:
        """Number of observations recorded so far."""
        return self._rounds

    @property
    def cumulative(self) -> float:
        """Σ_τ (d̃_τ − s̃_min)."""
        return self._total

    @property
    def average(self) -> float:
        """R(τ_max) = cumulative / τ_max; 0.0 before any round."""
        if self._rounds == 0:
            return 0.0
        return self._total / self._rounds

    def state_dict(self) -> dict[str, float]:
        """Restorable accumulator state (for window checkpoints)."""
        return {"total": self._total, "rounds": self._rounds}

    def load_state_dict(self, state: dict[str, float]) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self._total = float(state["total"])
        self._rounds = int(state["rounds"])

    @staticmethod
    def theoretical_bound(n_arms: int, rounds: int) -> float:
        """The §IV-E bound shape ``sqrt(|P_c| · log τ / τ)`` (up to O(1))."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        log_term = math.log(rounds) if rounds > 1 else 1.0
        return math.sqrt(n_arms * log_term / rounds)
