"""Unit tests for the §IV-E regret accounting (repro.core.regret)."""

import pytest

from repro.core.regret import RegretTracker


class TestRegretTracker:
    def test_accumulation(self):
        tracker = RegretTracker(s_min=0.2)
        tracker.record(0.5)
        tracker.record(0.2)
        assert tracker.rounds == 2
        assert tracker.cumulative == pytest.approx(0.3)
        assert tracker.average == pytest.approx(0.15)

    def test_empty_average(self):
        assert RegretTracker(0.1).average == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RegretTracker(1.5)

    def test_bound_decreases_in_rounds(self):
        early = RegretTracker.theoretical_bound(100, 10)
        late = RegretTracker.theoretical_bound(100, 100_000)
        assert late < early

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            RegretTracker.theoretical_bound(0, 10)
        with pytest.raises(ValueError):
            RegretTracker.theoretical_bound(10, 0)
