"""Unit tests for Algorithm 4 (ULB pruning)."""

import math

import numpy as np
import pytest

from repro.core.ulb import UlbPruner, hoeffding_radii


class TestHoeffdingRadii:
    def test_radius_shrinks_with_pulls(self):
        radii = hoeffding_radii(100, np.array([10, 2]))
        assert radii[0] < radii[1]

    def test_radius_infinite_for_unpulled(self):
        radii = hoeffding_radii(10, np.array([0, 3, 0]))
        assert np.isinf(radii[[0, 2]]).all()
        assert np.isfinite(radii[1])

    def test_radius_formula(self):
        pulls = np.array([1, 4, 9])
        expected = [math.sqrt(2 * math.log(100) / n) for n in (1, 4, 9)]
        assert hoeffding_radii(100, pulls).tolist() == expected

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            hoeffding_radii(0, np.array([1]))
        with pytest.raises(ValueError):
            hoeffding_radii(10, np.array([2, -1]))

    def test_tau_one_gives_zero_radius(self):
        radii = hoeffding_radii(1, np.array([5, 0]))
        assert radii[0] == 0.0
        assert math.isinf(radii[1])


class TestUlbPruner:
    def test_validation(self):
        with pytest.raises(ValueError):
            UlbPruner(-1, 1)
        with pytest.raises(ValueError):
            UlbPruner(5, -1)

    def test_no_arms_noop(self):
        pruner = UlbPruner(0, 0)
        assert pruner.update(np.array([]), np.array([]), 10) == (set(), set())

    def test_unsampled_arms_never_pruned(self):
        pruner = UlbPruner(3, 1)
        means = np.array([0.1, 0.5, 0.9])
        pulls = np.array([0, 0, 0])
        accepted, rejected = pruner.update(means, pulls, 100)
        assert accepted == set()
        assert rejected == set()

    def test_clear_separation_accepts_best(self):
        # Arm 0 is far below everyone with many pulls: certain top-1.
        pruner = UlbPruner(4, 1)
        means = np.array([0.05, 0.8, 0.85, 0.9])
        pulls = np.array([5000, 5000, 5000, 5000])
        accepted, rejected = pruner.update(means, pulls, 5000)
        assert 0 in accepted

    def test_clear_separation_rejects_worst(self):
        pruner = UlbPruner(4, 1)
        means = np.array([0.05, 0.08, 0.85, 0.9])
        pulls = np.array([5000, 5000, 5000, 5000])
        accepted, rejected = pruner.update(means, pulls, 5000)
        # Arms 2 and 3 have at least one arm certainly better than them...
        # rejection needs k_count=1 arms certainly better.
        assert {2, 3} <= rejected

    def test_wide_bounds_prune_nothing(self):
        pruner = UlbPruner(4, 1)
        means = np.array([0.05, 0.5, 0.6, 0.9])
        pulls = np.array([1, 1, 1, 1])  # radius ~ sqrt(2 ln 10) ≈ 2.1
        accepted, rejected = pruner.update(means, pulls, 10)
        assert accepted == set()
        assert rejected == set()

    def test_unsampled_rival_blocks_acceptance(self):
        # Arm 0 dominates the sampled arms, but an unsampled arm could
        # still be anywhere, so with k_count=1 acceptance must not fire.
        pruner = UlbPruner(3, 1)
        means = np.array([0.05, 0.9, 0.5])
        pulls = np.array([5000, 5000, 0])
        accepted, _ = pruner.update(means, pulls, 5000)
        assert accepted == set()

    def test_acceptance_capacity(self):
        # Only k_count arms can ever be accepted.
        pruner = UlbPruner(5, 2)
        means = np.array([0.01, 0.02, 0.03, 0.9, 0.95])
        pulls = np.array([10_000] * 5)
        accepted, _ = pruner.update(means, pulls, 10_000)
        assert len(accepted) <= 2
        # The accepted ones are the lowest-mean arms.
        assert accepted <= {0, 1, 2}

    def test_pruned_union(self):
        pruner = UlbPruner(4, 1)
        means = np.array([0.05, 0.8, 0.85, 0.9])
        pulls = np.array([5000] * 4)
        pruner.update(means, pulls, 5000)
        assert pruner.pruned == pruner.accepted | pruner.rejected

    def test_idempotent_across_calls(self):
        pruner = UlbPruner(4, 1)
        means = np.array([0.05, 0.8, 0.85, 0.9])
        pulls = np.array([5000] * 4)
        first_accepted, first_rejected = pruner.update(means, pulls, 5000)
        again_accepted, again_rejected = pruner.update(means, pulls, 5000)
        # Already-pruned arms are not re-reported.
        assert again_accepted.isdisjoint(first_accepted)
        assert again_rejected.isdisjoint(first_rejected)

    def test_k_zero_prunes_nothing(self):
        pruner = UlbPruner(3, 0)
        means = np.array([0.1, 0.5, 0.9])
        pulls = np.array([1000] * 3)
        assert pruner.update(means, pulls, 1000) == (set(), set())


class TestNonFiniteMeans:
    def test_clamped_and_counted_when_contracts_off(self):
        from repro import contracts

        pruner = UlbPruner(3, 1)
        means = np.array([0.05, np.nan, 0.9])
        pulls = np.array([5000] * 3)
        previous = contracts.set_enabled(False)
        try:
            accepted, rejected = pruner.update(means, pulls, 5000)
        finally:
            contracts.set_enabled(previous)
        assert pruner.n_nonfinite_clamped == 1
        # The corrupted arm behaves as maximally distant: never accepted.
        assert 1 not in accepted

    def test_raises_under_contracts(self):
        from repro import contracts

        pruner = UlbPruner(3, 1)
        means = np.array([0.05, np.inf, 0.9])
        pulls = np.array([5000] * 3)
        previous = contracts.set_enabled(True)
        try:
            with pytest.raises(contracts.ContractViolation):
                pruner.update(means, pulls, 5000)
        finally:
            contracts.set_enabled(previous)

    def test_unsampled_nan_means_ignored(self):
        """Arms never pulled may carry NaN means without tripping the
        guard (their evidence is never consulted)."""
        pruner = UlbPruner(3, 1)
        means = np.array([0.05, np.nan, 0.9])
        pulls = np.array([5000, 0, 5000])
        pruner.update(means, pulls, 5000)
        assert pruner.n_nonfinite_clamped == 0


class TestStateDict:
    def test_roundtrip(self):
        pruner = UlbPruner(4, 1)
        means = np.array([0.05, 0.8, 0.85, 0.9])
        pulls = np.array([5000] * 4)
        pruner.update(means, pulls, 5000)
        saved = pruner.state_dict()
        other = UlbPruner(4, 1)
        other.load_state_dict(saved)
        assert other.accepted == pruner.accepted
        assert other.rejected == pruner.rejected
        assert other.state_dict() == saved
