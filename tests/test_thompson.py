"""Exactness of the grouped Thompson draw (DESIGN.md §6.2).

:class:`~repro.core.thompson.PosteriorClassIndex` draws per posterior
class instead of per arm, so it cannot match the per-arm draw bit for
bit.  It must match it *in distribution*: the selected arms, in θ order,
and their θ must follow the law of one independent ``Be(S_i, F_i)`` draw
per live arm followed by the ``B`` smallest.  These tests hold it to that
with the seeded harness in ``helpers.py`` (chi-square and KS tests at
``EXACTNESS_ALPHA``, fixed seeds so every verdict is deterministic), and
check the index's own upkeep against rebuilds.
"""

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from helpers import (
    EXACTNESS_ALPHA,
    chi_square_homogeneity,
    chi_square_uniform,
    compare_selectors,
    large_window,
    per_arm_selector,
    stub_scorer,
)

from repro import contracts
from repro.core import tmerge as tmerge_module
from repro.core.thompson import (
    GRID,
    GROUP_MIN_LIVE,
    HEAVY_SHAPE,
    PosteriorClassIndex,
    beta_cdf_table,
)
from repro.core.tmerge import TMerge


def _state(shapes, n_ineligible=0, seed=0):
    """Arrays (S, F, eligible) holding ``shapes`` in shuffled arm order,
    plus ``n_ineligible`` retired arms with random shapes."""
    rng = np.random.default_rng(seed)
    shapes = list(shapes) + [
        (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        for _ in range(n_ineligible)
    ]
    eligible = np.array(
        [True] * (len(shapes) - n_ineligible) + [False] * n_ineligible
    )
    order = rng.permutation(len(shapes))
    successes = np.array([shapes[i][0] for i in order], dtype=np.float64)
    failures = np.array([shapes[i][1] for i in order], dtype=np.float64)
    return successes, failures, eligible[order]


def _mixed_state():
    """Large Be(1,1), Be(2,1) and Be(2,2) classes, small classes, and
    heavy arms (S or F ≥ 32) that compete for the smallest θ."""
    shapes = (
        [(1, 1)] * 700
        + [(2, 1)] * 300
        + [(2, 2)] * 200
        + [(1, 2)] * 40
        + [(3, 1)] * 5
        + [(1, 5)] * 3
        + [(5, 9)] * 2
        + [(1, 35)] * 2
        + [(2, 40)] * 2
        + [(40, 3)]
        + [(33, 33)]
    )
    return _state(shapes, n_ineligible=60, seed=1)


def _grouped_selector(successes, failures, eligible, take):
    index = PosteriorClassIndex(successes, failures, eligible)
    return lambda rng: index.select(successes, failures, rng, take)


def _class_label(successes, failures):
    def label(arm):
        s, f = int(successes[arm]), int(failures[arm])
        if s >= HEAVY_SHAPE or f >= HEAVY_SHAPE:
            return ("heavy", arm)
        return (s, f)

    return label


class TestSelectionLaw:
    @pytest.mark.parametrize("take", (1, 8))
    def test_mixed_state_matches_per_arm_draw(self, take):
        successes, failures, eligible = _mixed_state()
        assert eligible.sum() >= GROUP_MIN_LIVE
        verdict = compare_selectors(
            per_arm_selector(successes, failures, eligible, take),
            _grouped_selector(successes, failures, eligible, take),
            _class_label(successes, failures),
            runs=2500,
            seed=2024,
        )
        assert verdict["same"], verdict

    def test_heavy_dominated_state_reaches_the_top_of_the_grid(self):
        """With too few class arms to reach 2B below any grid point,
        every arm is valued (the ``hi = 1`` fallback) — still exact."""
        shapes = [(HEAVY_SHAPE, 3)] * 1030 + [(1, 1)] * 3 + [(2, 30)] * 2
        successes, failures, eligible = _state(shapes, seed=3)
        verdict = compare_selectors(
            per_arm_selector(successes, failures, eligible, 8),
            _grouped_selector(successes, failures, eligible, 8),
            _class_label(successes, failures),
            runs=1500,
            seed=7,
        )
        assert verdict["same"], verdict

    def test_harness_refuses_a_biased_selector(self):
        """The harness has power: a selector that halves the θ of the 40
        Be(1,2) arms, so they lead about twice as often, is refused."""
        successes, failures, eligible = _mixed_state()
        reference = per_arm_selector(successes, failures, eligible, 8)

        def biased(rng):
            live = np.nonzero(eligible)[0]
            theta = rng.beta(successes[live], failures[live])
            theta[(successes[live] == 1) & (failures[live] == 2)] *= 0.5
            order = np.argsort(theta)[:8]
            return live[order], theta[order]

        verdict = compare_selectors(
            reference, biased, _class_label(successes, failures),
            runs=2000, seed=2024,
        )
        assert not verdict["same"]

    def test_members_of_a_class_are_chosen_uniformly(self):
        """Each class value goes to a member chosen uniformly; a 20-arm
        Be(1,3) class among 1,100 Be(2,2) arms is picked often enough to
        test every member's share."""
        shapes = [(2, 2)] * 1100 + [(1, 3)] * 20
        successes, failures, eligible = _state(shapes, seed=5)
        members = np.nonzero(failures == 3)[0]
        select = _grouped_selector(successes, failures, eligible, 8)
        rng = np.random.default_rng(11)
        picks = dict.fromkeys(members.tolist(), 0)
        first = dict.fromkeys(members.tolist(), 0)
        for _ in range(2000):
            arms, _ = select(rng)
            for rank, arm in enumerate(arms.tolist()):
                if arm in picks:
                    picks[arm] += 1
                    first[arm] += rank == 0
        assert sum(picks.values()) > 4000
        assert chi_square_uniform(list(picks.values())) > EXACTNESS_ALPHA
        assert chi_square_uniform(list(first.values())) > EXACTNESS_ALPHA

    def test_selection_is_distinct_sorted_and_in_range(self):
        successes, failures, eligible = _mixed_state()
        index = PosteriorClassIndex(successes, failures, eligible)
        rng = np.random.default_rng(0)
        for take in (1, 8, 64):
            arms, theta = index.select(successes, failures, rng, take)
            assert len(set(arms.tolist())) == arms.size == take
            assert eligible[arms].all()
            assert np.all(np.diff(theta) >= 0.0)
            assert np.all((theta >= 0.0) & (theta <= 1.0))


def _candidate_counts(pairs, seeds):
    counts: dict = {}
    for seed in seeds:
        for pair in pairs:
            pair.reset_sampling()
        result = TMerge(k=0.05, tau_max=30, batch_size=8, seed=seed).run(
            pairs, stub_scorer(noise=0.05, seed=9)
        )
        for key in result.candidate_keys:
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_window_candidate_sets_match_per_arm_draw(monkeypatch):
    """Many seeds of a whole TMerge window at the cutoff: candidate-set
    membership has one law whether the window draws per class or per
    arm.  (Pooling a run's candidates makes the chi-square conservative:
    a run never repeats a pair.)"""
    pairs = large_window(GROUP_MIN_LIVE + 76)
    grouped = _candidate_counts(pairs, range(80))
    monkeypatch.setattr(tmerge_module, "GROUP_MIN_LIVE", 10**9)
    per_arm = _candidate_counts(pairs, range(1000, 1080))
    assert chi_square_homogeneity(grouped, per_arm) > EXACTNESS_ALPHA


class TestClassIndex:
    def test_cdf_table_matches_the_beta_cdf(self):
        for shape in ((1, 1), (1, 2), (2, 1), (3, 7), (31, 31), (1, 31)):
            lower, upper = beta_cdf_table(shape)
            expected = beta_dist.cdf(np.array(GRID), *shape)
            np.testing.assert_allclose(lower, expected, rtol=1e-9, atol=1e-15)
            np.testing.assert_allclose(
                upper, 1.0 - expected, rtol=1e-9, atol=1e-15
            )

    def test_upkeep_matches_a_rebuild(self):
        """discard/add as shapes change and arms retire equals a rebuild
        from (S, F, eligible) at every step — the class-index contract."""
        successes, failures, eligible = _mixed_state()
        index = PosteriorClassIndex(successes, failures, eligible)
        rng = np.random.default_rng(4)
        previous = contracts.set_enabled(True)
        try:
            for _ in range(50):
                live = np.nonzero(eligible)[0]
                arms, theta = index.select(successes, failures, rng, 8)
                index.discard(arms, successes, failures)
                grow = rng.random(arms.size) < 0.5
                successes[arms[grow]] += 1.0
                # Now and then a jump makes an arm heavy.
                failures[arms[~grow]] += 31.0 if rng.random() < 0.1 else 1.0
                retire = rng.random(arms.size) < 0.2
                eligible[arms[retire]] = False
                index.add(arms[~retire], successes, failures)
                contracts.check_class_index(
                    index, successes, failures, eligible, live, arms, theta
                )
        finally:
            contracts.set_enabled(previous)

    def test_contract_catches_a_stale_index_and_bad_selections(self):
        successes, failures, eligible = _mixed_state()
        index = PosteriorClassIndex(successes, failures, eligible)
        live = np.nonzero(eligible)[0]
        arms = live[:3]
        theta = np.array([0.1, 0.2, 0.3])
        previous = contracts.set_enabled(True)
        try:
            contracts.check_class_index(
                index, successes, failures, eligible, live, arms, theta
            )
            failures[live[0]] += 1.0
            with pytest.raises(contracts.ContractViolation, match="rebuild"):
                contracts.check_class_index(
                    index, successes, failures, eligible, live, arms, theta
                )
            failures[live[0]] -= 1.0
            with pytest.raises(contracts.ContractViolation, match="repeat"):
                contracts.check_class_index(
                    index, successes, failures, eligible, live,
                    live[[0, 0]], theta[:2],
                )
            dead = np.nonzero(~eligible)[0][:1]
            with pytest.raises(contracts.ContractViolation, match="not live"):
                contracts.check_class_index(
                    index, successes, failures, eligible, live, dead,
                    theta[:1],
                )
            with pytest.raises(contracts.ContractViolation, match="outside"):
                contracts.check_class_index(
                    index, successes, failures, eligible, live, arms,
                    np.array([0.1, 1.5, 0.2]),
                )
        finally:
            contracts.set_enabled(previous)
