"""Unit tests for Algorithm 2 (TMerge) and Algorithm 3 (BetaInit)."""

import numpy as np
import pytest

from helpers import make_track, planted_pairs, stub_scorer

from repro.core.beta_init import beta_init
from repro.core.pairs import TrackPair, build_track_pairs
from repro.core.results import top_k_count
from repro.core.tmerge import TMerge


class TestBetaInit:
    def test_disabled_gives_uniform_priors(self):
        pairs, _ = planted_pairs()
        successes, failures = beta_init(pairs, None)
        assert (successes == 1.0).all()
        assert (failures == 1.0).all()

    def test_near_pairs_get_lower_prior_mean(self):
        close_a = make_track(0, [0, 1], positions=[(0, 0), (10, 0)])
        close_b = make_track(1, [5, 6], positions=[(15, 0), (25, 0)])
        far_c = make_track(2, [5, 6], positions=[(900, 0), (910, 0)])
        pairs = build_track_pairs([close_a, close_b, far_c])
        successes, failures = beta_init(pairs, thr_s=100.0)
        by_key = {p.key: i for i, p in enumerate(pairs)}
        assert failures[by_key[(0, 1)]] == 2.0  # spatially close
        assert failures[by_key[(0, 2)]] == 1.0  # far
        assert (successes == 1.0).all()

    def test_negative_threshold_rejected(self):
        pairs, _ = planted_pairs()
        with pytest.raises(ValueError):
            beta_init(pairs, thr_s=-5.0)

    def test_empty_pairs(self):
        successes, failures = beta_init([], 100.0)
        assert successes.shape == (0,)


class TestTMergeValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            TMerge(k=2.0)
        with pytest.raises(ValueError):
            TMerge(tau_max=0)
        with pytest.raises(ValueError):
            TMerge(batch_size=0)
        with pytest.raises(ValueError):
            TMerge(ulb_interval=0)

    def test_names(self):
        assert TMerge().name == "TMerge"
        assert TMerge(batch_size=10).name == "TMerge-B10"


class TestTMergeBehaviour:
    def test_finds_planted_pair(self):
        pairs, planted = planted_pairs()
        result = TMerge(
            k=1.0 / len(pairs), tau_max=600, seed=0
        ).run(pairs, stub_scorer())
        assert result.candidates[0].key == planted

    def test_deterministic_with_seed(self):
        pairs, _ = planted_pairs()
        a = TMerge(k=0.2, tau_max=300, seed=5).run(pairs, stub_scorer())
        for pair in pairs:
            pair.reset_sampling()
        b = TMerge(k=0.2, tau_max=300, seed=5).run(pairs, stub_scorer())
        assert a.candidate_keys == b.candidate_keys
        assert a.scores == b.scores

    def test_candidate_budget(self):
        pairs, _ = planted_pairs()
        result = TMerge(k=0.25, tau_max=200, seed=0).run(pairs, stub_scorer())
        assert len(result.candidates) == top_k_count(len(pairs), 0.25)

    def test_iteration_budget(self):
        pairs, _ = planted_pairs()
        result = TMerge(k=0.1, tau_max=123, seed=0).run(pairs, stub_scorer())
        assert result.iterations == 123

    def test_focuses_sampling_on_planted_pair(self):
        pairs, planted = planted_pairs(track_len=12)  # pools of 144
        TMerge(k=0.1, tau_max=500, seed=1, use_ulb=False).run(
            pairs, stub_scorer()
        )
        by_key = {p.key: p for p in pairs}
        planted_draws = by_key[planted].n_sampled
        others = [p.n_sampled for p in pairs if p.key != planted]
        assert planted_draws == max(p.n_sampled for p in pairs)
        assert planted_draws > 3 * np.mean(others)

    def test_exhausted_pairs_stop_being_sampled(self):
        pairs, _ = planted_pairs(n_distinct=3, track_len=2)
        total_pool = sum(p.n_bbox_pairs for p in pairs)
        result = TMerge(k=0.5, tau_max=10 * total_pool, seed=0).run(
            pairs, stub_scorer()
        )
        assert all(p.n_sampled <= p.n_bbox_pairs for p in pairs)
        # Loop terminates early once every arm is exhausted or pruned.
        assert result.iterations <= 10 * total_pool

    def test_batched_selects_distinct_arms(self):
        pairs, planted = planted_pairs()
        scorer = stub_scorer()
        result = TMerge(
            k=1.0 / len(pairs), tau_max=60, batch_size=8, seed=0
        ).run(pairs, scorer)
        assert result.candidates[0].key == planted
        assert scorer.cost.n_batched_extractions > 0
        assert scorer.cost.n_extractions == 0

    def test_regret_tracking(self):
        pairs, _ = planted_pairs()
        result = TMerge(k=0.1, tau_max=200, seed=0, s_min=0.0).run(
            pairs, stub_scorer()
        )
        assert "average_regret" in result.extra
        assert result.extra["average_regret"] >= 0.0

    def test_regret_decreases_with_budget(self):
        # Pools must be large enough that the best arm is not exhausted
        # (the §IV-E analysis assumes an unlimited observation stream).
        pairs, _ = planted_pairs(track_len=25)  # pools of 625
        short = TMerge(k=0.1, tau_max=80, seed=2, s_min=0.0).run(
            pairs, stub_scorer()
        )
        for pair in pairs:
            pair.reset_sampling()
        long = TMerge(k=0.1, tau_max=500, seed=2, s_min=0.0).run(
            pairs, stub_scorer()
        )
        assert (
            long.extra["average_regret"] <= short.extra["average_regret"]
        )

    def test_ablation_flags_run(self):
        pairs, planted = planted_pairs()
        no_init = TMerge(
            k=1.0 / len(pairs), tau_max=600, thr_s=None, seed=0
        ).run(pairs, stub_scorer())
        for pair in pairs:
            pair.reset_sampling()
        no_ulb = TMerge(
            k=1.0 / len(pairs), tau_max=600, use_ulb=False, seed=0
        ).run(pairs, stub_scorer())
        assert no_init.candidates[0].key == planted
        assert no_ulb.candidates[0].key == planted
        assert no_ulb.extra["ulb_accepted"] == 0.0

    def test_ulb_prunes_on_clean_separation(self):
        # ULB acceptance needs EVERY rival's lower bound above the best
        # arm's upper bound, so it only fires when rivals are few and all
        # well-sampled: a 3-arm instance with large pools and zero noise.
        pairs, planted = planted_pairs(n_distinct=2, track_len=20)
        assert len(pairs) == 3
        result = TMerge(
            k=1.0 / len(pairs),
            tau_max=3000,
            seed=0,
            ulb_interval=10,
        ).run(pairs, stub_scorer())
        assert result.extra["ulb_accepted"] >= 1.0
        assert result.candidates[0].key == planted

    def test_empty_pairs(self):
        result = TMerge(k=0.1, tau_max=10).run([], stub_scorer())
        assert result.candidates == []
        assert result.n_pairs == 0

    def test_scores_cover_all_pairs(self):
        pairs, _ = planted_pairs()
        result = TMerge(k=0.1, tau_max=100, seed=0).run(pairs, stub_scorer())
        assert set(result.scores) == {p.key for p in pairs}
        assert all(0.0 <= v <= 1.0 for v in result.scores.values())
