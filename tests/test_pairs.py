"""Unit tests for repro.core.pairs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import EXACTNESS_ALPHA, chi_square_uniform, make_track

from repro.core.pairs import TrackPair, build_track_pairs, spatial_distance


class TestTrackPair:
    def test_canonical_ordering(self):
        a = make_track(5, [0, 1, 2])
        b = make_track(2, [10, 11])
        pair = TrackPair(a, b)
        assert pair.key == (2, 5)
        assert pair.track_a.track_id == 2

    def test_self_pair_rejected(self):
        a = make_track(1, [0, 1])
        b = make_track(1, [5, 6])
        with pytest.raises(ValueError):
            TrackPair(a, b)

    def test_empty_track_rejected(self):
        from repro.track.base import Track

        with pytest.raises(ValueError):
            TrackPair(make_track(0, [0, 1]), Track(1))

    def test_n_bbox_pairs(self):
        pair = TrackPair(make_track(0, [0, 1, 2]), make_track(1, [5, 6]))
        assert pair.n_bbox_pairs == 6

    def test_all_bbox_index_pairs(self):
        pair = TrackPair(make_track(0, [0, 1]), make_track(1, [5, 6, 7]))
        pairs = pair.all_bbox_index_pairs()
        assert len(pairs) == 6
        assert len(set(pairs)) == 6
        assert all(0 <= ia < 2 and 0 <= ib < 3 for ia, ib in pairs)


class TestSamplingIsUniform:
    """``sample_bbox_pair`` draws uniformly among the unseen BBox pairs
    (Alg. 2 line 7), by rejection while under 75% of the pool is
    sampled and by enumerating the rest above it; chi-square tests at
    ``EXACTNESS_ALPHA`` with fixed seeds."""

    @staticmethod
    def _next_draw_counts(pair, seen, trials, seed):
        """Counts of the next draw's flat index from history ``seen``."""
        rng = np.random.default_rng(seed)
        counts = dict.fromkeys(
            sorted(set(range(pair.n_bbox_pairs)) - set(seen)), 0
        )
        n_b = len(pair.track_b)
        for _ in range(trials):
            pair.restore_sampled(seen)
            ia, ib = pair.sample_bbox_pair(rng)
            counts[ia * n_b + ib] += 1
        return list(counts.values())

    @pytest.mark.parametrize(
        "n_seen, regime", ((5, "rejection"), (16, "enumeration"))
    )
    def test_next_draw_uniform_over_the_unseen(self, n_seen, regime):
        pair = TrackPair(make_track(0, [0, 1, 2, 3]), make_track(1, range(5)))
        seen = np.random.default_rng(n_seen).permutation(20)[:n_seen]
        assert (n_seen < 0.75 * 20) == (regime == "rejection")
        counts = self._next_draw_counts(pair, seen.tolist(), 4000, seed=3)
        assert len(counts) == 20 - n_seen
        assert chi_square_uniform(counts) > EXACTNESS_ALPHA

    def test_whole_orders_uniform_across_both_regimes(self):
        """Every order of a 2×2 pair's four BBox pairs is equally likely;
        the third and fourth draws come from the enumeration fallback."""
        pair = TrackPair(make_track(0, [0, 1]), make_track(1, [5, 6]))
        rng = np.random.default_rng(8)
        counts: dict = {}
        for _ in range(4800):
            pair.reset_sampling()
            order = tuple(pair.sample_bbox_pairs(4, rng))
            counts[order] = counts.get(order, 0) + 1
        assert len(counts) == 24
        assert chi_square_uniform(list(counts.values())) > EXACTNESS_ALPHA

    def test_continues_uniformly_after_restore(self):
        """A history restored from a checkpoint capture is honoured: the
        draws go on uniformly over what was never drawn, and never repeat."""
        source = TrackPair(make_track(0, [0, 1, 2]), make_track(1, range(4)))
        rng = np.random.default_rng(1)
        source.sample_bbox_pairs(4, rng)
        captured = source.sampled_state()

        pair = TrackPair(make_track(0, [0, 1, 2]), make_track(1, range(4)))
        counts = self._next_draw_counts(pair, captured, 4000, seed=5)
        assert chi_square_uniform(counts) > EXACTNESS_ALPHA

        pair.restore_sampled(captured)
        rest = pair.sample_bbox_pairs(20, rng)
        flats = {ia * 4 + ib for ia, ib in rest}
        assert len(rest) == len(flats) == 12 - len(captured)
        assert flats.isdisjoint(captured)


class TestSamplingWithoutReplacement:
    def test_exhaustive_coverage(self):
        pair = TrackPair(make_track(0, [0, 1, 2]), make_track(1, [5, 6]))
        rng = np.random.default_rng(0)
        drawn = {pair.sample_bbox_pair(rng) for _ in range(6)}
        assert drawn == set(pair.all_bbox_index_pairs())
        assert pair.exhausted

    def test_exhausted_raises(self):
        pair = TrackPair(make_track(0, [0]), make_track(1, [5]))
        rng = np.random.default_rng(0)
        pair.sample_bbox_pair(rng)
        with pytest.raises(RuntimeError):
            pair.sample_bbox_pair(rng)

    def test_bulk_sampling_stops_at_pool(self):
        pair = TrackPair(make_track(0, [0, 1]), make_track(1, [5, 6]))
        rng = np.random.default_rng(0)
        draws = pair.sample_bbox_pairs(100, rng)
        assert len(draws) == 4
        assert pair.exhausted

    def test_bulk_negative_rejected(self):
        pair = TrackPair(make_track(0, [0]), make_track(1, [5]))
        with pytest.raises(ValueError):
            pair.sample_bbox_pairs(-1, np.random.default_rng(0))

    def test_reset(self):
        pair = TrackPair(make_track(0, [0]), make_track(1, [5]))
        rng = np.random.default_rng(0)
        pair.sample_bbox_pair(rng)
        pair.reset_sampling()
        assert pair.n_sampled == 0
        assert not pair.exhausted
        pair.sample_bbox_pair(rng)


class TestSpatialDistance:
    def test_earlier_exit_to_later_entry(self):
        # Track A ends at (100, 20); track B starts at (140, 50).
        a = make_track(0, [0, 1], positions=[(0, 20), (100, 20)])
        b = make_track(1, [10, 11], positions=[(140, 50), (200, 50)])
        expected = np.hypot(40.0, 30.0)
        assert spatial_distance(a, b) == pytest.approx(expected)

    def test_symmetric_in_argument_order(self):
        a = make_track(0, [0, 1], positions=[(0, 0), (10, 0)])
        b = make_track(1, [5, 6], positions=[(50, 0), (60, 0)])
        assert spatial_distance(a, b) == spatial_distance(b, a)

    def test_pair_property(self):
        a = make_track(0, [0, 1], positions=[(0, 0), (10, 0)])
        b = make_track(1, [5, 6], positions=[(10, 0), (20, 0)])
        assert TrackPair(a, b).spatial_distance == pytest.approx(0.0)


class TestBuildTrackPairs:
    def test_eq1_counts(self):
        current = [make_track(i, [i, i + 1]) for i in range(4)]
        previous = [make_track(10 + i, [0, 1]) for i in range(3)]
        pairs = build_track_pairs(current, previous)
        # C(4,2) intra + 4*3 cross = 6 + 12.
        assert len(pairs) == 18
        keys = {p.key for p in pairs}
        assert len(keys) == 18

    def test_no_previous(self):
        current = [make_track(i, [0, 1]) for i in range(3)]
        assert len(build_track_pairs(current)) == 3

    def test_no_previous_previous_pairs(self):
        current = [make_track(0, [0, 1])]
        previous = [make_track(1, [0, 1]), make_track(2, [0, 1])]
        pairs = build_track_pairs(current, previous)
        keys = {p.key for p in pairs}
        # Pairs among previous tracks only are NOT included (they were
        # already considered in the previous window).
        assert (1, 2) not in keys
        assert keys == {(0, 1), (0, 2)}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build_track_pairs([make_track(0, [0, 1]), make_track(0, [2, 3])])

    def test_shared_ids_across_windows_rejected(self):
        with pytest.raises(ValueError):
            build_track_pairs(
                [make_track(0, [0, 1])], [make_track(0, [5, 6])]
            )

    def test_empty_current(self):
        assert build_track_pairs([], [make_track(0, [0, 1])]) == []


@settings(max_examples=30, deadline=None)
@given(
    n_a=st.integers(1, 8),
    n_b=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_sampling_yields_every_pair_exactly_once(n_a, n_b, seed):
    pair = TrackPair(
        make_track(0, list(range(n_a))),
        make_track(1, list(range(100, 100 + n_b))),
    )
    rng = np.random.default_rng(seed)
    draws = pair.sample_bbox_pairs(n_a * n_b + 10, rng)
    assert len(draws) == n_a * n_b
    assert len(set(draws)) == n_a * n_b
