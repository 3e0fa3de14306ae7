"""Unit tests for repro.reid.scorer (caching, costs, batching)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_track, tiny_world

from repro.reid import (
    CostModel,
    CostParams,
    FeatureCache,
    ReidScorer,
    SimReIDModel,
    normalize_distance,
)
from repro.reid.scorer import feature_distance
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def scorer_world():
    return tiny_world(n_frames=60, seed=2)


def make_scorer(world, **cost_overrides):
    params = CostParams(**cost_overrides) if cost_overrides else None
    return ReidScorer(
        SimReIDModel(world, seed=0), cost=CostModel(params)
    )


def tracks_for(world):
    ids = list(world.objects)[:2]
    return (
        make_track(0, list(range(8)), source_id=ids[0]),
        make_track(1, list(range(10, 18)), source_id=ids[1]),
    )


class TestNormalizeDistance:
    def test_bounds(self):
        assert normalize_distance(0.0) == 0.0
        assert normalize_distance(2.0) == 1.0
        assert normalize_distance(1.0) == 0.5

    def test_clipping(self):
        assert normalize_distance(5.0) == 1.0
        assert normalize_distance(-1.0) == 0.0


class TestFeatureCache:
    def test_roundtrip(self):
        cache = FeatureCache()
        key = (1, 2)
        assert key not in cache
        cache.put(key, np.ones(4))
        assert key in cache
        assert len(cache) == 1
        assert np.allclose(cache.get(key), 1.0)
        cache.clear()
        assert len(cache) == 0

    def test_unbounded_never_evicts(self):
        cache = FeatureCache()
        for i in range(1000):
            cache.put((0, i), np.full(2, float(i)))
        assert len(cache) == 1000
        assert cache.n_evictions == 0
        assert cache.stats()["max_entries"] == -1

    def test_bounded_evicts_least_recently_used(self):
        cache = FeatureCache(max_entries=2)
        cache.put((0, 0), np.zeros(2))
        cache.put((0, 1), np.ones(2))
        assert cache.get((0, 0)) is not None  # (0, 0) now most recent
        cache.put((0, 2), np.full(2, 2.0))  # evicts (0, 1)
        assert (0, 1) not in cache
        assert (0, 0) in cache and (0, 2) in cache
        assert cache.n_evictions == 1

    def test_put_refreshes_recency(self):
        cache = FeatureCache(max_entries=2)
        cache.put((0, 0), np.zeros(2))
        cache.put((0, 1), np.ones(2))
        cache.put((0, 0), np.full(2, 9.0))  # update, not insert
        cache.put((0, 2), np.full(2, 2.0))  # evicts (0, 1)
        assert (0, 0) in cache
        assert (0, 1) not in cache
        assert np.allclose(cache.get((0, 0)), 9.0)

    def test_stats_counters(self):
        cache = FeatureCache(max_entries=1)
        assert cache.get((0, 0)) is None
        cache.put((0, 0), np.zeros(2))
        cache.get((0, 0))
        cache.put((0, 1), np.ones(2))
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "entries": 1,
            "max_entries": 1,
        }

    def test_discard(self):
        cache = FeatureCache()
        cache.put((0, 0), np.zeros(2))
        assert cache.discard((0, 0))
        assert not cache.discard((0, 0))
        assert (0, 0) not in cache

    def test_clear_keeps_counters(self):
        cache = FeatureCache(max_entries=1)
        cache.put((0, 0), np.zeros(2))
        cache.put((0, 1), np.ones(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.n_evictions == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FeatureCache(max_entries=0)

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.sampled_from([None, 1, 2, 4]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get_many"]),
                st.lists(st.integers(0, 6), min_size=0, max_size=6),
            ),
            max_size=12,
        ),
    )
    def test_get_many_matches_per_key_get(self, capacity, ops):
        """The bulk lookup leaves counters, LRU order and the telemetry
        mirrors (values and creation order) as a get per key does."""
        bulk = FeatureCache(capacity, telemetry=Telemetry())
        single = FeatureCache(capacity, telemetry=Telemetry())
        for op, ids in ops:
            keys = [(0, i) for i in ids]
            if op == "put":
                for key in keys:
                    feature = np.full(2, float(key[1]))
                    bulk.put(key, feature)
                    single.put(key, feature)
                continue
            found = bulk.get_many(keys)
            expected = [single.get(key) for key in keys]
            assert [f is None for f in found] == [f is None for f in expected]
            assert all(
                f is e for f, e in zip(found, expected) if f is not None
            )
        assert bulk.stats() == single.stats()
        assert [k for k, _ in bulk.items()] == [k for k, _ in single.items()]
        assert list(
            bulk.telemetry.metrics.counters_snapshot().items()
        ) == list(single.telemetry.metrics.counters_snapshot().items())


class TestScalarIdentities:
    """The scalar rewrites of DESIGN.md §9.3 equal numpy bit for bit."""

    SPECIAL = [
        0.0, 5e-324, 0.25, 1.0, 1.5, 2.0, 2.0000000000000004, 3.9,
        -1.0, np.inf, -np.inf, np.nan,
    ]

    @staticmethod
    def bits(value: float) -> bytes:
        return np.float64(value).tobytes()

    def test_normalize_distance_is_numpy_clip(self):
        for d in self.SPECIAL:
            ours = normalize_distance(d)
            assert type(ours) is float
            assert self.bits(ours) == self.bits(
                np.clip(d / 2.0, 0.0, 1.0)
            ), d
        # Signed zero: equal in value whichever sign numpy keeps.
        assert normalize_distance(-0.0) == 0.0

    def test_feature_distance_is_numpy_norm(self):
        rng = np.random.default_rng(5)
        for dim in (2, 16, 64, 127):
            for _ in range(50):
                fa, fb = rng.normal(size=(2, dim))
                fa /= np.linalg.norm(fa)
                ours = feature_distance(fa, fb)
                assert type(ours) is float
                assert self.bits(ours) == self.bits(
                    np.linalg.norm(fa - fb)
                )
        nan = np.full(4, np.nan)
        assert np.isnan(feature_distance(nan, np.zeros(4)))
        inf = np.array([np.inf, 0.0])
        assert feature_distance(inf, np.zeros(2)) == np.inf

    def test_pose_phase_is_numpy_uniform(self):
        """``2π · rng.random()`` is ``rng.uniform(0, 2π)``: numpy computes
        that draw as ``low + (high − low) · next_double``."""
        for seed in (0, 1, 17):
            ours = np.random.default_rng(seed)
            numpy = np.random.default_rng(seed)
            for _ in range(500):
                phase = 2.0 * np.pi * ours.random()
                assert type(phase) is float
                assert self.bits(phase) == self.bits(
                    numpy.uniform(0.0, 2.0 * np.pi)
                )
            assert ours.bit_generator.state == numpy.bit_generator.state


class TestBoundedScorer:
    def test_scorer_correct_under_tiny_cache(self, scorer_world):
        """LRU eviction changes cost, never correctness: distances match
        an unbounded scorer's bit-for-bit on a noise-free model."""
        from helpers import StubReidModel

        track_a, track_b = tracks_for(scorer_world)
        unbounded = ReidScorer(StubReidModel(), cost=CostModel())
        bounded = ReidScorer(
            StubReidModel(),
            cost=CostModel(),
            cache=FeatureCache(max_entries=2),
        )
        requests = [
            (track_a, i, track_b, j) for i in range(4) for j in range(4)
        ]
        expected = [unbounded.distance(*r) for r in requests]
        actual = [bounded.distance(*r) for r in requests]
        assert actual == expected
        assert bounded.cache.n_evictions > 0
        assert bounded.cost.n_extractions >= unbounded.cost.n_extractions

    def test_nonfinite_distance_clamped_when_contracts_off(self, scorer_world):
        from repro import contracts

        scorer = make_scorer(scorer_world)
        previous = contracts.set_enabled(False)
        try:
            value = scorer._sanitize_distance(float("nan"), where="test")
        finally:
            contracts.set_enabled(previous)
        assert value == 2.0
        assert scorer.n_nonfinite_clamped == 1

    def test_nonfinite_distance_raises_under_contracts(self, scorer_world):
        from repro import contracts

        scorer = make_scorer(scorer_world)
        previous = contracts.set_enabled(True)
        try:
            with pytest.raises(contracts.ContractViolation):
                scorer._sanitize_distance(float("inf"), where="test")
        finally:
            contracts.set_enabled(previous)
        assert scorer.n_nonfinite_clamped == 0


class TestCachingBehaviour:
    def test_feature_extracted_once(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, _ = tracks_for(scorer_world)
        f1 = scorer.feature(track_a, 0)
        f2 = scorer.feature(track_a, 0)
        assert np.allclose(f1, f2)
        assert scorer.cost.n_extractions == 1

    def test_distance_reuses_features(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        scorer.distance(track_a, 0, track_b, 0)
        assert scorer.cost.n_extractions == 2
        scorer.distance(track_a, 0, track_b, 1)
        # Only one new feature extracted.
        assert scorer.cost.n_extractions == 3
        assert scorer.cost.n_distances == 2

    def test_distance_bounds(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        d = scorer.distance(track_a, 0, track_b, 0)
        assert 0.0 <= d <= 2.0
        assert 0.0 <= scorer.normalized_distance(track_a, 1, track_b, 1) <= 1.0

    def test_distance_fresh_always_extracts(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        scorer.distance_fresh(track_a, 0, track_b, 0)
        scorer.distance_fresh(track_a, 0, track_b, 0)
        assert scorer.cost.n_extractions == 4
        assert len(scorer.cache) == 0

    def test_cache_shared_between_paths(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        scorer.feature(track_a, 0)
        matrix = scorer.pair_distance_matrix(track_a, track_b)
        # 8 + 8 features total, one was already cached.
        assert scorer.cost.n_extractions == 16 - 1 + 1


class TestPairDistanceMatrix:
    def test_matches_elementwise_distance(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        matrix = scorer.pair_distance_matrix(track_a, track_b)
        assert matrix.shape == (len(track_a), len(track_b))
        # The same cached features drive the scalar path.
        for i in (0, 3):
            for j in (0, 5):
                assert matrix[i, j] == pytest.approx(
                    scorer.distance(track_a, i, track_b, j)
                )

    def test_cost_parity_with_scalar_path(self, scorer_world):
        track_a, track_b = tracks_for(scorer_world)
        bulk = make_scorer(scorer_world)
        bulk.pair_distance_matrix(track_a, track_b)
        scalar = make_scorer(scorer_world)
        for i in range(len(track_a)):
            for j in range(len(track_b)):
                scalar.distance(track_a, i, track_b, j)
        assert bulk.cost.n_extractions == scalar.cost.n_extractions
        assert bulk.cost.n_distances == scalar.cost.n_distances

    def test_batched_extraction_charged(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        scorer.pair_distance_matrix(track_a, track_b, batch_size=4)
        assert scorer.cost.n_extractions == 0
        assert scorer.cost.n_batched_extractions == 16


class TestBatchedDistances:
    def test_results_match_scalar(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        requests = [(track_a, i, track_b, i) for i in range(4)]
        batched = scorer.distances_batched(requests, batch_size=2)
        for (ta, ia, tb, ib), value in zip(requests, batched):
            assert value == pytest.approx(scorer.distance(ta, ia, tb, ib))

    def test_deduplicates_extractions(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        requests = [
            (track_a, 0, track_b, 0),
            (track_a, 0, track_b, 1),
            (track_a, 1, track_b, 0),
        ]
        scorer.distances_batched(requests, batch_size=10)
        # 4 distinct features, not 6.
        assert scorer.cost.n_batched_extractions == 4
        assert scorer.cost.n_distances == 3

    def test_fresh_variant_charges_everything(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        requests = [(track_a, 0, track_b, 0), (track_a, 0, track_b, 1)]
        scorer.distances_batched_fresh(requests, batch_size=10)
        assert scorer.cost.n_batched_extractions == 4
        assert len(scorer.cache) == 0

    def test_empty_requests(self, scorer_world):
        scorer = make_scorer(scorer_world)
        assert scorer.distances_batched([], batch_size=5) == []
        assert scorer.distances_batched_fresh([], batch_size=5) == []

    def test_invalid_batch_size(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        with pytest.raises(ValueError):
            scorer.distances_batched(
                [(track_a, 0, track_b, 0)], batch_size=0
            )

    def test_normalized_batched(self, scorer_world):
        scorer = make_scorer(scorer_world)
        track_a, track_b = tracks_for(scorer_world)
        values = scorer.normalized_distances_batched(
            [(track_a, 0, track_b, 0)], batch_size=1
        )
        assert len(values) == 1
        assert 0.0 <= values[0] <= 1.0
