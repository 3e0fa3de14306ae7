"""Cross-cutting property-based tests on algorithm invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_track, stub_scorer

from repro.core import (
    BaselineMerger,
    LcbMerger,
    ProportionalMerger,
    TMerge,
    build_track_pairs,
)
from repro.core.results import top_k_count
from repro.core.windows import WindowedTracks, partition_windows
from repro.metrics.recall import window_recall


def _random_pairs(n_tracks: int, track_len: int, n_sources: int, seed: int):
    """Random track population with a controlled number of GT sources."""
    rng = np.random.default_rng(seed)
    tracks = []
    for i in range(n_tracks):
        source = int(rng.integers(0, n_sources))
        start = int(rng.integers(0, 500))
        tracks.append(
            make_track(
                i,
                list(range(start, start + track_len)),
                positions=[
                    (float(rng.uniform(0, 1000)), float(rng.uniform(0, 500)))
                    for _ in range(track_len)
                ],
                source_id=source,
            )
        )
    return build_track_pairs(tracks)


MERGER_FACTORIES = [
    lambda k, seed: BaselineMerger(k=k),
    lambda k, seed: ProportionalMerger(eta=0.3, k=k, seed=seed),
    lambda k, seed: LcbMerger(tau_max=120, k=k, seed=seed),
    lambda k, seed: TMerge(k=k, tau_max=120, seed=seed),
]


@settings(max_examples=15, deadline=None)
@given(
    n_tracks=st.integers(3, 8),
    k=st.floats(0.05, 1.0),
    seed=st.integers(0, 100),
    merger_index=st.integers(0, len(MERGER_FACTORIES) - 1),
)
def test_candidate_budget_invariant(n_tracks, k, seed, merger_index):
    """Every merger returns exactly ⌈K·|P_c|⌉ candidates, all from P_c,
    with no duplicates."""
    pairs = _random_pairs(n_tracks, track_len=3, n_sources=4, seed=seed)
    merger = MERGER_FACTORIES[merger_index](k, seed)
    result = merger.run(pairs, stub_scorer(noise=0.2, seed=seed))
    assert len(result.candidates) == top_k_count(len(pairs), k)
    keys = [p.key for p in result.candidates]
    assert len(set(keys)) == len(keys)
    assert set(keys) <= {p.key for p in pairs}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50))
def test_full_k_gives_perfect_recall(seed):
    """K = 1 returns every pair, so REC = 1 whatever the estimates."""
    pairs = _random_pairs(6, track_len=3, n_sources=3, seed=seed)
    from repro.metrics.matching import match_tracks_by_source, polyonymous_pairs

    tracks = list({p.track_a.track_id: p.track_a for p in pairs}.values())
    tracks += list({p.track_b.track_id: p.track_b for p in pairs}.values())
    unique = list({t.track_id: t for t in tracks}.values())
    gt = polyonymous_pairs(pairs, match_tracks_by_source(unique))
    result = TMerge(k=1.0, tau_max=50, seed=seed).run(
        pairs, stub_scorer(noise=0.2, seed=seed)
    )
    rec = window_recall(result.candidate_keys, gt)
    assert rec is None or rec == 1.0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 50),
    batch=st.integers(1, 8),
)
def test_batched_tmerge_same_invariants(seed, batch):
    """The batched variant preserves the budget and key invariants."""
    pairs = _random_pairs(6, track_len=4, n_sources=3, seed=seed)
    result = TMerge(k=0.3, tau_max=40, batch_size=batch, seed=seed).run(
        pairs, stub_scorer(noise=0.2, seed=seed)
    )
    assert len(result.candidates) == top_k_count(len(pairs), 0.3)
    assert all(0.0 <= v <= 1.0 for v in result.scores.values())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100), n_sources=st.integers(1, 6))
def test_draws_never_exceed_pools(seed, n_sources):
    """No merger ever samples more BBox pairs than a pair's pool holds."""
    pairs = _random_pairs(6, track_len=2, n_sources=n_sources, seed=seed)
    TMerge(k=0.5, tau_max=500, seed=seed).run(
        pairs, stub_scorer(noise=0.1, seed=seed)
    )
    for pair in pairs:
        assert pair.n_sampled <= pair.n_bbox_pairs


@settings(max_examples=50, deadline=None)
@given(
    n_frames=st.integers(1, 600),
    window_length=st.integers(2, 200),
)
def test_window_ownership_is_a_partition(n_frames, window_length):
    """Every frame falls in exactly one window's ownership region."""
    windows = partition_windows(n_frames, window_length)
    owners_per_frame = [
        sum(1 for w in windows if w.start <= frame < w.ownership_end)
        for frame in range(n_frames)
    ]
    assert all(count == 1 for count in owners_per_frame)


@settings(max_examples=25, deadline=None)
@given(
    n_tracks=st.integers(1, 12),
    track_len=st.integers(1, 20),
    window_length=st.integers(4, 60),
    seed=st.integers(0, 100),
)
def test_pairs_unique_across_windows(n_tracks, track_len, window_length, seed):
    """Eq. 1: every unordered track pair appears in at most one window."""
    rng = np.random.default_rng(seed)
    horizon = 3 * window_length
    tracks = []
    for i in range(n_tracks):
        start = int(rng.integers(0, horizon))
        tracks.append(
            make_track(i, list(range(start, start + track_len)))
        )
    n_frames = max(t.last_frame for t in tracks) + 1
    windows = partition_windows(n_frames, window_length)
    windowed = WindowedTracks.assign(tracks, windows)
    keys = []
    for c in range(len(windows)):
        pairs = build_track_pairs(
            windowed.tracks_of(c), windowed.previous_tracks_of(c)
        )
        keys.extend(pair.key for pair in pairs)
    assert len(keys) == len(set(keys))


@settings(max_examples=50, deadline=None)
@given(n_pairs=st.integers(0, 500), k=st.floats(0.0, 1.0))
def test_top_k_count_bounds(n_pairs, k):
    """0 ≤ ⌈K·n⌉ ≤ n for every K in [0, 1]."""
    count = top_k_count(n_pairs, k)
    assert 0 <= count <= n_pairs


@settings(max_examples=50, deadline=None)
@given(
    n_pairs=st.integers(0, 300),
    k_low=st.floats(0.0, 1.0),
    k_high=st.floats(0.0, 1.0),
    extra=st.integers(0, 50),
)
def test_top_k_count_monotone(n_pairs, k_low, k_high, extra):
    """The budget is monotone in both K and the pair count."""
    if k_low > k_high:
        k_low, k_high = k_high, k_low
    assert top_k_count(n_pairs, k_low) <= top_k_count(n_pairs, k_high)
    assert top_k_count(n_pairs, k_low) <= top_k_count(n_pairs + extra, k_low)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50))
def test_cost_monotone_in_work(seed):
    """More iterations never cost less simulated time."""
    pairs = _random_pairs(6, track_len=5, n_sources=3, seed=seed)
    small = TMerge(k=0.2, tau_max=20, seed=seed).run(
        pairs, stub_scorer(seed=seed)
    )
    for pair in pairs:
        pair.reset_sampling()
    large = TMerge(k=0.2, tau_max=200, seed=seed).run(
        pairs, stub_scorer(seed=seed)
    )
    assert large.simulated_seconds >= small.simulated_seconds
