"""Shared test utilities: compact builders for tracks, detections, worlds."""

from __future__ import annotations

import os

import numpy as np

from repro.detect import Detection
from repro.geometry import BBox
from repro.synth import SceneConfig, simulate_world
from repro.synth.world import VideoGroundTruth
from repro.track.base import Track


def env_batch_size(default: int | None) -> int | None:
    """The TMerge batch size a test fixture builds with.

    CI chaos-matrix seam: ``REPRO_BATCH_SIZE`` re-runs the equivalence
    suites at one batch size (1 = scalar path, 8 = batched); unset, the
    fixture's own ``default`` applies.
    """
    env_batch = os.environ.get("REPRO_BATCH_SIZE")
    return int(env_batch) if env_batch else default


def make_detection(
    x: float = 0.0,
    y: float = 0.0,
    w: float = 50.0,
    h: float = 100.0,
    confidence: float = 0.9,
    source_id: int | None = 0,
    visibility: float = 1.0,
) -> Detection:
    """A detection with a box at top-left (x, y)."""
    return Detection(
        BBox.from_tlwh(x, y, w, h), confidence, source_id, visibility
    )


def make_track(
    track_id: int,
    frames: list[int],
    positions: list[tuple[float, float]] | None = None,
    source_id: int | None = 0,
    size: tuple[float, float] = (50.0, 100.0),
) -> Track:
    """A track with one observation per frame.

    Args:
        track_id: the TID.
        frames: observation frames (strictly increasing).
        positions: top-left corner per frame (default: drifting right).
        source_id: GT source recorded on every detection.
        size: box size.
    """
    if positions is None:
        positions = [(10.0 * f, 20.0) for f in frames]
    track = Track(track_id)
    for frame, (x, y) in zip(frames, positions):
        track.append(
            frame,
            make_detection(
                x, y, size[0], size[1], source_id=source_id
            ),
        )
    return track


def tiny_scene_config(**overrides) -> SceneConfig:
    """A small, fast scene for unit tests."""
    defaults = dict(
        width=640.0,
        height=480.0,
        spawn_rate=0.02,
        initial_objects=4,
        max_objects=8,
        min_track_length=30,
        max_track_length=120,
        person_size=(40.0, 80.0),
        n_static_occluders=1,
        occluder_size=(60.0, 200.0),
        glare_rate=1.0,
        appearance_dim=16,
        appearance_clusters=3,
    )
    defaults.update(overrides)
    return SceneConfig(**defaults)


def tiny_world(n_frames: int = 120, seed: int = 0, **overrides) -> VideoGroundTruth:
    """Simulate a small world for unit tests."""
    return simulate_world(tiny_scene_config(**overrides), n_frames, seed=seed)


class StubReidModel:
    """A controllable stand-in for SimReIDModel in algorithm tests.

    Features are deterministic functions of the detection's source id:
    same-source BBoxes map to identical (or mildly noisy) vectors, so
    same-source pairs have distance ~0 and different-source pairs ~sqrt(2).
    """

    def __init__(self, dim: int = 8, noise: float = 0.0, seed: int = 0):
        self.dim = dim
        self.noise = noise
        self._rng = np.random.default_rng(seed)
        self._latents: dict[object, np.ndarray] = {}

    def _latent(self, source_id) -> np.ndarray:
        if source_id not in self._latents:
            # Seed derived arithmetically (not via hash(), which is
            # randomized per process) so tests are fully deterministic.
            numeric = -1 if source_id is None else int(source_id)
            local = np.random.default_rng(90_001 + numeric * 7919)
            vec = local.normal(size=self.dim)
            self._latents[source_id] = vec / np.linalg.norm(vec)
        return self._latents[source_id]

    def extract(self, detection) -> np.ndarray:
        latent = self._latent(detection.source_id)
        if self.noise == 0.0:
            return latent.copy()
        noisy = latent + self._rng.normal(0, self.noise, size=self.dim)
        return noisy / np.linalg.norm(noisy)


def stub_scorer(noise: float = 0.0, seed: int = 0):
    """A ReidScorer over a StubReidModel with a fresh cost clock."""
    from repro.reid import CostModel, ReidScorer

    return ReidScorer(StubReidModel(noise=noise, seed=seed), cost=CostModel())


def planted_pairs(n_distinct: int = 8, track_len: int = 6):
    """A pair set with exactly one polyonymous pair planted.

    Tracks 0..n-1 view distinct sources; track n re-views source 0 after a
    temporal gap.  Returns (pairs, planted_key).
    """
    from repro.core.pairs import build_track_pairs

    tracks = [
        make_track(
            i,
            list(range(track_len)),
            positions=[(100.0 * i + 5 * f, 50.0) for f in range(track_len)],
            source_id=i,
        )
        for i in range(n_distinct)
    ]
    fragment = make_track(
        n_distinct,
        list(range(track_len + 3, 2 * track_len + 3)),
        positions=[(30.0 + 5 * f, 52.0) for f in range(track_len)],
        source_id=0,
    )
    tracks.append(fragment)
    pairs = build_track_pairs(tracks)
    return pairs, (0, n_distinct)


def large_window(n_pairs: int, n_sources: int = 20, track_len: int = 4):
    """The first ``n_pairs`` pairs over enough short tracks to hold them.

    Track ``i`` views source ``i % n_sources`` (so tracks sharing a
    source form polyonymous pairs) and sits on a 12-column grid 90 px
    apart, so BetaInit's 200 px threshold splits the priors between
    ``Be(1, 1)`` and ``Be(1, 2)``.  Windows this size reach the grouped
    Thompson draw (DESIGN.md §6.2) when ``n_pairs`` is at least
    :data:`~repro.core.thompson.GROUP_MIN_LIVE`.
    """
    from repro.core.pairs import build_track_pairs

    n_tracks = 2
    while n_tracks * (n_tracks - 1) // 2 < n_pairs:
        n_tracks += 1
    tracks = [
        make_track(
            i,
            list(range(10 * i, 10 * i + track_len)),
            positions=[
                (90.0 * (i % 12) + 3 * f, 90.0 * (i // 12))
                for f in range(track_len)
            ],
            source_id=i % n_sources,
        )
        for i in range(n_tracks)
    ]
    return build_track_pairs(tracks)[:n_pairs]


# ----------------------------------------------------------------------
# Exactness harness: do two samplers draw from the same law?
# ----------------------------------------------------------------------
#: Significance level of each exactness verdict.  The harness runs every
#: comparison at a fixed seed, so a verdict is deterministic; α bounds
#: the chance that a correct sampler would have been refused at a seed
#: picked blindly.
EXACTNESS_ALPHA = 1e-3


def chi_square_homogeneity(
    counts_a: dict, counts_b: dict, min_expected: float = 5.0
) -> float:
    """p-value that two samples of labels come from one distribution.

    ``counts_*`` map a label to its count.  Labels whose pooled expected
    count falls below ``min_expected`` in either sample are lumped into
    one "rare" column, so the chi-square approximation holds.
    """
    from scipy.stats import chi2_contingency

    labels = sorted(set(counts_a) | set(counts_b), key=repr)
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    share = min(total_a, total_b) / (total_a + total_b)
    columns, rare = [], [0, 0]
    for label in labels:
        a, b = counts_a.get(label, 0), counts_b.get(label, 0)
        if (a + b) * share >= min_expected:
            columns.append([a, b])
        else:
            rare[0] += a
            rare[1] += b
    if rare[0] + rare[1]:
        columns.append(rare)
    if len(columns) < 2:
        return 1.0
    return float(chi2_contingency(np.array(columns).T)[1])


def chi_square_uniform(counts: list[int]) -> float:
    """p-value that ``counts`` are a multinomial sample with equal cells."""
    from scipy.stats import chisquare

    return float(chisquare(counts).pvalue)


def ks_two_sample(sample_a, sample_b) -> float:
    """p-value of the two-sample Kolmogorov–Smirnov test."""
    from scipy.stats import ks_2samp

    return float(ks_2samp(sample_a, sample_b).pvalue)


def draw_selections(selector, runs: int, seed: int) -> list:
    """``runs`` outputs of ``selector(rng)`` from one seeded generator."""
    rng = np.random.default_rng(seed)
    return [selector(rng) for _ in range(runs)]


def compare_selectors(
    reference,
    candidate,
    label_of,
    runs: int,
    seed: int,
    alpha: float = EXACTNESS_ALPHA,
) -> dict:
    """Compare two Thompson selectors over ``runs`` seeded draws each.

    A selector maps a generator to ``(arms, theta)`` ordered by θ.  Per
    selection rank the test compares how often each label (for example
    the arm's posterior class) lands there, by chi-square homogeneity,
    and compares the laws of ``θ_min`` by a two-sample KS test.  Each of
    the ``rank_count + 1`` tests runs at ``alpha / (rank_count + 1)``
    (Bonferroni), so the family fails a correct pair with probability at
    most ``alpha``.

    Returns the p-values (``"ranks"``, ``"theta_min"``), the per-test
    level (``"level"``) and ``"same"``, the verdict.
    """
    draws_a = draw_selections(reference, runs, seed)
    draws_b = draw_selections(candidate, runs, seed + 1)
    ranks = min(len(arms) for arms, _ in draws_a + draws_b)
    p_ranks = []
    for rank in range(ranks):
        counts = []
        for draws in (draws_a, draws_b):
            tally: dict = {}
            for arms, _ in draws:
                label = label_of(int(arms[rank]))
                tally[label] = tally.get(label, 0) + 1
            counts.append(tally)
        p_ranks.append(chi_square_homogeneity(*counts))
    p_theta = ks_two_sample(
        [float(theta[0]) for _, theta in draws_a],
        [float(theta[0]) for _, theta in draws_b],
    )
    level = alpha / (ranks + 1)
    return {
        "ranks": p_ranks,
        "theta_min": p_theta,
        "level": level,
        "same": min(p_ranks + [p_theta]) > level,
    }


def per_arm_selector(successes, failures, eligible, take: int):
    """The per-arm Thompson selector: one ``Be(S_i, F_i)`` draw per live
    arm, then the ``take`` smallest, ordered by θ (the reference law)."""
    live = np.nonzero(eligible)[0]

    def select(rng):
        theta = rng.beta(successes[live], failures[live])
        order = np.argsort(theta, kind="stable")[:take]
        return live[order], theta[order]

    return select
