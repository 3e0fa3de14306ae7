"""One function per paper table/figure.

Every function returns plain data structures (rows) that the benchmark
suite prints with :func:`repro.experiments.reporting.format_table`.  All
accept scale parameters so the benches can run paper-shaped experiments at
laptop scale; EXPERIMENTS.md records the scales used and the outcomes.

A note on merging for the downstream-quality experiments (Figures 11-13):
per §I/§II the algorithm *identifies* top-⌈K·|P_c|⌉ candidates which are
then "optionally subject to further human inspection"; K budgets that
inspection.  We simulate the inspection step with the ground-truth oracle
(a human confirms true polyonymous pairs and rejects false candidates), so
those figures measure exactly what the paper's do: the quality impact of
the pairs the algorithm *found*.
"""

from __future__ import annotations

from typing import Callable

from repro.core.baseline import BaselineMerger
from repro.core.lcb import LcbMerger
from repro.core.merge import merge_tracks
from repro.core.pairs import PairKey
from repro.core.proportional import ProportionalMerger
from repro.core.tmerge import TMerge
from repro.experiments.prep import PreparedVideo, prepare_dataset
from repro.experiments.sweeps import (
    MethodPoint,
    evaluate_merger,
    fps_at_rec,
    rec_fps_sweep,
)
from repro.metrics.identity import IdentityResult, evaluate_identity
from repro.metrics.matching import polyonymous_rate
from repro.metrics.recall import rec_k_curve
from repro.query.evaluation import (
    cooccurrence_query_recall,
    count_query_recall,
)
from repro.query.queries import CoOccurrenceQuery, CountQuery
from repro.reid import CostModel, ReidScorer, SimReIDModel
from repro.track.deepsort import DeepSortTracker
from repro.track.tracktor import TracktorTracker
from repro.track.uma import UmaTracker

DATASETS = ("mot17", "kitti", "pathtrack")

# Default sweep grids (paper-shaped; benches may shrink them further).
TAU_SWEEP = (2000, 5000, 10000, 20000, 40000)
ETA_SWEEP = (0.0003, 0.001, 0.003, 0.01)
BATCH_TAU_SWEEP = (250, 500, 1000, 2000, 4000)


# ----------------------------------------------------------------------
# Figure 3 — REC-K curves of the exhaustive baseline
# ----------------------------------------------------------------------
def fig3_rec_k(
    videos_by_dataset: dict[str, list[PreparedVideo]],
    ks: tuple[float, ...] = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2),
    reid_seed: int = 1,
    telemetry=None,
) -> dict[str, list[tuple[float, float]]]:
    """REC of the top-⌈K·|P_c|⌉ *exact* scores, per dataset.

    Returns ``{dataset: [(K, REC)]}`` with REC averaged over windows that
    contain polyonymous pairs.  ``telemetry`` (optional) aggregates the
    exhaustive scoring's cost counters across all datasets.
    """
    curves: dict[str, list[tuple[float, float]]] = {}
    for dataset, videos in videos_by_dataset.items():
        sums = [0.0] * len(ks)
        counts = [0] * len(ks)
        for video in videos:
            scorer = ReidScorer(
                SimReIDModel(video.world, seed=reid_seed),
                cost=CostModel(telemetry=telemetry),
                telemetry=telemetry,
            )
            for pairs, gt_keys in zip(video.window_pairs, video.window_gt):
                if not pairs or not gt_keys:
                    continue
                result = BaselineMerger(k=1.0).run(pairs, scorer)
                for i, (k, rec) in enumerate(
                    rec_k_curve(pairs, result.scores, gt_keys, list(ks))
                ):
                    if rec is not None:
                        sums[i] += rec
                        counts[i] += 1
        curves[dataset] = [
            (k, sums[i] / counts[i] if counts[i] else 1.0)
            for i, k in enumerate(ks)
        ]
    return curves


# ----------------------------------------------------------------------
# Figure 4 — baseline runtime & pair count vs video length
# ----------------------------------------------------------------------
def fig4_runtime_scaling(
    lengths: tuple[int, ...] = (600, 1200, 1800, 2400),
    preset: str = "pathtrack",
    window_length: int = 2000,
    seed: int = 0,
    reid_seed: int = 1,
) -> list[tuple[int, int, float]]:
    """BL cost growth with video length.

    Returns rows ``(video_frames, accumulated_pairs, bl_seconds)``.
    """
    rows = []
    for length in lengths:
        videos = prepare_dataset(
            preset, 1, seed=seed, n_frames=length, window_length=window_length
        )
        video = videos[0]
        scorer = ReidScorer(
            SimReIDModel(video.world, seed=reid_seed), cost=CostModel()
        )
        n_pairs = 0
        for pairs in video.window_pairs:
            n_pairs += len(pairs)
            if pairs:
                BaselineMerger(k=0.05).run(pairs, scorer)
        rows.append((length, n_pairs, scorer.cost.seconds))
    return rows


# ----------------------------------------------------------------------
# Figures 5/6 — REC-FPS curves, unbatched and batched
# ----------------------------------------------------------------------
def method_sweeps(
    taus: tuple[int, ...] = TAU_SWEEP,
    etas: tuple[float, ...] = ETA_SWEEP,
    k: float = 0.05,
    batch_size: int | None = None,
    batch_taus: tuple[int, ...] = BATCH_TAU_SWEEP,
    seed: int = 3,
) -> dict[str, list[tuple[float, Callable]]]:
    """The standard configuration grids for BL / PS / LCB / TMerge."""
    sweep_taus = batch_taus if batch_size is not None else taus
    return {
        "BL": [(0.0, lambda: BaselineMerger(k=k, batch_size=batch_size))],
        "PS": [
            (
                eta,
                lambda eta=eta: ProportionalMerger(
                    eta=eta, k=k, batch_size=batch_size, seed=seed
                ),
            )
            for eta in etas
        ],
        "LCB": [
            (
                tau,
                lambda tau=tau: LcbMerger(
                    tau_max=tau, k=k, batch_size=batch_size, seed=seed
                ),
            )
            for tau in sweep_taus
        ],
        "TMerge": [
            (
                tau,
                lambda tau=tau: TMerge(
                    k=k, tau_max=tau, batch_size=batch_size, seed=seed
                ),
            )
            for tau in sweep_taus
        ],
    }


def fig5_rec_fps(
    videos_by_dataset: dict[str, list[PreparedVideo]],
    taus: tuple[int, ...] = TAU_SWEEP,
    etas: tuple[float, ...] = ETA_SWEEP,
    reid_seed: int = 1,
) -> dict[str, dict[str, list[MethodPoint]]]:
    """Unbatched REC-FPS curves per dataset (Figure 5)."""
    results: dict[str, dict[str, list[MethodPoint]]] = {}
    for dataset, videos in videos_by_dataset.items():
        sweeps = method_sweeps(taus=taus, etas=etas)
        results[dataset] = {
            name: rec_fps_sweep(factories, videos, reid_seed=reid_seed)
            for name, factories in sweeps.items()
        }
    return results


def fig6_batched(
    videos: list[PreparedVideo],
    batch_sizes: tuple[int, ...] = (10, 100),
    batch_taus: tuple[int, ...] = BATCH_TAU_SWEEP,
    etas: tuple[float, ...] = ETA_SWEEP,
    reid_seed: int = 1,
) -> dict[str, list[MethodPoint]]:
    """Batched REC-FPS curves on one dataset (Figure 6).

    Returns ``{"TMerge-B10": [...], "LCB-B100": [...], ...}``.
    """
    results: dict[str, list[MethodPoint]] = {}
    for batch in batch_sizes:
        sweeps = method_sweeps(
            etas=etas, batch_size=batch, batch_taus=batch_taus
        )
        for name, factories in sweeps.items():
            points = rec_fps_sweep(factories, videos, reid_seed=reid_seed)
            results[f"{name}-B{batch}"] = points
    return results


def table2_fps(
    unbatched: dict[str, list[MethodPoint]],
    batched: dict[str, list[MethodPoint]],
    rec_targets: tuple[float, ...] = (0.80, 0.93),
) -> list[list[object]]:
    """Table II: FPS of every method at fixed REC levels."""
    rows: list[list[object]] = []
    for name, points in list(unbatched.items()) + list(batched.items()):
        row: list[object] = [name]
        for target in rec_targets:
            row.append(fps_at_rec(points, target))
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 7 — TMerge-B runtime & REC vs τ_max
# ----------------------------------------------------------------------
def fig7_tau_sweep(
    videos: list[PreparedVideo],
    taus: tuple[int, ...] = (100, 250, 500, 1000, 2000, 4000),
    batch_size: int = 10,
    reid_seed: int = 1,
) -> list[tuple[int, float, float]]:
    """Rows ``(τ_max, runtime_seconds, REC)`` for TMerge-B (Figure 7)."""
    rows = []
    for tau in taus:
        point = evaluate_merger(
            lambda tau=tau: TMerge(tau_max=tau, batch_size=batch_size, seed=3),
            videos,
            reid_seed=reid_seed,
        )
        rows.append((tau, point.simulated_seconds, point.rec))
    return rows


# ----------------------------------------------------------------------
# Figure 8 — ablation: BetaInit and ULB
# ----------------------------------------------------------------------
def fig8_ablation(
    videos: list[PreparedVideo],
    taus: tuple[int, ...] = (250, 500, 1000, 2000, 4000),
    batch_size: int = 10,
    reid_seed: int = 1,
) -> dict[str, list[MethodPoint]]:
    """REC-FPS curves of TMerge, TMerge−BetaInit and TMerge−ULB.

    With the paper's range-1 Hoeffding radius ULB's pruning conditions
    never trigger under our distance statistics, so the ULB variants run
    the variance-aware radius (``ulb_scale=0.25``, a pass every 10
    iterations), where pruning is observable on KITTI-like windows
    (EXPERIMENTS.md, Figure 8).
    """
    ulb = dict(ulb_scale=0.25, ulb_interval=10)
    variants = {
        "TMerge": ulb,
        "TMerge w/o BetaInit": dict(thr_s=None, **ulb),
        "TMerge w/o ULB": dict(use_ulb=False),
    }
    results = {}
    for name, overrides in variants.items():
        factories = [
            (
                tau,
                lambda tau=tau, overrides=overrides: TMerge(
                    tau_max=tau, batch_size=batch_size, seed=3, **overrides
                ),
            )
            for tau in taus
        ]
        results[name] = rec_fps_sweep(factories, videos, reid_seed=reid_seed)
    return results


# ----------------------------------------------------------------------
# Figure 9 — sensitivity to window length L
# ----------------------------------------------------------------------
def fig9_window_length(
    preset: str = "pathtrack",
    lengths: tuple[int, ...] = (1000, 2000, 3000, 4000),
    n_videos: int = 2,
    n_frames: int = 3000,
    draws_per_pair: int = 60,
    batch_size: int = 100,
    k: float = 0.05,
    seed: int = 0,
    reid_seed: int = 1,
) -> list[tuple[int, float, float]]:
    """Rows ``(L, REC_BL, REC_TMerge)`` (Figure 9).

    Recall here is *video-level*: the union of all windows' candidates
    against every polyonymous pair of the video.  With ``L < 2·L_max``
    some fragment pairs span more than two windows, never enter any
    ``P_c``, and are structurally unfindable — capping REC for BL and
    TMerge alike.  TMerge's per-window budget scales with the window's
    pair count (``draws_per_pair``) so that changing ``L`` changes only
    the pairing structure, not the sampling density.
    """
    from repro.experiments.prep import rewindow
    from repro.metrics.matching import video_polyonymous_keys
    from repro.reid import CostModel

    base_videos = prepare_dataset(
        preset, n_videos, seed=seed, n_frames=n_frames,
        window_length=lengths[0],
    )
    video_gt = [
        video_polyonymous_keys(video.tracks, video.assignment)
        for video in base_videos
    ]

    def video_recall(merger_factory, videos) -> float:
        recs = []
        for video, gt in zip(videos, video_gt):
            if not gt:
                continue
            scorer = ReidScorer(
                SimReIDModel(video.world, seed=reid_seed), cost=CostModel()
            )
            found: set[PairKey] = set()
            for pairs in video.window_pairs:
                if pairs:
                    found |= (
                        merger_factory(pairs)
                        .run([pair.copy() for pair in pairs], scorer)
                        .candidate_keys
                    )
            recs.append(len(found & gt) / len(gt))
        return sum(recs) / len(recs) if recs else 1.0

    def tmerge_for(pairs):
        budget = max(1, draws_per_pair * len(pairs) // max(batch_size, 1))
        return TMerge(k=k, tau_max=budget, batch_size=batch_size, seed=3)

    rows = []
    for length in lengths:
        videos = [rewindow(video, length) for video in base_videos]
        bl = video_recall(lambda pairs: BaselineMerger(k=k), videos)
        tm = video_recall(tmerge_for, videos)
        rows.append((length, bl, tm))
    return rows


# ----------------------------------------------------------------------
# Figure 10 — sensitivity to thr_S
# ----------------------------------------------------------------------
def fig10_thr_s(
    videos: list[PreparedVideo],
    thresholds: tuple[float | None, ...] = (None, 100.0, 200.0, 300.0),
    taus: tuple[int, ...] = (250, 500, 1000, 2000),
    batch_size: int = 10,
    reid_seed: int = 1,
) -> dict[str, list[MethodPoint]]:
    """REC-FPS curves of TMerge for several BetaInit thresholds."""
    results = {}
    for thr in thresholds:
        label = "no BetaInit" if thr is None else f"thr_S={thr:g}"
        factories = [
            (
                tau,
                lambda tau=tau, thr=thr: TMerge(
                    tau_max=tau, thr_s=thr, batch_size=batch_size, seed=3
                ),
            )
            for tau in taus
        ]
        results[label] = rec_fps_sweep(factories, videos, reid_seed=reid_seed)
    return results


# ----------------------------------------------------------------------
# Figures 11-13 — downstream quality with and without TMerge
# ----------------------------------------------------------------------
def _identify_and_confirm(
    video: PreparedVideo,
    merger_factory: Callable,
    reid_seed: int = 1,
) -> set[PairKey]:
    """Run a merger over every window; return oracle-confirmed candidates.

    The oracle stands in for the paper's human-inspection step (§I):
    candidates the algorithm surfaces are checked and only true polyonymous
    pairs are merged.  The merger draws on copies of the video's pairs,
    as the window runner does, so the video stays unsampled.
    """
    scorer = ReidScorer(
        SimReIDModel(video.world, seed=reid_seed), cost=CostModel()
    )
    confirmed: set[PairKey] = set()
    for pairs, gt_keys in zip(video.window_pairs, video.window_gt):
        if not pairs:
            continue
        result = merger_factory().run([pair.copy() for pair in pairs], scorer)
        confirmed |= result.candidate_keys & gt_keys
    return confirmed


def default_quality_merger() -> TMerge:
    """The TMerge configuration used by the downstream-quality figures."""
    return TMerge(k=0.05, tau_max=2000, batch_size=100, seed=3)


def fig11_polyonymous_rate(
    preset: str = "mot17",
    n_videos: int = 2,
    n_frames: int = 700,
    seed: int = 0,
    reid_seed: int = 1,
) -> list[tuple[str, float, float]]:
    """Rows ``(tracker, rate_without, rate_with_tmerge)`` (Figure 11)."""
    trackers = {
        "Tracktor": TracktorTracker,
        "DeepSORT": DeepSortTracker,
        "UMA": UmaTracker,
    }
    rows = []
    for name, tracker_cls in trackers.items():
        without_sum = 0.0
        with_sum = 0.0
        for i in range(n_videos):
            video = _prepare_with_tracker(
                preset, seed + i, n_frames, tracker_cls
            )
            resolved = _identify_and_confirm(
                video, default_quality_merger, reid_seed
            )
            without_sum += polyonymous_rate(
                video.window_pairs, video.assignment
            )
            with_sum += polyonymous_rate(
                video.window_pairs, video.assignment, resolved=resolved
            )
        rows.append((name, without_sum / n_videos, with_sum / n_videos))
    return rows


def _prepare_with_tracker(preset, seed, n_frames, tracker_cls):
    """Prepare a video with a tracker class, injecting the appearance
    embedder for the trackers that use one."""
    from repro.experiments.prep import prepare_video
    from repro.synth.datasets import preset_by_name
    from repro.synth.world import simulate_world

    if tracker_cls in (DeepSortTracker, UmaTracker):
        # Appearance trackers need an embedder bound to this video's world,
        # so simulate it first, then hand the tracker its cheap head.
        preset_obj = preset_by_name(preset) if isinstance(preset, str) else preset
        world = simulate_world(preset_obj.config, n_frames, seed=seed)
        model = SimReIDModel(world, seed=seed + 7)
        tracker = tracker_cls(embedder=model.tracker_embedder())
        return prepare_video(
            preset, seed=seed, n_frames=n_frames, tracker=tracker
        )
    return prepare_video(
        preset, seed=seed, n_frames=n_frames, tracker=tracker_cls()
    )


def fig12_identity_metrics(
    preset: str = "mot17",
    n_videos: int = 2,
    n_frames: int = 700,
    seed: int = 0,
    reid_seed: int = 1,
) -> list[tuple[str, float, float]]:
    """Rows ``(metric, without, with_tmerge)`` for IDF1/IDP/IDR (Fig. 12)."""
    sums = {"IDF1": [0.0, 0.0], "IDP": [0.0, 0.0], "IDR": [0.0, 0.0]}
    for i in range(n_videos):
        video = _prepare_with_tracker(
            preset, seed + i, n_frames, TracktorTracker
        )
        confirmed = _identify_and_confirm(
            video, default_quality_merger, reid_seed
        )
        merged, _ = merge_tracks(video.tracks, sorted(confirmed))
        before = evaluate_identity(video.tracks, video.world)
        after = evaluate_identity(merged, video.world)
        for name, pair in (
            ("IDF1", (before.idf1, after.idf1)),
            ("IDP", (before.idp, after.idp)),
            ("IDR", (before.idr, after.idr)),
        ):
            sums[name][0] += pair[0]
            sums[name][1] += pair[1]
    return [
        (name, values[0] / n_videos, values[1] / n_videos)
        for name, values in sums.items()
    ]


def fig13_query_recall(
    preset: str = "mot17",
    n_videos: int = 2,
    n_frames: int = 700,
    count_min_frames: int = 200,
    cooccur_min_frames: int = 50,
    seed: int = 0,
    reid_seed: int = 1,
) -> list[tuple[str, float, float]]:
    """Rows ``(query, recall_without, recall_with_tmerge)`` (Figure 13)."""
    count_query = CountQuery(min_frames=count_min_frames)
    cooccur_query = CoOccurrenceQuery(
        group_size=3, min_frames=cooccur_min_frames
    )
    sums = {"Count": [0.0, 0.0], "Co-occurrence": [0.0, 0.0]}
    for i in range(n_videos):
        video = _prepare_with_tracker(
            preset, seed + i, n_frames, TracktorTracker
        )
        confirmed = _identify_and_confirm(
            video, default_quality_merger, reid_seed
        )
        merged, id_map = merge_tracks(video.tracks, sorted(confirmed))
        merged_assignment = _remap_assignment(video, id_map)

        sums["Count"][0] += count_query_recall(
            video.tracks, video.world, video.assignment, count_query
        )
        sums["Count"][1] += count_query_recall(
            merged, video.world, merged_assignment, count_query
        )
        sums["Co-occurrence"][0] += cooccurrence_query_recall(
            video.tracks, video.world, video.assignment, cooccur_query
        )
        sums["Co-occurrence"][1] += cooccurrence_query_recall(
            merged, video.world, merged_assignment, cooccur_query
        )
    return [
        (name, values[0] / n_videos, values[1] / n_videos)
        for name, values in sums.items()
    ]


def _remap_assignment(video: PreparedVideo, id_map: dict[int, int]):
    """Carry the track → GT assignment through a merge's ID remapping."""
    from repro.metrics.matching import TrackGtAssignment

    identity: dict[int, int] = {}
    fraction: dict[int, float] = {}
    for old_id, gt in video.assignment.identity.items():
        new_id = id_map.get(old_id, old_id)
        identity.setdefault(new_id, gt)
        fraction.setdefault(
            new_id, video.assignment.matched_fraction.get(old_id, 1.0)
        )
    return TrackGtAssignment(identity, fraction)
