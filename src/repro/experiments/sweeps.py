"""Running merging algorithms over prepared data and measuring REC / FPS."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from repro.core.pipeline import Merger
from repro.experiments.prep import PreparedVideo
from repro.faults.profiles import FaultProfile
from repro.metrics.recall import window_recall
from repro.parallel import ParallelExecutor, run_windows
from repro.provenance import DecisionLedger
from repro.reid import CostParams
from repro.resilience import ResilienceConfig
from repro.telemetry import Telemetry

MergerFactory = Callable[[], Merger]


@dataclass(frozen=True)
class MethodPoint:
    """One (configuration, dataset) measurement.

    Attributes:
        method: algorithm display name.
        rec: average REC over windows with non-empty ``P*_c``.
        fps: frames processed per simulated second.
        simulated_seconds: total simulated merging time.
        parameter: the swept parameter value (τ_max, η, …), if any.
        degraded_windows: windows that completed in degraded mode (always
            0 outside fault-injection sweeps).
        reid_invocations: total ReID forward passes (unbatched + batched
            crops) across all videos — the cost figure the CI bench gate
            guards against regressions.
    """

    method: str
    rec: float
    fps: float
    simulated_seconds: float
    parameter: float | None = None
    degraded_windows: int = 0
    reid_invocations: int = 0


def evaluate_merger(
    factory: MergerFactory,
    videos: list[PreparedVideo],
    reid_seed: int = 1,
    cost_params: CostParams | None = None,
    parameter: float | None = None,
    fault_profile: FaultProfile | None = None,
    resilience: ResilienceConfig | None = None,
    telemetry: Telemetry | None = None,
    ledger: DecisionLedger | None = None,
    workers: int | None = None,
    parallel_backend: str = "process",
) -> MethodPoint:
    """Run one algorithm configuration over every window of every video.

    A fresh merger, scorer (cache) and cost clock are used per video — the
    paper's per-video ingestion setting — and REC is averaged over all
    windows that contain at least one true polyonymous pair.

    Args:
        factory: builds a fresh merger per video.
        videos: prepared evaluation videos.
        reid_seed: seed of the ReID extraction noise.
        cost_params: simulated cost constants (defaults).
        parameter: recorded swept-parameter value for reporting.
        fault_profile: optional chaos configuration wired into the ReID
            model and the per-window crash seam (fresh injectors per
            video, so every video sees the same schedule).
        resilience: resilience tuning; defaults on when a fault profile
            is given, stays off otherwise.
        telemetry: optional injected :class:`~repro.telemetry.Telemetry`
            shared across all videos of the evaluation (counters, spans,
            hotspots).  Purely observational: results are bit-identical
            with it on or off.
        ledger: optional injected
            :class:`~repro.provenance.DecisionLedger` shared across all
            videos, riding on the run's Telemetry (window stamps restart
            at 0 per video).  Purely observational like ``telemetry`` —
            results are bit-identical with it on or off
            (``benchmarks/test_ledger_overhead.py`` asserts it).
        workers: the regime :func:`repro.parallel.run_windows` runs
            each video in.  ``None`` (default) is the shared-runtime
            regime (one runtime per video); an integer is the
            window-local regime with that many workers, whose results
            are a pure function of the seeds and window indices, so any
            worker count yields the same :class:`MethodPoint`
            bit-for-bit.
        parallel_backend: ``"process"`` or ``"thread"`` pool for the
            window-local regime (ignored when ``workers`` is ``None``).
            One pool serves every video and is closed before the call
            returns.
    """
    recs: list[float] = []
    total_seconds = 0.0
    total_frames = 0
    degraded_windows = 0
    reid_invocations = 0
    method = ""
    with (
        nullcontext()
        if workers is None
        else ParallelExecutor(workers, parallel_backend)
    ) as executor:
        for video in videos:
            merger = factory()
            method = merger.name
            run = run_windows(
                world=video.world,
                window_pairs=video.window_pairs,
                merger=merger,
                cost_params=cost_params,
                reid_seed=reid_seed,
                fault_profile=fault_profile,
                resilience=resilience,
                executor=executor,
                telemetry=telemetry,
                ledger=ledger,
            )
            cost = run.cost
            for pairs, result, gt_keys in zip(
                video.window_pairs, run.window_results, video.window_gt
            ):
                if not pairs:
                    continue
                if result.degraded:
                    degraded_windows += 1
                rec = window_recall(result.candidate_keys, gt_keys)
                if rec is not None:
                    recs.append(rec)
            total_seconds += cost.seconds
            total_frames += video.n_frames
            reid_invocations += cost.n_extractions + cost.n_batched_extractions

    avg_rec = sum(recs) / len(recs) if recs else 1.0
    fps = total_frames / total_seconds if total_seconds > 0 else float("inf")
    return MethodPoint(
        method=method,
        rec=avg_rec,
        fps=fps,
        simulated_seconds=total_seconds,
        parameter=parameter,
        degraded_windows=degraded_windows,
        reid_invocations=reid_invocations,
    )


def rec_fps_sweep(
    factories: list[tuple[float, MergerFactory]],
    videos: list[PreparedVideo],
    reid_seed: int = 1,
) -> list[MethodPoint]:
    """Evaluate a family of configurations (one REC–FPS curve).

    Args:
        factories: ``(parameter_value, factory)`` per curve point.
        videos: prepared evaluation videos.
        reid_seed: ReID noise seed.
    """
    return [
        evaluate_merger(factory, videos, reid_seed=reid_seed, parameter=value)
        for value, factory in factories
    ]


def fps_at_rec(points: list[MethodPoint], target_rec: float) -> float | None:
    """Interpolated FPS a method achieves at a target REC (Table II).

    Points are sorted by REC; linear interpolation in (REC, FPS).  Returns
    ``None`` when the method never reaches ``target_rec``.
    """
    usable = sorted(points, key=lambda p: p.rec)
    if not usable or usable[-1].rec < target_rec:
        return None
    previous = None
    for point in usable:
        if point.rec >= target_rec:
            if previous is None or point.rec == previous.rec:
                return point.fps
            fraction = (target_rec - previous.rec) / (point.rec - previous.rec)
            return previous.fps + fraction * (point.fps - previous.fps)
        previous = point
    return None
