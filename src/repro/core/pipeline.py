"""End-to-end ingestion: video → detections → tracks → merged tracks.

This is the deployment shape the paper describes (§I): TMerge runs as a
pre-processing step *after* the tracking algorithm and *before* downstream
query processing, window by window.  The pipeline wires the substrates
together and returns everything the evaluation and query layers need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.core.merge import merge_tracks
from repro.core.pairs import TrackPair, build_track_pairs
from repro.core.results import MergeResult, top_k_count
from repro.core.windows import Window, WindowedTracks, partition_windows
from repro.detect import Detection, NoisyDetector
from repro.faults.errors import WindowCrashError
from repro.faults.injectors import WindowCrashInjector
from repro.faults.profiles import FaultProfile
from repro.provenance import EVENT_FAULT, DecisionLedger
from repro.reid import CostModel, CostParams, ReidScorer, SimReIDModel
from repro.resilience import (
    REID_UNAVAILABLE,
    ResilienceConfig,
    ResilientReidScorer,
    RetryPolicy,
    retry_call,
)
from repro.synth.world import VideoGroundTruth
from repro.telemetry import Telemetry
from repro.track.base import Track, Tracker

if TYPE_CHECKING:
    from repro.parallel import ParallelExecutor

#: Prior means mirroring BetaInit (see :mod:`repro.core.tmerge`): the
#: spatial-fallback ranking is exactly a zero-observation TMerge ranking.
_PRIOR_MEAN_CLOSE = 1.0 / 3.0
_PRIOR_MEAN_DEFAULT = 0.5


def spatial_fallback_result(
    merger: "Merger", pairs: list[TrackPair], elapsed: float
) -> MergeResult:
    """Candidate set from spatial priors alone (the degradation floor).

    Used when a merger that does not handle degradation internally loses
    its ReID dependency mid-window: pairs are ranked by their BetaInit
    prior mean (close pairs first) with spatial distance as tiebreak —
    identical to what TMerge returns from a fully-offline window.
    """
    k = float(getattr(merger, "k", 0.0))
    thr_s = getattr(merger, "thr_s", 200.0)
    budget = top_k_count(len(pairs), k)
    spatial = np.array([pair.spatial_distance for pair in pairs])
    if thr_s is None:
        means = np.full(len(pairs), _PRIOR_MEAN_DEFAULT)
    else:
        means = np.where(
            spatial < thr_s, _PRIOR_MEAN_CLOSE, _PRIOR_MEAN_DEFAULT
        )
    order = np.lexsort((spatial, means))
    chosen = [int(i) for i in order[:budget]]
    return MergeResult(
        method=merger.name,
        candidates=[pairs[i] for i in chosen],
        scores={
            pair.key: float(means[i]) for i, pair in enumerate(pairs)
        },
        n_pairs=len(pairs),
        k=k,
        simulated_seconds=elapsed,
        extra={"spatial_fallback": 1.0},
        degraded=True,
    )


def empty_merge_result(merger: "Merger") -> MergeResult:
    """The result of a window with no candidate pairs."""
    return MergeResult(
        method=merger.name,
        candidates=[],
        scores={},
        n_pairs=0,
        k=getattr(merger, "k", 0.0),
        simulated_seconds=0.0,
    )


class Merger(Protocol):
    """Any §III/§IV algorithm: BL, PS, LCB or TMerge (batched or not)."""

    @property
    def name(self) -> str: ...

    def run(self, pairs: list[TrackPair], scorer: ReidScorer) -> MergeResult: ...


def build_window_runtime(
    world: VideoGroundTruth,
    model_seed: int | np.random.SeedSequence,
    cost_params: CostParams | None,
    fault_profile: FaultProfile | None,
    resilience: ResilienceConfig | None,
    telemetry: Telemetry,
    *,
    call_rng: np.random.Generator | None = None,
    corruption_rng: np.random.Generator | None = None,
    crash_rng: np.random.Generator | None = None,
) -> tuple[
    CostModel, ReidScorer | ResilientReidScorer, WindowCrashInjector | None
]:
    """Build the clock, scorer and crash seam that merge windows run on.

    The one place a run's ReID runtime is assembled — once per video in
    :func:`repro.parallel.run_windows`'s shared-runtime regime, once per
    window in its window-local regime and in the streaming service.
    Every part records into ``telemetry``: the cost model, the fault
    injectors, the scorer and its circuit breaker, and the mergers
    that run on the scorer.

    Args:
        world: the simulated ground truth behind the ReID model.
        model_seed: seed of the ReID extraction noise.
        cost_params: simulated cost constants.
        fault_profile: optional chaos configuration; wraps the model in
            its call/corruption injectors and builds the window crasher.
        resilience: when set, the scorer is a
            :class:`~repro.resilience.ResilientReidScorer`.
        telemetry: the run's (or window's) Telemetry.
        call_rng: optional call-fault generator; ``None`` keeps the
            profile's run-level stream.
        corruption_rng: optional corruption generator, same convention.
        crash_rng: optional crash-schedule generator, same convention.

    Returns:
        ``(cost, scorer, crasher)``; ``crasher`` is ``None`` unless the
        profile crashes windows.
    """
    cost = CostModel(cost_params, telemetry=telemetry)
    model = SimReIDModel(world, seed=model_seed)
    if fault_profile is not None and fault_profile.injects_reid_faults:
        model = fault_profile.wrap_model(
            model,
            call_rng=call_rng,
            corruption_rng=corruption_rng,
            telemetry=telemetry,
        )
    scorer: ReidScorer | ResilientReidScorer = ReidScorer(
        model, cost=cost, telemetry=telemetry
    )
    if resilience is not None:
        scorer = ResilientReidScorer(
            scorer,
            retry=resilience.retry,
            breaker_policy=resilience.breaker,
        )
    crasher = None
    if fault_profile is not None and fault_profile.window_crash_rate > 0:
        crasher = fault_profile.window_crasher(
            rng=crash_rng, telemetry=telemetry
        )
    return cost, scorer, crasher


def run_resilient_window(
    merger: Merger,
    index: int,
    pairs: list[TrackPair],
    scorer: ReidScorer | ResilientReidScorer,
    cost: CostModel,
    resilience: ResilienceConfig | None,
    crasher=None,
) -> MergeResult:
    """Run a merger on one window, surviving crashes and ReID outages.

    Window crashes are retried through :func:`repro.resilience.retry_call`
    (resuming from the merger's checkpoint store when it has one,
    restarting the window's sampling otherwise); a ReID outage the merger
    does not handle internally falls back to the spatial-prior candidate
    set with ``degraded=True``.  With ``resilience=None`` this is exactly
    ``merger.run(pairs, scorer)``.  Fault interventions are recorded as
    decision events through the scorer's Telemetry.

    Args:
        merger: the algorithm under test.
        index: window index (used to arm the crash schedule).
        pairs: the window's candidate pair set.
        scorer: plain or resilient scorer.
        cost: the shared simulated clock.
        resilience: retry/breaker/window-retry tuning, or ``None``.
        crasher: optional
            :class:`~repro.faults.injectors.WindowCrashInjector`.
    """
    if resilience is None:
        return merger.run(pairs, scorer)

    armed = crasher.arm(index) if crasher is not None else None
    checkpointed = getattr(merger, "checkpoint_store", None)
    telemetry = scorer.telemetry

    def attempt() -> MergeResult:
        if armed is not None and armed.fired and checkpointed is None:
            # A crashed attempt left partial sampling state behind and
            # there is no checkpoint to resume from: the replacement
            # worker starts the window from scratch.
            for pair in pairs:
                pair.reset_sampling()
        if isinstance(scorer, ResilientReidScorer):
            scorer.crash_injector = armed
        try:
            return merger.run(pairs, scorer)
        finally:
            if isinstance(scorer, ResilientReidScorer):
                scorer.crash_injector = None

    window_start = cost.seconds
    policy = RetryPolicy(
        max_attempts=resilience.max_window_retries + 1,
        backoff_base_ms=0.0,
        retry_on=(WindowCrashError,),
    )
    try:
        result = retry_call(attempt, policy, cost)
    except REID_UNAVAILABLE:
        telemetry.record(EVENT_FAULT, reason="spatial_fallback")
        return spatial_fallback_result(
            merger, pairs, cost.seconds - window_start
        )
    if armed is not None and armed.fired:
        # Recorded after the merge completes (never wiped by a mid-run
        # ledger restore): this window's worker crashed and the retry
        # either resumed from a checkpoint or restarted from scratch.
        telemetry.record(
            EVENT_FAULT,
            reason="window_crash",
            resumed=checkpointed is not None,
        )
    return result


@dataclass
class IngestionResult:
    """Everything one pipeline run produced.

    Attributes:
        world: the simulated ground truth.
        detections: per-frame detector output.
        tracks: tracker output, pre-merge.
        windows: the temporal windows used.
        window_pairs: the candidate pair set ``P_c`` per window.
        window_results: the merging algorithm's result per window.
        merged_tracks: tracks after applying all selected candidates.
        id_map: original TID → merged TID.
        cost: the simulated cost model (shared across windows).
        resilience_stats: counters from the resilience layer (empty when
            the pipeline ran without one).
        window_metrics: per-window telemetry counter deltas (one dict per
            window, keys like ``reid.invocations``; empty when the
            pipeline ran without an injected telemetry).
    """

    world: VideoGroundTruth
    detections: list[list[Detection]]
    tracks: list[Track]
    windows: list[Window]
    window_pairs: list[list[TrackPair]]
    window_results: list[MergeResult]
    merged_tracks: list[Track]
    id_map: dict[int, int]
    cost: CostModel
    resilience_stats: dict[str, float] = field(default_factory=dict)
    window_metrics: list[dict[str, float]] = field(default_factory=list)

    @property
    def degraded_windows(self) -> list[int]:
        """Indices of windows whose merge ran in degraded mode."""
        return [
            c
            for c, result in enumerate(self.window_results)
            if result.degraded
        ]

    @property
    def selected_pairs(self) -> list[tuple[int, int]]:
        """All candidate pair keys across windows."""
        keys = []
        for result in self.window_results:
            keys.extend(result.candidate_keys)
        return keys

    @property
    def total_simulated_seconds(self) -> float:
        """Simulated merging time summed over windows."""
        return sum(r.simulated_seconds for r in self.window_results)

    @property
    def fps(self) -> float:
        """Frames processed per simulated second (the paper's FPS metric)."""
        seconds = self.total_simulated_seconds
        if seconds <= 0:
            return float("inf")
        return self.world.n_frames / seconds


@dataclass
class IngestionPipeline:
    """The periodic metadata-extraction job.

    Attributes:
        tracker: the tracking algorithm producing raw tracks.
        merger: the polyonymous-pair identification algorithm.
        window_length: the paper's ``L`` (should be ≥ 2·L_max).
        detector: the detection front-end.
        cost_params: simulated cost constants.
        reid_seed: seed of the ReID extraction noise.
        detector_seed: seed of the detection noise.
        merge_score_threshold: when set, *automatic* merging only applies
            candidates whose estimated normalized score is below this value
            (confidently-similar pairs); the remaining candidates are still
            reported for the paper's optional human inspection.  ``None``
            merges every returned candidate.
        l_max: optional declared maximum track length ``L_max``; when set
            and contracts are enabled (``REPRO_CHECK_INVARIANTS=1``), the
            §II constraint ``window_length ≥ 2·l_max`` is enforced.
        fault_profile: optional chaos configuration; when set, its
            injectors are wired into the detection feed, the ReID model
            and the per-window crash seam (and resilience defaults on).
        resilience: retry/breaker/window-retry tuning; defaults to
            :class:`~repro.resilience.ResilientReidScorer` defaults when
            a fault profile is set, stays off otherwise
            (:func:`repro.parallel.executor.effective_resilience`).
        telemetry: optional injected :class:`~repro.telemetry.Telemetry`.
            When set, every component of the run records into it
            (ReID-cost counters, cache hits, bandit draws, fault and
            breaker events), windows run inside ``window`` spans on the
            simulated clock, and :attr:`IngestionResult.window_metrics`
            carries per-window counter deltas.  Telemetry is pure
            observation — results are bit-identical with it on or off.
        workers: the regime :func:`repro.parallel.run_windows` runs the
            windows in.  ``None`` (default) is the shared-runtime regime:
            one ReID RNG stream, feature cache, clock and breaker threaded
            through the windows in order.  Any integer ≥ 1 is the
            window-local regime, where results are a pure function of
            ``(seed, window index)``: ``workers=1`` runs the windows
            inline, and every higher worker count reproduces that run
            bit-identically (enforced by
            ``tests/test_parallel_equivalence.py``).  The two regimes
            are *not* bit-identical to each other — see DESIGN.md §8.
        parallel_backend: pool flavour for ``workers`` ≥ 2 —
            ``"process"`` (default, real CPU parallelism) or
            ``"thread"`` (shared memory, GIL-bound).  The first run
            gives the pipeline one
            :class:`~repro.parallel.ParallelExecutor`, whose pool is
            built at the first run that needs it and serves every later
            run; :meth:`close` (or leaving a ``with`` block) shuts it
            down and joins the workers, as does dropping the pipeline.
            A :func:`dataclasses.replace` copy, a deep copy or a pickle
            builds its own.
        ledger: optional injected
            :class:`~repro.provenance.DecisionLedger`.  When set, it
            rides on the run's Telemetry and the merger records one
            decision event per TMerge iteration, ULB pass, degradation
            and fault intervention, stamped with the owning window index
            (shared-runtime regime: the shared ledger follows the window
            loop; window-local regime: per-window ledgers are absorbed
            in window-index order).  Pure observation — results are
            bit-identical with it on or off
            (``tests/test_provenance_equivalence.py``).
    """

    tracker: Tracker
    merger: Merger
    window_length: int = 2000
    detector: NoisyDetector = field(default_factory=NoisyDetector)
    cost_params: CostParams = field(default_factory=CostParams)
    reid_seed: int = 1
    detector_seed: int = 2
    merge_score_threshold: float | None = None
    l_max: int | None = None
    fault_profile: FaultProfile | None = None
    resilience: ResilienceConfig | None = None
    telemetry: Telemetry | None = None
    workers: int | None = None
    parallel_backend: str = "process"
    ledger: DecisionLedger | None = None
    _executor: ParallelExecutor | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def close(self) -> None:
        """Shut the worker pool down and join its workers (idempotent)."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "IngestionPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, world: VideoGroundTruth) -> IngestionResult:
        """Ingest one video end to end."""
        detections = self.detector.detect_video(world, seed=self.detector_seed)
        if (
            self.fault_profile is not None
            and self.fault_profile.frame_drop_rate > 0
        ):
            detections = self.fault_profile.frame_injector(
                self.telemetry
            ).apply(detections)
        tracks = self.tracker.run(detections)
        return self.run_on_tracks(world, detections, tracks)

    def run_on_tracks(
        self,
        world: VideoGroundTruth,
        detections: list[list[Detection]],
        tracks: list[Track],
    ) -> IngestionResult:
        """Ingest starting from precomputed tracks (lets experiments share
        one tracker run across many merger configurations).

        Windows and pair sets are built here; the merge work runs through
        :func:`repro.parallel.run_windows` in the regime ``workers``
        picks.
        """
        # Imported lazily: repro.parallel imports this module.
        from repro.parallel import ParallelExecutor, run_windows

        if self._executor is None and self.workers is not None:
            self._executor = ParallelExecutor(
                self.workers, self.parallel_backend
            )
        telemetry = Telemetry.for_run(self.telemetry, self.ledger)
        windows = partition_windows(
            world.n_frames, self.window_length, l_max=self.l_max
        )
        windowed = WindowedTracks.assign(tracks, windows)
        window_pairs = [
            build_track_pairs(
                windowed.tracks_of(c), windowed.previous_tracks_of(c)
            )
            for c in range(len(windows))
        ]
        engine = (
            {}
            if self.workers is None
            else dict(workers=self.workers, backend=self.parallel_backend)
        )
        with telemetry.span(
            "ingest",
            method=self.merger.name,
            n_windows=len(windows),
            n_tracks=len(tracks),
            **engine,
        ):
            run = run_windows(
                world=world,
                window_pairs=window_pairs,
                merger=self.merger,
                cost_params=self.cost_params,
                reid_seed=self.reid_seed,
                fault_profile=self.fault_profile,
                resilience=self.resilience,
                executor=self._executor,
                telemetry=self.telemetry,
                ledger=self.ledger,
            )
        telemetry.bind_clock(run.cost)

        selected = self._select_keys(run.window_results)
        merged, id_map = merge_tracks(tracks, selected)
        return IngestionResult(
            world=world,
            detections=detections,
            tracks=tracks,
            windows=windows,
            window_pairs=window_pairs,
            window_results=run.window_results,
            merged_tracks=merged,
            id_map=id_map,
            cost=run.cost,
            resilience_stats=run.resilience_stats,
            window_metrics=run.window_metrics,
        )

    def _select_keys(self, window_results: list[MergeResult]) -> list:
        """Candidate keys to auto-merge, honoring the score threshold."""
        selected = []
        for result in window_results:
            for key in result.candidate_keys:
                if (
                    self.merge_score_threshold is not None
                    and result.scores.get(key, 0.0)
                    >= self.merge_score_threshold
                ):
                    continue
                selected.append(key)
        return selected
