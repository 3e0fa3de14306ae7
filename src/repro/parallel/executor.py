"""The one window runner: every window loop of a batch run lives here.

:func:`run_windows` turns "world + window pairs + merger" into window
results for :class:`~repro.core.pipeline.IngestionPipeline` and
:func:`~repro.experiments.sweeps.evaluate_merger`; the streaming service
builds its pool tasks with the same :func:`build_window_tasks`.  Each
window runs through :func:`_merge_window`, which owns the ``window``
span, the ``window.merge_ms`` histogram and the top-K budget contract.
There are two determinism regimes:

Shared-runtime regime (no executor)
-----------------------------------
One :func:`~repro.core.pipeline.build_window_runtime` per video threads
one ReID RNG stream, one feature cache, one clock and one breaker
through the windows in index order.  State carried between windows
cannot be split across workers, so this regime is serial only.

Window-local regime (a :class:`ParallelExecutor`)
-------------------------------------------------
Every window runs against its own, freshly built execution state:

* a :class:`~repro.reid.model.SimReIDModel` seeded from the window's
  :class:`~numpy.random.SeedSequence` substream,
* a fresh :class:`~repro.reid.scorer.FeatureCache` and window-local
  :class:`~repro.reid.cost.CostModel` clock (starting at 0),
* fresh fault injectors on the window's seam substreams, and a fresh
  :class:`~repro.resilience.ResilientReidScorer` / circuit breaker,
* a private deep copy of the merger (its own checkpoint store).

A window's result is therefore a pure function of
``(seed, window index)`` — independent of worker count, backend and
scheduling order — which is what the differential test layer
(``tests/test_parallel_equivalence.py``) asserts bit-for-bit.  Every
busy window is one :class:`WindowTask`; an executor with one worker
runs the tasks inline in-process (no pool), and higher worker counts
must reproduce that run exactly.  On a pool the tasks go out longest
first, one per call, so a free worker takes the next-longest window.
What crosses the seam is slim both ways: a task carries its pairs, seeds
and the :meth:`~repro.reid.model.SimReIDModel.world_view` of the world
(its config and objects, not its frames), and an outcome carries
candidate keys, which :meth:`WindowOutcome.bind` points back at the
caller's own pairs.  A :class:`ParallelExecutor` owns one pool for its
life, so a pipeline pays for forking workers once, not once per video.

Every window records into its own Telemetry (carrying a fresh decision
ledger when the run records decisions) and ships it home as one
:meth:`~repro.telemetry.Telemetry.export` payload.  Aggregation happens
in window-index order regardless of completion order, through
:meth:`WindowOutcome.fold_into` (shared with the streaming service):
window clocks fold into the run clock via
:meth:`~repro.reid.cost.CostModel.merge_state` and window telemetry into
the run's via :meth:`~repro.telemetry.Telemetry.absorb`, so even the
floating-point accumulation order is worker-count independent.  The two
regimes are not bit-identical to each other; DESIGN.md §8 has the
argument.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import weakref
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field

import numpy as np

from repro import contracts
from repro.core.pairs import PairKey, TrackPair
from repro.core.pipeline import (
    Merger,
    build_window_runtime,
    empty_merge_result,
    run_resilient_window,
)
from repro.core.results import MergeResult
from repro.faults.injectors import WindowCrashInjector
from repro.faults.profiles import FaultProfile
from repro.provenance import DecisionLedger
from repro.reid import CostModel, CostParams, ReidScorer, SimReIDModel
from repro.resilience import ResilienceConfig, ResilientReidScorer
from repro.synth.world import VideoGroundTruth
from repro.telemetry import MetricsRegistry, Telemetry

#: Supported pool backends.
BACKENDS = ("process", "thread")


def effective_resilience(
    resilience: ResilienceConfig | None,
    fault_profile: FaultProfile | None,
) -> ResilienceConfig | None:
    """``resilience``, or the default config when a fault profile is set.

    The one auto-on rule: a run under chaos survives it with default
    tuning unless the caller tuned it; a fault-free run stays bare.
    """
    if resilience is None and fault_profile is not None:
        return ResilienceConfig()
    return resilience


@dataclass(frozen=True)
class WindowSeeds:
    """Per-window seed substreams, one per randomness seam.

    Attributes:
        model: substream of the ReID extraction noise.
        call: substream of the ReID call-fault schedule (``None`` when
            the run has no fault profile).
        corrupt: substream of the feature-corruption schedule.
        crash: substream of the window-crash schedule.
    """

    model: np.random.SeedSequence
    call: np.random.SeedSequence | None = None
    corrupt: np.random.SeedSequence | None = None
    crash: np.random.SeedSequence | None = None


def single_window_seeds(
    reid_seed: int,
    index: int,
    fault_profile: FaultProfile | None = None,
) -> WindowSeeds:
    """Window ``index``'s seed substreams, addressed by spawn key.

    The model stream is the ``index``-th child of
    ``SeedSequence(reid_seed)`` and the fault streams are the
    ``index``-th children of the profile's per-seam roots (see
    :meth:`~repro.faults.profiles.FaultProfile.window_seam_seed`), so a
    window's entire randomness is fixed by ``(seed, index)`` alone — no
    window count needed, which the streaming service's unbounded feed
    relies on.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    model = np.random.SeedSequence(reid_seed, spawn_key=(index,))
    if fault_profile is None:
        return WindowSeeds(model=model)
    call, corrupt, crash = fault_profile.window_seam_seed(index)
    return WindowSeeds(model=model, call=call, corrupt=corrupt, crash=crash)


@dataclass
class WindowTask:
    """One busy window's work order, pickled whole to a pool worker.

    A task carries only what its window reads: the pairs, the seeds and
    the video's config and objects without its per-frame states, so the
    pool seam moves windows, not videos.

    Attributes:
        index: the window index ``c``.
        pairs: the window's candidate pair set ``P_c`` (non-empty).
        seeds: the window's seed substreams.
        world: the part of the ground truth the ReID model reads
            (:meth:`~repro.reid.model.SimReIDModel.world_view`).
        merger: the merger prototype; the window runs a private deep
            copy.
        cost_params: simulated cost constants.
        fault_profile: optional chaos configuration.
        resilience: optional resilience tuning.
        with_ledger: whether the window records a worker-local decision
            ledger (absorbed home in window-index order).
    """

    index: int
    pairs: list[TrackPair]
    seeds: WindowSeeds
    world: VideoGroundTruth
    merger: Merger
    cost_params: CostParams | None
    fault_profile: FaultProfile | None = None
    resilience: ResilienceConfig | None = None
    with_ledger: bool = False


def build_window_tasks(
    windows: list[tuple[int, list[TrackPair]]],
    *,
    world: VideoGroundTruth,
    merger: Merger,
    cost_params: CostParams | None,
    reid_seed: int,
    fault_profile: FaultProfile | None,
    resilience: ResilienceConfig | None,
    with_ledger: bool,
) -> list[WindowTask]:
    """One :class:`WindowTask` per ``(index, pairs)``.

    Window seeds come from :func:`single_window_seeds` and resilience
    from :func:`effective_resilience`, so a batch run and the streaming
    service holding the same window run it identically.
    """
    resilience = effective_resilience(resilience, fault_profile)
    world = SimReIDModel.world_view(world)
    return [
        WindowTask(
            index=index,
            pairs=pairs,
            seeds=single_window_seeds(reid_seed, index, fault_profile),
            world=world,
            merger=merger,
            cost_params=cost_params,
            fault_profile=fault_profile,
            resilience=resilience,
            with_ledger=with_ledger,
        )
        for index, pairs in windows
    ]


def longest_first(tasks: list[WindowTask]) -> list[WindowTask]:
    """``tasks`` by descending ``|P_c|``, ties by window index.

    Sent in this order, a free worker always takes the longest window
    left, so no worker is handed a second long window while another idles.
    """
    return sorted(tasks, key=lambda task: (-len(task.pairs), task.index))


@dataclass
class WindowOutcome:
    """One window's results plus its observability payload.

    Outcomes cross the pool seam by key: :func:`execute_shard` ships the
    result with its candidates as :attr:`candidate_keys`, and
    :meth:`bind` points them back at the caller's own pairs, so no
    ``Track`` travels home.

    Attributes:
        index: the window index.
        result: the merge result (no candidates until :meth:`bind`).
        candidate_keys: the candidates' pair keys, best first.
        cost_state: the window clock's
            :meth:`~repro.reid.cost.CostModel.state_dict`.
        telemetry: the window Telemetry's
            :meth:`~repro.telemetry.Telemetry.export` payload (counters,
            histograms, spans with their wall times and decision events).
        resilience_stats: the window scorer's resilience counters.
    """

    index: int
    result: MergeResult
    candidate_keys: list[PairKey]
    cost_state: dict[str, float]
    telemetry: dict
    resilience_stats: dict[str, float] = field(default_factory=dict)

    def bind(self, pairs: list[TrackPair]) -> None:
        """Set the result's candidates to the members of ``pairs`` (the
        window's ``P_c``) named by :attr:`candidate_keys`, in order."""
        by_key = {pair.key: pair for pair in pairs}
        self.result.candidates = [by_key[key] for key in self.candidate_keys]

    def fold_into(
        self,
        cost: CostModel,
        resilience_stats: dict[str, float],
        telemetry: Telemetry,
    ) -> None:
        """Fold this window's clock, resilience counters and telemetry
        into the run-level ones.

        Callers fold outcomes in window-index order: that order fixes the
        floating-point accumulation order, so the run-level totals are
        worker-count independent (DESIGN.md §8).
        """
        cost.merge_state(self.cost_state)
        for name, value in self.resilience_stats.items():
            resilience_stats[name] = resilience_stats.get(name, 0.0) + value
        telemetry.absorb(self.telemetry)


def _rng(seed: np.random.SeedSequence | None) -> np.random.Generator | None:
    """A generator on a window's seam substream (``None`` without one)."""
    return None if seed is None else np.random.default_rng(seed)


def _scorer_stats(scorer: ReidScorer | ResilientReidScorer) -> dict[str, float]:
    """The scorer's resilience counters (``{}`` for a bare scorer)."""
    return scorer.stats() if isinstance(scorer, ResilientReidScorer) else {}


def _merge_window(
    merger: Merger,
    index: int,
    pairs: list[TrackPair],
    scorer: ReidScorer | ResilientReidScorer,
    cost: CostModel,
    resilience: ResilienceConfig | None,
    crasher: WindowCrashInjector | None,
    telemetry: Telemetry,
) -> MergeResult:
    """Merge one window inside its ``window`` span, in either regime.

    The merger draws on copies of ``pairs`` carrying their sampled sets,
    as a pickled task does, and the candidates are bound back to
    ``pairs`` by key: the caller's pairs end the run as they started,
    whatever the regime or worker count.
    """
    with telemetry.span("window", window_id=index, n_pairs=len(pairs)):
        if pairs:
            result = run_resilient_window(
                merger,
                index,
                [pair.copy() for pair in pairs],
                scorer,
                cost,
                resilience,
                crasher,
            )
            by_key = {pair.key: pair for pair in pairs}
            result.candidates = [
                by_key[pair.key] for pair in result.candidates
            ]
            if contracts.ENABLED:
                contracts.check_top_k_budget(
                    len(result.candidates), len(pairs), where="run_windows"
                )
        else:
            result = empty_merge_result(merger)
    telemetry.observe("window.merge_ms", result.simulated_seconds * 1000.0)
    return result


def execute_shard(task: WindowTask) -> WindowOutcome:
    """Build the window-local execution state and run one window task.

    The pool's unit of work (module-level, so picklable).
    """
    # A fresh per-window ledger: events are stamped with the window index
    # here and absorbed home in window-index order, so the merged log is
    # worker-count independent (like Tracer.absorb).
    telemetry = Telemetry(
        ledger=DecisionLedger() if task.with_ledger else None
    )
    telemetry.begin_window(task.index)
    seeds = task.seeds
    cost, scorer, crasher = build_window_runtime(
        task.world,
        seeds.model,
        task.cost_params,
        task.fault_profile,
        task.resilience,
        telemetry,
        call_rng=_rng(seeds.call),
        corruption_rng=_rng(seeds.corrupt),
        crash_rng=_rng(seeds.crash),
    )
    result = _merge_window(
        copy.deepcopy(task.merger),
        task.index,
        task.pairs,
        scorer,
        cost,
        task.resilience,
        crasher,
        telemetry,
    )
    return WindowOutcome(
        index=task.index,
        result=dataclasses.replace(result, candidates=[]),
        candidate_keys=[pair.key for pair in result.candidates],
        cost_state=cost.state_dict(),
        telemetry=telemetry.export(),
        resilience_stats=_scorer_stats(scorer),
    )


def _shutdown_pool(pool: Executor, owner_pid: int) -> None:
    """Shut ``pool`` down and join its workers.

    Only the process that built the pool may: a forked worker inherits
    this finalizer along with its parent's memory.
    """
    if os.getpid() == owner_pid:
        pool.shutdown(wait=True)


class ParallelExecutor:
    """Runs window tasks inline, or over one pool it owns for its life.

    The pool is built by the first :meth:`run` that needs one (two or
    more workers and tasks) and serves every later run until
    :meth:`close`.  It has one worker per task of the run that built it,
    up to ``n_workers``, since a forked pool starts all its workers at
    once; a later run with more tasks than that replaces it with a
    larger one.  Use the executor as a context manager, or call
    :meth:`close`; an executor that is collected unclosed shuts its pool
    down and joins the workers through a finalizer.  A copy or a pickle
    of an executor starts without a pool: a pool belongs to the object
    that built it.

    Args:
        n_workers: worker count; ``1`` executes every task inline in
            the calling process (no pool).
        backend: ``"process"`` (real CPU parallelism; tasks are pickled)
            or ``"thread"`` (shared memory, GIL-bound — useful for
            debugging and picklability-free runs).
    """

    def __init__(self, n_workers: int = 1, backend: str = "process") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        self.n_workers = n_workers
        self.backend = backend
        self._pool: Executor | None = None
        self._pool_workers = 0
        self._finalizer: weakref.finalize | None = None

    def __getstate__(self) -> dict:
        return {
            **self.__dict__,
            "_pool": None,
            "_pool_workers": 0,
            "_finalizer": None,
        }

    def _ensure_pool(self, n_tasks: int) -> Executor:
        size = min(self.n_workers, n_tasks)
        if self._pool is not None and self._pool_workers < size:
            self.close()
        if self._pool is None:
            kind = (
                ProcessPoolExecutor
                if self.backend == "process"
                else ThreadPoolExecutor
            )
            self._pool = kind(max_workers=size)
            self._pool_workers = size
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool, os.getpid()
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down and join its workers (idempotent).

        A later :meth:`run` builds a new pool.
        """
        if self._finalizer is not None:
            self._finalizer()
        self._pool = None
        self._pool_workers = 0
        self._finalizer = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, tasks: list[WindowTask]) -> list[WindowOutcome]:
        """Execute every task; outcomes return bound to the tasks' pairs,
        in dispatch order.

        Tasks are sent :func:`longest_first`, one per pool call, so a free
        worker takes the next-longest window.  Outcomes come back in that
        order whatever the completion order was; callers that fold them
        do so by window index.
        """
        ordered = longest_first(tasks)
        if self.n_workers == 1 or len(ordered) <= 1:
            outcomes = [execute_shard(task) for task in ordered]
        else:
            pool = self._ensure_pool(len(ordered))
            try:
                outcomes = list(pool.map(execute_shard, ordered))
            except BrokenExecutor:
                # A dead worker breaks the whole pool: drop it, so the
                # next run starts a fresh one.
                self.close()
                raise
        for task, outcome in zip(ordered, outcomes):
            outcome.bind(task.pairs)
        return outcomes


@dataclass
class WindowRun:
    """The runner's aggregated output for one video, in either regime.

    Attributes:
        window_results: one merge result per window, in index order
            (empty windows carry synthesized empty results).
        cost: the run-level clock (the shared clock, or every window
            clock folded in, in index order).
        window_metrics: per-window counter deltas (empty list when the
            run is unobserved, ``{}`` entries for windows the
            window-local regime skips as empty).
        resilience_stats: resilience counters (empty when resilience is
            off).
    """

    window_results: list[MergeResult]
    cost: CostModel
    window_metrics: list[dict[str, float]]
    resilience_stats: dict[str, float]


def _run_shared(
    world: VideoGroundTruth,
    window_pairs: list[list[TrackPair]],
    merger: Merger,
    cost_params: CostParams | None,
    reid_seed: int,
    fault_profile: FaultProfile | None,
    resilience: ResilienceConfig | None,
    telemetry: Telemetry,
    observed: bool,
) -> WindowRun:
    """The shared-runtime regime: one runtime threaded through the windows."""
    cost, scorer, crasher = build_window_runtime(
        world, reid_seed, cost_params, fault_profile, resilience, telemetry
    )
    window_results: list[MergeResult] = []
    window_metrics: list[dict[str, float]] = []
    for c, pairs in enumerate(window_pairs):
        before = telemetry.metrics.counters_snapshot() if observed else {}
        telemetry.begin_window(c)
        window_results.append(
            _merge_window(
                merger, c, pairs, scorer, cost, resilience, crasher, telemetry
            )
        )
        if observed:
            window_metrics.append(
                MetricsRegistry.delta(
                    telemetry.metrics.counters_snapshot(), before
                )
            )
    return WindowRun(
        window_results=window_results,
        cost=cost,
        window_metrics=window_metrics,
        resilience_stats=_scorer_stats(scorer),
    )


def run_windows(
    *,
    world: VideoGroundTruth,
    window_pairs: list[list[TrackPair]],
    merger: Merger,
    cost_params: CostParams | None = None,
    reid_seed: int = 1,
    fault_profile: FaultProfile | None = None,
    resilience: ResilienceConfig | None = None,
    executor: ParallelExecutor | None = None,
    telemetry: Telemetry | None = None,
    ledger: DecisionLedger | None = None,
) -> WindowRun:
    """Run every window of one video, in the regime ``executor`` picks.

    The one window loop behind
    :class:`~repro.core.pipeline.IngestionPipeline` and
    :func:`~repro.experiments.sweeps.evaluate_merger` (each holds a
    :class:`ParallelExecutor` for its ``workers=`` argument).  See the
    module docstring for the two determinism regimes.

    Args:
        world: the simulated ground truth.
        window_pairs: ``P_c`` per window, index-aligned.
        merger: the algorithm under test; the shared-runtime regime runs
            it in place, the window-local regime on a deep copy per
            window.
        cost_params: simulated cost constants.
        reid_seed: root seed of the ReID extraction noise.
        fault_profile: optional chaos configuration.
        resilience: optional resilience tuning; defaults on under a
            fault profile (:func:`effective_resilience`).
        executor: ``None`` for the shared-runtime regime; an executor
            for the window-local regime on its workers (one worker =
            inline, no pool).  The caller owns it and closes it, so its
            pool can serve many calls.
        telemetry: optional run-level telemetry.  Every window records a
            ``window`` span (with its ``window_id`` and ``n_pairs``) and
            a ``window.merge_ms`` sample into it (window-local telemetry
            is absorbed in window-index order), and
            :attr:`WindowRun.window_metrics` is reported.
        ledger: optional run-level decision ledger, riding on the run's
            Telemetry.  Window-local ledgers are absorbed into it in
            window-index order (sequence numbers re-assigned, window
            stamps kept — exactly like ``Tracer.absorb``), so the merged
            log is worker-count independent.
    """
    resilience = effective_resilience(resilience, fault_profile)
    run_telemetry = Telemetry.for_run(telemetry, ledger)
    if executor is None:
        return _run_shared(
            world, window_pairs, merger, cost_params, reid_seed,
            fault_profile, resilience, run_telemetry,
            observed=telemetry is not None,
        )

    busy = [index for index, pairs in enumerate(window_pairs) if pairs]
    outcomes = executor.run(
        build_window_tasks(
            [(c, window_pairs[c]) for c in busy],
            world=world,
            merger=merger,
            cost_params=cost_params,
            reid_seed=reid_seed,
            fault_profile=fault_profile,
            resilience=resilience,
            with_ledger=run_telemetry.ledger is not None,
        )
    )
    if contracts.ENABLED:
        contracts.check_shard_cover(
            (outcome.index for outcome in outcomes),
            busy,
            where="run_windows",
        )

    by_index = {outcome.index: outcome for outcome in outcomes}
    cost = CostModel(cost_params)
    window_results: list[MergeResult] = []
    window_metrics: list[dict[str, float]] = []
    stats_total: dict[str, float] = {}
    for c in range(len(window_pairs)):
        outcome = by_index.get(c)
        if outcome is None:
            window_results.append(empty_merge_result(merger))
            window_metrics.append({})
            continue
        window_results.append(outcome.result)
        outcome.fold_into(cost, stats_total, run_telemetry)
        window_metrics.append(dict(outcome.telemetry["counters"]))
    return WindowRun(
        window_results=window_results,
        cost=cost,
        window_metrics=window_metrics if telemetry is not None else [],
        resilience_stats=stats_total,
    )
