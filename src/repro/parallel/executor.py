"""The one window runner: every window loop of a batch run lives here.

:func:`run_windows` turns "world + window pairs + merger" into window
results for :class:`~repro.core.pipeline.IngestionPipeline` and
:func:`~repro.experiments.sweeps.evaluate_merger`; the streaming service
builds its pool tasks with the same :func:`build_shard_tasks`.  Each
window runs through :func:`_merge_window`, which owns the ``window``
span, the ``window.merge_ms`` histogram and the top-K budget contract.
There are two determinism regimes:

Shared-runtime regime (``n_workers=None``)
------------------------------------------
One :func:`~repro.core.pipeline.build_window_runtime` per video threads
one ReID RNG stream, one feature cache, one clock and one breaker
through the windows in index order.  State carried between windows
cannot be split across workers, so this regime is serial only.

Window-local regime (integer ``n_workers``)
-------------------------------------------
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
(``tests/test_parallel_equivalence.py``) asserts bit-for-bit.  Busy
windows are dealt round-robin to ``n_workers`` shards; with
``n_workers=1`` the shard runs inline in-process (no pool), and higher
worker counts must reproduce that run exactly.

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
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import contracts
from repro.core.pairs import TrackPair
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
from repro.reid import CostModel, CostParams, ReidScorer
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
    """One window's work order, picklable for process pools.

    Attributes:
        index: the window index ``c``.
        pairs: the window's candidate pair set ``P_c`` (non-empty).
        seeds: the window's seed substreams.
    """

    index: int
    pairs: list[TrackPair]
    seeds: WindowSeeds


@dataclass
class ShardTask:
    """Everything one shard needs, shipped to its worker once.

    Attributes:
        shard_id: the shard's id.
        world: the simulated ground truth backing the ReID model.
        merger: the merger prototype; each window runs a private deep
            copy.
        cost_params: simulated cost constants.
        items: the shard's window tasks, ascending by index.
        fault_profile: optional chaos configuration.
        resilience: optional resilience tuning.
        with_ledger: whether windows record worker-local decision
            ledgers (absorbed home in window-index order).
    """

    shard_id: int
    world: VideoGroundTruth
    merger: Merger
    cost_params: CostParams | None
    items: list[WindowTask]
    fault_profile: FaultProfile | None = None
    resilience: ResilienceConfig | None = None
    with_ledger: bool = False


def build_shard_tasks(
    shards: list[tuple[int, list[tuple[int, list[TrackPair]]]]],
    *,
    world: VideoGroundTruth,
    merger: Merger,
    cost_params: CostParams | None,
    reid_seed: int,
    fault_profile: FaultProfile | None,
    resilience: ResilienceConfig | None,
    with_ledger: bool,
) -> list[ShardTask]:
    """One :class:`ShardTask` per ``(shard_id, [(index, pairs), ...])``.

    Window seeds come from :func:`single_window_seeds` and resilience
    from :func:`effective_resilience`, so a batch shard and a streaming
    shard holding the same window run it identically.
    """
    resilience = effective_resilience(resilience, fault_profile)
    return [
        ShardTask(
            shard_id=shard_id,
            world=world,
            merger=merger,
            cost_params=cost_params,
            items=[
                WindowTask(
                    index=index,
                    pairs=pairs,
                    seeds=single_window_seeds(reid_seed, index, fault_profile),
                )
                for index, pairs in windows
            ],
            fault_profile=fault_profile,
            resilience=resilience,
            with_ledger=with_ledger,
        )
        for shard_id, windows in shards
    ]


@dataclass
class WindowOutcome:
    """One window's results plus its observability payload.

    Attributes:
        index: the window index.
        result: the merge result.
        cost_state: the window clock's
            :meth:`~repro.reid.cost.CostModel.state_dict`.
        telemetry: the window Telemetry's
            :meth:`~repro.telemetry.Telemetry.export` payload (counters,
            histograms, spans, profiler stats and decision events).
        resilience_stats: the window scorer's resilience counters.
    """

    index: int
    result: MergeResult
    cost_state: dict[str, float]
    telemetry: dict
    resilience_stats: dict[str, float] = field(default_factory=dict)

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
    """Merge one window inside its ``window`` span, in either regime."""
    with telemetry.span("window", window_id=index, n_pairs=len(pairs)):
        if pairs:
            result = run_resilient_window(
                merger, index, pairs, scorer, cost, resilience, crasher
            )
            if contracts.ENABLED:
                contracts.check_top_k_budget(
                    len(result.candidates), len(pairs), where="run_windows"
                )
        else:
            result = empty_merge_result(merger)
    telemetry.observe("window.merge_ms", result.simulated_seconds * 1000.0)
    return result


def _run_window_task(shard: ShardTask, item: WindowTask) -> WindowOutcome:
    """Build the window-local execution state and run one window."""
    # A fresh per-window ledger: events are stamped with the window index
    # here and absorbed home in window-index order, so the merged log is
    # worker-count independent (like Tracer.absorb).
    telemetry = Telemetry(
        ledger=DecisionLedger() if shard.with_ledger else None
    )
    telemetry.begin_window(item.index)
    seeds = item.seeds
    cost, scorer, crasher = build_window_runtime(
        shard.world,
        seeds.model,
        shard.cost_params,
        shard.fault_profile,
        shard.resilience,
        telemetry,
        call_rng=_rng(seeds.call),
        corruption_rng=_rng(seeds.corrupt),
        crash_rng=_rng(seeds.crash),
    )
    result = _merge_window(
        copy.deepcopy(shard.merger),
        item.index,
        item.pairs,
        scorer,
        cost,
        shard.resilience,
        crasher,
        telemetry,
    )
    return WindowOutcome(
        index=item.index,
        result=result,
        cost_state=cost.state_dict(),
        telemetry=telemetry.export(),
        resilience_stats=_scorer_stats(scorer),
    )


def execute_shard(task: ShardTask) -> list[WindowOutcome]:
    """Run every window of one shard serially (module-level: picklable)."""
    return [_run_window_task(task, item) for item in task.items]


class ParallelExecutor:
    """Runs shard tasks over a process/thread pool, or inline for one.

    Args:
        n_workers: worker count; ``1`` executes every shard inline in
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

    def _pool(self, n_tasks: int) -> Executor:
        workers = min(self.n_workers, n_tasks)
        if self.backend == "process":
            return ProcessPoolExecutor(max_workers=workers)
        return ThreadPoolExecutor(max_workers=workers)

    def run(self, tasks: list[ShardTask]) -> list[WindowOutcome]:
        """Execute all shard tasks; outcomes return in window-index order.

        The ordered-collection stage sorts by window index, so callers
        see the same sequence whatever the completion order was.
        """
        if self.n_workers == 1 or len(tasks) <= 1:
            outcomes = [
                outcome for task in tasks for outcome in execute_shard(task)
            ]
        else:
            with self._pool(len(tasks)) as pool:
                outcomes = [
                    outcome
                    for shard_outcomes in pool.map(execute_shard, tasks)
                    for outcome in shard_outcomes
                ]
        return sorted(outcomes, key=lambda outcome: outcome.index)


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
    n_workers: int | None = 1,
    backend: str = "process",
    telemetry: Telemetry | None = None,
    ledger: DecisionLedger | None = None,
) -> WindowRun:
    """Run every window of one video, in the regime ``n_workers`` picks.

    The one window loop behind
    :class:`~repro.core.pipeline.IngestionPipeline` and
    :func:`~repro.experiments.sweeps.evaluate_merger` (their
    ``workers=`` argument is ``n_workers``).  See the module docstring
    for the two determinism regimes.

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
        n_workers: ``None`` for the shared-runtime regime; an integer
            for the window-local regime with that many workers (``1`` =
            inline, no pool).
        backend: ``"process"`` or ``"thread"`` pool (window-local
            regime only).
        telemetry: optional run-level telemetry.  Every window records a
            ``window`` span and a ``window.merge_ms`` sample into it
            (window-local telemetry is absorbed in window-index order,
            plus one ``parallel.shard`` span per shard), and
            :attr:`WindowRun.window_metrics` is reported.
        ledger: optional run-level decision ledger, riding on the run's
            Telemetry.  Window-local ledgers are absorbed into it in
            window-index order (sequence numbers re-assigned, window
            stamps kept — exactly like ``Tracer.absorb``), so the merged
            log is worker-count independent.
    """
    resilience = effective_resilience(resilience, fault_profile)
    run_telemetry = Telemetry.for_run(telemetry, ledger)
    if n_workers is None:
        return _run_shared(
            world, window_pairs, merger, cost_params, reid_seed,
            fault_profile, resilience, run_telemetry,
            observed=telemetry is not None,
        )

    busy = [index for index, pairs in enumerate(window_pairs) if pairs]
    tasks = build_shard_tasks(
        [
            (i, [(c, window_pairs[c]) for c in busy[i::n_workers]])
            for i in range(min(n_workers, len(busy)))
        ],
        world=world,
        merger=merger,
        cost_params=cost_params,
        reid_seed=reid_seed,
        fault_profile=fault_profile,
        resilience=resilience,
        with_ledger=run_telemetry.ledger is not None,
    )
    outcomes = ParallelExecutor(n_workers, backend).run(tasks)
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
    for task in tasks:
        with run_telemetry.span(
            "parallel.shard",
            shard_id=task.shard_id,
            n_windows=len(task.items),
            window_ids=[item.index for item in task.items],
            backend=backend,
            n_workers=n_workers,
        ):
            pass
    return WindowRun(
        window_results=window_results,
        cost=cost,
        window_metrics=window_metrics if telemetry is not None else [],
        resilience_stats=stats_total,
    )
