"""The window-sharded parallel execution engine.

Fans the per-window merge work (:func:`repro.core.pipeline.run_resilient_window`
plus merge ranking) out over a :mod:`concurrent.futures` process or
thread pool and reassembles the outcomes in window-index order.

Determinism model — the *window-local regime*
---------------------------------------------
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
(``tests/test_parallel_equivalence.py``) asserts bit-for-bit.  With
``n_workers=1`` the same per-window tasks run inline in-process (no
pool), straight through the pre-existing ``run_resilient_window`` code
path; higher worker counts must reproduce that run exactly.

Note this regime intentionally differs from the *legacy* serial path
(``IngestionPipeline(workers=None)``), which threads one ReID RNG
stream, one feature cache, one clock and one breaker through all windows
in order — state that cannot be split across workers without changing
results.  See DESIGN.md §9 for the full argument.

Every window records into its own Telemetry (carrying a fresh decision
ledger when the run records decisions) and ships it home as one
:meth:`~repro.telemetry.Telemetry.export` payload.  Aggregation happens
in window-index order regardless of completion order, through
:meth:`WindowOutcome.fold_into` (shared with the streaming service):
window clocks fold into the run clock via
:meth:`~repro.reid.cost.CostModel.merge_state` and window telemetry into
the run's via :meth:`~repro.telemetry.Telemetry.absorb`, so even the
floating-point accumulation order is worker-count independent.
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
from repro.faults.profiles import FaultProfile
from repro.parallel.planner import ShardPlan, ShardPlanner, window_seeds
from repro.provenance import DecisionLedger
from repro.reid import CostModel, CostParams
from repro.resilience import ResilienceConfig, ResilientReidScorer
from repro.synth.world import VideoGroundTruth
from repro.telemetry import Telemetry

#: Supported pool backends.
BACKENDS = ("process", "thread")


@dataclass
class WindowTask:
    """One window's work order, picklable for process pools.

    Attributes:
        index: the window index ``c``.
        pairs: the window's candidate pair set ``P_c`` (non-empty).
        seeds: the window's seed substreams (see
            :class:`~repro.parallel.planner.WindowSeeds`).
    """

    index: int
    pairs: list[TrackPair]
    seeds: object


@dataclass
class ShardTask:
    """Everything one shard needs, shipped to its worker once.

    Attributes:
        shard_id: the shard's id in the plan.
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
        worker-count independent (DESIGN.md §9).
        """
        cost.merge_state(self.cost_state)
        for name, value in self.resilience_stats.items():
            resilience_stats[name] = resilience_stats.get(name, 0.0) + value
        telemetry.absorb(self.telemetry)


def _rng(seed: np.random.SeedSequence | None) -> np.random.Generator | None:
    """A generator on a window's seam substream (``None`` without one)."""
    return None if seed is None else np.random.default_rng(seed)


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
    merger = copy.deepcopy(shard.merger)
    with telemetry.span(
        "window", window_id=item.index, n_pairs=len(item.pairs)
    ):
        result = run_resilient_window(
            merger,
            item.index,
            item.pairs,
            scorer,
            cost,
            shard.resilience,
            crasher,
        )
        if contracts.ENABLED:
            contracts.check_top_k_budget(
                len(result.candidates),
                len(item.pairs),
                where="ParallelExecutor",
            )
    telemetry.observe("window.merge_ms", result.simulated_seconds * 1000.0)
    return WindowOutcome(
        index=item.index,
        result=result,
        cost_state=cost.state_dict(),
        telemetry=telemetry.export(),
        resilience_stats=(
            scorer.stats() if isinstance(scorer, ResilientReidScorer) else {}
        ),
    )


def execute_shard(task: ShardTask) -> list[WindowOutcome]:
    """Run every window of one shard serially (module-level: picklable)."""
    return [_run_window_task(task, item) for item in task.items]


class ParallelExecutor:
    """Runs shard tasks over a process/thread pool, or inline for one.

    Args:
        n_workers: worker count; ``1`` executes every shard inline in
            the calling process (no pool — the serial fallback path).
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
class ParallelRun:
    """The engine's aggregated output for one video.

    Attributes:
        window_results: one merge result per window, in index order
            (empty windows carry synthesized empty results).
        cost: the run-level clock — every window clock folded in, in
            index order.
        window_metrics: per-window counter deltas (empty list when the
            run is unobserved, ``{}`` entries for empty windows).
        resilience_stats: per-window resilience counters summed in
            index order (empty when resilience is off).
        plan: the shard plan that produced the run.
    """

    window_results: list[MergeResult]
    cost: CostModel
    window_metrics: list[dict[str, float]]
    resilience_stats: dict[str, float]
    plan: ShardPlan


def run_windows(
    *,
    world: VideoGroundTruth,
    window_pairs: list[list[TrackPair]],
    merger: Merger,
    cost_params: CostParams | None = None,
    reid_seed: int = 1,
    fault_profile: FaultProfile | None = None,
    resilience: ResilienceConfig | None = None,
    n_workers: int = 1,
    backend: str = "process",
    telemetry: Telemetry | None = None,
    ledger: DecisionLedger | None = None,
) -> ParallelRun:
    """Run every window of one video through the sharded engine.

    This is the mid-level API shared by
    :class:`~repro.core.pipeline.IngestionPipeline` (``workers=`` path)
    and :func:`~repro.experiments.sweeps.evaluate_merger`
    (``workers=`` argument).  Results are bit-identical for every
    ``n_workers`` and backend; see the module docstring for the
    determinism argument.

    Args:
        world: the simulated ground truth.
        window_pairs: ``P_c`` per window, index-aligned.
        merger: the algorithm under test (cloned per window; never
            mutated here).
        cost_params: simulated cost constants.
        reid_seed: root seed of the ReID extraction noise.
        fault_profile: optional chaos configuration.
        resilience: optional resilience tuning (callers decide the
            auto-on default, exactly as the legacy serial path does).
        n_workers: worker count (``1`` = inline serial execution).
        backend: ``"process"`` or ``"thread"``.
        telemetry: optional run-level telemetry; window telemetry
            (counters, histograms, spans, profiler stats) is absorbed
            into it in window-index order, plus one ``parallel.shard``
            span per shard, and :attr:`ParallelRun.window_metrics` is
            reported.
        ledger: optional run-level decision ledger, riding on the run's
            Telemetry; per-window worker ledgers are absorbed into it in
            window-index order (sequence numbers re-assigned, window
            stamps kept — exactly like ``Tracer.absorb``), so the merged
            log is worker-count independent.
    """
    n_windows = len(window_pairs)
    busy = [index for index, pairs in enumerate(window_pairs) if pairs]
    plan = ShardPlanner(n_workers).plan(busy)
    seeds = window_seeds(reid_seed, n_windows, fault_profile)
    run_telemetry = Telemetry.for_run(telemetry, ledger)
    tasks = [
        ShardTask(
            shard_id=shard.shard_id,
            world=world,
            merger=merger,
            cost_params=cost_params,
            items=[
                WindowTask(index=c, pairs=window_pairs[c], seeds=seeds[c])
                for c in shard.window_indices
            ],
            fault_profile=fault_profile,
            resilience=resilience,
            with_ledger=run_telemetry.ledger is not None,
        )
        for shard in plan.shards
    ]
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
    for c in range(n_windows):
        outcome = by_index.get(c)
        if outcome is None:
            window_results.append(empty_merge_result(merger))
            window_metrics.append({})
            continue
        window_results.append(outcome.result)
        outcome.fold_into(cost, stats_total, run_telemetry)
        window_metrics.append(dict(outcome.telemetry["counters"]))
    for shard in plan.shards:
        with run_telemetry.span(
            "parallel.shard",
            shard_id=shard.shard_id,
            n_windows=len(shard.window_indices),
            window_ids=list(shard.window_indices),
            backend=backend,
            n_workers=n_workers,
        ):
            pass
    return ParallelRun(
        window_results=window_results,
        cost=cost,
        window_metrics=window_metrics if telemetry is not None else [],
        resilience_stats=stats_total,
        plan=plan,
    )
