"""Unit tests for the window-sharded parallel engine's building blocks.

The differential layer (``test_parallel_equivalence.py``) proves the
end-to-end guarantee; this module pins down each component in isolation:
seed-substream derivation, the shard-cover contract, the delta-merge
seams (cost clock, metric counters, trace spans) the aggregation stage
relies on, the pool's lifecycle and what crosses the pool seam.
"""

import copy
import dataclasses
import io
import multiprocessing
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.parallel.executor as executor_module
from repro import contracts
from repro.core.pairs import TrackPair
from repro.core.results import MergeResult
from repro.experiments.bench_summary import (
    BenchSummary,
    compare_summaries,
)
from repro.parallel import (
    ParallelExecutor,
    build_window_tasks,
    execute_shard,
    single_window_seeds,
)
from repro.parallel.executor import longest_first
from repro.reid.cost import CostModel
from repro.track.base import Track
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Span, Tracer


def _spawned(seed, n):
    """The list-spawn derivation ``SeedSequence(seed).spawn(n)`` that
    :func:`single_window_seeds` must reproduce child for child."""
    return np.random.SeedSequence(seed).spawn(n)


class TestWindowSeeds:
    def test_deterministic(self):
        for c in range(4):
            first = single_window_seeds(7, c)
            second = single_window_seeds(7, c)
            assert first.model.entropy == second.model.entropy
            assert first.model.spawn_key == second.model.spawn_key

    def test_windows_independent(self):
        draws = [
            np.random.default_rng(single_window_seeds(7, c).model).random()
            for c in range(4)
        ]
        assert len(set(draws)) == len(draws)

    def test_prefix_stable(self):
        """Window c's substream is child c of the spawned list, whatever
        the list's length."""
        for n in (3, 6):
            for c, child in enumerate(_spawned(7, n)):
                lazy = single_window_seeds(7, c).model
                assert lazy.spawn_key == child.spawn_key
                assert (
                    lazy.generate_state(4).tolist()
                    == child.generate_state(4).tolist()
                )

    def test_no_profile_leaves_fault_seams_unset(self):
        for c in range(2):
            s = single_window_seeds(7, c)
            assert s.call is None and s.corrupt is None and s.crash is None

    def test_profile_fills_fault_seams(self):
        from repro.faults import fault_profile

        profile = fault_profile("flaky-reid", seed=11)
        seeds = [single_window_seeds(7, c, profile) for c in range(3)]
        assert all(
            s.call is not None and s.corrupt is not None
            and s.crash is not None
            for s in seeds
        )
        crash_keys = {s.crash.spawn_key for s in seeds}
        assert len(crash_keys) == 3

    def test_rejects_negative_count(self):
        """A negative window index has no substream."""
        with pytest.raises(ValueError):
            single_window_seeds(7, -1)


class TestShardCoverContract:
    def setup_method(self):
        self._previous = contracts.set_enabled(True)

    def teardown_method(self):
        contracts.set_enabled(self._previous)

    def test_exact_cover_passes(self):
        contracts.check_shard_cover([2, 0, 1], [0, 1, 2])

    def test_duplicate_fails(self):
        with pytest.raises(contracts.ContractViolation, match="more than one"):
            contracts.check_shard_cover([0, 1, 1], [0, 1])

    def test_missing_fails(self):
        with pytest.raises(contracts.ContractViolation, match="missing"):
            contracts.check_shard_cover([0], [0, 1])

    def test_extra_fails(self):
        with pytest.raises(contracts.ContractViolation, match="unexpected"):
            contracts.check_shard_cover([0, 1, 5], [0, 1])

    def test_disabled_is_noop(self):
        contracts.set_enabled(False)
        contracts.check_shard_cover([0, 0], [9])


class TestCostMergeState:
    def test_merge_sums_all_fields(self):
        left = CostModel()
        left.charge_overhead()
        right = CostModel()
        right.charge_overhead()
        right.charge_overhead()
        total = CostModel()
        total.merge_state(left.state_dict())
        total.merge_state(right.state_dict())
        assert total.n_overheads == 3
        assert total.milliseconds == pytest.approx(
            left.milliseconds + right.milliseconds
        )

    def test_merge_empty_state_is_identity(self):
        cost = CostModel()
        cost.charge_overhead()
        before = cost.state_dict()
        cost.merge_state(CostModel().state_dict())
        assert cost.state_dict() == before


class TestMetricsMergeDelta:
    def test_merge_increments_counters(self):
        registry = MetricsRegistry()
        registry.inc("reid.invocations", 2)
        registry.merge_delta({"reid.invocations": 3.0, "cache.hits": 1.0})
        assert registry.value("reid.invocations") == 5.0
        assert registry.value("cache.hits") == 1.0

    def test_zero_amounts_create_nothing(self):
        registry = MetricsRegistry()
        registry.merge_delta({"reid.invocations": 0.0})
        assert "reid.invocations" not in registry.counters_snapshot()


class TestTracerAbsorb:
    def _worker_spans(self):
        worker = Tracer()
        with worker.span("window", window_id=3):
            with worker.span("merge"):
                pass
        return sorted(worker.spans, key=lambda s: s.span_id)

    def test_absorb_remaps_ids_and_parents(self):
        host = Tracer()
        with host.span("ingest"):
            adopted = host.absorb(self._worker_spans())
        window, merge = sorted(adopted, key=lambda s: s.span_id)
        ingest = next(s for s in host.spans if s.name == "ingest")
        assert window.parent_id == ingest.span_id
        assert merge.parent_id == window.span_id
        assert len({s.span_id for s in host.spans}) == len(host.spans)

    def test_absorb_outside_any_span_makes_roots(self):
        host = Tracer()
        adopted = host.absorb(self._worker_spans())
        window = next(s for s in adopted if s.name == "window")
        assert window.parent_id is None

    def test_absorb_keeps_timestamps_and_attributes(self):
        spans = self._worker_spans()
        host = Tracer()
        adopted = host.absorb(spans)
        by_name = {s.name: s for s in adopted}
        for original in spans:
            copy = by_name[original.name]
            assert copy.start_ms == original.start_ms
            assert copy.end_ms == original.end_ms
            assert copy.attributes == original.attributes

    def test_absorb_roundtrips_through_dicts(self):
        payloads = [s.to_dict() for s in self._worker_spans()]
        host = Tracer()
        adopted = host.absorb([Span.from_dict(p) for p in payloads])
        assert [s.name for s in adopted] == ["window", "merge"]


class TestBenchSummaryExtras:
    def _summary(self, extras=None):
        summary = BenchSummary()
        summary.add(
            "fig3_parallel_speedup",
            recall=0.9,
            reid_invocations=100.0,
            simulated_ms=5.0,
            extras=extras,
        )
        return summary

    def test_extras_roundtrip(self):
        extras = {"parallel_speedup": 2.5, "workers": 4.0}
        summary = self._summary(extras)
        rebuilt = BenchSummary.from_dict(summary.to_dict())
        record = rebuilt.benchmarks["fig3_parallel_speedup"]
        assert record["extras"] == extras

    def test_extras_ignored_by_gate(self):
        baseline = self._summary({"parallel_speedup": 4.0})
        current = self._summary({"parallel_speedup": 0.4})
        assert compare_summaries(current, baseline) == []

    def test_no_extras_key_when_omitted(self):
        record = self._summary().benchmarks["fig3_parallel_speedup"]
        assert "extras" not in record


class TestMergeResultExtraWidening:
    def test_accepts_non_numeric_diagnostics(self):
        result = MergeResult(
            method="BL",
            candidates=[],
            scores={},
            n_pairs=0,
            k=0.1,
            simulated_seconds=0.0,
            extra={
                "pruned": 3,
                "fallback": True,
                "label": "spatial-prior",
                "per_round": [1, 2, 3],
            },
        )
        assert result.extra["label"] == "spatial-prior"



# ----------------------------------------------------------------------
# Pool lifecycle and the pool seam
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tracked(chaos_world):
    """Detections and tracks computed once; the merge stage re-runs."""
    from repro.detect import NoisyDetector
    from repro.track import TracktorTracker

    detections = NoisyDetector().detect_video(chaos_world, seed=2)
    return detections, TracktorTracker().run(detections)


class _SpyPool(executor_module.ProcessPoolExecutor):
    """A process pool that counts its instances and keeps what its
    ``map`` sent, and a copy of what it received before the parent
    bound anything (``spy_pool`` gives each test fresh counters)."""

    def __init__(self, *args, **kwargs) -> None:
        type(self).built += 1
        type(self).sizes.append(kwargs["max_workers"])
        super().__init__(*args, **kwargs)

    def map(self, fn, tasks, **kwargs):
        tasks = list(tasks)
        type(self).sent.extend(tasks)
        outcomes = list(super().map(fn, tasks, **kwargs))
        type(self).received.extend(copy.deepcopy(outcomes))
        return iter(outcomes)


@pytest.fixture
def spy_pool(monkeypatch):
    spy = type(
        "SpyPool",
        (_SpyPool,),
        {"built": 0, "sizes": [], "sent": [], "received": []},
    )
    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", spy)
    return spy


def _pickled_types(obj) -> set[type]:
    """Every type pickling ``obj`` writes."""
    seen: set[type] = set()

    class Spy(pickle.Pickler):
        def persistent_id(self, value):
            seen.add(type(value))
            return None

    Spy(io.BytesIO()).dump(obj)
    return seen


class _DyingMerger:
    """A merger whose every run kills the process it runs in."""

    name = "dying"
    k = 0.1

    def run(self, pairs, scorer):
        os._exit(1)


def _reap() -> list:
    """Live ``multiprocessing`` children of this process."""
    return multiprocessing.active_children()


class TestPoolLifecycle:
    def _pipeline(self, make_pipeline, **overrides):
        return make_pipeline(window_length=100, workers=2, **overrides)

    def test_three_runs_build_one_pool(
        self, make_pipeline, chaos_world, spy_pool
    ):
        with self._pipeline(make_pipeline) as pipeline:
            for _ in range(3):
                pipeline.run(chaos_world)
        assert spy_pool.built == 1

    def test_construction_builds_no_pool(self, make_pipeline, spy_pool):
        self._pipeline(make_pipeline)
        assert spy_pool.built == 0

    def test_close_joins_workers(self, make_pipeline, chaos_world, tracked):
        pipeline = self._pipeline(make_pipeline)
        pipeline.run_on_tracks(chaos_world, *tracked)
        assert _reap()
        pipeline.close()
        assert _reap() == []
        pipeline.close()  # idempotent

    def test_with_joins_workers(self, make_pipeline, chaos_world, tracked):
        with self._pipeline(make_pipeline) as pipeline:
            pipeline.run_on_tracks(chaos_world, *tracked)
            assert _reap()
        assert _reap() == []

    def test_dropping_the_pipeline_joins_workers(
        self, make_pipeline, chaos_world, tracked
    ):
        pipeline = self._pipeline(make_pipeline)
        pipeline.run_on_tracks(chaos_world, *tracked)
        assert _reap()
        del pipeline
        assert _reap() == []

    def test_replace_copy_never_shares_the_pool(
        self, make_pipeline, chaos_world, tracked, spy_pool
    ):
        with self._pipeline(make_pipeline) as pipeline:
            first = pipeline.run_on_tracks(chaos_world, *tracked)
            with dataclasses.replace(pipeline, reid_seed=1) as twin:
                twin.run_on_tracks(chaos_world, *tracked)
            assert spy_pool.built == 2
            again = pipeline.run_on_tracks(chaos_world, *tracked)
            assert spy_pool.built == 2
            assert [r.candidate_keys for r in again.window_results] == [
                r.candidate_keys for r in first.window_results
            ]

    def test_copies_and_pickles_start_without_a_pool(
        self, make_pipeline, chaos_world, tracked
    ):
        with self._pipeline(make_pipeline) as pipeline:
            pipeline.run_on_tracks(chaos_world, *tracked)
            assert pipeline._executor._pool is not None
            for twin in (
                copy.deepcopy(pipeline),
                pickle.loads(pickle.dumps(pipeline)),
            ):
                assert twin._executor is not pipeline._executor
                assert twin._executor._pool is None
                assert twin._executor.n_workers == 2
            assert dataclasses.replace(pipeline)._executor is None

    def test_run_after_close_builds_a_fresh_pool(
        self, make_pipeline, chaos_world, tracked, spy_pool
    ):
        with self._pipeline(make_pipeline) as pipeline:
            pipeline.run_on_tracks(chaos_world, *tracked)
            pipeline.close()
            pipeline.run_on_tracks(chaos_world, *tracked)
        assert spy_pool.built == 2
        assert _reap() == []

    def test_broken_pool_is_replaced(
        self, make_pipeline, chaos_world, tracked, spy_pool
    ):
        with self._pipeline(make_pipeline) as pipeline:
            merger = pipeline.merger
            pipeline.merger = _DyingMerger()
            with pytest.raises(BrokenProcessPool):
                pipeline.run_on_tracks(chaos_world, *tracked)
            assert _reap() == []
            pipeline.merger = merger
            pipeline.run_on_tracks(chaos_world, *tracked)
        assert spy_pool.built == 2

    def test_shared_runtime_regime_builds_no_pool(
        self, make_pipeline, chaos_world, tracked, spy_pool
    ):
        # workers=1: test_parallel_equivalence.py's
        # test_workers_one_builds_no_pool.
        with make_pipeline(window_length=100, workers=None) as pipeline:
            pipeline.run_on_tracks(chaos_world, *tracked)
        assert spy_pool.built == 0

    def test_pool_grows_with_the_task_count_up_to_n_workers(
        self, make_pipeline, chaos_world, tracked, spy_pool
    ):
        result = make_pipeline(window_length=60, workers=1).run_on_tracks(
            chaos_world, *tracked
        )
        busy = [(c, p) for c, p in enumerate(result.window_pairs) if p]
        assert len(busy) >= 3
        tasks = build_window_tasks(
            busy,
            world=chaos_world,
            merger=make_pipeline().merger,
            cost_params=None,
            reid_seed=1,
            fault_profile=None,
            resilience=None,
            with_ledger=False,
        )
        with ParallelExecutor(3) as executor:
            for n in (2, 2, 3, 2):
                executor.run(copy.deepcopy(tasks[:n]))
        with ParallelExecutor(2) as capped:
            capped.run(copy.deepcopy(tasks[:3]))
        assert spy_pool.sizes == [2, 3, 2]
        assert _reap() == []

    def test_executor_with_no_tasks_builds_no_pool(self, spy_pool):
        with ParallelExecutor(2) as executor:
            assert executor.run([]) == []
        assert spy_pool.built == 0


class TestPoolSeam:
    def _runs(self, make_pipeline, chaos_world, tracked):
        results = {}
        for workers in (1, 2):
            with make_pipeline(window_length=100, workers=workers) as p:
                results[workers] = p.run_on_tracks(chaos_world, *tracked)
        return results

    def test_candidates_are_the_parents_pairs(
        self, make_pipeline, chaos_world, tracked, spy_pool
    ):
        results = self._runs(make_pipeline, chaos_world, tracked)
        assert spy_pool.built == 1
        pooled = results[2]
        for pairs, result in zip(pooled.window_pairs, pooled.window_results):
            owned = {id(pair) for pair in pairs}
            assert all(id(pair) in owned for pair in result.candidates)
        assert [
            [pair.key for pair in r.candidates]
            for r in pooled.window_results
        ] == [
            [pair.key for pair in r.candidates]
            for r in results[1].window_results
        ]

    def test_tasks_carry_no_frames_and_outcomes_no_tracks(
        self, make_pipeline, chaos_world, tracked, spy_pool
    ):
        self._runs(make_pipeline, chaos_world, tracked)
        assert spy_pool.sent and spy_pool.received
        full = len(pickle.dumps(chaos_world))
        for task in spy_pool.sent:
            assert task.world.frames == []
            assert task.world.objects.keys() == chaos_world.objects.keys()
            assert len(pickle.dumps(task.world)) < full / 4
        for outcome in spy_pool.received:
            shipped = _pickled_types(outcome)
            assert Track not in shipped
            assert TrackPair not in shipped
            assert outcome.result.candidates == []
            assert outcome.candidate_keys

    def test_plan_is_longest_first_and_covers_busy_windows(
        self, make_pipeline, chaos_world, tracked, spy_pool
    ):
        result = self._runs(make_pipeline, chaos_world, tracked)[2]
        sizes = [len(task.pairs) for task in spy_pool.sent]
        assert sizes == sorted(sizes, reverse=True)
        assert sorted(task.index for task in spy_pool.sent) == [
            c for c, pairs in enumerate(result.window_pairs) if pairs
        ]

    def test_world_view_keeps_window_results(
        self, make_pipeline, chaos_world, tracked
    ):
        # Every worker count ships the same view, so the equivalence
        # tests cannot see a model that reads a field the view drops.
        result = make_pipeline(window_length=100, workers=1).run_on_tracks(
            chaos_world, *tracked
        )
        tasks = build_window_tasks(
            [
                (c, pairs)
                for c, pairs in enumerate(result.window_pairs)
                if pairs
            ],
            world=chaos_world,
            merger=make_pipeline().merger,
            cost_params=None,
            reid_seed=1,
            fault_profile=None,
            resilience=None,
            with_ledger=False,
        )
        assert tasks
        for task in tasks:
            assert task.world.frames == []
            # Copies: a window run draws on its pairs' sampling state.
            viewed = execute_shard(copy.deepcopy(task))
            whole = execute_shard(
                dataclasses.replace(copy.deepcopy(task), world=chaos_world)
            )
            assert viewed.candidate_keys == whole.candidate_keys
            assert viewed.cost_state == whole.cost_state

    def test_shard_spans_follow_dispatch_and_name_the_executor(
        self, make_pipeline, chaos_world, tracked
    ):
        """Each window span carries its task's size and the ingest span
        names the executor; no empty per-shard span is recorded."""
        telemetry = Telemetry()
        with make_pipeline(
            window_length=100, workers=2, telemetry=telemetry
        ) as pipeline:
            result = pipeline.run_on_tracks(chaos_world, *tracked)
        windows = [s for s in telemetry.tracer.spans if s.name == "window"]
        assert windows
        for span in windows:
            index = span.attributes["window_id"]
            assert span.attributes["n_pairs"] == len(
                result.window_pairs[index]
            )
        (ingest,) = [s for s in telemetry.tracer.spans if s.name == "ingest"]
        assert ingest.attributes["workers"] == 2
        assert ingest.attributes["backend"] == "process"
        assert not any(
            s.name == "parallel.shard" for s in telemetry.tracer.spans
        )

    def test_longest_first_breaks_ties_by_index(self):
        tasks = [
            dataclasses.make_dataclass("T", ["index", "pairs"])(i, [0] * n)
            for i, n in enumerate((2, 5, 2, 5, 1))
        ]
        assert [t.index for t in longest_first(tasks)] == [1, 3, 0, 2, 4]
