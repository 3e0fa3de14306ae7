"""Unit tests for the window-sharded parallel engine's building blocks.

The differential layer (``test_parallel_equivalence.py``) proves the
end-to-end guarantee; this module pins down each component in isolation:
seed-substream derivation, the shard-cover contract, and
the delta-merge seams (cost clock, metric counters, trace spans) the
aggregation stage relies on.
"""

import numpy as np
import pytest

from repro import contracts
from repro.core.results import MergeResult
from repro.experiments.bench_summary import (
    BenchSummary,
    compare_summaries,
)
from repro.parallel import single_window_seeds
from repro.reid.cost import CostModel
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

