"""The resilience layer: retry, breaker, resilient scorer, degradation,
checkpoint/resume.

The two load-bearing guarantees tested here:

* **Bit-transparency** — with no faults injected, every path through the
  resilience layer (scorer wrapper, pipeline, checkpointed TMerge) is
  byte-identical to the plain path: same candidates, same simulated
  seconds.
* **Bit-exact resume** — a window killed mid-run and resumed from its
  checkpoint reproduces the uninterrupted run exactly.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import StubReidModel, make_track, planted_pairs

from repro import contracts
from repro.core import TMerge, run_resilient_window
from repro.core.pipeline import IngestionPipeline
from repro.faults import (
    ArmedCrash,
    FaultProfile,
    ReidFaultError,
    ReidTimeoutError,
    fault_profile,
)
from repro.metrics.recall import window_recall
from repro.reid import CostModel, ReidScorer
from repro.resilience import (
    BreakerPolicy,
    CheckpointStore,
    CircuitBreaker,
    CircuitOpenError,
    ReidUnavailableError,
    ResilienceConfig,
    ResilientReidScorer,
    RetriesExhaustedError,
    RetryPolicy,
    capture_scorer_state,
    restore_scorer_state,
    retry_call,
)
from repro.track import TracktorTracker


def offline_scorer(**retry_overrides) -> ResilientReidScorer:
    """A resilient scorer whose ReID dependency always fails."""
    profile = fault_profile("reid-offline", seed=0)
    model = profile.wrap_model(StubReidModel())
    return ResilientReidScorer(
        ReidScorer(model, cost=CostModel()),
        retry=RetryPolicy(**retry_overrides) if retry_overrides else None,
    )


class TestRetryCall:
    def test_first_success_charges_nothing(self):
        clock = CostModel()
        assert retry_call(lambda: 42, RetryPolicy(), clock) == 42
        assert clock.seconds == 0.0

    def test_backoff_accrues_on_simulated_clock(self):
        clock = CostModel()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ReidFaultError("transient")
            return "ok"

        policy = RetryPolicy(
            max_attempts=3, backoff_base_ms=50.0, backoff_multiplier=2.0
        )
        assert retry_call(flaky, policy, clock) == "ok"
        # Two failures: backoff 50 then 100 simulated ms, zero wall time.
        assert clock.wait_ms == pytest.approx(150.0)

    def test_timeout_penalty_charged(self):
        clock = CostModel()

        def times_out():
            raise ReidTimeoutError("slow", penalty_ms=75.0)

        policy = RetryPolicy(max_attempts=2, backoff_base_ms=10.0)
        with pytest.raises(RetriesExhaustedError):
            retry_call(times_out, policy, clock)
        # 2 penalties + 1 backoff (none after the final attempt).
        assert clock.wait_ms == pytest.approx(75.0 + 75.0 + 10.0)

    def test_exhaustion_chains_last_failure(self):
        def fails():
            raise ReidFaultError("down")

        with pytest.raises(RetriesExhaustedError) as excinfo:
            retry_call(fails, RetryPolicy(max_attempts=2), CostModel())
        assert isinstance(excinfo.value.__cause__, ReidFaultError)

    def test_non_transient_propagates_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            retry_call(broken, RetryPolicy(max_attempts=5), CostModel())
        assert len(calls) == 1

    def test_on_failure_observer_sees_each_fault(self):
        seen = []

        def fails():
            raise ReidFaultError("down")

        with pytest.raises(RetriesExhaustedError):
            retry_call(
                fails,
                RetryPolicy(max_attempts=3, backoff_base_ms=0.0),
                CostModel(),
                on_failure=seen.append,
            )
        assert len(seen) == 3

    def test_backoff_schedule_is_exponential(self):
        policy = RetryPolicy(backoff_base_ms=50.0, backoff_multiplier=3.0)
        assert policy.backoff_ms(1) == 50.0
        assert policy.backoff_ms(2) == 150.0
        assert policy.backoff_ms(3) == 450.0

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(retry_on=())


class TestCircuitBreaker:
    def make(self, clock=None, **overrides) -> CircuitBreaker:
        policy = BreakerPolicy(
            failure_threshold=3, recovery_timeout_ms=100.0, **overrides
        )
        return CircuitBreaker(policy, clock or CostModel())

    def test_trips_after_consecutive_failures(self):
        breaker = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_recovery_on_simulated_clock(self):
        clock = CostModel()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.charge_wait(99.0)
        assert not breaker.allow()
        clock.charge_wait(1.0)
        assert breaker.allow()
        assert breaker.state == "half_open"

    def test_half_open_success_closes(self):
        clock = CostModel()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.charge_wait(100.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.n_closes == 1

    def test_half_open_failure_reopens(self):
        clock = CostModel()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.charge_wait(100.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.n_opens == 2

    def test_state_dict_roundtrip(self):
        clock = CostModel()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        saved = breaker.state_dict()
        other = self.make(clock)
        other.load_state_dict(saved)
        assert other.state == "open"
        assert other.state_dict() == saved

    def test_transitions_validated_under_contracts(self):
        previous = contracts.set_enabled(True)
        try:
            with pytest.raises(contracts.ContractViolation):
                contracts.check_breaker_transition(
                    "closed", "half_open", where="test"
                )
            # The machine itself only ever takes legal edges.
            clock = CostModel()
            breaker = self.make(clock)
            for _ in range(3):
                breaker.record_failure()
            clock.charge_wait(100.0)
            breaker.allow()
            breaker.record_success()
            assert breaker.state == "closed"
        finally:
            contracts.set_enabled(previous)


class TestResilientScorer:
    def test_fault_free_is_bit_transparent(self):
        pairs, _ = planted_pairs()
        track_a, track_b = pairs[0].track_a, pairs[0].track_b

        plain = ReidScorer(StubReidModel(), cost=CostModel())
        wrapped = ResilientReidScorer(
            ReidScorer(StubReidModel(), cost=CostModel())
        )
        d_plain = plain.normalized_distance(track_a, 0, track_b, 0)
        d_wrapped = wrapped.normalized_distance(track_a, 0, track_b, 0)
        assert d_plain == d_wrapped
        assert plain.cost.seconds == wrapped.cost.seconds
        assert wrapped.cost.wait_ms == 0.0
        assert wrapped.stats()["transient_faults"] == 0.0

    def test_transient_faults_retried(self):
        profile = FaultProfile(reid_failure_rate=0.3, seed=5)
        model = profile.wrap_model(StubReidModel())
        scorer = ResilientReidScorer(
            ReidScorer(model, cost=CostModel()),
            retry=RetryPolicy(max_attempts=8, backoff_base_ms=1.0),
            breaker_policy=BreakerPolicy(failure_threshold=50),
        )
        pairs, _ = planted_pairs()
        values = [
            scorer.normalized_distance(p.track_a, 0, p.track_b, 0)
            for p in pairs
        ]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert scorer.n_transient_faults > 0
        assert scorer.cost.wait_ms > 0.0

    def test_corrupt_feature_detected_and_reextracted(self):
        profile = FaultProfile(corrupt_rate=1.0, corrupt_mode="nan", seed=0)
        injector = profile.wrap_model(StubReidModel()).corruption_injector
        injector.rate = 0.0  # re-armed per call below

        class OneShotCorrupt:
            """Corrupts exactly the first extraction, then heals."""

            def __init__(self, model):
                self.model = model
                self.remaining = 1

            def extract(self, detection):
                feature = self.model.extract(detection)
                if self.remaining > 0:
                    self.remaining -= 1
                    return np.full_like(feature, np.nan)
                return feature

        scorer = ResilientReidScorer(
            ReidScorer(OneShotCorrupt(StubReidModel()), cost=CostModel())
        )
        pairs, _ = planted_pairs()
        d = scorer.normalized_distance(
            pairs[0].track_a, 0, pairs[0].track_b, 0
        )
        assert np.isfinite(d) and 0.0 <= d <= 1.0
        assert scorer.n_corruptions_detected == 1
        # The poisoned entry was evicted and re-extracted cleanly.
        assert all(
            np.all(np.isfinite(feature))
            for _, feature in scorer.cache.items()
        )

    def test_full_outage_raises_unavailable_then_breaker_opens(self):
        scorer = offline_scorer(max_attempts=3, backoff_base_ms=1.0)
        pairs, _ = planted_pairs()
        with pytest.raises(ReidUnavailableError):
            scorer.normalized_distance(
                pairs[0].track_a, 0, pairs[0].track_b, 0
            )
        # Keep calling: the breaker trips and fails fast.
        with pytest.raises((ReidUnavailableError, CircuitOpenError)):
            scorer.normalized_distance(
                pairs[0].track_a, 0, pairs[0].track_b, 0
            )
        assert scorer.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            scorer.normalized_distance(
                pairs[0].track_a, 0, pairs[0].track_b, 0
            )

    def test_crash_injector_tick_propagates(self):
        scorer = ResilientReidScorer(
            ReidScorer(StubReidModel(), cost=CostModel())
        )
        scorer.crash_injector = ArmedCrash(calls_left=0, window_index=0)
        pairs, _ = planted_pairs()
        from repro.faults import WindowCrashError

        with pytest.raises(WindowCrashError):
            scorer.normalized_distance(
                pairs[0].track_a, 0, pairs[0].track_b, 0
            )


class TestDegradedMerge:
    def test_tmerge_degrades_on_outage(self):
        pairs, planted = planted_pairs()
        merger = TMerge(k=0.2, tau_max=100, seed=3)
        result = merger.run(pairs, offline_scorer(backoff_base_ms=1.0))
        assert result.degraded
        assert len(result.candidates) > 0
        assert all(0.0 <= v <= 1.0 for v in result.scores.values())

    def test_degraded_recall_matches_spatial_baseline(self):
        """A fully-offline TMerge window equals the spatial-prior floor."""
        from repro.core.pipeline import spatial_fallback_result

        pairs, planted = planted_pairs()
        merger = TMerge(k=0.2, tau_max=100, seed=3)
        degraded = merger.run(pairs, offline_scorer(backoff_base_ms=1.0))
        baseline = spatial_fallback_result(merger, pairs, elapsed=0.0)
        rec_degraded = window_recall(degraded.candidate_keys, {planted})
        rec_baseline = window_recall(baseline.candidate_keys, {planted})
        assert rec_degraded >= rec_baseline

    @settings(max_examples=20, deadline=None)
    @given(
        n_distinct=st.integers(3, 10),
        track_len=st.integers(2, 8),
        k=st.floats(0.1, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_offline_window_always_valid(self, n_distinct, track_len, k, seed):
        """Property: a ReID-fully-offline window still yields a valid
        MergeResult whose recall is no worse than the spatial-prior-only
        baseline."""
        from repro.core.pipeline import spatial_fallback_result
        from repro.core.results import top_k_count

        pairs, planted = planted_pairs(
            n_distinct=n_distinct, track_len=track_len
        )
        merger = TMerge(k=k, tau_max=50, seed=seed)
        result = merger.run(
            pairs, offline_scorer(max_attempts=2, backoff_base_ms=1.0)
        )
        assert result.degraded
        assert len(result.candidates) == top_k_count(len(pairs), k)
        assert set(result.scores) == {p.key for p in pairs}
        assert all(0.0 <= v <= 1.0 for v in result.scores.values())
        baseline = spatial_fallback_result(merger, pairs, elapsed=0.0)
        rec = window_recall(result.candidate_keys, {planted})
        rec_floor = window_recall(baseline.candidate_keys, {planted})
        assert rec >= rec_floor


def run_pipeline(world, profile=None, resilience=None, merger=None):
    pipeline = IngestionPipeline(
        tracker=TracktorTracker(),
        merger=merger or TMerge(k=0.1, tau_max=300, batch_size=10, seed=3),
        window_length=300,
        fault_profile=profile,
        resilience=resilience,
    )
    return pipeline.run(world)


class TestPipelineResilience:
    def test_fault_free_bit_identical_with_and_without(self, chaos_world):
        plain = run_pipeline(chaos_world)
        resilient = run_pipeline(
            chaos_world, resilience=ResilienceConfig()
        )
        for a, b in zip(plain.window_results, resilient.window_results):
            assert a.candidate_keys == b.candidate_keys
            assert a.simulated_seconds == b.simulated_seconds
            assert not b.degraded
        assert plain.cost.seconds == resilient.cost.seconds
        assert resilient.resilience_stats["transient_faults"] == 0.0

    def test_flaky_reid_completes_end_to_end(self, chaos_world):
        profile = fault_profile("flaky-reid", seed=7)
        result = run_pipeline(chaos_world, profile=profile)
        assert len(result.window_results) == len(result.windows)
        assert result.resilience_stats["transient_faults"] > 0
        for window_result in result.window_results:
            assert all(
                0.0 <= v <= 1.0 for v in window_result.scores.values()
            )

    def test_reid_offline_marks_every_window_degraded(self, chaos_world):
        profile = fault_profile("reid-offline", seed=7)
        result = run_pipeline(chaos_world, profile=profile)
        nonempty = [
            c for c, pairs in enumerate(result.window_pairs) if pairs
        ]
        assert result.degraded_windows == nonempty
        assert result.resilience_stats["breaker_opens"] >= 1

    def test_window_crash_recovers_bit_exactly(self, chaos_world):
        baseline = run_pipeline(chaos_world)
        profile = fault_profile("window-crash", seed=7)
        crashed = run_pipeline(
            chaos_world,
            profile=profile,
            merger=TMerge(
                k=0.1,
                tau_max=300,
                batch_size=10,
                seed=3,
                checkpoint_interval=20,
                checkpoint_store=CheckpointStore(),
            ),
        )
        for a, b in zip(baseline.window_results, crashed.window_results):
            assert a.candidate_keys == b.candidate_keys
            assert a.simulated_seconds == b.simulated_seconds

    def test_dropped_frames_still_ingest(self, chaos_world):
        profile = fault_profile("drop-frames", seed=7)
        result = run_pipeline(chaos_world, profile=profile)
        assert len(result.detections) == chaos_world.n_frames
        assert any(frame == [] for frame in result.detections)


class TestCheckpointStore:
    def test_json_roundtrip(self):
        store = CheckpointStore()
        payload = {"tau": 3, "rng": {"state": [1, 2, 3]}, "x": 0.5}
        store.save([[0, 1], [2, 3]], payload)
        loaded = store.load([[0, 1], [2, 3]])
        assert loaded == payload
        assert loaded is not payload
        assert len(store) == 1

    def test_missing_key_returns_none(self):
        assert CheckpointStore().load([[9, 9]]) is None

    def test_discard(self):
        store = CheckpointStore()
        store.save("w", {"tau": 1})
        store.discard("w")
        assert store.load("w") is None
        assert len(store) == 0

    def test_file_mirror(self, tmp_path):
        store = CheckpointStore(path=str(tmp_path))
        store.save("w", {"tau": 2})
        # A fresh store over the same directory recovers from disk.
        recovered = CheckpointStore(path=str(tmp_path))
        assert recovered.load("w") == {"tau": 2}

    def test_save_replaces_file_atomically(self, tmp_path):
        store = CheckpointStore(path=str(tmp_path))
        store.save("w", {"tau": 2})
        store.save("w", {"tau": 3})
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
        assert CheckpointStore(path=str(tmp_path)).load("w") == {"tau": 3}

    def test_truncated_snapshot_is_loud(self, tmp_path):
        store = CheckpointStore(path=str(tmp_path))
        store.save("w", {"tau": 2, "state": list(range(50))})
        (snapshot,) = tmp_path.iterdir()
        snapshot.write_text(snapshot.read_text()[:40])
        with pytest.raises(ValueError, match=re.escape(str(snapshot))):
            CheckpointStore(path=str(tmp_path)).load("w")

    @pytest.mark.parametrize("on_disk", (False, True))
    def test_journal_round_trip(self, tmp_path, on_disk):
        path = str(tmp_path) if on_disk else None
        store = CheckpointStore(path=path)
        records = [{"seq": i, "x": [i, 0.5 * i]} for i in range(5)]
        assert store.append("w", records[:3]) == 3
        assert store.append("w", []) == 3
        assert store.append("w", records[3:]) == 5
        assert store.journal("w", 5) == records
        if on_disk:
            assert CheckpointStore(path=path).journal("w", 5) == records

    @pytest.mark.parametrize("on_disk", (False, True))
    def test_journal_drops_tail_past_length(self, tmp_path, on_disk):
        path = str(tmp_path) if on_disk else None
        store = CheckpointStore(path=path)
        store.append("w", [{"seq": i} for i in range(4)])
        assert store.journal("w", 2) == [{"seq": 0}, {"seq": 1}]
        assert store.append("w", [{"seq": 9}]) == 3
        reread = CheckpointStore(path=path) if on_disk else store
        assert reread.journal("w", 3) == [{"seq": 0}, {"seq": 1}, {"seq": 9}]

    def test_short_journal_is_loud(self):
        store = CheckpointStore()
        store.append(["stream", "k"], [{"seq": 0}])
        with pytest.raises(ValueError, match=r'\["stream","k"\].* 1 .* 4 '):
            store.journal(["stream", "k"], 4)

    def test_garbage_journal_line_is_loud(self, tmp_path):
        store = CheckpointStore(path=str(tmp_path))
        store.append("w", [{"seq": i} for i in range(3)])
        (journal,) = tmp_path.iterdir()
        lines = journal.read_text().splitlines(keepends=True)
        lines[2] = "{not json\n"
        journal.write_text("".join(lines))
        with pytest.raises(
            ValueError, match=re.escape(str(journal)) + ".*record 1"
        ):
            CheckpointStore(path=str(tmp_path)).journal("w", 3)

    @pytest.mark.parametrize("on_disk", (False, True))
    def test_compaction_keeps_positions(self, tmp_path, on_disk):
        path = str(tmp_path) if on_disk else None
        store = CheckpointStore(path=path)
        records = [{"seq": i} for i in range(200)]
        store.append("w", records[:150])
        assert not store.compact("w", 100)  # within twice the kept count
        store.append("w", records[150:])
        assert store.compact("w", 50)
        assert store.journal("w", 200) == records[150:]
        assert store.append("w", [{"seq": 200}]) == 201
        reread = CheckpointStore(path=path) if on_disk else store
        assert reread.journal("w", 201) == records[150:] + [{"seq": 200}]
        with pytest.raises(ValueError, match="starts at record 150"):
            reread.journal("w", 100)

    def test_discard_drops_journal(self, tmp_path):
        store = CheckpointStore(path=str(tmp_path))
        store.save("w", {"tau": 1})
        store.append("w", [{"seq": 0}])
        store.discard("w")
        assert list(tmp_path.iterdir()) == []
        assert store.append("w", []) == 0

    def test_scorer_state_roundtrip(self):
        scorer = ReidScorer(StubReidModel(), cost=CostModel())
        pairs, _ = planted_pairs()
        before = scorer.normalized_distance(
            pairs[0].track_a, 0, pairs[0].track_b, 0
        )
        saved = capture_scorer_state(scorer)
        other = ReidScorer(StubReidModel(), cost=CostModel())
        restore_scorer_state(other, saved)
        assert other.cost.seconds == scorer.cost.seconds
        assert len(other.cache) == len(scorer.cache)
        after = other.normalized_distance(
            pairs[0].track_a, 0, pairs[0].track_b, 0
        )
        assert after == before


class TestKilledThenResumed:
    def test_resumed_window_reproduces_uninterrupted_run(self):
        """The subsystem's acceptance test: kill a window mid-run, resume
        from the checkpoint, get the uninterrupted result bit-exactly."""
        pairs_a, _ = planted_pairs(n_distinct=8, track_len=6)
        pairs_b, _ = planted_pairs(n_distinct=8, track_len=6)

        def make_scorer():
            return ReidScorer(StubReidModel(noise=0.3, seed=4),
                              cost=CostModel())

        uninterrupted = TMerge(k=0.2, tau_max=120, seed=3).run(
            pairs_a, make_scorer()
        )

        store = CheckpointStore()
        merger = TMerge(
            k=0.2,
            tau_max=120,
            seed=3,
            checkpoint_interval=10,
            checkpoint_store=store,
        )
        scorer = ResilientReidScorer(make_scorer())
        crash = ArmedCrash(calls_left=40, window_index=0)
        resumed = run_resilient_window(
            merger, 0, pairs_b, scorer, scorer.cost,
            ResilienceConfig(),
            crasher=_PreArmed(crash),
        )
        assert crash.fired, "the injected crash must actually fire"
        assert resumed.candidate_keys == uninterrupted.candidate_keys
        assert resumed.simulated_seconds == uninterrupted.simulated_seconds
        assert resumed.scores == uninterrupted.scores
        # The completed window's snapshot was discarded.
        assert len(store) == 0


class _PreArmed:
    """A crash injector stub that arms one predetermined countdown."""

    def __init__(self, armed: ArmedCrash) -> None:
        self._armed = armed

    def arm(self, window_index: int) -> ArmedCrash:
        return self._armed
