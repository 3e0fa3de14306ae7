"""Differential tests for the vectorized batched sampler (DESIGN.md §6.2).

Three guarantees are enforced here:

* **Golden bit-identity** — the vectorized inner loop reproduces
  pre-vectorization fingerprints (``tests/fixtures/tmerge_golden.json``,
  captured before the rewrite) exactly, on both the scalar and the
  batched path, with and without ULB/regret.
* **B=1 ≡ scalar** — ``batch_size=1`` degenerates to the scalar
  algorithm bit-for-bit, across seeds × fault profiles × worker counts
  (through the whole pipeline).
* **Checkpoint compatibility** — a batched run checkpointed mid-window
  resumes bit-identically; mismatched batch sizes and any checkpoint
  version but the current one refuse loudly.
* **The grouped Thompson draw** (DESIGN.md §6.2) — on windows of at
  least ``GROUP_MIN_LIVE`` live arms, B=1 still equals the scalar path, a
  mid-window kill and resume equals the uninterrupted run and the ledger
  stays bit-transparent; a window just below the cutoff reproduces the
  per-arm draw's fingerprints (``tests/fixtures/
  tmerge_below_cutoff_golden.json``, captured before the grouped draw
  existed).  These tests read ``REPRO_BATCH_SIZE`` and
  ``REPRO_FAULT_PROFILE``, so the CI chaos matrix runs them on both paths
  under every fault profile.

The underlying RNG draw-order contract (one ``rng.random(m)`` call
consumes the PCG64 stream exactly like ``m`` scalar calls) is asserted
directly, so a numpy behaviour change fails here first with a clear
message rather than as an opaque fingerprint diff.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    StubReidModel,
    env_batch_size,
    large_window,
    planted_pairs,
    stub_scorer,
)

from repro.core.thompson import GROUP_MIN_LIVE, PosteriorClassIndex
from repro.core.tmerge import CHECKPOINT_VERSION, TMerge
from repro.faults import fault_profile
from repro.provenance import EVENT_SAMPLE, DecisionLedger, sample_rows
from repro.reid import CostModel, ReidScorer
from repro.resilience import (
    BreakerPolicy,
    CheckpointStore,
    ResilientReidScorer,
    RetryPolicy,
)
from repro.telemetry import Telemetry

FIXTURES = Path(__file__).parent / "fixtures"

#: The exact configurations the golden fixtures were captured with
#: (pre-vectorization code, numpy Generator streams, seeds pinned).
GOLDEN_CONFIGS = {
    "scalar_beta_s0": dict(k=0.2, tau_max=300, seed=0),
    "scalar_beta_s5": dict(k=0.2, tau_max=300, seed=5),
    "scalar_noulb_s2": dict(k=0.2, tau_max=250, seed=2, use_ulb=False),
    "scalar_regret_s1": dict(k=0.2, tau_max=200, seed=1, s_min=0.0),
    "scalar_tight_ulb_s0": dict(
        k=0.2, tau_max=400, seed=0, ulb_scale=0.3, ulb_interval=10
    ),
    "batched_b10_s0": dict(k=0.2, tau_max=300, seed=0, batch_size=10),
    "batched_b10_s5": dict(k=0.2, tau_max=300, seed=5, batch_size=10),
    "batched_b8_tight_ulb_s1": dict(
        k=0.2, tau_max=400, seed=1, batch_size=8,
        ulb_scale=0.3, ulb_interval=10,
    ),
}

FAULT_SEED = 11


def _workload():
    pairs, _ = planted_pairs(n_distinct=8, track_len=6)
    return pairs, stub_scorer(noise=0.05, seed=9)


def _merge_fingerprint(result, scorer):
    """JSON-normalized digest matching the golden capture script."""
    return json.loads(json.dumps({
        "candidates": [list(k) for k in result.candidate_keys],
        "scores": sorted((list(k), v) for k, v in result.scores.items()),
        "iterations": result.iterations,
        "simulated_seconds": result.simulated_seconds,
        "cost": scorer.cost.state_dict(),
        "extra": dict(result.extra),
    }))


# ----------------------------------------------------------------------
# RNG draw-order contract
# ----------------------------------------------------------------------
class TestDrawOrderContract:
    def test_vector_random_matches_scalar_sequence(self):
        """rng.random(m) consumes the stream exactly like m scalar calls."""
        for seed in (0, 1, 17):
            vec = np.random.default_rng(seed).random(64)
            rng = np.random.default_rng(seed)
            scalars = np.array([rng.random() for _ in range(64)])
            assert np.array_equal(vec, scalars)

    def test_generator_state_identical_after_batch_draw(self):
        """Downstream draws agree, so batches can interleave freely."""
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        a.random(10)
        for _ in range(10):
            b.random()
        assert a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# Golden bit-identity vs the pre-vectorization implementation
# ----------------------------------------------------------------------
class TestGoldenFingerprints:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(FIXTURES / "tmerge_golden.json") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_matches_prevectorization_run(self, golden, name):
        pairs, scorer = _workload()
        result = TMerge(**GOLDEN_CONFIGS[name]).run(pairs, scorer)
        assert _merge_fingerprint(result, scorer) == golden[name]

    @pytest.mark.parametrize(
        "name", [n for n in sorted(GOLDEN_CONFIGS) if n.startswith("scalar")]
    )
    def test_batch_size_one_is_the_scalar_path(self, golden, name):
        """B=1 reproduces the pre-vectorization *scalar* fingerprints."""
        pairs, scorer = _workload()
        result = TMerge(**GOLDEN_CONFIGS[name], batch_size=1).run(
            pairs, scorer
        )
        assert _merge_fingerprint(result, scorer) == golden[name]

    def test_batch_size_one_charges_no_batched_extractions(self):
        pairs, scorer = _workload()
        TMerge(k=0.2, tau_max=100, seed=0, batch_size=1).run(pairs, scorer)
        state = scorer.cost.state_dict()
        assert state["n_batch_calls"] == 0
        assert state["n_batched_extractions"] == 0
        assert state["n_extractions"] > 0


# ----------------------------------------------------------------------
# B=1 ≡ scalar through the pipeline, across the chaos dimensions
# ----------------------------------------------------------------------
def _pipeline_fingerprint(result):
    return {
        "candidates": [
            tuple(sorted(r.candidate_keys)) for r in result.window_results
        ],
        "scores": [
            tuple(sorted(r.scores.items())) for r in result.window_results
        ],
        "degraded": [r.degraded for r in result.window_results],
        "iterations": [r.iterations for r in result.window_results],
        "simulated_seconds": [
            r.simulated_seconds for r in result.window_results
        ],
        "cost": result.cost.state_dict(),
        "resilience": dict(result.resilience_stats),
        "id_map": dict(result.id_map),
        "merged_ids": sorted(t.track_id for t in result.merged_tracks),
    }


@pytest.fixture(scope="module")
def tracked(chaos_world):
    from repro.detect import NoisyDetector
    from repro.track import TracktorTracker

    detections = NoisyDetector().detect_video(chaos_world, seed=2)
    tracks = TracktorTracker().run(detections)
    return detections, tracks


@pytest.mark.parametrize("profile", (None, "flaky-reid", "window-crash"))
@pytest.mark.parametrize("seed", (1, 5))
@pytest.mark.parametrize("workers", (None, 2))
def test_pipeline_batch_one_matches_scalar(
    make_pipeline, chaos_world, tracked, profile, seed, workers
):
    """A B=1 TMerge is bit-identical to a scalar one through the pipeline."""
    detections, tracks = tracked

    def run(**overrides):
        pipeline = make_pipeline(
            window_length=100,
            reid_seed=seed,
            workers=workers,
            parallel_backend="thread",
            fault_profile=(
                None if profile is None
                else fault_profile(profile, seed=FAULT_SEED)
            ),
            **overrides,
        )
        return pipeline.run_on_tracks(chaos_world, detections, tracks)

    scalar = run(merger=TMerge(k=0.1, tau_max=300, batch_size=None, seed=3))
    batch_one = run(merger=TMerge(k=0.1, tau_max=300, batch_size=1, seed=3))
    assert _pipeline_fingerprint(batch_one) == _pipeline_fingerprint(scalar)


def test_make_pipeline_env_seam(make_pipeline, monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_SIZE", "8")
    assert make_pipeline().merger.batch_size == 8
    # An explicit merger still wins over the environment.
    merger = TMerge(batch_size=2)
    assert make_pipeline(merger=merger).merger is merger


# ----------------------------------------------------------------------
# Checkpoint forward/backward compatibility
# ----------------------------------------------------------------------
class TestCheckpointCompat:
    def _captured_payload(self, *, batch_size, capture_tau, **kwargs):
        """Run once uninterrupted, spying out one mid-window snapshot."""
        pairs, scorer = _workload()
        store = CheckpointStore()
        captured = {}
        orig_save = store.save

        def spy(key, state):
            if state["tau"] == capture_tau:
                captured["payload"] = json.loads(json.dumps(state))
            orig_save(key, state)

        store.save = spy
        result = TMerge(
            checkpoint_store=store, batch_size=batch_size, **kwargs
        ).run(pairs, scorer)
        assert "payload" in captured
        return captured["payload"], _merge_fingerprint(result, scorer)

    def test_batched_mid_window_resume_bit_identical(self):
        """A B=8 run killed mid-window resumes to the exact same result."""
        config = dict(
            k=0.2, tau_max=300, seed=4, checkpoint_interval=40
        )
        payload, reference = self._captured_payload(
            batch_size=8, capture_tau=120, **config
        )
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["batch"] == 8

        pairs, scorer = _workload()
        store = CheckpointStore()
        store.save([list(p.key) for p in pairs], payload)
        resumed = TMerge(
            checkpoint_store=store, batch_size=8, **config
        ).run(pairs, scorer)
        assert _merge_fingerprint(resumed, scorer) == reference

    def test_batch_mismatch_refused(self):
        payload, _ = self._captured_payload(
            batch_size=8, capture_tau=80,
            k=0.2, tau_max=200, seed=4, checkpoint_interval=40,
        )
        pairs, scorer = _workload()
        store = CheckpointStore()
        store.save([list(p.key) for p in pairs], payload)
        with pytest.raises(ValueError, match="batch"):
            TMerge(
                checkpoint_store=store, batch_size=4,
                k=0.2, tau_max=200, seed=4, checkpoint_interval=40,
            ).run(pairs, scorer)

    @pytest.mark.parametrize(
        "version",
        (None, CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1),
        ids=("missing", "older", "newer"),
    )
    def test_unsupported_version_refused(self, version):
        config = dict(k=0.2, tau_max=200, seed=4, checkpoint_interval=40)
        payload, _ = self._captured_payload(
            batch_size=None, capture_tau=80, **config
        )
        if version is None:
            del payload["version"]
        else:
            payload["version"] = version
        pairs, scorer = _workload()
        store = CheckpointStore()
        store.save([list(p.key) for p in pairs], payload)
        with pytest.raises(ValueError) as excinfo:
            TMerge(checkpoint_store=store, **config).run(pairs, scorer)
        message = str(excinfo.value)
        assert f"version {version!r} is not supported" in message
        assert f"only version {CHECKPOINT_VERSION}" in message

    def test_none_and_one_share_scalar_checkpoints(self):
        """batch_size=None and =1 are the same regime: snapshots swap."""
        config = dict(k=0.2, tau_max=300, seed=4, checkpoint_interval=40)
        payload, reference = self._captured_payload(
            batch_size=None, capture_tau=120, **config
        )
        assert payload["batch"] is None
        pairs, scorer = _workload()
        store = CheckpointStore()
        store.save([list(p.key) for p in pairs], payload)
        resumed = TMerge(
            checkpoint_store=store, batch_size=1, **config
        ).run(pairs, scorer)
        assert _merge_fingerprint(resumed, scorer) == reference


# ----------------------------------------------------------------------
# The grouped Thompson draw: windows of at least GROUP_MIN_LIVE live arms
# ----------------------------------------------------------------------
#: The batch size under test (the CI chaos matrix sets 1 and 8).
ENV_BATCH = env_batch_size(8)
#: The fault profile under test (the CI chaos matrix sets each one).
ENV_PROFILE = os.environ.get("REPRO_FAULT_PROFILE") or None

GROUPED_CONFIG = dict(k=0.05, tau_max=40, seed=6, ulb_interval=10)


@pytest.fixture(scope="module")
def grouped_pairs():
    pairs = large_window(GROUP_MIN_LIVE + 76)
    assert sum(p.n_bbox_pairs > 0 for p in pairs) >= GROUP_MIN_LIVE
    return pairs


def _grouped_scorer(ledger=None):
    """A fresh stub scorer on the profile's fault schedule; noise-free, so
    a resume's fresh model extracts the same features the killed run
    would have.  A large window's batches extract many new BBoxes, so the
    retry and breaker budgets are wide enough that flaky ReID still lets
    the window run to its budget."""
    model = StubReidModel(seed=9)
    if ENV_PROFILE is not None:
        profile = fault_profile(ENV_PROFILE, seed=FAULT_SEED)
        if profile.injects_reid_faults:
            model = profile.wrap_model(model)
    return ResilientReidScorer(
        ReidScorer(
            model, cost=CostModel(), telemetry=Telemetry(ledger=ledger)
        ),
        retry=RetryPolicy(max_attempts=8, backoff_base_ms=1.0),
        breaker_policy=BreakerPolicy(failure_threshold=1000),
    )


def _grouped_run(pairs, merger, ledger=None):
    for pair in pairs:
        pair.reset_sampling()
    scorer = _grouped_scorer(ledger)
    return _merge_fingerprint(merger.run(pairs, scorer), scorer)


@pytest.fixture
def grouped_selections(monkeypatch):
    """Counts the selections the class index makes."""
    calls = []
    select = PosteriorClassIndex.select

    def spy(self, *args, **kwargs):
        calls.append(1)
        return select(self, *args, **kwargs)

    monkeypatch.setattr(PosteriorClassIndex, "select", spy)
    return calls


class TestGroupedDraw:
    def test_batch_one_is_the_scalar_path(
        self, grouped_pairs, grouped_selections
    ):
        scalar = _grouped_run(
            grouped_pairs, TMerge(batch_size=None, **GROUPED_CONFIG)
        )
        batch_one = _grouped_run(
            grouped_pairs, TMerge(batch_size=1, **GROUPED_CONFIG)
        )
        assert grouped_selections
        assert batch_one == scalar

    def test_mid_window_resume_bit_identical(
        self, grouped_pairs, grouped_selections
    ):
        """A window killed mid-run resumes from its checkpoint to the
        uninterrupted result: the class index is rebuilt from (S, F,
        eligible) and the draw consumes the RNG identically."""
        config = dict(
            GROUPED_CONFIG, batch_size=ENV_BATCH, checkpoint_interval=10
        )
        store = CheckpointStore()
        captured = {}
        save = store.save

        def spy(key, state):
            if state["tau"] == 20:
                captured["payload"] = json.loads(json.dumps(state))
            save(key, state)

        store.save = spy
        reference = _grouped_run(
            grouped_pairs, TMerge(checkpoint_store=store, **config)
        )
        assert "payload" in captured and grouped_selections

        resume_store = CheckpointStore()
        resume_store.save(
            [list(p.key) for p in grouped_pairs], captured["payload"]
        )
        for pair in grouped_pairs:
            pair.reset_sampling()
        scorer = _grouped_scorer()
        resumed = TMerge(checkpoint_store=resume_store, **config).run(
            grouped_pairs, scorer
        )
        assert _merge_fingerprint(resumed, scorer) == reference

    def test_ledger_is_transparent(self, grouped_pairs, grouped_selections):
        merger = TMerge(batch_size=ENV_BATCH, **GROUPED_CONFIG)
        ledger = DecisionLedger()
        with_ledger = _grouped_run(grouped_pairs, merger, ledger=ledger)
        assert with_ledger == _grouped_run(grouped_pairs, merger)
        samples = [e for e in ledger if e.kind == EVENT_SAMPLE]
        assert samples and grouped_selections
        take = 1 if ENV_BATCH == 1 else ENV_BATCH
        rows = [row for event in samples for row in sample_rows(event.data)]
        assert [row.tau for row in rows] == list(range(1, len(rows) + 1))
        for row in rows:
            assert len(row.arms) == len(row.theta)
            assert len(row.arms) == take

    @pytest.mark.parametrize(
        "name, batch_size", (("scalar", None), ("batched_b8", 8))
    )
    def test_below_cutoff_keeps_the_per_arm_draw(
        self, name, batch_size, grouped_selections
    ):
        """One arm short of the cutoff, every iteration draws per arm,
        reproducing the fingerprints captured before the grouped draw."""
        with open(FIXTURES / "tmerge_below_cutoff_golden.json") as fh:
            golden = json.load(fh)[name]
        pairs = large_window(GROUP_MIN_LIVE - 1)
        scorer = stub_scorer(noise=0.05, seed=9)
        result = TMerge(
            k=0.05, tau_max=60, seed=0, batch_size=batch_size
        ).run(pairs, scorer)
        fingerprint = _merge_fingerprint(result, scorer)
        scores = json.dumps(fingerprint.pop("scores"))
        fingerprint["scores_sha256"] = hashlib.sha256(
            scores.encode()
        ).hexdigest()
        assert fingerprint == golden
        assert not grouped_selections
