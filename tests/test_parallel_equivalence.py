"""Differential tests: the parallel engine is bit-identical to serial.

The engine's core guarantee (DESIGN.md §9) is that a window's result is
a pure function of ``(seed, window index)``, so any worker count,
backend and scheduling order must reproduce the ``n_workers=1`` inline
run exactly — candidates, scores, degraded flags, the simulated clock,
resilience counters and merged telemetry deltas, all bit-for-bit.  These
tests assert exactly that, across worker counts × seeds × fault
profiles, and also run inside CI's chaos matrix (every shipped profile).
"""

import pytest

from repro.faults import fault_profile
from repro.telemetry import Telemetry

SEEDS = (1, 5)
WORKER_COUNTS = (2, 4)
PROFILES = (None, "flaky-reid", "window-crash")
FAULT_SEED = 11


@pytest.fixture(scope="module")
def tracked(chaos_world):
    """Detections and tracks computed once; the merge stage re-runs."""
    from repro.detect import NoisyDetector
    from repro.track import TracktorTracker

    detections = NoisyDetector().detect_video(chaos_world, seed=2)
    tracks = TracktorTracker().run(detections)
    return detections, tracks


def _profile(name):
    return None if name is None else fault_profile(name, seed=FAULT_SEED)


def _run(make_pipeline, chaos_world, tracked, *, workers, seed,
         profile=None, backend="process", telemetry=None):
    detections, tracks = tracked
    pipeline = make_pipeline(
        window_length=100,
        reid_seed=seed,
        workers=workers,
        parallel_backend=backend,
        fault_profile=_profile(profile),
        telemetry=telemetry,
    )
    return pipeline.run_on_tracks(chaos_world, detections, tracks)


def fingerprint(result):
    """Everything the engine promises to reproduce, exactly."""
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


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_matches_serial(
    make_pipeline, chaos_world, tracked, workers, seed, profile
):
    serial = _run(
        make_pipeline, chaos_world, tracked,
        workers=1, seed=seed, profile=profile,
    )
    parallel = _run(
        make_pipeline, chaos_world, tracked,
        workers=workers, seed=seed, profile=profile,
    )
    assert fingerprint(parallel) == fingerprint(serial)


@pytest.mark.parametrize("profile", (None, "flaky-reid"))
def test_thread_backend_matches_process(
    make_pipeline, chaos_world, tracked, profile
):
    process = _run(
        make_pipeline, chaos_world, tracked,
        workers=2, seed=1, profile=profile, backend="process",
    )
    thread = _run(
        make_pipeline, chaos_world, tracked,
        workers=2, seed=1, profile=profile, backend="thread",
    )
    assert fingerprint(thread) == fingerprint(process)


def test_telemetry_merges_identically(make_pipeline, chaos_world, tracked):
    """Merged counters and per-window deltas are worker-count invariant."""
    snapshots = {}
    for workers in (1, 2, 4):
        telemetry = Telemetry()
        result = _run(
            make_pipeline, chaos_world, tracked,
            workers=workers, seed=1, telemetry=telemetry,
        )
        snapshots[workers] = (
            telemetry.metrics.counters_snapshot(),
            result.window_metrics,
        )
    assert snapshots[2] == snapshots[1]
    assert snapshots[4] == snapshots[1]


def test_shard_spans_recorded(make_pipeline, chaos_world, tracked):
    """One ``window`` span per busy window (each window is one pool
    task), and together they cover the busy windows exactly."""
    telemetry = Telemetry()
    result = _run(
        make_pipeline, chaos_world, tracked,
        workers=2, seed=1, telemetry=telemetry,
    )
    window_spans = [
        s for s in telemetry.tracer.spans if s.name == "window"
    ]
    busy = [
        c for c, pairs in enumerate(result.window_pairs) if pairs
    ]
    covered = sorted(span.attributes["window_id"] for span in window_spans)
    assert covered == busy


def test_workers_one_builds_no_pool(
    make_pipeline, chaos_world, tracked, monkeypatch
):
    """The serial fallback never constructs a pool."""
    import repro.parallel.executor as executor_module

    def explode(*args, **kwargs):
        raise AssertionError("pool constructed on the workers=1 path")

    monkeypatch.setattr(
        executor_module, "ProcessPoolExecutor", explode
    )
    monkeypatch.setattr(
        executor_module, "ThreadPoolExecutor", explode
    )
    result = _run(
        make_pipeline, chaos_world, tracked, workers=1, seed=1,
    )
    assert result.window_results


def test_workers_none_keeps_legacy_path(
    make_pipeline, chaos_world, tracked, monkeypatch
):
    """``workers=None`` threads one runtime through the whole video; an
    integer builds a fresh one per non-empty window."""
    import repro.parallel.executor as executor_module

    built = []
    original = executor_module.build_window_runtime

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(executor_module, "build_window_runtime", counting)
    legacy = _run(
        make_pipeline, chaos_world, tracked, workers=None, seed=1,
    )
    assert len(built) == 1
    built.clear()
    _run(make_pipeline, chaos_world, tracked, workers=1, seed=1)
    assert len(built) == sum(1 for pairs in legacy.window_pairs if pairs)
    assert len(built) > 1


@pytest.mark.parametrize("batch_size", (None, 8))
def test_caller_pairs_unsampled_at_every_worker_count(
    make_pipeline, chaos_world, tracked, batch_size
):
    """Every regime merges on copies of the window's pairs, as a pickled
    task does: the caller's pairs end unsampled at workers None, 1 and 2,
    and the candidates are the caller's own pairs, the same at each."""
    from repro.core.tmerge import TMerge

    detections, tracks = tracked
    selected = {}
    for workers in (None, 1, 2):
        with make_pipeline(
            merger=TMerge(k=0.1, tau_max=100, batch_size=batch_size, seed=3),
            window_length=100,
            workers=workers,
        ) as pipeline:
            result = pipeline.run_on_tracks(chaos_world, detections, tracks)
        assert sum(
            pair.n_sampled for pairs in result.window_pairs for pair in pairs
        ) == 0
        for window, pairs in zip(result.window_results, result.window_pairs):
            ids = {id(pair) for pair in pairs}
            assert all(id(pair) in ids for pair in window.candidates)
        selected[workers] = [r.candidate_keys for r in result.window_results]
    assert any(selected[None])
    assert selected[None] == selected[1] == selected[2]


def test_sweeps_workers_matches_serial(chaos_world):
    """``evaluate_merger(workers=...)`` is exact across worker counts."""
    from repro.core.baseline import BaselineMerger
    from repro.experiments.prep import prepare_dataset
    from repro.experiments.sweeps import evaluate_merger

    videos = prepare_dataset("mot17", 1, seed=0, n_frames=300)

    def factory():
        return BaselineMerger(k=0.05)

    serial = evaluate_merger(factory, videos, workers=1)
    parallel = evaluate_merger(factory, videos, workers=3)
    # MethodPoint is frozen: equality compares every field exactly.
    assert parallel == serial
