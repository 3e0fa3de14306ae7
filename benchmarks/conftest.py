"""Shared infrastructure for the per-figure benchmark suite.

Every benchmark regenerates one of the paper's tables/figures at laptop
scale (smaller videos / fewer seeds than the paper, same parameter shapes).
Prepared datasets are cached per session; each bench measures its own
algorithm sweep with pytest-benchmark and writes the reproduced rows to
``benchmarks/results/<name>.txt`` (also echoed to stdout, visible with
``pytest -s``).  Smoke runs only echo them: the committed tables are
the full-scale ones.

Two extra conventions support the CI bench gate:

* **Smoke mode** — ``REPRO_BENCH_SMOKE=1`` shrinks the dataset scales and
  (inside the gated benches) the sweep grids so the whole suite runs in CI
  minutes.  Smoke runs skip the paper-shape assertions (too small to hold)
  but still produce the metrics the gate compares.
* **Summary emission** — benches call :func:`record_summary` with their
  recall / ReID-invocation / simulated-ms numbers; at session end the
  collected records are written to ``benchmarks/results/bench_summary.json``
  for the ``python -m repro.experiments gate`` regression check.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.bench_summary import BenchSummary
from repro.experiments.prep import PreparedVideo, prepare_dataset

RESULTS_DIR = Path(__file__).parent / "results"

#: CI smoke mode: tiny scales, no paper-shape assertions, same metrics.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

# Laptop-scale defaults: 2 videos per dataset, shortened lengths.
if SMOKE:
    BENCH_SCALE = {
        "mot17": dict(n_videos=1, n_frames=300),
        "kitti": dict(n_videos=1, n_frames=300),
        "pathtrack": dict(n_videos=1, n_frames=500),
    }
else:
    BENCH_SCALE = {
        "mot17": dict(n_videos=2, n_frames=700),
        "kitti": dict(n_videos=2, n_frames=600),
        "pathtrack": dict(n_videos=2, n_frames=1400),
    }

_SUMMARY = BenchSummary()


def pytest_addoption(parser) -> None:
    """Register the parallel-engine worker count for speedup benches."""
    parser.addoption(
        "--workers",
        type=int,
        default=4,
        help="worker count for the parallel-engine speedup benchmark "
        "(default 4; speedup >1 needs a multi-core machine)",
    )


@pytest.fixture(scope="session")
def bench_workers(request) -> int:
    """The --workers option (parallel-engine speedup benches)."""
    return request.config.getoption("--workers")


@pytest.fixture(scope="session")
def datasets() -> dict[str, list[PreparedVideo]]:
    """Prepared videos per dataset (simulate → detect → track → label)."""
    prepared = {}
    for name, scale in BENCH_SCALE.items():
        prepared[name] = prepare_dataset(
            name,
            scale["n_videos"],
            seed=0,
            n_frames=scale["n_frames"],
        )
    return prepared


@pytest.fixture(scope="session")
def mot17_videos(datasets) -> list[PreparedVideo]:
    return datasets["mot17"]


def assert_unsampled(videos: list[PreparedVideo]) -> None:
    """Benches merge on copies of the shared session videos' pairs, so
    no pair of ``videos`` is left with sampling state."""
    assert all(
        pair.n_sampled == 0
        for video in videos
        for pairs in video.window_pairs
        for pair in pairs
    )


def publish(name: str, text: str) -> None:
    """Print a reproduced table and, outside smoke mode, persist it under
    benchmarks/results/."""
    print()
    print(text)
    if SMOKE:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def record_summary(
    name: str,
    recall: float,
    reid_invocations: float,
    simulated_ms: float,
    extras: dict[str, float] | None = None,
) -> None:
    """Contribute one benchmark's metrics to bench_summary.json.

    ``extras`` records ungated machine-specific numbers (wall-clock
    speedups); the gate only compares the three metric keys.
    """
    _SUMMARY.add(
        name,
        recall=recall,
        reid_invocations=reid_invocations,
        simulated_ms=simulated_ms,
        extras=extras,
    )


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write the collected summary once every bench has reported."""
    if _SUMMARY.benchmarks:
        RESULTS_DIR.mkdir(exist_ok=True)
        _SUMMARY.write(RESULTS_DIR / "bench_summary.json")
