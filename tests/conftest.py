"""Shared fixtures for the test suite.

Expensive artefacts (a simulated world with detections and tracks) are
session-scoped; tests must not mutate them.
"""

from __future__ import annotations

import gc
import multiprocessing
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import env_batch_size, tiny_world  # noqa: E402

from repro.core.pipeline import IngestionPipeline  # noqa: E402
from repro.core.tmerge import TMerge  # noqa: E402
from repro.detect import NoisyDetector  # noqa: E402
from repro.scenarios import build_scenario, scenario_by_name  # noqa: E402
from repro.track import TracktorTracker  # noqa: E402


@pytest.fixture(scope="session")
def world():
    """A small simulated world shared across tests (read-only)."""
    return tiny_world(n_frames=200, seed=7)


@pytest.fixture(scope="session")
def detections(world):
    return NoisyDetector().detect_video(world, seed=11)


@pytest.fixture(scope="session")
def tracks(world, detections):
    return TracktorTracker().run(detections)


@pytest.fixture(scope="session")
def scenario_world():
    """The busier 240-frame world the pipeline/resilience/chaos/parallel
    and streaming-restart tests share (read-only): the scenario matrix's
    axis-free ``chaos-baseline`` compact world, with enough concurrent
    objects and track churn to produce several non-trivial windows."""
    return build_scenario(scenario_by_name("chaos-baseline"), seed=21).world


@pytest.fixture(scope="session")
def chaos_world(scenario_world):
    """Alias of :func:`scenario_world` kept for the suites that predate
    the scenario matrix (same object — both names must stay one world)."""
    return scenario_world


@pytest.fixture
def make_pipeline():
    """Factory for the canonical test ingestion pipeline.

    Returns a callable accepting :class:`IngestionPipeline` keyword
    overrides; the defaults (TracktorTracker + a small TMerge, batched at
    :func:`env_batch_size`) match the historical per-module setups so
    results stay comparable across test files.
    """

    def build(**overrides) -> IngestionPipeline:
        config = dict(
            tracker=TracktorTracker(),
            merger=TMerge(
                k=0.1, tau_max=300, batch_size=env_batch_size(10), seed=3
            ),
            window_length=300,
        )
        config.update(overrides)
        return IngestionPipeline(**config)

    return build


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a pool worker outlives the tests.

    Every pool owner (pipeline, streaming service, sweep) must close its
    pool or drop it; a worker still alive here is a leaked pool.
    Unreachable owners are collected first, since their finalizers join
    the workers.
    """
    gc.collect()
    leaked = multiprocessing.active_children()
    if leaked:
        writer = session.config.get_terminal_writer()
        writer.line()
        writer.line(
            f"{len(leaked)} pool worker(s) outlived the tests: "
            + ", ".join(f"{child.name} (pid {child.pid})" for child in leaked),
            red=True,
        )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
