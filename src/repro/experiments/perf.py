"""The ``bench-perf`` lane: batched-vs-scalar hot-path microbenchmark.

Measures the wall-clock cost per ReID observation of the scalar TMerge
sampler against the vectorized batched sampler (TMerge-B, DESIGN.md §6.2)
on the same MOT-17-like workload at a matched observation budget
(``tau_scalar = B * tau_batched``), and emits a machine-readable
``perf_summary.json`` for the CI ``bench-perf`` lane.

Unlike the pytest bench suite (which gates only machine-independent
metrics), this lane *does* check a wall-clock property — but only the
dimensionless ratio between two runs on the same machine in the same
process: the batched sampler must not be slower per observation than
the scalar one.  Absolute times are recorded for trend inspection
(``benchmarks/results/perf_trend.jsonl``) and never gated.

Run it directly::

    python -m repro.experiments perf --smoke
    python -m repro.experiments perf --trend benchmarks/results/perf_trend.jsonl
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.tmerge import TMerge
from repro.experiments.prep import PreparedVideo, prepare_dataset
from repro.experiments.sweeps import evaluate_merger
from repro.telemetry import Telemetry

#: perf_summary.json schema version (bump on incompatible layout change).
SCHEMA_VERSION = 1

#: Batch size of the batched contender (matches the bench + CI lane).
BATCH_SIZE = 8

#: Observation budget of the scalar run; the batched run gets an equal
#: budget split across batches (``tau = SCALAR_TAU // BATCH_SIZE``).
SCALAR_TAU = 1600
SMOKE_SCALAR_TAU = 800

#: Smoke workload: one short MOT-17-like video (matches the bench suite's
#: ``REPRO_BENCH_SMOKE=1`` scale so numbers line up across lanes).
SMOKE_WORKLOAD = dict(preset="mot17", n_videos=1, seed=0, n_frames=300)
FULL_WORKLOAD = dict(preset="mot17", n_videos=2, seed=0, n_frames=700)


def measure(
    videos: list[PreparedVideo],
    batch_size: int | None,
    tau_max: int,
) -> dict[str, float]:
    """Run one TMerge configuration; return wall-clock + observation stats.

    Args:
        videos: prepared evaluation videos.
        batch_size: TMerge batch size (``None`` = scalar path).
        tau_max: per-window sampling budget (iterations).
    """
    telemetry = Telemetry()

    def factory() -> TMerge:
        return TMerge(k=0.1, tau_max=tau_max, batch_size=batch_size, seed=3)

    start = time.perf_counter()
    point = evaluate_merger(factory, videos, telemetry=telemetry)
    wall_s = time.perf_counter() - start
    observations = telemetry.metrics.value("reid.distances")
    return {
        "wall_s": wall_s,
        "observations": observations,
        "ms_per_obs": (
            wall_s * 1000.0 / observations if observations else float("inf")
        ),
        "recall": point.rec,
        "reid_invocations": float(point.reid_invocations),
        "simulated_seconds": point.simulated_seconds,
    }


def run_perf(smoke: bool = True, repeats: int = 3) -> dict[str, Any]:
    """Run the scalar-vs-batched microbench; return the summary record.

    Each contender runs ``repeats`` times and keeps its best (minimum)
    wall clock — the standard microbenchmark noise filter — while the
    deterministic fields (observations, recall, simulated cost) come
    from the first run and are identical across repeats.

    Args:
        smoke: use the CI smoke workload (1 short video) instead of the
            laptop-scale one.
        repeats: timed runs per contender (minimum is reported).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    workload = dict(SMOKE_WORKLOAD if smoke else FULL_WORKLOAD)
    scalar_tau = SMOKE_SCALAR_TAU if smoke else SCALAR_TAU
    preset = str(workload.pop("preset"))
    videos = prepare_dataset(preset, **workload)

    def best_of(batch_size: int | None, tau_max: int) -> dict[str, float]:
        runs = [measure(videos, batch_size, tau_max) for _ in range(repeats)]
        best = dict(runs[0])
        for run in runs[1:]:
            if run["wall_s"] < best["wall_s"]:
                best["wall_s"] = run["wall_s"]
                best["ms_per_obs"] = run["ms_per_obs"]
        return best

    scalar = best_of(None, scalar_tau)
    batched = best_of(BATCH_SIZE, scalar_tau // BATCH_SIZE)
    speedup = (
        scalar["ms_per_obs"] / batched["ms_per_obs"]
        if batched["ms_per_obs"] > 0
        else float("inf")
    )
    return {
        "schema": SCHEMA_VERSION,
        "unix_time": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": {"preset": preset, **workload,
                     "scalar_tau": scalar_tau, "smoke": smoke},
        "batch_size": BATCH_SIZE,
        "repeats": repeats,
        "scalar": scalar,
        "batched": batched,
        "speedup": speedup,
    }


def check_summary(summary: dict[str, Any]) -> list[str]:
    """Validate a perf summary; return failure messages (empty = pass).

    The gated property is machine-independent: on the same machine, in
    the same process, the batched sampler must be at least as fast per
    observation as the scalar sampler (speedup >= 1.0).
    """
    failures: list[str] = []
    speedup = summary.get("speedup", 0.0)
    if not speedup >= 1.0:
        failures.append(
            f"batched sampler slower than scalar at B={summary['batch_size']}"
            f": speedup {speedup:.3f} < 1.0 "
            f"(scalar {summary['scalar']['ms_per_obs']:.4f} ms/obs, "
            f"batched {summary['batched']['ms_per_obs']:.4f} ms/obs)"
        )
    for side in ("scalar", "batched"):
        if summary[side]["observations"] <= 0:
            failures.append(f"{side} run recorded zero ReID observations")
    return failures


def append_trend(summary: dict[str, Any], trend_path: str | Path) -> None:
    """Append one compact record to the perf trend JSONL file.

    The trend file is committed, so each line keeps only the fields
    worth diffing across machines and commits; absolute wall clocks are
    context, the speedup ratio is the signal.
    """
    record = {
        "schema": summary["schema"],
        "unix_time": round(summary["unix_time"], 1),
        "python": summary["python"],
        "numpy": summary["numpy"],
        "smoke": summary["workload"]["smoke"],
        "batch_size": summary["batch_size"],
        "scalar_ms_per_obs": round(summary["scalar"]["ms_per_obs"], 5),
        "batched_ms_per_obs": round(summary["batched"]["ms_per_obs"], 5),
        "speedup": round(summary["speedup"], 3),
    }
    path = Path(trend_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def format_summary(summary: dict[str, Any]) -> str:
    """Render the human-readable report printed by the CLI."""
    from repro.experiments.reporting import format_table

    rows = []
    for label, side in (("TMerge (scalar)", "scalar"),
                        (f"TMerge-B{summary['batch_size']}", "batched")):
        stats = summary[side]
        rows.append([
            label,
            int(stats["observations"]),
            round(stats["wall_s"], 3),
            round(stats["ms_per_obs"], 4),
            round(stats["simulated_seconds"], 2),
            round(stats["recall"], 3),
        ])
    table = format_table(
        ["variant", "obs", "wall s", "ms/obs", "sim s", "REC"],
        rows,
        title=(
            "bench-perf — scalar vs batched sampler "
            f"({'smoke' if summary['workload']['smoke'] else 'full'} "
            f"workload, best of {summary['repeats']})"
        ),
    )
    return (
        f"{table}\n\n"
        f"wall-clock speedup per observation: {summary['speedup']:.2f}x "
        f"(numpy {summary['numpy']}, python {summary['python']})"
    )
