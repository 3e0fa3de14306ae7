"""Regime-sweep harness: the scenario matrix through both engines.

``python -m repro.experiments scenarios`` runs every named scenario
(:data:`repro.scenarios.SCENARIO_MATRIX`) through the batch ingestion
pipeline and the streaming service, recording per-scenario recall, ReID
budget and simulated latency into a ``scenario_matrix.json`` document.
CI's ``scenario-sweep`` job regenerates the document at smoke scale and
gates it **per scenario** against the committed baseline
(``benchmarks/results/scenario_matrix.json``) — a regression confined to
one regime must fail the build even when the matrix average looks fine.

Both legs run under the window-local determinism regime (``workers=1``
through the sharded engine, thread backend), so the recorded numbers are
a pure function of ``(matrix, seed)`` — bit-identical across machines,
worker counts and reruns, which is what makes committing the baseline
meaningful.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.core.pipeline import IngestionPipeline
from repro.core.tmerge import TMerge
from repro.experiments.bench_summary import BenchSummary
from repro.metrics.matching import match_tracks_to_gt, polyonymous_pairs
from repro.metrics.recall import window_recall
from repro.scenarios import (
    SCENARIO_MATRIX,
    Scenario,
    ScenarioSpec,
    build_scenario,
    scenario_by_name,
    smoke_variant,
)
from repro.streaming import StreamingIngestionService, SyntheticFeedSource
from repro.track.tracktor import TracktorTracker

#: Format version stamped into every matrix document.
SCHEMA_VERSION = 1

#: Committed per-scenario baseline the CI gate compares against.
DEFAULT_MATRIX_PATH = "benchmarks/results/scenario_matrix.json"

#: Default relative tolerance of the per-scenario gate.
DEFAULT_TOLERANCE = 0.05

#: Arrival jitter bound (simulated ms) of the streaming leg's feed.
_DISORDER_MS = 50.0

#: Allowed lateness (frames) of the streaming leg.
_LATENESS = 4

#: Per-window TMerge sampling budget.  Deliberately *budgeted* (not
#: saturating): at this τ_max the matrix's recalls spread over roughly
#: [0.6, 1.0], so a per-scenario recall regression actually has room to
#: show up — a saturating budget would pin every scenario at 1.0 and
#: blind the gate.
_TAU_MAX = 80


def _merger() -> TMerge:
    """The fixed merger configuration every scenario runs."""
    return TMerge(k=0.1, tau_max=_TAU_MAX, batch_size=10, seed=3)


def _batch_leg(scenario: Scenario) -> dict:
    """Run the batch pipeline over a scenario; return its metrics."""
    spec = scenario.spec
    pipeline = IngestionPipeline(
        tracker=TracktorTracker(),
        merger=_merger(),
        window_length=spec.window_length,
        reid_seed=scenario.seeds.reid_seed,
        detector_seed=scenario.seeds.detector_seed,
        fault_profile=scenario.profile,
        workers=1,
        parallel_backend="thread",
    )
    result = pipeline.run(scenario.world)
    assignment = match_tracks_to_gt(result.tracks, scenario.world)
    recs: list[float] = []
    for pairs, window_result in zip(
        result.window_pairs, result.window_results
    ):
        if not pairs:
            continue
        gt_keys = polyonymous_pairs(pairs, assignment)
        rec = window_recall(window_result.candidate_keys, gt_keys)
        if rec is not None:
            recs.append(rec)
    recall = sum(recs) / len(recs) if recs else 1.0
    return {
        "recall": round(recall, 6),
        "reid_budget": int(
            result.cost.n_extractions + result.cost.n_batched_extractions
        ),
        "simulated_ms": round(result.cost.seconds * 1000.0, 3),
        "degraded_windows": len(result.degraded_windows),
        "windows": len(result.windows),
        "tracks": len(result.tracks),
    }


def _stream_leg(scenario: Scenario) -> dict:
    """Run the streaming service over a scenario; return its metrics."""
    spec = scenario.spec
    source = SyntheticFeedSource(
        scenario.world,
        detector_seed=scenario.seeds.detector_seed,
        disorder_ms=_DISORDER_MS,
        disorder_seed=scenario.seeds.disorder_seed,
        fault_profile=scenario.profile,
    )
    service = StreamingIngestionService(
        TracktorTracker(),
        _merger(),
        window_length=spec.window_length,
        allowed_lateness=_LATENESS,
        reid_seed=scenario.seeds.reid_seed,
        workers=1,
        parallel_backend="thread",
        fault_profile=scenario.profile,
    )
    run = service.run(source)
    lags = [emission.lag_ms for emission in run.emissions]
    return {
        "emissions": len(run.emissions),
        "mean_lag_ms": round(sum(lags) / len(lags), 3) if lags else 0.0,
        "max_lag_ms": round(max(lags), 3) if lags else 0.0,
        "degraded_windows": sum(
            1 for emission in run.emissions if emission.result.degraded
        ),
    }


def run_scenario(spec: ScenarioSpec, seed: int = 0) -> dict:
    """Run one scenario through both legs; return its matrix record."""
    scenario = build_scenario(spec, seed)
    record = {
        "scenario_id": spec.scenario_id,
        "preset": spec.preset,
        "axes": list(spec.active_axes),
    }
    record.update(_batch_leg(scenario))
    record["stream"] = _stream_leg(scenario)
    return record


def sweep(
    seed: int = 0,
    smoke: bool = False,
    only: Sequence[str] | None = None,
    progress=None,
) -> dict:
    """Run the (optionally filtered) matrix; return the matrix document.

    Args:
        seed: sweep seed, combined with each scenario's identity hash
            into that scenario's private seed streams.
        smoke: run the CI quick-lane variants
            (:func:`repro.scenarios.smoke_variant`) instead of the full
            specs.
        only: optional scenario-name subset (unknown names raise
            ``KeyError``).
        progress: optional ``callable(str)`` invoked with each scenario
            name as it completes (the CLI prints these).
    """
    if only:
        specs = [scenario_by_name(name) for name in only]
    else:
        specs = list(SCENARIO_MATRIX)
    if smoke:
        specs = [smoke_variant(spec) for spec in specs]
    scenarios: dict[str, dict] = {}
    for spec in specs:
        scenarios[spec.name] = run_scenario(spec, seed=seed)
        if progress is not None:
            progress(spec.name)
    return {
        "schema": SCHEMA_VERSION,
        "mode": "smoke" if smoke else "full",
        "seed": seed,
        "scenarios": scenarios,
    }


def write_matrix(document: dict, path: str | Path) -> Path:
    """Write a matrix document as stable pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    return path


def load_matrix(path: str | Path) -> dict:
    """Load a matrix document; validate its schema version."""
    document = json.loads(Path(path).read_text())
    schema = int(document.get("schema", 0))
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported scenario matrix schema {schema} "
            f"(expected {SCHEMA_VERSION})"
        )
    return document


def gate_matrix(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Gate a matrix document per scenario; return failure descriptions.

    A scenario fails when it is missing from the current run, its recall
    dropped or its ReID budget grew by more than ``tolerance``
    (relative).  A ``scenario_id`` mismatch fails as *definition drift*:
    the spec changed, so comparing metrics would be meaningless — the
    baseline must be consciously refreshed.  Mode/seed mismatches fail
    the whole comparison for the same reason.  Scenarios present only in
    the current run pass (no baseline yet).  An empty return value means
    the gate passes.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    failures: list[str] = []
    for key in ("mode", "seed"):
        if current.get(key) != baseline.get(key):
            failures.append(
                f"{key} mismatch: current {current.get(key)!r} vs "
                f"baseline {baseline.get(key)!r} — runs are not comparable"
            )
    if failures:
        return failures
    current_scenarios = current.get("scenarios", {})
    for name, base in sorted(baseline.get("scenarios", {}).items()):
        now = current_scenarios.get(name)
        if now is None:
            failures.append(
                f"{name}: present in baseline but missing from this run"
            )
            continue
        if now["scenario_id"] != base["scenario_id"]:
            failures.append(
                f"{name}: scenario_id {base['scenario_id']} -> "
                f"{now['scenario_id']} — definition drift; refresh the "
                "baseline to re-pin this scenario"
            )
            continue
        recall_floor = base["recall"] * (1.0 - tolerance)
        if now["recall"] < recall_floor:
            failures.append(
                f"{name}: recall regressed {base['recall']:.4f} -> "
                f"{now['recall']:.4f} (floor {recall_floor:.4f} at "
                f"{tolerance:.0%} tolerance)"
            )
        budget_ceiling = base["reid_budget"] * (1.0 + tolerance)
        if now["reid_budget"] > budget_ceiling:
            failures.append(
                f"{name}: reid_budget regressed {base['reid_budget']} -> "
                f"{now['reid_budget']} (ceiling {budget_ceiling:.0f} at "
                f"{tolerance:.0%} tolerance)"
            )
    return failures


def merge_into_summary(
    document: dict, summary_path: str | Path
) -> Path:
    """Fold a matrix document into a ``bench_summary.json``.

    Records one ``scenario_matrix`` benchmark whose gated metrics are
    the matrix's *worst case* — minimum per-scenario recall and total
    ReID budget — with every per-scenario number preserved in the
    (ungated) extras, so the bench artifact carries the full sweep
    without widening the bench gate's noise surface.
    """
    summary_path = Path(summary_path)
    if summary_path.exists():
        summary = BenchSummary.load(summary_path)
    else:
        summary = BenchSummary()
    scenarios = document["scenarios"]
    extras: dict[str, float] = {}
    for name, record in scenarios.items():
        extras[f"{name}.recall"] = record["recall"]
        extras[f"{name}.reid_budget"] = record["reid_budget"]
        extras[f"{name}.mean_lag_ms"] = record["stream"]["mean_lag_ms"]
    summary.add(
        "scenario_matrix",
        recall=min(r["recall"] for r in scenarios.values()),
        reid_invocations=sum(r["reid_budget"] for r in scenarios.values()),
        simulated_ms=sum(r["simulated_ms"] for r in scenarios.values()),
        extras=extras,
    )
    return summary.write(summary_path)


def format_matrix(document: dict) -> str:
    """Render a matrix document as the CLI's report table."""
    from repro.experiments.reporting import format_table

    rows = [
        [
            name,
            record["scenario_id"],
            "+".join(record["axes"]) or "clear",
            record["recall"],
            record["reid_budget"],
            record["degraded_windows"],
            record["stream"]["mean_lag_ms"],
        ]
        for name, record in sorted(document["scenarios"].items())
    ]
    return format_table(
        ["scenario", "id", "axes", "REC", "reid budget", "degraded",
         "mean lag ms"],
        rows,
        f"Scenario matrix — mode {document['mode']}, "
        f"seed {document['seed']}, {len(rows)} scenarios",
    )
