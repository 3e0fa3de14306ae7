"""Metric catalogue of the end-to-end benchmark, and the traced layer metrics.

Every metric a run can print is listed here.  ``BENCHMARK.json`` names the
end-to-end metrics that are defined, never zero and steady across seeds on
every workload, and the per-layer metrics measured on every workload; the
rest are printed, recorded and compared by ``compare.py`` but not gated.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from tracer import layer_table


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    Attributes:
        name: the metric's name.
        unit: its unit.
        better: ``"higher"`` or ``"lower"``.
        scope: ``"all"`` workloads, or only the ``"stream"`` one.
        bound: share of the base median by which an end-to-end metric may
            worsen before it counts as a regression (``BENCHMARK.json``
            repeats it for the metrics it names).
    """

    name: str
    unit: str
    better: str
    scope: str = "all"
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("wall_fps", "frames/s", "higher", bound=0.25),
    Metric("lat_ms_p50", "ms", "lower", bound=0.25),
    Metric("frame_lat_ms_p99", "ms", "lower", scope="stream", bound=0.25),
    Metric("emit_lat_ms_p50", "ms", "lower", scope="stream", bound=0.25),
    Metric("recovery_s", "s", "lower", scope="stream", bound=0.25),
    Metric("rec", "ratio", "higher", bound=0.25),
    Metric("query_recall", "ratio", "higher", bound=0.25),
    Metric("sim_fps", "frames/sim-s", "higher", bound=0.1),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    Metric("fail_rate", "ratio", "lower", bound=0.0),
)

LAYERS = (
    Metric("detect.busy_s", "s", "lower"),
    Metric("track.busy_s", "s", "lower"),
    Metric("track.tracks", "count", "lower"),
    Metric("track.advance_ms_p50", "ms", "lower"),
    Metric("pairs.busy_s", "s", "lower"),
    Metric("pairs.count", "count", "lower"),
    Metric("pairs.max_window", "count", "lower"),
    Metric("pairs.gt_share", "ratio", "higher"),
    Metric("tmerge.busy_s", "s", "lower"),
    Metric("tmerge.self_s", "s", "lower"),
    Metric("tmerge.window_ms_p50", "ms", "lower"),
    Metric("tmerge.window_ms_p90", "ms", "lower"),
    Metric("tmerge.iterations", "count", "lower"),
    Metric("tmerge.draws", "count", "lower"),
    Metric("ulb.busy_s", "s", "lower"),
    Metric("ulb.resolved_share", "ratio", "higher"),
    Metric("bbox.draws", "count", "lower"),
    Metric("bbox.busy_s", "s", "lower"),
    Metric("bbox.fallback_draws", "count", "lower"),
    Metric("reid.busy_s", "s", "lower"),
    Metric("reid.observations", "count", "lower"),
    Metric("reid.extracts", "count", "lower"),
    Metric("reid.cache_hit_ratio", "ratio", "higher"),
    Metric("reid.sim_s", "sim-s", "lower"),
    Metric("parallel.busy_s", "s", "lower"),
    Metric("parallel.task_mb", "MB", "lower"),
    Metric("parallel.pools", "count", "lower"),
    Metric("merge.busy_s", "s", "lower"),
    Metric("query.busy_s", "s", "lower"),
    Metric("streaming.checkpoint_ms_p50", "ms", "lower", scope="stream"),
    Metric("streaming.checkpoint_kb_max", "KB", "lower", scope="stream"),
    Metric("streaming.merge_ms_p50", "ms", "lower", scope="stream"),
    Metric("streaming.restore_s", "s", "lower", scope="stream"),
    Metric("streaming.backlog_max_frames", "count", "lower", scope="stream"),
    Metric("streaming.gen_late_ms_max", "ms", "lower", scope="stream"),
    Metric("streaming.peak_open_windows", "count", "lower", scope="stream"),
    Metric("streaming.shed", "count", "lower", scope="stream"),
    Metric("provenance.events", "count", "lower", scope="stream"),
    Metric("provenance.checkpoint_share", "ratio", "lower", scope="stream"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + LAYERS}

#: Stream counters of frames the service shed or never received.
SHED_COUNTERS = (
    "stream.frames_shed_late",
    "stream.frames_missing",
    "stream.events_shed_queue",
)


def applies(metric: Metric, workload) -> bool:
    """Whether ``metric`` is defined on ``workload``."""
    return metric.scope in ("all", workload.kind)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100), linearly interpolated; 0 when
    there are no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _reid_sim_seconds(cost) -> float:
    """Simulated seconds a CostModel charged to extraction and distances."""
    params = cost.params
    return (
        cost.n_extractions * params.extract_ms
        + cost.n_batch_calls * params.batch_launch_ms
        + cost.n_batched_extractions * params.batch_item_ms
        + cost.n_distances * params.distance_ms
    ) / 1000.0


def layer_metrics(workload, tracer, outcome, untraced_busy_s: float):
    """Per-layer metrics of a traced run, and the layer table behind them.

    Returns:
        ``(metrics, table)``: every :data:`LAYERS` metric by name (stream
        metrics are 0 on ingest workloads), and
        :func:`tracer.layer_table`'s rows.
    """
    table = layer_table(tracer.spans)
    durations = defaultdict(list)
    checkpoint_bytes = [0.0]
    for span in tracer.spans:
        if span["unit"] is None:
            continue
        durations[span["name"]].append(1000.0 * (span["end"] - span["start"]))
        if span["name"] == "streaming.checkpoint":
            checkpoint_bytes.append(
                span["marks"].get("streaming.checkpoint_bytes", 0.0)
            )

    detail = outcome.detail
    if workload.kind == "ingest":
        results = [result for result, _ in detail["results"]]
        telemetries = [telemetry for _, telemetry in detail["results"]]
        window_pairs = [p for r in results for p in r.window_pairs]
        window_results = [w for r in results for w in r.window_results]
        costs = [result.cost for result in results]
    else:
        first, second = detail["legs"]
        emissions = first.emissions + second.emissions
        telemetries = list(detail["telemetries"])
        window_pairs = [e.pairs for e in emissions]
        window_results = [e.result for e in emissions]
        costs = [second.cost]

    def counter(name: str) -> float:
        return sum(t.metrics.value(name) for t in telemetries)

    def cell(layer: str, key: str = "busy_s") -> float:
        return table.get(layer, {}).get(key, 0.0)

    n_pairs = sum(len(pairs) for pairs in window_pairs)
    resolved = sum(
        float(r.extra.get("ulb_accepted", 0.0))
        + float(r.extra.get("ulb_rejected", 0.0))
        for r in window_results
    )
    hits = counter("cache.hits")
    lookups = hits + counter("cache.misses")
    values = {
        "detect.busy_s": cell("detect"),
        "track.busy_s": cell("track"),
        "track.tracks": float(detail["n_tracks"]),
        "track.advance_ms_p50": 1000.0
        * percentile(tracer.samples["track.advance"], 50),
        "pairs.busy_s": cell("pairs"),
        "pairs.count": float(n_pairs),
        "pairs.max_window": float(max(map(len, window_pairs), default=0)),
        "pairs.gt_share": detail["truth_pairs"] / n_pairs if n_pairs else 0.0,
        "tmerge.busy_s": cell("tmerge"),
        "tmerge.self_s": cell("tmerge", "self_s"),
        "tmerge.window_ms_p50": percentile(durations["tmerge.run"], 50),
        "tmerge.window_ms_p90": percentile(durations["tmerge.run"], 90),
        "tmerge.iterations": float(sum(r.iterations for r in window_results)),
        "tmerge.draws": counter("tmerge.thompson_draws"),
        "ulb.busy_s": cell("ulb"),
        "ulb.resolved_share": resolved / n_pairs if n_pairs else 0.0,
        "bbox.draws": cell("bbox", "calls"),
        "bbox.busy_s": cell("bbox"),
        "bbox.fallback_draws": cell("bbox", "bbox.fallback_draws"),
        "reid.busy_s": cell("reid"),
        "reid.observations": float(sum(c.n_distances for c in costs)),
        "reid.extracts": float(
            sum(c.n_extractions + c.n_batched_extractions for c in costs)
        ),
        "reid.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "reid.sim_s": sum(_reid_sim_seconds(cost) for cost in costs),
        "parallel.busy_s": cell("parallel"),
        "parallel.task_mb": cell("parallel", "parallel.task_bytes") / 1e6,
        "parallel.pools": cell("parallel", "parallel.pools"),
        "merge.busy_s": cell("merge"),
        "query.busy_s": cell("query"),
        "trace.overhead_ratio": outcome.busy_s / untraced_busy_s,
    }
    values.update({m.name: 0.0 for m in LAYERS if m.scope == "stream"})
    if workload.kind == "stream":
        feed = detail["feed"]
        values.update(
            {
                "streaming.checkpoint_ms_p50": percentile(
                    durations["streaming.checkpoint"], 50
                ),
                "streaming.checkpoint_kb_max": max(checkpoint_bytes) / 1024.0,
                "streaming.merge_ms_p50": percentile(
                    durations["parallel.run"], 50
                ),
                "streaming.restore_s": sum(durations["streaming.restore"])
                / 1000.0,
                "streaming.backlog_max_frames": float(feed.backlog_max),
                "streaming.gen_late_ms_max": 1000.0 * feed.late_max_s,
                "streaming.peak_open_windows": float(
                    max(first.peak_open_windows, second.peak_open_windows)
                ),
                "streaming.shed": sum(
                    second.counters.get(name, 0.0) for name in SHED_COUNTERS
                ),
                "provenance.events": float(detail["ledger"].n_recorded),
                "provenance.checkpoint_share": detail["ledger_share"],
            }
        )
    return values, table
