"""Telemetry layer: metrics semantics, spans on the simulated and wall
clocks, JSONL round-trips, span hotspots, and the bit-identity guarantee
(a pipeline run with telemetry injected produces exactly the same
merge results as one without)."""

import json
import math

import pytest
from helpers import tiny_world

from repro.core.pipeline import IngestionPipeline
from repro.core.tmerge import TMerge
from repro.reid import CostModel
from repro.streaming import StreamingIngestionService, SyntheticFeedSource
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.telemetry.metrics import Histogram
from repro.telemetry.openmetrics import (
    metric_name,
    parse_openmetrics,
    render_openmetrics,
)
from repro.telemetry.tracing import (
    Span,
    spans_from_jsonl,
)
from repro.track import TracktorTracker


# ---------------------------------------------------------------------------
# Counters, gauges, histograms
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("reid.invocations")
        registry.inc("reid.invocations", 4)
        assert registry.value("reid.invocations") == 5.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("x", -1.0)

    def test_value_of_absent_metric_is_zero(self):
        assert MetricsRegistry().value("never.touched") == 0.0

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 3.0)
        registry.set_gauge("g", 1.5)
        assert registry.value("g") == 1.5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (0.5, 2.0, 50.0):
            registry.observe("ms", value)
        h = registry.histogram("ms")
        assert h.count == 3
        assert h.total == pytest.approx(52.5)
        assert h.mean == pytest.approx(17.5)
        assert h.min_value == 0.5
        assert h.max_value == 50.0

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        h = registry.histogram("ms", bounds=(1.0, 10.0))
        for value in (0.2, 0.9, 5.0, 1e9):
            h.observe(value)
        assert h.bucket_counts == [2, 1, 1]  # <=1, <=10, +inf

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", bounds=(2.0, 1.0))

    def test_snapshot_delta(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        before = registry.counters_snapshot()
        registry.inc("a", 3)
        registry.inc("b")
        moved = MetricsRegistry.delta(registry.counters_snapshot(), before)
        assert moved == {"a": 3.0, "b": 1.0}

    def test_delta_drops_unmoved(self):
        registry = MetricsRegistry()
        registry.inc("quiet")
        snap = registry.counters_snapshot()
        assert MetricsRegistry.delta(snap, snap) == {}

    def test_report_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 7)
        registry.observe("h", 3.0)
        report = registry.report()
        assert "c = 2" in report
        assert "g = 7 (gauge)" in report
        assert "h: count=1" in report


# ---------------------------------------------------------------------------
# Spans on the simulated clock
# ---------------------------------------------------------------------------
class TestTracing:
    def test_span_nesting_on_simulated_clock(self):
        cost = CostModel()
        tracer = Tracer(clock=cost)
        with tracer.span("outer", method="TMerge") as outer:
            cost.charge_extract(2)  # 10 simulated ms
            with tracer.span("inner") as inner:
                cost.charge_extract(1)  # 5 more
        assert outer.span_id == 1
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.start_ms == 0.0
        assert inner.start_ms == pytest.approx(10.0)
        assert inner.end_ms == pytest.approx(15.0)
        assert outer.end_ms == pytest.approx(15.0)
        assert outer.duration_ms == pytest.approx(15.0)
        assert outer.attributes == {"method": "TMerge"}

    def test_spans_close_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [s.name for s in tracer.spans] == ["b", "a"]
        assert tracer.current is None

    def test_unbound_clock_stamps_zero(self):
        tracer = Tracer()
        with tracer.span("free") as span:
            pass
        assert span.start_ms == 0.0 and span.end_ms == 0.0

    def test_span_survives_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.spans[0].end_ms is not None
        assert tracer.current is None

    def test_jsonl_round_trip(self):
        cost = CostModel()
        tracer = Tracer(clock=cost)
        with tracer.span("window", window_id=3):
            cost.charge_distance(100)
        restored = spans_from_jsonl(tracer.to_jsonl())
        assert [s.to_dict() for s in restored] == [
            s.to_dict() for s in sorted(tracer.spans, key=lambda s: s.span_id)
        ]

    def test_export_jsonl_file(self, tmp_path):
        cost = CostModel()
        tracer = Tracer(clock=cost)
        with tracer.span("a"):
            with tracer.span("b"):
                cost.charge_extract()
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == 2
        spans = spans_from_jsonl(path.read_text())
        assert [s.name for s in spans] == ["a", "b"]  # id order
        assert spans[1].parent_id == spans[0].span_id

    def test_open_span_round_trips_none_end(self):
        span = Span(span_id=1, parent_id=None, name="open", start_ms=2.0)
        assert Span.from_dict(span.to_dict()).end_ms is None


# ---------------------------------------------------------------------------
# The wall clock: each span's wall_ms, and hotspots over spans
# ---------------------------------------------------------------------------
def _nested_tracer():
    cost = CostModel()
    tracer = Tracer(clock=cost)
    with tracer.span("outer"):
        with tracer.span("inner"):
            cost.charge_extract()
            with tracer.span("leaf"):
                pass
        with tracer.span("inner"):
            pass
    return tracer


class TestWallClock:
    def test_closed_spans_carry_wall_ms(self):
        tracer = _nested_tracer()
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            assert span.wall_ms >= 0.0
            if span.parent_id is not None:
                assert span.wall_ms <= by_id[span.parent_id].wall_ms

    def test_open_span_reads_zero_wall_ms(self):
        tracer = Tracer()
        with tracer.span("open") as span:
            assert span.wall_ms == 0.0

    def test_jsonl_round_trip_keeps_wall_ms(self):
        tracer = _nested_tracer()
        restored = spans_from_jsonl(tracer.to_jsonl())
        ordered = sorted(tracer.spans, key=lambda s: s.span_id)
        assert [s.wall_ms for s in restored] == [s.wall_ms for s in ordered]

    def test_absorb_keeps_wall_ms(self):
        worker = _nested_tracer()
        host = Tracer()
        with host.span("ingest"):
            adopted = host.absorb(worker.spans)
        ordered = sorted(worker.spans, key=lambda s: s.span_id)
        assert [s.wall_ms for s in adopted] == [s.wall_ms for s in ordered]


class TestProfiling:
    """Where the wall time went, read off the spans."""

    def test_records_with_telemetry(self):
        telemetry = Telemetry()
        for window_id in range(2):
            with telemetry.span("window", window_id=window_id):
                pass
        [(name, spans, wall_ms)] = telemetry.tracer.hotspots()
        assert (name, spans) == ("window", 2)
        assert wall_ms == pytest.approx(
            sum(s.wall_ms for s in telemetry.tracer.spans)
        )

    def test_hotspots_ranked_by_total_time(self):
        tracer = Tracer()
        tracer.absorb(
            [
                Span(1, None, "cheap", 0.0, 0.0, wall_ms=1.0),
                Span(2, None, "hot", 0.0, 0.0, wall_ms=500.0),
                Span(3, None, "hot", 0.0, 0.0, wall_ms=500.0),
                Span(4, None, "tail", 0.0, 0.0, wall_ms=0.5),
            ]
        )
        assert tracer.hotspots(top=2) == [
            ("hot", 2, 1000.0),
            ("cheap", 1, 1.0),
        ]

    def test_empty_report(self):
        assert "no spans recorded" in Telemetry().report()


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------
class TestFacade:
    def test_shortcuts_hit_the_registry(self):
        telemetry = Telemetry()
        telemetry.count("c", 3)
        telemetry.set_gauge("g", 9)
        telemetry.observe("h", 1.0)
        assert telemetry.metrics.value("c") == 3.0
        assert telemetry.metrics.value("g") == 9.0
        assert telemetry.metrics.histogram("h").count == 1

    def test_bind_clock_reaches_spans(self):
        telemetry = Telemetry()
        cost = CostModel()
        telemetry.bind_clock(cost)
        assert telemetry.clock is cost
        cost.charge_extract()
        with telemetry.span("s") as span:
            pass
        assert span.start_ms == pytest.approx(5.0)

    def test_report_combines_metrics_and_hotspots(self):
        telemetry = Telemetry()
        telemetry.count("reid.invocations", 7)
        with telemetry.span("window"):
            pass
        report = telemetry.report()
        assert "reid.invocations = 7" in report
        assert "hotspots (wall time):" in report
        assert "window: 1 spans" in report

    def test_export_carries_no_profile(self):
        telemetry = Telemetry()
        with telemetry.span("window"):
            pass
        payload = telemetry.export()
        assert "profile" not in payload
        assert payload["spans"][0]["wall_ms"] >= 0.0


# ---------------------------------------------------------------------------
# Pipeline integration: bit-identity and per-window metrics
# ---------------------------------------------------------------------------
def _pipeline(telemetry=None):
    return IngestionPipeline(
        tracker=TracktorTracker(),
        merger=TMerge(k=0.1, tau_max=400, batch_size=10, seed=3),
        window_length=300,
        telemetry=telemetry,
    )


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def runs(self):
        world = tiny_world(n_frames=600, seed=4)
        plain = _pipeline().run(world)
        telemetry = Telemetry()
        observed = _pipeline(telemetry).run(world)
        return plain, observed, telemetry

    def test_bit_identical_with_telemetry(self, runs):
        plain, observed, _ = runs
        assert plain.selected_pairs == observed.selected_pairs
        assert [t.track_id for t in plain.merged_tracks] == [
            t.track_id for t in observed.merged_tracks
        ]
        assert plain.id_map == observed.id_map
        assert plain.cost.milliseconds == observed.cost.milliseconds
        for a, b in zip(plain.window_results, observed.window_results):
            assert a.scores == b.scores
            assert a.candidate_keys == b.candidate_keys

    def test_window_metrics_populated(self, runs):
        _, observed, _ = runs
        assert len(observed.window_metrics) == len(observed.windows)
        busy = [
            metrics
            for metrics, pairs in zip(
                observed.window_metrics, observed.window_pairs
            )
            if pairs
        ]
        assert busy, "expected at least one non-empty window"
        for metrics in busy:
            assert metrics.get("reid.invocations", 0.0) > 0
            assert metrics.get("cost.simulated_ms", 0.0) > 0

    def test_plain_run_records_no_window_metrics(self, runs):
        plain, _, _ = runs
        assert plain.window_metrics == []

    def test_counters_match_cost_model(self, runs):
        _, observed, telemetry = runs
        total_invocations = (
            observed.cost.n_extractions
            + observed.cost.n_batched_extractions
        )
        assert telemetry.metrics.value("reid.invocations") == float(
            total_invocations
        )
        assert telemetry.metrics.value("cost.simulated_ms") == pytest.approx(
            observed.cost.milliseconds
        )
        assert telemetry.metrics.value(
            "tmerge.thompson_draws"
        ) > 0

    def test_spans_cover_every_window(self, runs):
        _, observed, telemetry = runs
        spans = telemetry.tracer.spans
        ingest = [s for s in spans if s.name == "ingest"]
        windows = [s for s in spans if s.name == "window"]
        assert len(ingest) == 1
        assert len(windows) == len(observed.windows)
        assert all(s.parent_id == ingest[0].span_id for s in windows)
        assert sorted(
            s.attributes["window_id"] for s in windows
        ) == list(range(len(observed.windows)))
        for span in windows:
            assert span.end_ms >= span.start_ms
            assert math.isfinite(span.duration_ms)

    def test_merge_spans_nest_inside_windows(self, runs):
        _, _, telemetry = runs
        window_ids = {
            s.span_id
            for s in telemetry.tracer.spans
            if s.name == "window"
        }
        merges = [
            s for s in telemetry.tracer.spans if s.name == "tmerge.run"
        ]
        assert merges
        assert all(s.parent_id in window_ids for s in merges)

    def test_report_ranks_span_hotspots(self, runs):
        _, observed, telemetry = runs
        names = [name for name, _, _ in telemetry.tracer.hotspots()]
        assert {"ingest", "window", "tmerge.run"} <= set(names)
        assert f"window: {len(observed.windows)} spans" in telemetry.report()


# ---------------------------------------------------------------------------
# Histogram percentiles, state merging, OpenMetrics exposition
# ---------------------------------------------------------------------------
class TestHistogramPercentiles:
    def test_extremes_are_exact(self):
        histogram = Histogram("t", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 8.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) == 0.5
        assert histogram.percentile(1.0) == 8.0

    def test_degenerate_bucket_clamps_to_observed(self):
        histogram = Histogram("t", bounds=(10.0,))
        for _ in range(4):
            histogram.observe(5.0)
        assert histogram.percentile(0.5) == 5.0
        assert histogram.percentile(0.99) == 5.0

    def test_uniform_grid_lands_near_true_quantiles(self):
        histogram = Histogram(
            "t", bounds=(25.0, 50.0, 75.0, 100.0)
        )
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(0.50) == pytest.approx(50.0, abs=1.0)
        assert histogram.percentile(0.95) == pytest.approx(95.0, abs=1.0)
        assert histogram.percentile(0.99) == pytest.approx(99.0, abs=1.0)

    def test_empty_is_zero_and_bad_q_rejected(self):
        histogram = Histogram("t")
        assert histogram.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_summary_carries_percentiles(self):
        histogram = Histogram("t")
        histogram.observe(3.0)
        summary = histogram.summary()
        assert summary["p50"] == 3.0
        assert summary["p95"] == 3.0
        assert summary["p99"] == 3.0


class TestHistogramState:
    def test_merge_matches_direct_observation(self):
        left_values = [0.5, 3.0, 12.0, 700.0]
        right_values = [0.1, 9.0, 50.0]
        direct = Histogram("t")
        for value in left_values + right_values:
            direct.observe(value)
        left, right = Histogram("t"), Histogram("t")
        for value in left_values:
            left.observe(value)
        for value in right_values:
            right.observe(value)
        left.merge_state(right.state_dict())
        assert left.state_dict() == direct.state_dict()
        assert left.summary() == direct.summary()

    def test_state_is_pure_json(self):
        histogram = Histogram("t")
        histogram.observe(1.5)
        state = json.loads(json.dumps(histogram.state_dict()))
        clone = Histogram("t")
        clone.merge_state(state)
        assert clone.state_dict() == histogram.state_dict()

    def test_bounds_mismatch_refused(self):
        left = Histogram("t", bounds=(1.0, 2.0))
        right = Histogram("t", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            left.merge_state(right.state_dict())

    def test_merging_empty_state_keeps_extremes(self):
        histogram = Histogram("t")
        histogram.observe(5.0)
        histogram.merge_state(Histogram("t").state_dict())
        assert histogram.count == 1
        assert histogram.min_value == 5.0
        assert histogram.max_value == 5.0

    def test_registry_snapshot_merge_round_trip(self):
        source = MetricsRegistry()
        source.observe("window.merge_ms", 3.0)
        source.observe("window.merge_ms", 40.0)
        target = MetricsRegistry()
        target.merge_histograms(source.histograms_snapshot())
        assert (
            target.histograms()["window.merge_ms"].state_dict()
            == source.histograms()["window.merge_ms"].state_dict()
        )


class TestOpenMetrics:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("reid.invocations", 7)
        registry.set_gauge("stream.queue_depth", 3.5)
        registry.observe("window.merge_ms", 0.25)
        registry.observe("window.merge_ms", 123.456)
        return registry

    def test_render_has_types_totals_and_eof(self):
        text = render_openmetrics(self._registry())
        assert "# TYPE repro_reid_invocations counter" in text
        assert "repro_reid_invocations_total 7.0" in text
        assert "# TYPE repro_stream_queue_depth gauge" in text
        assert "# TYPE repro_window_merge_ms histogram" in text
        assert text.endswith("# EOF\n")

    def test_bucket_series_is_cumulative(self):
        samples = parse_openmetrics(
            render_openmetrics(self._registry())
        )
        buckets = [
            value
            for name, value in samples.items()
            if name.startswith("repro_window_merge_ms_bucket")
        ]
        assert buckets == sorted(buckets)
        assert samples['repro_window_merge_ms_bucket{le="+Inf"}'] == 2.0
        assert samples["repro_window_merge_ms_count"] == 2.0

    def test_round_trip_is_bit_exact(self):
        samples = parse_openmetrics(
            render_openmetrics(self._registry())
        )
        assert samples["repro_window_merge_ms_sum"] == 0.25 + 123.456
        assert samples["repro_stream_queue_depth"] == 3.5
        assert samples["repro_reid_invocations_total"] == 7.0

    def test_metric_name_sanitized(self):
        assert metric_name("reid.invocations") == "repro_reid_invocations"
        assert metric_name("a-b c", prefix="") == "a_b_c"

    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError):
            parse_openmetrics("repro_x 1.0\n")

    def test_sample_after_eof_rejected(self):
        with pytest.raises(ValueError):
            parse_openmetrics("# EOF\nrepro_x 1.0\n")


# ---------------------------------------------------------------------------
# Parallel reassembly: counters AND histograms are worker-count exact
# ---------------------------------------------------------------------------
def _engine_pipeline(telemetry, workers):
    return IngestionPipeline(
        tracker=TracktorTracker(),
        merger=TMerge(k=0.1, tau_max=400, batch_size=10, seed=3),
        window_length=300,
        telemetry=telemetry,
        workers=workers,
        parallel_backend="thread",
    )


class TestParallelReassembly:
    """Regression: histograms used to be dropped at the pool seam."""

    @pytest.fixture(scope="class")
    def engine_runs(self):
        world = tiny_world(n_frames=600, seed=4)
        runs = {}
        for workers in (1, 2):
            telemetry = Telemetry()
            result = _engine_pipeline(telemetry, workers).run(world)
            runs[workers] = (result, telemetry)
        return runs

    def test_counters_exact_across_worker_counts(self, engine_runs):
        assert (
            engine_runs[2][1].metrics.counters_snapshot()
            == engine_runs[1][1].metrics.counters_snapshot()
        )

    def test_histograms_exact_across_worker_counts(self, engine_runs):
        states = {}
        for workers, (_, telemetry) in engine_runs.items():
            states[workers] = {
                name: histogram.state_dict()
                for name, histogram in telemetry.metrics.histograms().items()
            }
        assert states[2] == states[1]
        assert states[2], "expected run-level histograms under workers=2"

    def test_merge_latency_histogram_covers_every_window(self, engine_runs):
        result, telemetry = engine_runs[2]
        histogram = telemetry.metrics.histograms()["window.merge_ms"]
        assert histogram.count == len(result.windows)
        summary = histogram.summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_window_metrics_match_across_worker_counts(self, engine_runs):
        assert (
            engine_runs[2][0].window_metrics
            == engine_runs[1][0].window_metrics
        )

    def test_hotspots_cross_the_pool_seam(self, engine_runs):
        """Regression: worker wall times used to be dropped, so sharded
        runs reported no wall-clock hotspots at all."""
        rows = {
            workers: sorted(
                (name, spans)
                for name, spans, _ in telemetry.tracer.hotspots(top=100)
            )
            for workers, (_, telemetry) in engine_runs.items()
        }
        result = engine_runs[1][0]
        assert ("window", len(result.windows)) in rows[1]
        assert rows[2] == rows[1]
        for _, telemetry in engine_runs.values():
            assert "tmerge.run" in telemetry.report()

    def test_span_tree_matches_across_worker_counts(self, engine_runs):
        """Everything but ``wall_ms`` is worker-count independent."""
        trees = {
            workers: [
                (s.span_id, s.parent_id, s.name, s.start_ms, s.end_ms)
                for s in sorted(
                    telemetry.tracer.spans, key=lambda s: s.span_id
                )
            ]
            for workers, (_, telemetry) in engine_runs.items()
        }
        assert trees[1]
        assert trees[2] == trees[1]

    def test_streaming_run_reports_hotspots(self):
        world = tiny_world(n_frames=600, seed=4)
        telemetry = Telemetry()
        StreamingIngestionService(
            TracktorTracker(),
            TMerge(k=0.1, tau_max=400, batch_size=10, seed=3),
            window_length=300,
            telemetry=telemetry,
        ).run(SyntheticFeedSource(world))
        rows = telemetry.tracer.hotspots()
        assert "stream.window" in [name for name, _, _ in rows]
        assert all(spans > 0 and wall_ms >= 0.0 for _, spans, wall_ms in rows)
