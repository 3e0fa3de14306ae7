"""Command-line driver: regenerate any paper figure from the terminal.

Usage::

    python -m repro.experiments fig3              # REC-K curves
    python -m repro.experiments fig11 --videos 3  # polyonymous rates
    python -m repro.experiments faults            # chaos matrix
    python -m repro.experiments telemetry         # per-window metrics
    python -m repro.experiments telemetry --workers 4   # sharded ingestion
    python -m repro.experiments parallel --workers 4    # speedup report
    python -m repro.experiments serve --frames 600      # streaming service
    python -m repro.experiments serve --kill-after 2    # kill + resume demo
    python -m repro.experiments serve --ledger-out ledger.jsonl \\
        --metrics-out metrics.txt                       # observed session
    python -m repro.experiments explain --ledger ledger.jsonl --pair 3 7
    python -m repro.experiments monitor --frames 600    # live dashboard
    python -m repro.experiments gate --current benchmarks/results/bench_summary.json
    python -m repro.experiments perf --smoke      # batched hot-path check
    python -m repro.experiments scenarios --smoke # regime-sweep matrix
    python -m repro.experiments scenarios --smoke --gate \\
        --matrix-out /tmp/matrix.json             # CI scenario gate
    python -m repro.experiments list              # show available commands

Each figure runs at the same laptop scale as the benchmark suite and
prints the reproduced rows.  ``telemetry`` runs one fully-instrumented
ingestion and dumps the per-window counters, spans and hotspots;
``gate`` compares a ``bench_summary.json`` against the committed
baseline and exits non-zero on a regression (the CI bench gate).  Every
subcommand accepts only the options it reads (``<command> --help``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.experiments import figures
from repro.experiments.ascii_plot import rec_fps_plot
from repro.experiments.prep import prepare_dataset
from repro.experiments.reporting import format_table

_SCALES = {
    "mot17": dict(n_frames=700),
    "kitti": dict(n_frames=600),
    "pathtrack": dict(n_frames=1400),
}


def _dataset(preset: str, n_videos: int):
    return prepare_dataset(preset, n_videos, seed=0, **_SCALES[preset])


def _datasets(n_videos: int):
    return {name: _dataset(name, n_videos) for name in _SCALES}


# ----------------------------------------------------------------------
# Paper figures: one registry entry each
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure:
    """One paper figure: the ``figures.*`` call and how to print it.

    The row shape is set by two flags.  With neither, the call returns
    plain table rows.  ``curves`` means it returns labelled curves,
    ``{label: [MethodPoint, ...]}``, one row per point.  ``by_dataset``
    means it returns one of those per dataset, ``{dataset: ...}``, and
    every row is led by the dataset name.

    Attributes:
        compute: the ``figures.*`` call, given the parsed arguments.
        headers: table column headers.
        title: table title.
        by_dataset: the result is keyed by dataset.
        curves: the result holds labelled REC–FPS curves.
        plot: when set, also draw the REC–FPS plot under this title
            (one per dataset, suffixed with its name, when
            ``by_dataset``).
        videos: the figure reads ``--videos``.
    """

    compute: Callable[[argparse.Namespace], Any]
    headers: tuple[str, ...]
    title: str
    by_dataset: bool = False
    curves: bool = False
    plot: str | None = None
    videos: bool = True

    def render(self, args: argparse.Namespace) -> str:
        """Compute the figure and format its table (and plots)."""
        result = self.compute(args)
        groups = result if self.by_dataset else {None: result}
        rows = [
            ([name] if self.by_dataset else []) + row
            for name, value in groups.items()
            for row in self._rows(value)
        ]
        parts = [format_table(list(self.headers), rows, self.title)]
        if self.plot is not None:
            parts.extend(
                rec_fps_plot(
                    value,
                    title=f"{self.plot} — {name}" if name else self.plot,
                )
                for name, value in groups.items()
            )
        return "\n\n".join(parts)

    def _rows(self, value: Any) -> list[list]:
        if not self.curves:
            return [list(row) for row in value]
        return [
            [label, p.parameter, p.rec, p.fps]
            for label, points in value.items()
            for p in points
        ]


FIGURES = {
    "fig3": Figure(
        lambda args: figures.fig3_rec_k(_datasets(args.videos)),
        ("dataset", "K", "REC"),
        "Figure 3 — REC-K",
        by_dataset=True,
    ),
    "fig4": Figure(
        lambda args: figures.fig4_runtime_scaling(),
        ("frames", "pairs", "BL seconds"),
        "Figure 4 — BL scaling",
        videos=False,
    ),
    "fig5": Figure(
        lambda args: figures.fig5_rec_fps(_datasets(args.videos)),
        ("dataset", "method", "param", "REC", "FPS"),
        "Figure 5 — REC-FPS",
        by_dataset=True,
        curves=True,
        plot="Figure 5",
    ),
    "fig6": Figure(
        lambda args: figures.fig6_batched(_dataset("mot17", args.videos)),
        ("method", "param", "REC", "FPS"),
        "Figure 6 — batched",
        curves=True,
        plot="Figure 6 — batched (MOT-17-like)",
    ),
    "fig7": Figure(
        lambda args: figures.fig7_tau_sweep(_dataset("mot17", args.videos)),
        ("tau_max", "seconds", "REC"),
        "Figure 7 — TMerge-B vs tau_max",
    ),
    "fig8": Figure(
        lambda args: figures.fig8_ablation(_dataset("kitti", args.videos)),
        ("variant", "tau_max", "REC", "FPS"),
        "Figure 8 — ablation (KITTI-like)",
        curves=True,
    ),
    "fig9": Figure(
        lambda args: figures.fig9_window_length(
            n_videos=args.videos, n_frames=1600
        ),
        ("L", "REC (BL)", "REC (TMerge)"),
        "Figure 9 — window length",
    ),
    "fig10": Figure(
        lambda args: figures.fig10_thr_s(_dataset("mot17", args.videos)),
        ("thr_S", "tau_max", "REC", "FPS"),
        "Figure 10 — thr_S",
        curves=True,
    ),
    "fig11": Figure(
        lambda args: figures.fig11_polyonymous_rate(n_videos=args.videos),
        ("tracker", "rate w/o", "rate w/"),
        "Figure 11 — polyonymous rates",
    ),
    "fig12": Figure(
        lambda args: figures.fig12_identity_metrics(n_videos=args.videos),
        ("metric", "w/o TMerge", "w/ TMerge"),
        "Figure 12 — identity metrics",
    ),
    "fig13": Figure(
        lambda args: figures.fig13_query_recall(n_videos=args.videos),
        ("query", "w/o TMerge", "w/ TMerge"),
        "Figure 13 — query recall",
    ),
}


# ----------------------------------------------------------------------
# Operational subcommands
# ----------------------------------------------------------------------
def _merger():
    """The batched TMerge every ingestion demo runs."""
    from repro.core.tmerge import TMerge

    return TMerge(k=0.05, tau_max=400, batch_size=10, seed=3)


def _world(args: argparse.Namespace):
    """The synthetic MOT-17-like video the ingestion demos run on."""
    from repro.synth.datasets import preset_by_name
    from repro.synth.world import simulate_world

    return simulate_world(
        preset_by_name("mot17").config, args.frames, seed=0
    )


def _pipeline(args: argparse.Namespace, workers: int | None, **kwargs):
    """An ingestion pipeline over the demo merger."""
    from repro.core.pipeline import IngestionPipeline
    from repro.track.tracktor import TracktorTracker

    return IngestionPipeline(
        tracker=TracktorTracker(),
        merger=_merger(),
        window_length=args.window_length,
        workers=workers,
        parallel_backend=args.parallel_backend,
        **kwargs,
    )


def _streaming_session(args: argparse.Namespace):
    """The feed ``serve`` and ``monitor`` drive, plus a service factory.

    Returns ``(source, make_service)``; ``make_service(store,
    telemetry=None, ledger=None)`` builds a fresh service over the same
    fault profile and backpressure policy.
    """
    from repro.faults import fault_profile
    from repro.streaming import (
        BackpressurePolicy,
        StreamingIngestionService,
        SyntheticFeedSource,
    )
    from repro.track.tracktor import TracktorTracker

    world = _world(args)
    profile = (
        fault_profile(args.profile, seed=args.fault_seed)
        if args.profile
        else None
    )
    source = SyntheticFeedSource(
        world,
        disorder_ms=args.disorder_ms,
        disorder_seed=3,
        fault_profile=profile,
    )
    policy = BackpressurePolicy(
        mode=args.policy,
        capacity=args.queue_capacity,
        latency_slo_ms=args.latency_slo,
    )

    def make_service(store, telemetry=None, ledger=None):
        return StreamingIngestionService(
            TracktorTracker(),
            _merger(),
            window_length=args.window_length,
            allowed_lateness=args.lateness,
            max_open_windows=args.max_open_windows,
            policy=policy,
            workers=args.workers or 1,
            parallel_backend=args.parallel_backend,
            fault_profile=profile,
            store=store,
            telemetry=telemetry,
            ledger=ledger,
        )

    return source, make_service


def run_telemetry(args: argparse.Namespace) -> int:
    """Run one instrumented ingestion; print the observability report."""
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    result = _pipeline(args, args.workers, telemetry=telemetry).run(
        _world(args)
    )

    rows = []
    for c, metrics in enumerate(result.window_metrics):
        pruned = metrics.get("ulb.accepted", 0.0) + metrics.get(
            "ulb.rejected", 0.0
        )
        rows.append(
            [
                c,
                len(result.window_pairs[c]),
                int(metrics.get("reid.invocations", 0.0)),
                int(metrics.get("cache.hits", 0.0)),
                int(pruned),
                round(metrics.get("cost.simulated_ms", 0.0), 1),
            ]
        )
    table = format_table(
        [
            "window",
            "pairs",
            "reid invocations",
            "cache hits",
            "ulb pruned",
            "simulated ms",
        ],
        rows,
        "Telemetry — per-window counters",
    )
    spans = telemetry.tracer.spans
    footer = (
        f"spans recorded: {len(spans)} "
        f"(export with Tracer.export_jsonl; schema in DESIGN.md §11)"
    )
    print("\n\n".join([table, telemetry.report(), footer]))
    return 0


def run_parallel(args: argparse.Namespace) -> int:
    """Time the window-sharded engine against its serial execution.

    Runs the same instrumented ingestion once with ``workers=1`` and
    once with the requested worker count, verifies the results are
    bit-identical (the engine's core guarantee), and reports wall-clock
    speedup.  Wall time here is honest measurement, not simulation —
    speedup depends on the machine's core count.
    """
    import time

    world = _world(args)
    n_workers = args.workers or 4

    def measure(workers: int):
        pipeline = _pipeline(args, workers)
        start = time.perf_counter()
        result = pipeline.run(world)
        return time.perf_counter() - start, result

    def fingerprint(result):
        return (
            [tuple(sorted(r.candidate_keys)) for r in result.window_results],
            [tuple(sorted(r.scores.items())) for r in result.window_results],
            [r.degraded for r in result.window_results],
            result.cost.state_dict(),
            dict(result.id_map),
        )

    serial_s, serial = measure(1)
    parallel_s, parallel = measure(n_workers)
    if fingerprint(serial) != fingerprint(parallel):
        raise AssertionError(
            "parallel run diverged from workers=1 — determinism bug"
        )
    rows = [
        [1, round(serial_s, 3), 1.0],
        [
            n_workers,
            round(parallel_s, 3),
            round(serial_s / parallel_s, 2) if parallel_s > 0 else float("inf"),
        ],
    ]
    table = format_table(
        ["workers", "wall seconds", "speedup"],
        rows,
        f"Parallel engine — {args.parallel_backend} backend, "
        f"{len(serial.windows)} windows, results bit-identical",
    )
    footer = (
        f"windows: {len(serial.windows)}, "
        f"candidates: {len(serial.selected_pairs)}, "
        f"simulated merge seconds: {serial.total_simulated_seconds:.1f}"
    )
    print(f"{table}\n\n{footer}")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Drive the streaming ingestion service over a synthetic feed.

    Builds a seeded event feed (bounded arrival disorder, optional fault
    profile), runs the watermark-driven service over it, and reports the
    per-window emissions plus the service counters.  With ``--kill-after
    N`` the service is stopped dead right after its N-th window emission
    (the simulated SIGKILL at a window boundary), rebuilt from its
    checkpoint and resumed; the report then covers both runs and
    verifies that the stitched emissions match an uninterrupted
    reference bit-for-bit — the durable-restart guarantee, demonstrated
    live.
    """
    from repro.provenance import DecisionLedger
    from repro.resilience import CheckpointStore
    from repro.telemetry import Telemetry, render_openmetrics

    source, make_service = _streaming_session(args)
    ledger = DecisionLedger() if args.ledger_out else None
    telemetry = Telemetry() if args.metrics_out else None

    def service(store: CheckpointStore):
        return make_service(store, telemetry=telemetry, ledger=ledger)

    notes = []
    if args.kill_after is not None:
        # The uninterrupted reference stays unobserved: the exported
        # ledger/metrics must describe the actual (killed + resumed)
        # session, not a doubled recording.
        reference = make_service(CheckpointStore()).run(source)
        store = CheckpointStore()
        first = service(store).run(
            source, stop_after_windows=args.kill_after
        )
        result = service(store).run(source)
        stitched = first.fingerprints() + result.fingerprints()
        if stitched != reference.fingerprints():
            raise AssertionError(
                "resumed run diverged from uninterrupted — restart bug"
            )
        emissions = first.emissions + result.emissions
        peak = max(first.peak_open_windows, result.peak_open_windows)
        notes.append(
            f"killed after {len(first.emissions)} windows at offset "
            f"{first.position}, resumed from checkpoint: "
            f"{len(result.emissions)} more windows, stitched emissions "
            "bit-identical to uninterrupted run"
        )
    else:
        result = service(CheckpointStore()).run(source)
        emissions = result.emissions
        peak = result.peak_open_windows
    rows = [
        [
            e.index,
            f"[{e.window.start}:{e.window.end}]",
            e.n_tracks,
            e.result.n_pairs,
            len(e.result.candidates),
            "yes" if e.result.degraded else "",
            round(e.lag_ms, 1),
        ]
        for e in emissions
    ]
    table = format_table(
        ["window", "span", "tracks", "pairs", "candidates", "degraded",
         "lag ms"],
        rows,
        f"Streaming service — policy {args.policy}, "
        f"lateness {args.lateness}, "
        f"profile {args.profile or 'none'}",
    )
    counter_text = ", ".join(
        f"{name.removeprefix('stream.')}={value:g}"
        for name, value in sorted(result.counters.items())
    )
    footer = (
        f"peak open windows: {peak} (bound {args.max_open_windows}); "
        f"{counter_text}"
    )
    if ledger is not None:
        ledger.export_jsonl(args.ledger_out)
        notes.append(
            f"decision ledger: {len(ledger)} events -> {args.ledger_out}"
        )
    if telemetry is not None:
        Path(args.metrics_out).write_text(
            render_openmetrics(telemetry.metrics)
        )
        notes.append(f"OpenMetrics snapshot -> {args.metrics_out}")
    print("\n".join([table, "", footer] + notes))
    return 0


def run_explain(args: argparse.Namespace) -> int:
    """Reconstruct one pair's decision chain from a ledger export.

    Reads a JSONL ledger (``serve --ledger-out`` or
    :meth:`~repro.provenance.DecisionLedger.export_jsonl`), finds the
    requested track pair and prints every recorded decision that touched
    it — Thompson draws with posterior before/after, ULB accept/reject
    verdicts with the Hoeffding radii in force, degradations, faults and
    the final selection — ending in the pair's verdict.
    """
    from repro.provenance import (
        explain_pair,
        load_events_jsonl,
        windows_containing,
    )

    events = load_events_jsonl(args.ledger)
    pair = (args.pair[0], args.pair[1])
    label = f"{pair[0]}-{pair[1]}"
    try:
        chain = explain_pair(events, pair, window=args.window)
    except KeyError:
        print(f"pair {label} not found in {args.ledger}", file=sys.stderr)
        return 1
    except ValueError:
        windows = windows_containing(events, pair)
        print(
            f"pair {label} appears in windows {windows}; "
            "disambiguate with --window",
            file=sys.stderr,
        )
        return 1
    print(chain.render())
    return 0


def run_monitor(args: argparse.Namespace) -> int:
    """Live-monitor a streaming session, one frame per window emission.

    Runs the same synthetic feed as ``serve`` but drives the service
    through checkpoint/resume cycles — one per window — rendering a
    dashboard frame after each emission: watermark and queue gauges,
    merge-latency percentiles, the window's merge decisions from the
    ledger, and the lifetime counters.  What it shows is exactly the
    state a crashed-and-restarted service would rebuild.
    """
    from repro.experiments.monitor import monitor_steps
    from repro.provenance import DecisionLedger
    from repro.resilience import CheckpointStore
    from repro.telemetry import Telemetry

    source, make_service = _streaming_session(args)
    store = CheckpointStore()
    telemetry = Telemetry()
    ledger = DecisionLedger()
    steps = monitor_steps(
        lambda: make_service(store, telemetry=telemetry, ledger=ledger),
        source,
        registry=telemetry.metrics,
        ledger=ledger,
        max_steps=args.steps,
    )
    last = None
    for step in steps:
        print(step.frame)
        print()
        last = step
    if last is not None and last.done:
        print(f"feed exhausted after {last.step} window(s)")
    return 0


def run_gate(args: argparse.Namespace) -> int:
    """Compare a bench summary to the baseline; return the exit status."""
    from repro.experiments.bench_summary import gate_summary_files

    failures = gate_summary_files(
        args.current, args.baseline, tolerance=args.tolerance
    )
    if failures:
        print("bench gate: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"bench gate: OK ({args.current} within "
        f"{args.tolerance:.0%} of {args.baseline})"
    )
    return 0


def run_perf(args: argparse.Namespace) -> int:
    """Run the batched hot-path microbench; return the exit status.

    The ``bench-perf`` CI lane: measures scalar vs batched TMerge on the
    same workload, writes ``perf_summary.json``, optionally appends to
    the committed trend file, and fails (non-zero exit) if the batched
    sampler is slower per observation than the scalar one.
    """
    from repro.experiments import perf

    summary = perf.run_perf(smoke=args.smoke, repeats=args.repeats)
    print(perf.format_summary(summary))

    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\nperf summary written to {out_path}")

    if args.trend:
        perf.append_trend(summary, args.trend)
        print(f"trend record appended to {args.trend}")

    failures = perf.check_summary(summary)
    if failures:
        print("bench-perf: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench-perf: OK (speedup {summary['speedup']:.2f}x >= 1.0)")
    return 0


def run_scenarios(args: argparse.Namespace) -> int:
    """Run the regime-sweep scenario matrix; return the exit status.

    The ``scenario-sweep`` CI lane: runs every named scenario through
    the batch pipeline and the streaming service, writes the matrix
    document, and with ``--gate`` compares it per scenario against the
    committed baseline (non-zero exit on any single-scenario
    regression).
    """
    from repro.experiments import scenarios as scenario_sweep

    document = scenario_sweep.sweep(
        seed=args.seed,
        smoke=args.smoke,
        only=args.only,
        progress=lambda name: print(f"  ran {name}", file=sys.stderr),
    )
    out_path = scenario_sweep.write_matrix(document, args.matrix_out)
    print(scenario_sweep.format_matrix(document))
    print(f"\nscenario matrix written to {out_path}")
    if args.summary_out:
        merged = scenario_sweep.merge_into_summary(
            document, args.summary_out
        )
        print(f"scenario_matrix record merged into {merged}")
    if args.gate:
        baseline = scenario_sweep.load_matrix(args.matrix_baseline)
        failures = scenario_sweep.gate_matrix(
            document, baseline, tolerance=args.tolerance
        )
        if failures:
            print("scenario gate: FAIL")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            f"scenario gate: OK ({len(document['scenarios'])} scenarios "
            f"within {args.tolerance:.0%} of {args.matrix_baseline})"
        )
    return 0


def run_faults(args: argparse.Namespace) -> int:
    """Print the chaos matrix: TMerge under injected fault profiles."""
    from repro.experiments.chaos import fault_profile_sweep

    rows = fault_profile_sweep(
        figures.default_quality_merger,
        _dataset("mot17", args.videos),
        profiles=list(args.profiles),
        fault_seed=args.fault_seed,
    )
    print(
        format_table(
            ["profile", "REC", "FPS", "seconds", "degraded windows"],
            [
                [name, p.rec, p.fps, p.simulated_seconds, p.degraded_windows]
                for name, p in rows
            ],
            "Chaos matrix — TMerge under fault injection",
        )
    )
    return 0


def run_list(args: argparse.Namespace) -> int:
    """Print every subcommand name."""
    print("available:", ", ".join(sorted(set(COMMANDS) - {"list"})))
    return 0


# ----------------------------------------------------------------------
# The subcommand table
# ----------------------------------------------------------------------
def _options(*specs: tuple[tuple[str, ...], dict]) -> argparse.ArgumentParser:
    """A parent parser holding one shared option group."""
    parser = argparse.ArgumentParser(add_help=False)
    for flags, kwargs in specs:
        parser.add_argument(*flags, **kwargs)
    return parser


def _opt(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_VIDEOS = _options(
    _opt("--videos", type=int, default=2,
         help="videos per dataset (default 2)"),
)
_FAULT_SEED = _options(
    _opt("--fault-seed", type=int, default=7,
         help="seed of the injected fault schedule (default 7)"),
)
_VIDEO_RUN = _options(
    _opt("--frames", type=int, default=400,
         help="synthetic video length in frames (default 400)"),
    _opt("--window-length", type=int, default=200,
         help="window length in frames (default 200)"),
)
_WORKERS = _options(
    _opt("--workers", type=int, default=None,
         help="window-local regime worker count (default: the "
         "shared-runtime regime; 4 for the parallel report, 1 for the "
         "streaming service)"),
    _opt("--parallel-backend", choices=["process", "thread"],
         default="process",
         help="pool backend for --workers (default process)"),
)
_FEED = _options(
    _opt("--profile", default=None,
         help="fault profile injected into the feed and merges"),
    _opt("--policy", choices=["block", "drop-oldest", "degrade"],
         default="block",
         help="intake backpressure policy (default block)"),
    _opt("--queue-capacity", type=int, default=64,
         help="intake queue bound in events (default 64)"),
    _opt("--latency-slo", type=float, default=None,
         help="simulated latency SLO in ms for the degrade policy"),
    _opt("--disorder-ms", type=float, default=50.0,
         help="arrival jitter bound in simulated ms (default 50)"),
    _opt("--lateness", type=int, default=4,
         help="allowed lateness in frames (default 4)"),
    _opt("--max-open-windows", type=int, default=8,
         help="resident open-window bound (default 8)"),
)
_TOLERANCE = _options(
    _opt("--tolerance", type=float, default=0.05,
         help="relative regression tolerance (default 0.05)"),
)
_SMOKE = _options(
    _opt("--smoke", action="store_true",
         help="use the CI smoke workload"),
)
_STREAMING = (_VIDEO_RUN, _FEED, _FAULT_SEED, _WORKERS)


@dataclass(frozen=True)
class Command:
    """One subcommand: its handler and the option groups it reads.

    Attributes:
        run: handler taking the parsed arguments, returning the exit
            status.
        help: one-line description for ``--help``.
        options: the option groups (parent parsers) it reads.
    """

    run: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[argparse.ArgumentParser, ...] = ()


def _figure_command(figure: Figure) -> Command:
    def run(args: argparse.Namespace) -> int:
        print(figure.render(args))
        return 0

    return Command(
        run,
        f"regenerate {figure.title}",
        (_VIDEOS,) if figure.videos else (),
    )


COMMANDS = {
    **{name: _figure_command(fig) for name, fig in FIGURES.items()},
    "faults": Command(
        run_faults,
        "chaos matrix: TMerge under injected fault profiles",
        (_VIDEOS, _FAULT_SEED, _options(
            _opt("--profiles", nargs="+",
                 default=["flaky-reid", "corrupt-features", "window-crash"],
                 help="fault profiles for the chaos matrix"),
        )),
    ),
    "telemetry": Command(
        run_telemetry,
        "one instrumented ingestion: per-window counters and spans",
        (_VIDEO_RUN, _WORKERS),
    ),
    "parallel": Command(
        run_parallel,
        "window-sharded engine speedup over workers=1",
        (_VIDEO_RUN, _WORKERS),
    ),
    "serve": Command(
        run_serve,
        "streaming service over a synthetic feed",
        (*_STREAMING, _options(
            _opt("--kill-after", type=int, default=None,
                 help="kill the service after N window emissions, then "
                 "resume from its checkpoint and verify bit-identity"),
            _opt("--ledger-out", default=None,
                 help="export the session's decision ledger as JSONL to "
                 "this path"),
            _opt("--metrics-out", default=None,
                 help="write an OpenMetrics snapshot of the session's "
                 "metrics to this path"),
        )),
    ),
    "monitor": Command(
        run_monitor,
        "live dashboard of a streaming session",
        (*_STREAMING, _options(
            _opt("--steps", type=int, default=None,
                 help="stop after N window emissions (default: run the "
                 "feed dry)"),
        )),
    ),
    "explain": Command(
        run_explain,
        "one pair's merge decision chain from a ledger export",
        (_options(
            _opt("--ledger", required=True,
                 help="JSONL ledger export to read"),
            _opt("--pair", nargs=2, type=int, metavar=("A", "B"),
                 required=True, help="track ids of the pair to explain"),
            _opt("--window", type=int, default=None,
                 help="window index, when the pair appears in several"),
        ),),
    ),
    "gate": Command(
        run_gate,
        "bench summary regression gate",
        (_TOLERANCE, _options(
            _opt("--current", default="benchmarks/results/bench_summary.json",
                 help="summary produced by this run"),
            _opt("--baseline",
                 default="benchmarks/results/baseline_summary.json",
                 help="committed baseline summary"),
        )),
    ),
    "perf": Command(
        run_perf,
        "batched hot-path microbench",
        (_SMOKE, _options(
            _opt("--repeats", type=int, default=3,
                 help="timed runs per contender, best kept (default 3)"),
            _opt("--output", default="benchmarks/results/perf_summary.json",
                 help="where to write the perf summary"),
            _opt("--trend", default=None,
                 help="JSONL trend file to append the perf record to"),
        )),
    ),
    "scenarios": Command(
        run_scenarios,
        "regime-sweep scenario matrix",
        (_SMOKE, _TOLERANCE, _options(
            _opt("--seed", type=int, default=0,
                 help="sweep seed of the scenario matrix (default 0)"),
            _opt("--only", nargs="+", default=None, metavar="NAME",
                 help="run only these named scenarios"),
            _opt("--matrix-out",
                 default="benchmarks/results/scenario_matrix.json",
                 help="where to write the scenario matrix document (the "
                 "default refreshes the committed baseline)"),
            _opt("--matrix-baseline",
                 default="benchmarks/results/scenario_matrix.json",
                 help="committed scenario baseline the gate compares "
                 "against"),
            _opt("--summary-out", default=None,
                 help="bench summary file to fold a scenario_matrix "
                 "record into"),
            _opt("--gate", action="store_true",
                 help="gate the fresh matrix per scenario against "
                 "--matrix-baseline; exit non-zero on regression"),
        )),
    ),
    "list": Command(run_list, "show available commands"),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.experiments`` parser, one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a paper figure at laptop scale.",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )
    for name, command in COMMANDS.items():
        subparsers.add_parser(
            name, help=command.help, parents=list(command.options)
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command].run(args)


if __name__ == "__main__":
    sys.exit(main())
