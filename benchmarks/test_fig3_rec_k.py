"""Figure 3 — REC-K curves of the exhaustive baseline on three datasets.

Paper shape: REC rises steeply with K and exceeds ~0.95 by K ≈ 0.05-0.085
on every dataset, so a small inspection budget suffices.

This bench also feeds the CI regression gate: the exhaustive scorer runs
under an injected :class:`~repro.telemetry.Telemetry`, and the resulting
recall / ReID-invocation / simulated-ms totals land in
``bench_summary.json`` (see conftest).
"""

from conftest import SMOKE, publish, record_summary

from repro.core.baseline import BaselineMerger
from repro.experiments.figures import fig3_rec_k
from repro.experiments.reporting import format_table
from repro.experiments.sweeps import evaluate_merger
from repro.telemetry import Telemetry

KS = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)


def test_fig3_rec_k_curves(benchmark, datasets):
    telemetry = Telemetry()
    curves = benchmark.pedantic(
        lambda: fig3_rec_k(datasets, ks=KS, telemetry=telemetry),
        rounds=1,
        iterations=1,
    )

    rows = []
    for dataset, points in curves.items():
        for k, rec in points:
            rows.append([dataset, k, rec])
    publish(
        "fig3_rec_k",
        format_table(
            ["dataset", "K", "REC"], rows, title="Figure 3 — REC-K (BL)"
        ),
    )
    rec_at_headline_k = [dict(points)[0.05] for points in curves.values()]
    record_summary(
        "fig3_rec_k",
        recall=sum(rec_at_headline_k) / len(rec_at_headline_k),
        reid_invocations=telemetry.metrics.value("reid.invocations"),
        simulated_ms=telemetry.metrics.value("cost.simulated_ms"),
    )

    for dataset, points in curves.items():
        by_k = dict(points)
        # Monotone non-decreasing in K.
        values = [rec for _, rec in points]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:])), dataset
        if not SMOKE:
            # The paper's headline: small K already yields high recall.
            assert by_k[0.05] >= 0.85, dataset
            assert by_k[0.2] >= by_k[0.05]


def test_fig3_parallel_speedup(datasets, bench_workers):
    """The window-sharded engine returns the serial result, bit for bit.

    Runs the fig3 headline configuration through ``evaluate_merger``
    once serially (``workers=1``) and once with ``--workers`` processes
    and asserts the MethodPoints are exactly equal (the engine's core
    guarantee).  The pool's wall-clock cost is the e2e benchmark's to
    measure (``benchmarks/e2e``, workload ingest-kitti-scalar-2w).
    """
    videos = datasets["mot17"]

    def factory():
        return BaselineMerger(k=0.05)

    serial_point = evaluate_merger(factory, videos, workers=1)
    parallel_point = evaluate_merger(factory, videos, workers=bench_workers)

    # MethodPoint is a frozen dataclass: equality is exact, field by field.
    assert parallel_point == serial_point

    publish(
        "fig3_parallel_speedup",
        format_table(
            ["workers", "REC", "ReID invocations", "sim s", "bit-identical"],
            [
                [
                    bench_workers,
                    round(parallel_point.rec, 3),
                    int(parallel_point.reid_invocations),
                    round(parallel_point.simulated_seconds, 2),
                    "yes",
                ],
            ],
            title="Parallel engine — fig3 headline point vs workers=1",
        ),
    )
    record_summary(
        "fig3_parallel_speedup",
        recall=serial_point.rec,
        reid_invocations=serial_point.reid_invocations,
        simulated_ms=serial_point.simulated_seconds * 1000.0,
        extras={"workers": float(bench_workers)},
    )
