"""Figure 6 — REC-FPS curves of the GPU-batched variants (B = 10, 100).

Paper shape: batching multiplies TMerge-B's throughput (larger B → faster
at matched REC), helps PS-B and BL-B moderately, and barely helps LCB-B
whose deterministic selection fills batches with redundant same-arm draws.
"""

from conftest import SMOKE, publish

from repro.experiments.figures import fig6_batched
from repro.experiments.reporting import format_table
from repro.experiments.sweeps import fps_at_rec

BATCH_TAUS = (250, 500, 1000, 2000)
ETAS = (0.0003, 0.001, 0.003)
BATCH_SIZES = (10, 100)
#: The configured grid of each method family: τ_max or η per point.
GRIDS = {
    "BL": [0.0],
    "PS": list(ETAS),
    "LCB": list(BATCH_TAUS),
    "TMerge": list(BATCH_TAUS),
}


def test_fig6_batched_curves(benchmark, mot17_videos):
    results = benchmark.pedantic(
        lambda: fig6_batched(
            mot17_videos,
            batch_sizes=BATCH_SIZES,
            batch_taus=BATCH_TAUS,
            etas=ETAS,
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for method, points in results.items():
        for point in points:
            rows.append([method, point.parameter, point.rec, point.fps])
    publish(
        "fig6_batched",
        format_table(
            ["method", "param", "REC", "FPS"],
            rows,
            title="Figure 6 — REC-FPS curves (batched, MOT-17-like)",
        ),
    )

    assert sorted(results) == sorted(
        f"{family}-B{batch}" for family in GRIDS for batch in BATCH_SIZES
    )
    for method, points in results.items():
        family = method.rsplit("-B", 1)[0]
        assert [p.parameter for p in points] == GRIDS[family], method
    if not SMOKE:
        # Paper shape; one 300-frame smoke video is too small to hold it.
        target = 0.9  # the high-REC regime, where the paper's gaps are widest
        tmerge10 = fps_at_rec(results["TMerge-B10"], target)
        tmerge100 = fps_at_rec(results["TMerge-B100"], target)
        assert tmerge10 is not None and tmerge100 is not None
        # Larger batches help TMerge-B.
        assert tmerge100 > tmerge10
        # TMerge-B dominates the batched competitors at matched REC.
        for rival in ("LCB-B10", "LCB-B100", "PS-B10", "PS-B100", "BL-B10"):
            rival_fps = fps_at_rec(results[rival], target)
            if rival_fps is not None:
                assert tmerge100 > 2.0 * rival_fps, rival
        # LCB-B gains nothing from a 10x larger batch (sequential dependence:
        # its batch fills with redundant draws from a single arm).
        lcb10 = fps_at_rec(results["LCB-B10"], target)
        lcb100 = fps_at_rec(results["LCB-B100"], target)
        if lcb10 is not None and lcb100 is not None:
            assert lcb100 < 2.0 * lcb10
