"""Extension bench — the §IV-E regret analysis, measured.

The paper bounds TMerge's expected average regret by
``O(sqrt(|P_c| log τ / τ))``.  This bench measures the empirical average
regret at several iteration budgets and checks it (a) decreases with τ and
(b) stays within a constant factor of the bound's shape.
"""

from conftest import assert_unsampled, publish

from repro.core.regret import RegretTracker
from repro.core.scores import exact_normalized_score
from repro.core.tmerge import TMerge
from repro.experiments.reporting import format_table
from repro.reid import CostModel, ReidScorer, SimReIDModel

TAUS = (500, 2000, 8000, 32000)


def _measure(videos):
    """Average regret per τ on the first window of the first video."""
    video = videos[0]
    pairs = next(p for p in video.window_pairs if p)
    oracle = ReidScorer(SimReIDModel(video.world, seed=1), cost=CostModel())
    s_min = min(exact_normalized_score(pair, oracle) for pair in pairs)

    rows = []
    for tau in TAUS:
        scorer = ReidScorer(
            SimReIDModel(video.world, seed=1), cost=CostModel()
        )
        result = TMerge(
            k=0.05, tau_max=tau, seed=3, s_min=s_min, use_ulb=False
        ).run([pair.copy() for pair in pairs], scorer)
        bound = RegretTracker.theoretical_bound(len(pairs), tau)
        rows.append((tau, result.extra["average_regret"], bound))
    return rows


def test_regret_follows_bound_shape(benchmark, mot17_videos):
    rows = benchmark.pedantic(
        lambda: _measure(mot17_videos), rounds=1, iterations=1
    )
    assert_unsampled(mot17_videos)
    publish(
        "ext_regret",
        format_table(
            ["tau_max", "avg regret (measured)", "sqrt(|P_c| log tau / tau)"],
            [list(r) for r in rows],
            title="Extension — §IV-E average regret vs the theoretical shape",
        ),
    )

    regrets = [r[1] for r in rows]
    bounds = [r[2] for r in rows]
    # Average regret decreases as the budget grows.
    assert regrets[-1] < regrets[0]
    # And stays within a constant factor of the bound's shape.
    assert all(reg <= 3.0 * b for reg, b in zip(regrets, bounds))
