"""Figure 7 — TMerge-B runtime and REC as τ_max grows.

Paper shape: REC rises quickly then saturates near the baseline's level;
runtime grows sublinearly in later iterations because cached features get
reused more and more.
"""

from conftest import SMOKE, publish

from repro.experiments.figures import fig7_tau_sweep
from repro.experiments.reporting import format_table

TAUS = (100, 250, 500, 1000, 2000, 4000)


def test_fig7_runtime_and_rec(benchmark, mot17_videos):
    rows = benchmark.pedantic(
        lambda: fig7_tau_sweep(mot17_videos, taus=TAUS, batch_size=10),
        rounds=1,
        iterations=1,
    )
    publish(
        "fig7_tau_sweep",
        format_table(
            ["tau_max", "runtime (simulated s)", "REC"],
            [list(r) for r in rows],
            title="Figure 7 — TMerge-B10 vs tau_max (MOT-17-like)",
        ),
    )

    taus = [r[0] for r in rows]
    assert taus == list(TAUS)
    if not SMOKE:
        # Paper shape; one 300-frame smoke video is too small to hold it.
        runtimes = [r[1] for r in rows]
        recs = [r[2] for r in rows]
        # Runtime grows with tau_max ...
        assert all(a < b for a, b in zip(runtimes, runtimes[1:]))
        # ... but sublinearly: the last doubling of tau costs far less than 2x
        # (feature reuse kicks in).
        assert runtimes[-1] / runtimes[-2] < 1.7
        # REC improves substantially from the smallest to the largest budget
        # and saturates high.
        assert recs[-1] > recs[0]
        assert recs[-1] >= 0.85
        # Diminishing returns: the late REC gain is smaller than the early one.
        early_gain = recs[2] - recs[0]
        late_gain = recs[-1] - recs[-3]
        assert late_gain <= early_gain + 0.05
