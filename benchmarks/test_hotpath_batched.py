"""Hot-path microbench — vectorized batched sampler vs scalar TMerge.

The §IV-F batched variant exists to amortize per-invocation overhead; this
bench measures what that buys on the *wall clock* now that the inner loop
is vectorized (DESIGN.md §6.2).  Scalar TMerge and TMerge-B8 run the same
MOT-17-like workload at a matched observation budget (τ_scalar = B ·
τ_batched, one observation per arm per iteration), so wall-clock per
observation is directly comparable.

The deterministic side (recall, ReID invocations, simulated cost) feeds
the CI regression gate through ``bench_summary.json``; the wall-clock
numbers are machine-dependent and land in the ungated ``extras`` (and in
the ``bench-perf`` lane's ``perf_summary.json`` / ``perf_trend.jsonl``,
where the speedup *is* checked — see ``python -m repro.experiments perf``).
"""

from conftest import SMOKE, publish, record_summary

from repro.experiments.perf import measure
from repro.experiments.reporting import format_table

BATCH = 8
SCALAR_TAU = 800 if SMOKE else 1600
BATCH_TAU = SCALAR_TAU // BATCH


def test_hotpath_batched_speedup(mot17_videos):
    scalar = measure(mot17_videos, None, SCALAR_TAU)
    batched = measure(mot17_videos, BATCH, BATCH_TAU)

    speedup = (
        scalar["ms_per_obs"] / batched["ms_per_obs"]
        if batched["ms_per_obs"] > 0
        else float("inf")
    )
    publish(
        "hotpath_batched",
        format_table(
            ["variant", "obs", "wall s", "ms/obs", "sim s", "REC"],
            [
                [
                    "TMerge (scalar)",
                    int(scalar["observations"]),
                    round(scalar["wall_s"], 3),
                    round(scalar["ms_per_obs"], 4),
                    round(scalar["simulated_seconds"], 2),
                    round(scalar["recall"], 3),
                ],
                [
                    f"TMerge-B{BATCH}",
                    int(batched["observations"]),
                    round(batched["wall_s"], 3),
                    round(batched["ms_per_obs"], 4),
                    round(batched["simulated_seconds"], 2),
                    round(batched["recall"], 3),
                ],
            ],
            title=(
                "Hot path — scalar vs batched sampler, matched "
                "observation budget (MOT-17-like)"
            ),
        ),
    )
    record_summary(
        "hotpath_batched",
        recall=batched["recall"],
        reid_invocations=batched["reid_invocations"],
        simulated_ms=batched["simulated_seconds"] * 1000.0,
        extras={
            "batch_size": float(BATCH),
            "scalar_wall_s": scalar["wall_s"],
            "batched_wall_s": batched["wall_s"],
            "scalar_ms_per_obs": scalar["ms_per_obs"],
            "batched_ms_per_obs": batched["ms_per_obs"],
            "hotpath_speedup": speedup,
            "scalar_recall": scalar["recall"],
            "scalar_simulated_ms": (
                scalar["simulated_seconds"] * 1000.0
            ),
        },
    )

    # Deterministic guarantees (machine-independent): at a matched
    # observation budget the batched variant must respect the ReID
    # budget and beat the scalar simulated clock (the §IV-F amortization
    # this whole PR vectorizes the wall clock to match).
    assert scalar["observations"] > 0 and batched["observations"] > 0
    assert (
        abs(batched["observations"] - scalar["observations"])
        <= 0.15 * scalar["observations"]
    )
    assert batched["reid_invocations"] <= int(
        1.05 * scalar["reid_invocations"]
    )
    assert batched["simulated_seconds"] < scalar["simulated_seconds"]
    if not SMOKE:
        # Recall parity at matched budget (full scale only; smoke runs
        # are too small for stable recall).
        assert batched["recall"] >= scalar["recall"] - 0.1
