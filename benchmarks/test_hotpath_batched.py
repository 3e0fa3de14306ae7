"""Hot-path bench — batched sampler vs scalar TMerge at a matched budget.

The §IV-F batched variant exists to amortize per-invocation overhead.
Scalar TMerge and TMerge-B8 run the same MOT-17-like workload at a
matched observation budget (τ_scalar = B · τ_batched, one observation
per arm per iteration), and this bench checks what the paper claims for
that trade on the simulated clock: about the same observations and ReID
invocations, less simulated time, and (at full scale) the same recall.

Recall, ReID invocations and simulated cost feed the CI regression gate
through ``bench_summary.json``.  What the batched path costs on the wall
clock is the e2e benchmark's to measure (``benchmarks/e2e``: ingest-mot17
and ingest-pathtrack run TMerge-B).
"""

from conftest import SMOKE, publish, record_summary

from repro.core.tmerge import TMerge
from repro.experiments.reporting import format_table
from repro.experiments.sweeps import evaluate_merger
from repro.telemetry import Telemetry

BATCH = 8
SCALAR_TAU = 800 if SMOKE else 1600
BATCH_TAU = SCALAR_TAU // BATCH


def _measure(videos, batch_size, tau_max):
    """One TMerge configuration's MethodPoint and ReID observation count."""
    telemetry = Telemetry()
    point = evaluate_merger(
        lambda: TMerge(k=0.1, tau_max=tau_max, batch_size=batch_size, seed=3),
        videos,
        telemetry=telemetry,
    )
    return point, telemetry.metrics.value("reid.distances")


def test_hotpath_batched_matched_budget(mot17_videos):
    scalar, scalar_obs = _measure(mot17_videos, None, SCALAR_TAU)
    batched, batched_obs = _measure(mot17_videos, BATCH, BATCH_TAU)

    publish(
        "hotpath_batched",
        format_table(
            ["variant", "obs", "ReID invocations", "sim s", "REC"],
            [
                [
                    label,
                    int(obs),
                    int(point.reid_invocations),
                    round(point.simulated_seconds, 2),
                    round(point.rec, 3),
                ]
                for label, point, obs in (
                    ("TMerge (scalar)", scalar, scalar_obs),
                    (f"TMerge-B{BATCH}", batched, batched_obs),
                )
            ],
            title=(
                "Hot path — scalar vs batched sampler, matched "
                "observation budget (MOT-17-like)"
            ),
        ),
    )
    record_summary(
        "hotpath_batched",
        recall=batched.rec,
        reid_invocations=batched.reid_invocations,
        simulated_ms=batched.simulated_seconds * 1000.0,
        extras={
            "batch_size": float(BATCH),
            "scalar_recall": scalar.rec,
            "scalar_simulated_ms": scalar.simulated_seconds * 1000.0,
        },
    )

    # At a matched observation budget the batched variant must respect
    # the ReID budget and beat the scalar simulated clock (the §IV-F
    # amortization).
    assert scalar_obs > 0 and batched_obs > 0
    assert abs(batched_obs - scalar_obs) <= 0.15 * scalar_obs
    assert batched.reid_invocations <= int(1.05 * scalar.reid_invocations)
    assert batched.simulated_seconds < scalar.simulated_seconds
    if not SMOKE:
        # Recall parity at matched budget (full scale only; smoke runs
        # are too small for stable recall).
        assert batched.rec >= scalar.rec - 0.1
