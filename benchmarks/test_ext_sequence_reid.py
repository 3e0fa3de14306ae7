"""Extension bench — sequence-input ReID (footnote 2).

The paper notes its techniques apply unchanged when the ReID model accepts
fixed-length image sequences.  This bench runs TMerge with snippet lengths
1/2/4/8 at a fixed iteration budget: pooled snippets are more informative
per draw (higher REC) at a higher extraction cost per draw, tracing the
accuracy/cost knob sequence models add.
"""

from conftest import assert_unsampled, publish

from repro.core.tmerge import TMerge
from repro.experiments.reporting import format_table
from repro.metrics.recall import window_recall
from repro.reid import CostModel, SequenceReidScorer, SimReIDModel

SNIPPETS = (1, 2, 4, 8)
TAU = 5000


def _measure(videos):
    rows = []
    for k in SNIPPETS:
        recs = []
        seconds = 0.0
        frames = 0
        for video in videos:
            scorer = SequenceReidScorer(
                SimReIDModel(video.world, seed=1),
                cost=CostModel(),
                snippet_length=k,
            )
            for pairs, gt in zip(video.window_pairs, video.window_gt):
                if not pairs:
                    continue
                result = TMerge(k=0.05, tau_max=TAU, seed=3).run(
                    [pair.copy() for pair in pairs], scorer
                )
                rec = window_recall(result.candidate_keys, gt)
                if rec is not None:
                    recs.append(rec)
            seconds += scorer.cost.seconds
            frames += video.n_frames
        rows.append(
            (k, sum(recs) / len(recs) if recs else 1.0, frames / seconds)
        )
    return rows


def test_sequence_reid_tradeoff(benchmark, mot17_videos):
    rows = benchmark.pedantic(
        lambda: _measure(mot17_videos), rounds=1, iterations=1
    )
    assert_unsampled(mot17_videos)
    publish(
        "ext_sequence_reid",
        format_table(
            ["snippet length", "REC @ tau=5000", "FPS"],
            [list(r) for r in rows],
            title="Extension — sequence-input ReID (footnote 2)",
        ),
    )

    recs = {k: rec for k, rec, _ in rows}
    fps = {k: f for k, _, f in rows}
    # Longer snippets are more informative per draw ...
    assert recs[4] > recs[1]
    # ... and cost more per draw.
    assert fps[4] < fps[1]
