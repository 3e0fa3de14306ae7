"""repro — a full reproduction of *Track Merging for Effective Video Query
Processing* (Chao, Chen, Koudas, Yu — ICDE 2023).

The package implements the paper's TMerge algorithm together with every
substrate it depends on: a synthetic video world, a stochastic detector,
five multi-object trackers, a simulated ReID model with a batched cost
model, identity metrics, and a small video query engine.  See DESIGN.md
for the data path and EXPERIMENTS.md for the per-figure reproduction
results.

The top level exports the one data path (simulate → detect → track →
merge → query) plus its evaluation helpers; every other piece stays
importable from its subpackage (``repro.core``, ``repro.reid``,
``repro.streaming``, ...).

Quickstart::

    from repro import (
        mot17_like, simulate_world, TracktorTracker, TMerge,
        IngestionPipeline,
    )

    preset = mot17_like()
    world = simulate_world(preset.config, n_frames=900, seed=0)
    pipeline = IngestionPipeline(
        tracker=TracktorTracker(),
        merger=TMerge(k=0.05, tau_max=10_000),
        window_length=2000,
    )
    result = pipeline.run(world)
    print(f"{len(result.tracks)} tracks -> {len(result.merged_tracks)} after merging")
"""

from repro.synth import simulate_world, mot17_like
from repro.detect import NoisyDetector
from repro.track import SortTracker, TracktorTracker
from repro.core import (
    BaselineMerger,
    ProportionalMerger,
    LcbMerger,
    TMerge,
    merge_tracks,
    UnionFind,
    IngestionPipeline,
)
from repro.metrics import match_tracks_to_gt, polyonymous_pairs
from repro.query import (
    QueryEngine,
    CountQuery,
    CoOccurrenceQuery,
    count_query_recall,
    cooccurrence_query_recall,
)
from repro.resilience import CheckpointStore
from repro.telemetry import Telemetry
from repro.provenance import DecisionLedger

__version__ = "1.0.0"

__all__ = [
    "simulate_world",
    "mot17_like",
    "NoisyDetector",
    "SortTracker",
    "TracktorTracker",
    "BaselineMerger",
    "ProportionalMerger",
    "LcbMerger",
    "TMerge",
    "merge_tracks",
    "UnionFind",
    "IngestionPipeline",
    "match_tracks_to_gt",
    "polyonymous_pairs",
    "QueryEngine",
    "CountQuery",
    "CoOccurrenceQuery",
    "count_query_recall",
    "cooccurrence_query_recall",
    "CheckpointStore",
    "Telemetry",
    "DecisionLedger",
]
