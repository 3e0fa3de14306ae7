"""repro — a full reproduction of *Track Merging for Effective Video Query
Processing* (Chao, Chen, Koudas, Yu — ICDE 2023).

The package implements the paper's TMerge algorithm together with every
substrate it depends on: a synthetic video world, a stochastic detector,
six multi-object trackers, a simulated ReID model with a batched cost
model, MOT evaluation metrics, and a small video query engine.  See
DESIGN.md for the system inventory and EXPERIMENTS.md for the per-figure
reproduction results.

Quickstart::

    from repro import (
        mot17_like, simulate_world, NoisyDetector, TracktorTracker,
        TMerge, IngestionPipeline,
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

from repro.geometry import BBox, iou
from repro.synth import (
    SceneConfig,
    simulate_world,
    VideoGroundTruth,
    DatasetPreset,
    mot17_like,
    kitti_like,
    pathtrack_like,
    make_dataset,
)
from repro.detect import Detection, DetectorConfig, NoisyDetector
from repro.track import (
    Track,
    Tracker,
    IoUTracker,
    SortTracker,
    DeepSortTracker,
    TracktorTracker,
    UmaTracker,
    CenterTrackTracker,
)
from repro.reid import (
    SimReIDModel,
    ReidParams,
    CostModel,
    CostParams,
    ReidScorer,
    FeatureCache,
)
from repro.core import (
    Window,
    partition_windows,
    WindowedTracks,
    TrackPair,
    build_track_pairs,
    BaselineMerger,
    ProportionalMerger,
    LcbMerger,
    TMerge,
    merge_tracks,
    UnionFind,
    IngestionPipeline,
    IngestionResult,
    MergeResult,
)
from repro.metrics import (
    match_tracks_to_gt,
    match_tracks_by_source,
    polyonymous_pairs,
    polyonymous_rate,
    average_recall,
    rec_k_curve,
    evaluate_clearmot,
    evaluate_identity,
)
from repro.query import (
    TrackStore,
    QueryEngine,
    CountQuery,
    CoOccurrenceQuery,
    count_query_recall,
    cooccurrence_query_recall,
)
from repro.faults import FaultProfile, fault_profile
from repro.resilience import (
    BreakerPolicy,
    CheckpointStore,
    CircuitBreaker,
    ResilienceConfig,
    ResilientReidScorer,
    RetryPolicy,
    retry_call,
)
from repro.telemetry import (
    MetricsRegistry,
    Profiler,
    Telemetry,
    Tracer,
    profiled,
)
from repro.provenance import (
    DecisionEvent,
    DecisionLedger,
    explain_pair,
)

__version__ = "1.0.0"

__all__ = [
    "BBox",
    "iou",
    "SceneConfig",
    "simulate_world",
    "VideoGroundTruth",
    "DatasetPreset",
    "mot17_like",
    "kitti_like",
    "pathtrack_like",
    "make_dataset",
    "Detection",
    "DetectorConfig",
    "NoisyDetector",
    "Track",
    "Tracker",
    "IoUTracker",
    "SortTracker",
    "DeepSortTracker",
    "TracktorTracker",
    "UmaTracker",
    "CenterTrackTracker",
    "SimReIDModel",
    "ReidParams",
    "CostModel",
    "CostParams",
    "ReidScorer",
    "FeatureCache",
    "Window",
    "partition_windows",
    "WindowedTracks",
    "TrackPair",
    "build_track_pairs",
    "BaselineMerger",
    "ProportionalMerger",
    "LcbMerger",
    "TMerge",
    "merge_tracks",
    "UnionFind",
    "IngestionPipeline",
    "IngestionResult",
    "MergeResult",
    "match_tracks_to_gt",
    "match_tracks_by_source",
    "polyonymous_pairs",
    "polyonymous_rate",
    "average_recall",
    "rec_k_curve",
    "evaluate_clearmot",
    "evaluate_identity",
    "TrackStore",
    "QueryEngine",
    "CountQuery",
    "CoOccurrenceQuery",
    "count_query_recall",
    "cooccurrence_query_recall",
    "FaultProfile",
    "fault_profile",
    "BreakerPolicy",
    "CheckpointStore",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResilientReidScorer",
    "RetryPolicy",
    "retry_call",
    "MetricsRegistry",
    "Profiler",
    "Telemetry",
    "Tracer",
    "profiled",
    "DecisionEvent",
    "DecisionLedger",
    "explain_pair",
]
