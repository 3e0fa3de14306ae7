"""The paper's contribution: polyonymous-pair identification and merging.

Layout mirrors the paper:

* :mod:`repro.core.windows` — §II: half-overlapping windows, the track sets
  ``T_c`` and the candidate pair sets ``P_c`` (Eq. 1).
* :mod:`repro.core.pairs` — track pairs, BBox-pair sampling without
  replacement, the spatial distance ``DisS`` (§IV-C).
* :mod:`repro.core.scores` — Definition 3.1 scores and running estimates.
* :mod:`repro.core.baseline` — Algorithm 1 (BL / BL-B).
* :mod:`repro.core.proportional` — the PS / PS-B competitor.
* :mod:`repro.core.lcb` — the LCB / LCB-B competitor.
* :mod:`repro.core.beta_init` — Algorithm 3 (BetaInit).
* :mod:`repro.core.ulb` — Algorithm 4 (ULB pruning).
* :mod:`repro.core.tmerge` — Algorithm 2 (TMerge / TMerge-B).
* :mod:`repro.core.regret` — §IV-E average-regret accounting.
* :mod:`repro.core.merge` — applying identified pairs: union-find relabel.
* :mod:`repro.core.pipeline` — end-to-end ingestion.
"""

from repro.core.windows import Window, partition_windows, WindowedTracks
from repro.core.pairs import TrackPair, build_track_pairs, spatial_distance
from repro.core.scores import exact_pair_score, PairScoreEstimate
from repro.core.results import MergeResult
from repro.core.baseline import BaselineMerger
from repro.core.proportional import ProportionalMerger
from repro.core.lcb import LcbMerger
from repro.core.beta_init import beta_init
from repro.core.ulb import UlbPruner
from repro.core.tmerge import TMerge
from repro.core.merge import merge_tracks, UnionFind
from repro.core.pipeline import (
    IngestionPipeline,
    IngestionResult,
    run_resilient_window,
)

__all__ = [
    "Window",
    "partition_windows",
    "WindowedTracks",
    "TrackPair",
    "build_track_pairs",
    "spatial_distance",
    "exact_pair_score",
    "PairScoreEstimate",
    "MergeResult",
    "BaselineMerger",
    "ProportionalMerger",
    "LcbMerger",
    "beta_init",
    "UlbPruner",
    "TMerge",
    "merge_tracks",
    "UnionFind",
    "IngestionPipeline",
    "IngestionResult",
    "run_resilient_window",
]
