"""Evaluation metrics.

* :mod:`repro.metrics.matching` — track ↔ ground-truth identity matching
  (the [30]-style procedure the paper uses to label polyonymous pairs).
* :mod:`repro.metrics.recall` — the paper's REC metric (Eq. 3) and REC-K
  curves (Figure 3).
* :mod:`repro.metrics.identity` — identity metrics IDF1 / IDP / IDR
  (Figure 12).
"""

from repro.metrics.matching import (
    TrackGtAssignment,
    match_tracks_to_gt,
    match_tracks_by_source,
    polyonymous_pairs,
    polyonymous_rate,
)
from repro.metrics.recall import (
    window_recall,
    average_recall,
    rec_k_curve,
)
from repro.metrics.identity import IdentityResult, evaluate_identity

__all__ = [
    "TrackGtAssignment",
    "match_tracks_to_gt",
    "match_tracks_by_source",
    "polyonymous_pairs",
    "polyonymous_rate",
    "window_recall",
    "average_recall",
    "rec_k_curve",
    "IdentityResult",
    "evaluate_identity",
]
