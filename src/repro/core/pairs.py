"""Track pairs: the arms of the bandit.

A :class:`TrackPair` wraps two tracks and supports uniform sampling of BBox
index pairs *without replacement* — the per-iteration draw of Algorithm 2
line 7.  The pair also knows its spatial distance ``DisS`` (Algorithm 3's
prior signal): the Euclidean distance between the center of the
chronologically earlier track's last BBox and the later track's first BBox.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import center_distance
from repro.track.base import Track

PairKey = tuple[int, int]


def spatial_distance(track_a: Track, track_b: Track) -> float:
    """The paper's ``DisS``: distance from the earlier track's exit point to
    the later track's entry point.

    Ordering is chronological by first frame so the measure captures the
    "object vanished here, reappeared there" geometry of fragmentation.
    """
    earlier, later = (
        (track_a, track_b)
        if track_a.first_frame <= track_b.first_frame
        else (track_b, track_a)
    )
    return center_distance(
        earlier.observations[-1].bbox, later.observations[0].bbox
    )


@dataclass
class TrackPair:
    """An unordered candidate pair ``p_{i,j}`` of distinct tracks.

    Attributes:
        track_a: the track with the smaller TID.
        track_b: the track with the larger TID.
    """

    track_a: Track
    track_b: Track
    _sampled: set[int] = field(default_factory=set, repr=False)
    _n_bbox_pairs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.track_a.track_id == self.track_b.track_id:
            raise ValueError("a track cannot pair with itself")
        if self.track_a.track_id > self.track_b.track_id:
            self.track_a, self.track_b = self.track_b, self.track_a
        if not self.track_a.observations or not self.track_b.observations:
            raise ValueError("track pairs require non-empty tracks")
        # Paired tracks are finished, so the budget is fixed; the sampler
        # reads it on every draw.
        self._n_bbox_pairs = len(self.track_a) * len(self.track_b)

    @property
    def key(self) -> PairKey:
        """Canonical ``(smaller TID, larger TID)`` identifier."""
        return (self.track_a.track_id, self.track_b.track_id)

    @property
    def n_bbox_pairs(self) -> int:
        """``|B_{t_i} × B_{t_j}|`` — the arm's total sample budget."""
        return self._n_bbox_pairs

    @property
    def n_sampled(self) -> int:
        """How many distinct BBox pairs have been drawn so far."""
        return len(self._sampled)

    @property
    def exhausted(self) -> bool:
        """True when every BBox pair has been sampled (score is exact)."""
        return len(self._sampled) >= self._n_bbox_pairs

    @property
    def spatial_distance(self) -> float:
        """The pair's ``DisS`` (Algorithm 3's prior signal)."""
        return spatial_distance(self.track_a, self.track_b)

    def all_bbox_index_pairs(self) -> list[tuple[int, int]]:
        """Every ``(index_a, index_b)`` — the baseline's full enumeration."""
        return [
            (ia, ib)
            for ia in range(len(self.track_a))
            for ib in range(len(self.track_b))
        ]

    def _flat_to_indices(self, flat: int) -> tuple[int, int]:
        return divmod(flat, len(self.track_b))

    def sample_bbox_pair(
        self, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Draw one not-yet-seen ``(index_a, index_b)`` uniformly.

        Uses rejection sampling while the pool is mostly fresh and falls
        back to enumerating the remaining flat indices when it is nearly
        exhausted, keeping each draw O(1) amortized.

        Raises:
            RuntimeError: when the pair is exhausted.
        """
        total = self._n_bbox_pairs
        sampled = self._sampled
        if len(sampled) >= total:
            raise RuntimeError(f"pair {self.key} exhausted")
        if len(sampled) < total * 0.75:
            while True:
                flat = int(rng.integers(0, total))
                if flat not in sampled:
                    break
        else:
            remaining = [f for f in range(total) if f not in sampled]
            flat = int(remaining[rng.integers(0, len(remaining))])
        sampled.add(flat)
        return self._flat_to_indices(flat)

    def sample_bbox_pairs(
        self, count: int, rng: np.random.Generator
    ) -> list[tuple[int, int]]:
        """Draw up to ``count`` fresh BBox index pairs (without replacement).

        Returns fewer when the pool runs dry; never raises.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        drawn = []
        while len(drawn) < count and not self.exhausted:
            drawn.append(self.sample_bbox_pair(rng))
        return drawn

    def copy(self) -> TrackPair:
        """The same pair with its own copy of the sampled set, as a
        pickled window task carries it (paired tracks never change, so
        the copy shares them)."""
        return TrackPair(self.track_a, self.track_b, set(self._sampled))

    def reset_sampling(self) -> None:
        """Forget sampling history (used when re-running algorithms on the
        same pair objects)."""
        self._sampled.clear()

    def sampled_state(self) -> list[int]:
        """Sorted flat indices drawn so far (JSON-able checkpoint form)."""
        return sorted(self._sampled)

    def restore_sampled(self, flat_indices: list[int]) -> None:
        """Overwrite sampling history with a :meth:`sampled_state` capture."""
        self._sampled = {int(f) for f in flat_indices}


def build_track_pairs(
    current: list[Track], previous: list[Track] | None = None
) -> list[TrackPair]:
    """Construct ``P_c`` per Eq. 1.

    Pairs every track in ``current`` (``T_c``) with every *other* track in
    ``current ∪ previous``; each unordered pair appears once.

    Args:
        current: ``T_c`` — tracks owned by the window being processed.
        previous: ``T_{c-1}`` — tracks owned by the preceding window.
    """
    previous = previous or []
    current_ids = {t.track_id for t in current}
    if len(current_ids) != len(current):
        raise ValueError("duplicate track ids in current window")
    overlap = current_ids & {t.track_id for t in previous}
    if overlap:
        raise ValueError(f"track ids shared across windows: {sorted(overlap)}")

    pairs: list[TrackPair] = []
    for i, track_i in enumerate(current):
        for track_j in current[i + 1:]:
            pairs.append(TrackPair(track_i, track_j))
        for track_j in previous:
            pairs.append(TrackPair(track_i, track_j))
    return pairs
