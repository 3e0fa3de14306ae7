"""Feature caching and BBox-pair distance scoring.

:class:`ReidScorer` is the single gateway through which every merging
algorithm (BL, PS, LCB, TMerge and their batched variants) touches the ReID
model.  It provides:

* memoized feature extraction (the paper's feature-reuse optimization —
  "if either of the BBoxes' feature vectors has been extracted in previous
  iterations it can be reused", §IV-B);
* cost accounting on the shared :class:`~repro.reid.cost.CostModel`;
* batched execution for the ``-B`` variants, where a batch of BBox pairs is
  evaluated per simulated GPU call (§IV-F).

Distances are Euclidean between unit-norm features, hence in ``[0, 2]``;
:func:`normalize_distance` maps them to ``[0, 1]`` with the exact bound, so
normalization is stream-safe (no data-dependent max).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from repro import contracts
from repro.reid.cost import CostModel
from repro.reid.model import SimReIDModel
from repro.telemetry import Telemetry
from repro.track.base import Track

# Unit-norm features make 2.0 the exact supremum of Euclidean distances.
_MAX_DISTANCE = 2.0

FeatureKey = tuple[int, int]  # (track_id, observation index)


def normalize_distance(distance: float) -> float:
    """Map a raw feature distance in [0, 2] to the paper's d̃ ∈ [0, 1].

    ``min(max(·))`` is numpy's scalar clip, NaN included (DESIGN.md §9.3).
    """
    return min(max(float(distance) / _MAX_DISTANCE, 0.0), 1.0)


def feature_distance(fa: np.ndarray, fb: np.ndarray) -> float:
    """Euclidean distance between two 1-D float64 features.

    Bit for bit ``float(np.linalg.norm(fa - fb))``: numpy computes that
    norm as ``sqrt(x.dot(x))``, and both square roots are correctly
    rounded (DESIGN.md §9.3).
    """
    d = fa - fb
    return math.sqrt(d.dot(d))


def normalize_distances(distances: list[float]) -> np.ndarray:
    """Vectorized :func:`normalize_distance` over a batch of distances.

    Elementwise bit-identical to the scalar function (same IEEE divide
    and clip), so batched and scalar paths interleave freely.
    """
    return np.clip(
        np.asarray(distances, dtype=np.float64) / _MAX_DISTANCE, 0.0, 1.0
    )


class FeatureCache:
    """Memoized per-BBox features, keyed by ``(track_id, obs_index)``.

    Track IDs must be unique within the scorer's scope (one tracker run);
    the pipeline guarantees this by renumbering TIDs densely per video.

    Args:
        max_entries: optional capacity bound.  When set, the cache evicts
            its least-recently-used entry on overflow (long videos no
            longer grow feature memory without bound); when ``None`` the
            cache is unbounded and insertion-ordered, exactly as before.
        telemetry: optional :class:`~repro.telemetry.Telemetry` mirroring
            the hit/miss/eviction counters (``cache.hits`` …).
    """

    def __init__(
        self,
        max_entries: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries
        self.telemetry = telemetry
        self._features: OrderedDict[FeatureKey, np.ndarray] = OrderedDict()
        self.n_hits = 0
        self.n_misses = 0
        self.n_evictions = 0

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, key: FeatureKey) -> bool:
        return key in self._features

    def get(self, key: FeatureKey) -> np.ndarray | None:
        """Cached feature for ``key``, or ``None`` on a miss."""
        feature = self._features.get(key)
        if feature is None:
            self.n_misses += 1
            if self.telemetry is not None:
                self.telemetry.count("cache.misses")
            return None
        self.n_hits += 1
        if self.telemetry is not None:
            self.telemetry.count("cache.hits")
        if self.max_entries is not None:
            self._features.move_to_end(key)
        return feature

    def get_many(self, keys: list[FeatureKey]) -> list[np.ndarray | None]:
        """:meth:`get` over ``keys`` in order, as one bulk lookup.

        Hits, misses and the LRU order end exactly as a :meth:`get` per key
        leaves them; the telemetry mirrors receive each total once, the
        counter touched first by the per-key path first.
        """
        features = self._features
        lru = self.max_entries is not None
        found = []
        hits = 0
        for key in keys:
            feature = features.get(key)
            if feature is not None:
                hits += 1
                if lru:
                    features.move_to_end(key)
            found.append(feature)
        misses = len(found) - hits
        self.n_hits += hits
        self.n_misses += misses
        if self.telemetry is not None and found:
            totals = [("cache.hits", hits), ("cache.misses", misses)]
            if found[0] is None:
                totals.reverse()
            for name, amount in totals:
                if amount:
                    self.telemetry.count(name, amount)
        return found

    def put(self, key: FeatureKey, feature: np.ndarray) -> None:
        """Store ``feature`` under ``key``, evicting LRU on overflow."""
        if key in self._features:
            self._features[key] = feature
            if self.max_entries is not None:
                self._features.move_to_end(key)
            return
        self._features[key] = feature
        if (
            self.max_entries is not None
            and len(self._features) > self.max_entries
        ):
            self._features.popitem(last=False)
            self.n_evictions += 1
            if self.telemetry is not None:
                self.telemetry.count("cache.evictions")

    def discard(self, key: FeatureKey) -> bool:
        """Drop ``key`` if cached; return whether an entry was removed."""
        return self._features.pop(key, None) is not None

    def clear(self) -> None:
        """Drop all cached features (counters are kept)."""
        self._features.clear()

    def items(self) -> Iterator[tuple[FeatureKey, np.ndarray]]:
        """Iterate ``(key, feature)`` pairs in recency (or insertion) order."""
        return iter(self._features.items())

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        return {
            "hits": self.n_hits,
            "misses": self.n_misses,
            "evictions": self.n_evictions,
            "entries": len(self._features),
            "max_entries": (
                -1 if self.max_entries is None else self.max_entries
            ),
        }


class ReidScorer:
    """BBox-pair distance oracle with caching and cost accounting.

    Args:
        model: the feature extractor.
        cost: the simulated clock to charge.
        cache: optional shared cache (one per video lets feature reuse span
            windows, as in the paper's streaming setting).
        telemetry: observability sink.  When ``None`` the scorer creates a
            private :class:`~repro.telemetry.Telemetry` (instance-scoped —
            never a module singleton, see REPRO010) so its own counters
            always have somewhere to live; run owners inject a shared one
            to aggregate across components.  Either way it is propagated
            to the cost model and cache unless those already carry one.
    """

    def __init__(
        self,
        model: SimReIDModel,
        cost: CostModel | None = None,
        cache: FeatureCache | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.model = model
        self.cost = cost or CostModel()
        # Not `cache or ...`: an empty FeatureCache is falsy (len 0).
        self.cache = cache if cache is not None else FeatureCache()
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry()
        )
        self.telemetry.bind_clock(self.cost)
        if self.cost.telemetry is None:
            self.cost.telemetry = self.telemetry
        if self.cache.telemetry is None:
            self.cache.telemetry = self.telemetry

    @property
    def n_nonfinite_clamped(self) -> int:
        """Non-finite distances clamped by :meth:`_sanitize_distance`.

        Backed by the ``reid.nonfinite_clamped`` telemetry counter
        (only ever non-zero when a faulty model is injected and the
        resilience layer is not interposed).
        """
        return int(self.telemetry.metrics.value("reid.nonfinite_clamped"))

    def _sanitize_distance(self, distance: float, where: str) -> float:
        """Defend against non-finite distances from corrupted features.

        Under ``REPRO_CHECK_INVARIANTS=1`` a non-finite distance raises
        a :class:`~repro.contracts.ContractViolation`; otherwise it is
        clamped to the maximum distance (treat corrupted evidence as
        "not a match") and counted in the ``reid.nonfinite_clamped``
        telemetry counter (readable as :attr:`n_nonfinite_clamped`).
        """
        if math.isfinite(distance):
            return float(distance)
        if contracts.ENABLED:
            contracts.check_finite_distance(distance, where=where)
        self.telemetry.count("reid.nonfinite_clamped")
        return _MAX_DISTANCE

    def _sanitize_normalize_many(
        self, distances: list[float], where: str
    ) -> np.ndarray:
        """Vectorized sanitize + normalize for the batched path.

        Elementwise bit-identical to mapping :meth:`_sanitize_distance`
        then :func:`normalize_distance` over ``distances`` (same IEEE
        divide/clip; same ``reid.nonfinite_clamped`` count per clamped
        element; under runtime contracts the first non-finite raises, as
        in the scalar loop), but one numpy pass instead of a Python loop.
        """
        arr = np.asarray(distances, dtype=np.float64)
        finite = np.isfinite(arr)
        if not finite.all():
            if contracts.ENABLED:
                contracts.check_finite_distance(
                    float(arr[~finite][0]), where=where
                )
            self.telemetry.count(
                "reid.nonfinite_clamped", int((~finite).sum())
            )
            arr = np.where(finite, arr, _MAX_DISTANCE)
        return np.clip(arr / _MAX_DISTANCE, 0.0, 1.0)

    # ------------------------------------------------------------------
    # Unbatched path
    # ------------------------------------------------------------------
    def feature(self, track: Track, index: int) -> np.ndarray:
        """Feature of the ``index``-th BBox of ``track`` (cached)."""
        key = (track.track_id, index)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        detection = track.observations[index].detection
        feature = self.model.extract(detection)
        self.cost.charge_extract(1)
        self.cache.put(key, feature)
        return feature

    def distance(
        self, track_a: Track, index_a: int, track_b: Track, index_b: int
    ) -> float:
        """Raw Euclidean distance ``d(b_α, b_β)`` between two BBoxes."""
        fa = self.feature(track_a, index_a)
        fb = self.feature(track_b, index_b)
        self.cost.charge_distance(1)
        return feature_distance(fa, fb)

    def distance_fresh(
        self, track_a: Track, index_a: int, track_b: Track, index_b: int
    ) -> float:
        """Distance with *no feature reuse*: both crops are run through the
        model again (two full forward passes are charged).

        This is how the paper's PS and LCB competitors operate — the reuse
        cache is TMerge's own optimization (§IV-B); Algorithm 1 likewise
        extracts inside the BBox-pair loop.  Cached features are neither
        read nor written, so the caller pays the true per-draw price.
        """
        fa = self.model.extract(track_a.observations[index_a].detection)
        fb = self.model.extract(track_b.observations[index_b].detection)
        self.cost.charge_extract(2)
        self.cost.charge_distance(1)
        return feature_distance(fa, fb)

    def normalized_distance(
        self, track_a: Track, index_a: int, track_b: Track, index_b: int
    ) -> float:
        """The paper's normalized distance d̃ ∈ [0, 1].

        Non-finite raw distances (corrupted embeddings) raise under
        runtime contracts and are clamped to the maximum otherwise —
        NaN never reaches the posterior updates.
        """
        return normalize_distance(
            self._sanitize_distance(
                self.distance(track_a, index_a, track_b, index_b),
                where="ReidScorer.normalized_distance",
            )
        )

    # ------------------------------------------------------------------
    # Bulk path (exhaustive scoring, wall-clock-vectorized)
    # ------------------------------------------------------------------
    def track_features(
        self, track: Track, batch_size: int | None = None
    ) -> np.ndarray:
        """All features of a track as an ``(len(track), dim)`` matrix.

        Missing features are extracted and charged — singly, or with the
        batch law when ``batch_size`` is given.
        """
        keys = [(track.track_id, i) for i in range(len(track))]
        features: dict[FeatureKey, np.ndarray] = {}
        missing = []
        for i, key in enumerate(keys):
            cached = self.cache.get(key)
            if cached is None:
                missing.append(i)
            else:
                features[key] = cached
        if missing:
            if batch_size is None:
                self.cost.charge_extract(len(missing))
            else:
                self.cost.charge_extract_batched(
                    len(missing), batch_size=2 * batch_size
                )
            for i in missing:
                detection = track.observations[i].detection
                feature = self.model.extract(detection)
                self.cache.put(keys[i], feature)
                features[keys[i]] = feature
        return np.stack([features[key] for key in keys])

    def pair_distance_matrix(
        self,
        track_a: Track,
        track_b: Track,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """All pairwise raw distances between two tracks' BBoxes.

        Semantically identical to calling :meth:`distance` on every BBox
        pair (same cache contents, same simulated cost) but vectorized for
        wall-clock speed — this is what makes the exhaustive baseline
        runnable at benchmark scale.
        """
        fa = self.track_features(track_a, batch_size)
        fb = self.track_features(track_b, batch_size)
        self.cost.charge_distance(len(track_a) * len(track_b))
        sq = (
            (fa**2).sum(axis=1)[:, None]
            + (fb**2).sum(axis=1)[None, :]
            - 2.0 * fa @ fb.T
        )
        return np.sqrt(np.clip(sq, 0.0, None))

    # ------------------------------------------------------------------
    # Batched path (the -B variants, §IV-F)
    # ------------------------------------------------------------------
    def distances_batched(
        self,
        requests: list[tuple[Track, int, Track, int]],
        batch_size: int,
    ) -> list[float]:
        """Evaluate many BBox-pair distances with GPU-style batching.

        All features not yet cached are extracted in batched calls of up to
        ``2 * batch_size`` crops (each of the ``batch_size`` track pairs in
        a batch contributes two crops); distances are then computed in bulk.

        Args:
            requests: ``(track_a, index_a, track_b, index_b)`` tuples.
            batch_size: the paper's 𝓑 — track pairs jointly evaluated.

        Returns:
            Raw distances aligned with ``requests``.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not requests:
            return []

        # The distinct crops in first-request order, probed in one bulk
        # lookup.  Every feature this call touches stays in a local map so
        # results cannot be invalidated by LRU eviction mid-call.
        crops: dict[FeatureKey, tuple[Track, int]] = {}
        for track_a, ia, track_b, ib in requests:
            key = (track_a.track_id, ia)
            if key not in crops:
                crops[key] = (track_a, ia)
            key = (track_b.track_id, ib)
            if key not in crops:
                crops[key] = (track_b, ib)
        features: dict[FeatureKey, np.ndarray] = {}
        needed: list[FeatureKey] = []
        for key, cached in zip(crops, self.cache.get_many(list(crops))):
            if cached is None:
                needed.append(key)
            else:
                features[key] = cached

        self.telemetry.count("reid.batched_requests", len(requests))
        if needed:
            self.cost.charge_extract_batched(
                len(needed), batch_size=2 * batch_size
            )
            for key in needed:
                track, idx = crops[key]
                feature = self.model.extract(track.observations[idx].detection)
                self.cache.put(key, feature)
                features[key] = feature

        self.cost.charge_distance(len(requests))
        return [
            feature_distance(
                features[(track_a.track_id, ia)],
                features[(track_b.track_id, ib)],
            )
            for track_a, ia, track_b, ib in requests
        ]

    def distances_batched_fresh(
        self,
        requests: list[tuple[Track, int, Track, int]],
        batch_size: int,
    ) -> list[float]:
        """Batched distances with no feature reuse (PS-B / LCB-B).

        Every request pays two crop extractions, amortized only through the
        GPU batch law — never through the cache.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not requests:
            return []
        self.cost.charge_extract_batched(
            2 * len(requests), batch_size=2 * batch_size
        )
        self.cost.charge_distance(len(requests))
        distances = []
        for track_a, ia, track_b, ib in requests:
            fa = self.model.extract(track_a.observations[ia].detection)
            fb = self.model.extract(track_b.observations[ib].detection)
            distances.append(feature_distance(fa, fb))
        return distances

    def normalized_distances_batched(
        self,
        requests: list[tuple[Track, int, Track, int]],
        batch_size: int,
    ) -> list[float]:
        """Batched variant returning normalized distances d̃ ∈ [0, 1].

        Applies the same non-finite defense as :meth:`normalized_distance`,
        vectorized across the batch.
        """
        raw = self.distances_batched(requests, batch_size)
        if not raw:
            return []
        d_norms = self._sanitize_normalize_many(
            raw, where="ReidScorer.normalized_distances_batched"
        )
        return [float(d) for d in d_norms]
