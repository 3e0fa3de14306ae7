"""The resilient ReID scorer: retry + circuit breaker + response validation.

:class:`ResilientReidScorer` wraps a
:class:`~repro.reid.scorer.ReidScorer` and presents the exact same
interface to the merging algorithms, adding three behaviours:

* **Retry with exponential backoff** — transient ReID faults
  (:class:`~repro.faults.errors.ReidFaultError`) are retried per a
  :class:`~repro.resilience.retry.RetryPolicy`; backoff and timeout
  penalties accrue on the simulated clock.
* **Circuit breaking** — consecutive failures trip a
  :class:`~repro.resilience.breaker.CircuitBreaker`; while it is open,
  calls raise :class:`~repro.resilience.errors.CircuitOpenError`
  immediately, which the algorithms catch to enter degraded mode.
* **Response validation** — non-finite distances or features (corrupted
  embeddings) are detected, the poisoned cache entries evicted, and the
  call retried so fresh features are extracted.

With no faults injected, every call is a single successful attempt with
zero extra clock charges — the wrapper is bit-transparent (the
fault-free pipeline produces byte-identical results with or without it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.resilience.errors import (
    CircuitOpenError,
    CorruptFeatureError,
    ReidUnavailableError,
)
from repro.resilience.retry import RetryPolicy


@dataclass(frozen=True)
class ResilienceConfig:
    """Bundled resilience tuning for the ingestion pipeline.

    Attributes:
        retry: per-call retry policy.
        breaker: circuit-breaker policy.
        max_window_retries: how many times a crashed window is re-run
            (ideally resuming from a checkpoint) before giving up.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    max_window_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_window_retries < 0:
            raise ValueError("max_window_retries must be non-negative")


class ResilientReidScorer:
    """A drop-in :class:`~repro.reid.scorer.ReidScorer` that survives faults.

    Args:
        scorer: the wrapped scorer (owns model, cache and cost clock).
        retry: retry policy; defaults are sensible for the shipped
            fault profiles.
        breaker: circuit breaker; built from ``breaker_policy`` over the
            scorer's cost clock when not supplied.
        breaker_policy: policy for the auto-built breaker.
    """

    def __init__(
        self,
        scorer,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        breaker_policy: BreakerPolicy | None = None,
    ) -> None:
        self._scorer = scorer
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(
            breaker_policy or BreakerPolicy(),
            clock=scorer.cost,
            telemetry=scorer.telemetry,
        )
        #: Armed per-window crash countdown (see
        #: :class:`~repro.faults.injectors.WindowCrashInjector`); the
        #: pipeline re-arms this before each window.
        self.crash_injector = None
        self.n_transient_faults = 0
        self.n_corruptions_detected = 0
        self._retry_on = tuple(self.retry.retry_on) + (CorruptFeatureError,)

    # ------------------------------------------------------------------
    # Delegated surface
    # ------------------------------------------------------------------
    @property
    def model(self) -> object:
        """The wrapped scorer's ReID model."""
        return self._scorer.model

    @property
    def cost(self) -> object:
        """The shared simulated cost clock."""
        return self._scorer.cost

    @property
    def cache(self) -> object:
        """The shared feature cache."""
        return self._scorer.cache

    @property
    def inner(self) -> object:
        """The wrapped (non-resilient) scorer."""
        return self._scorer

    @property
    def telemetry(self) -> object:
        """The wrapped scorer's Telemetry (mergers observe through it)."""
        return self._scorer.telemetry

    # ------------------------------------------------------------------
    # The guarded call core
    # ------------------------------------------------------------------
    def _call(self, fn):
        """Run ``fn`` under crash seam, breaker and retry policy."""
        if self.crash_injector is not None:
            self.crash_injector.tick()
        policy = self.retry
        last: BaseException | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if not self.breaker.allow():
                raise CircuitOpenError(
                    "circuit breaker open; ReID calls failing fast"
                ) from last
            try:
                result = fn()
            except self._retry_on as exc:
                last = exc
                self.n_transient_faults += 1
                self.telemetry.count("resilience.transient_faults")
                penalty = float(getattr(exc, "penalty_ms", 0.0))
                if penalty > 0:
                    self.cost.charge_wait(penalty)
                self.breaker.record_failure()
                if attempt < policy.max_attempts:
                    backoff = policy.backoff_ms(attempt)
                    if backoff > 0:
                        self.cost.charge_wait(backoff)
                continue
            self.breaker.record_success()
            return result
        raise ReidUnavailableError(
            f"ReID unavailable after {policy.max_attempts} attempts"
        ) from last

    def _corrupt(self, keys, what: str) -> CorruptFeatureError:
        """Evict poisoned cache entries and build the retryable error."""
        self.n_corruptions_detected += 1
        self.telemetry.count("resilience.corruptions_detected")
        for key in keys:
            self.cache.discard(key)
        return CorruptFeatureError(
            f"non-finite {what}; evicted {len(keys)} cached feature(s)"
        )

    # ------------------------------------------------------------------
    # Scorer interface (validated + guarded)
    # ------------------------------------------------------------------
    def feature(self, track, index: int) -> np.ndarray:
        """Cached feature of one BBox, validated finite."""

        def attempt() -> np.ndarray:
            result = self._scorer.feature(track, index)
            if not np.all(np.isfinite(result)):
                raise self._corrupt([(track.track_id, index)], "feature")
            return result

        return self._call(attempt)

    def distance(self, track_a, index_a: int, track_b, index_b: int) -> float:
        """Raw BBox-pair distance, validated finite."""

        def attempt() -> float:
            result = self._scorer.distance(track_a, index_a, track_b, index_b)
            if not np.isfinite(result):
                raise self._corrupt(
                    [
                        (track_a.track_id, index_a),
                        (track_b.track_id, index_b),
                    ],
                    "distance",
                )
            return result

        return self._call(attempt)

    def distance_fresh(
        self, track_a, index_a: int, track_b, index_b: int
    ) -> float:
        """No-reuse distance (PS/LCB semantics), validated finite."""

        def attempt() -> float:
            result = self._scorer.distance_fresh(
                track_a, index_a, track_b, index_b
            )
            if not np.isfinite(result):
                self.n_corruptions_detected += 1
                self.telemetry.count("resilience.corruptions_detected")
                raise CorruptFeatureError("non-finite fresh distance")
            return result

        return self._call(attempt)

    def normalized_distance(
        self, track_a, index_a: int, track_b, index_b: int
    ) -> float:
        """The paper's d̃ ∈ [0, 1], through the guarded distance path."""
        from repro.reid.scorer import normalize_distance

        return normalize_distance(
            self.distance(track_a, index_a, track_b, index_b)
        )

    def track_features(
        self, track, batch_size: int | None = None
    ) -> np.ndarray:
        """All features of a track, validated finite row by row."""

        def attempt() -> np.ndarray:
            result = self._scorer.track_features(track, batch_size)
            bad_rows = np.nonzero(~np.all(np.isfinite(result), axis=1))[0]
            if bad_rows.size:
                raise self._corrupt(
                    [(track.track_id, int(i)) for i in bad_rows],
                    "track features",
                )
            return result

        return self._call(attempt)

    def pair_distance_matrix(
        self, track_a, track_b, batch_size: int | None = None
    ) -> np.ndarray:
        """All pairwise distances between two tracks, validated finite."""

        def attempt() -> np.ndarray:
            result = self._scorer.pair_distance_matrix(
                track_a, track_b, batch_size
            )
            if not np.all(np.isfinite(result)):
                bad_a = np.nonzero(~np.all(np.isfinite(result), axis=1))[0]
                bad_b = np.nonzero(~np.all(np.isfinite(result), axis=0))[0]
                keys = [(track_a.track_id, int(i)) for i in bad_a]
                keys += [(track_b.track_id, int(j)) for j in bad_b]
                raise self._corrupt(keys, "distance matrix")
            return result

        return self._call(attempt)

    def distances_batched(
        self,
        requests: list[tuple],
        batch_size: int,
    ) -> list[float]:
        """Batched distances (§IV-F), validated finite per request.

        The whole batch is one guarded call: the breaker records one
        success or failure per simulated GPU invocation (not per
        request), and validation is one vectorized ``isfinite`` pass.
        """
        self.telemetry.count("resilience.batched_calls")

        def attempt() -> list[float]:
            result = self._scorer.distances_batched(requests, batch_size)
            bad = np.nonzero(~np.isfinite(np.asarray(result)))[0]
            if bad.size:
                self.telemetry.count(
                    "resilience.corrupt_batch_requests", int(bad.size)
                )
                keys = []
                for i in bad:
                    track_a, ia, track_b, ib = requests[int(i)]
                    keys.append((track_a.track_id, ia))
                    keys.append((track_b.track_id, ib))
                raise self._corrupt(keys, "batched distances")
            return result

        return self._call(attempt)

    def distances_batched_fresh(
        self,
        requests: list[tuple],
        batch_size: int,
    ) -> list[float]:
        """Batched no-reuse distances, validated finite per request."""

        def attempt() -> list[float]:
            result = self._scorer.distances_batched_fresh(
                requests, batch_size
            )
            if any(not np.isfinite(d) for d in result):
                self.n_corruptions_detected += 1
                self.telemetry.count("resilience.corruptions_detected")
                raise CorruptFeatureError("non-finite fresh batch")
            return result

        return self._call(attempt)

    def normalized_distances_batched(
        self,
        requests: list[tuple],
        batch_size: int,
    ) -> list[float]:
        """Batched d̃ values through the guarded batched path."""
        from repro.reid.scorer import normalize_distances

        raw = self.distances_batched(requests, batch_size)
        if not raw:
            return []
        return [float(d) for d in normalize_distances(raw)]

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Resilience counters, for reporting."""
        return {
            "transient_faults": float(self.n_transient_faults),
            "corruptions_detected": float(self.n_corruptions_detected),
            "breaker_opens": float(self.breaker.n_opens),
            "breaker_closes": float(self.breaker.n_closes),
            "wait_ms": float(self.cost.wait_ms),
        }
