"""Seeded, composable fault injectors.

Each injector owns an injected :class:`numpy.random.Generator` (never the
global RNG — REPRO001) so a fault schedule is a pure function of its seed
and the sequence of calls made against it.  That is what makes chaos runs
*reproducible*: the same profile + seed fails the same calls, corrupts the
same features, and crashes the same windows every time.

Injection seams:

* :class:`ReidCallFaultInjector` — raises at the ReID call boundary
  (failure / timeout), consulted by :class:`FaultyReidModel` *before* the
  wrapped model runs, so a failed call never consumes model RNG state.
* :class:`FeatureCorruptionInjector` — corrupts returned embeddings
  (all-NaN vectors, or silently swapped latents from earlier calls).
* :class:`FrameDropInjector` — blanks whole detection frames (feed
  hiccups upstream of the tracker).
* :class:`WindowCrashInjector` — arms a per-window countdown that kills
  the window worker after a seeded number of scorer calls.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import (
    ReidFaultError,
    ReidTimeoutError,
    WindowCrashError,
)
from repro.telemetry import Telemetry


class ReidCallFaultInjector:
    """Randomly fails or times out ReID calls.

    Args:
        rng: injected randomness source driving the fault schedule.
        failure_rate: per-call probability of a :class:`ReidFaultError`.
        timeout_rate: per-call probability of a :class:`ReidTimeoutError`
            (evaluated after the failure draw misses).
        timeout_penalty_ms: simulated wait charged for each timeout.
        telemetry: the run's :class:`~repro.telemetry.Telemetry`
            counting injected faults (a private one when omitted).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        failure_rate: float = 0.0,
        timeout_rate: float = 0.0,
        timeout_penalty_ms: float = 50.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if not 0.0 <= timeout_rate <= 1.0:
            raise ValueError("timeout_rate must be in [0, 1]")
        if timeout_penalty_ms < 0:
            raise ValueError("timeout_penalty_ms must be non-negative")
        self.rng = rng
        self.failure_rate = failure_rate
        self.timeout_rate = timeout_rate
        self.timeout_penalty_ms = timeout_penalty_ms
        self.n_failures = 0
        self.n_timeouts = 0
        self.telemetry = telemetry or Telemetry()

    def check(self) -> None:
        """Consult the schedule for one call; raise when it should fail."""
        if self.failure_rate > 0 and self.rng.random() < self.failure_rate:
            self.n_failures += 1
            self.telemetry.count("faults.reid_failures")
            raise ReidFaultError(
                f"injected ReID failure #{self.n_failures}"
            )
        if self.timeout_rate > 0 and self.rng.random() < self.timeout_rate:
            self.n_timeouts += 1
            self.telemetry.count("faults.reid_timeouts")
            raise ReidTimeoutError(
                f"injected ReID timeout #{self.n_timeouts}",
                penalty_ms=self.timeout_penalty_ms,
            )


#: Supported feature-corruption modes.
CORRUPTION_MODES = ("nan", "swap")


class FeatureCorruptionInjector:
    """Randomly corrupts extracted feature vectors.

    Modes:

    * ``"nan"`` — the embedding comes back all-NaN (a crashed kernel or a
      serialization bug).  Downstream distances become NaN, which the
      defensive layer must catch (see
      :meth:`repro.reid.scorer.ReidScorer.normalized_distance`).
    * ``"swap"`` — the embedding of a *previous* call is silently returned
      instead (a batching/indexing bug in the serving layer).  The value
      is finite and unit-norm, so only behavioral tests can detect it.

    Args:
        rng: injected randomness source.
        rate: per-call corruption probability.
        mode: one of :data:`CORRUPTION_MODES`.
        telemetry: the run's :class:`~repro.telemetry.Telemetry`
            counting corruptions (a private one when omitted).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rate: float = 0.0,
        mode: str = "nan",
        telemetry: Telemetry | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if mode not in CORRUPTION_MODES:
            raise ValueError(f"mode must be one of {CORRUPTION_MODES}")
        self.rng = rng
        self.rate = rate
        self.mode = mode
        self.n_corrupted = 0
        self.telemetry = telemetry or Telemetry()
        self._previous: np.ndarray | None = None

    def corrupt(self, feature: np.ndarray) -> np.ndarray:
        """Return ``feature`` or a corrupted stand-in, per the schedule."""
        stash = self._previous
        self._previous = feature
        if self.rate <= 0 or self.rng.random() >= self.rate:
            return feature
        self.n_corrupted += 1
        self.telemetry.count("faults.corrupted_features")
        if self.mode == "nan":
            return np.full_like(feature, np.nan)
        if stash is None or stash.shape != feature.shape:
            return feature  # nothing to swap with yet
        return stash.copy()


class FrameDropInjector:
    """Blanks whole detection frames, simulating feed hiccups.

    Dropped frames become empty lists — the frame still exists (indices
    stay aligned with the ground truth) but carries no detections, exactly
    what a decoder stall or network blip produces upstream of the tracker.

    Args:
        rng: injected randomness source.
        rate: per-frame drop probability.
        telemetry: the run's :class:`~repro.telemetry.Telemetry`
            counting dropped frames (a private one when omitted).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rate: float = 0.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.rng = rng
        self.rate = rate
        self.n_dropped = 0
        self.telemetry = telemetry or Telemetry()

    def apply(self, frames: list[list]) -> list[list]:
        """Return a copy of ``frames`` with a seeded subset blanked."""
        if self.rate <= 0:
            return [list(frame) for frame in frames]
        out: list[list] = []
        for frame in frames:
            if self.rng.random() < self.rate:
                self.n_dropped += 1
                self.telemetry.count("faults.dropped_frames")
                out.append([])
            else:
                out.append(list(frame))
        return out


class ArmedCrash:
    """A live countdown for one window: raises after ``calls_left`` ticks.

    The crash fires exactly once; subsequent ticks pass, so the retried
    window completes.  This models "the worker died once, the replacement
    survived".
    """

    def __init__(self, calls_left: int, window_index: int) -> None:
        if calls_left < 0:
            raise ValueError("calls_left must be non-negative")
        self.calls_left = calls_left
        self.window_index = window_index
        self.fired = False

    def tick(self) -> None:
        """Count one scorer call; raise :class:`WindowCrashError` at zero."""
        if self.fired:
            return
        if self.calls_left <= 0:
            self.fired = True
            raise WindowCrashError(
                f"injected crash in window {self.window_index}"
            )
        self.calls_left -= 1


class WindowCrashInjector:
    """Decides, per window, whether and when the worker crashes.

    Args:
        rng: injected randomness source.
        crash_rate: per-window probability of a crash.
        min_calls: earliest scorer call at which a crash may fire.
        max_calls: latest scorer call at which a crash may fire.
        telemetry: the run's :class:`~repro.telemetry.Telemetry`
            counting armed crashes (a private one when omitted).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        crash_rate: float = 0.0,
        min_calls: int = 5,
        max_calls: int = 200,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError("crash_rate must be in [0, 1]")
        if min_calls < 0 or max_calls < min_calls:
            raise ValueError("need 0 <= min_calls <= max_calls")
        self.rng = rng
        self.crash_rate = crash_rate
        self.min_calls = min_calls
        self.max_calls = max_calls
        self.n_armed = 0
        self.telemetry = telemetry or Telemetry()

    def arm(self, window_index: int) -> ArmedCrash | None:
        """Draw this window's fate; return a countdown or ``None``."""
        if self.crash_rate <= 0 or self.rng.random() >= self.crash_rate:
            return None
        calls = int(self.rng.integers(self.min_calls, self.max_calls + 1))
        self.n_armed += 1
        self.telemetry.count("faults.armed_crashes")
        return ArmedCrash(calls, window_index)


class FaultyReidModel:
    """A ReID model wrapper that injects call faults and corrupted features.

    Drop-in for :class:`~repro.reid.model.SimReIDModel` at the
    :class:`~repro.reid.scorer.ReidScorer` seam: the scorer only calls
    ``extract``.  Call faults are decided *before* the wrapped model runs,
    so a failed call never advances the model's noise RNG — retries stay
    bit-deterministic.

    Args:
        model: the wrapped extractor.
        call_injector: optional failure/timeout schedule.
        corruption_injector: optional feature-corruption schedule.
    """

    def __init__(
        self,
        model,
        call_injector: ReidCallFaultInjector | None = None,
        corruption_injector: FeatureCorruptionInjector | None = None,
    ) -> None:
        self.model = model
        self.call_injector = call_injector
        self.corruption_injector = corruption_injector

    def extract(self, detection) -> np.ndarray:
        """Extract a feature, subject to the injected fault schedules."""
        if self.call_injector is not None:
            self.call_injector.check()
        feature = self.model.extract(detection)
        if self.corruption_injector is not None:
            feature = self.corruption_injector.corrupt(feature)
        return feature

    def rng_state(self) -> dict:
        """Joint RNG state of the wrapped model and every injector.

        Used by the checkpoint layer so a resumed window replays the same
        fault schedule the crashed run saw.
        """
        state: dict = {}
        inner = getattr(self.model, "rng_state", None)
        if callable(inner):
            state["model"] = inner()
        if self.call_injector is not None:
            state["call"] = dict(self.call_injector.rng.bit_generator.state)
        if self.corruption_injector is not None:
            state["corruption"] = dict(
                self.corruption_injector.rng.bit_generator.state
            )
            stash = self.corruption_injector._previous
            state["corruption_prev"] = (
                None if stash is None else [float(x) for x in stash]
            )
        return state

    def set_rng_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`rng_state`."""
        inner = getattr(self.model, "set_rng_state", None)
        if callable(inner) and "model" in state:
            inner(state["model"])
        if self.call_injector is not None and "call" in state:
            self.call_injector.rng.bit_generator.state = state["call"]
        if self.corruption_injector is not None and "corruption" in state:
            self.corruption_injector.rng.bit_generator.state = state[
                "corruption"
            ]
            stash = state.get("corruption_prev")
            self.corruption_injector._previous = (
                None if stash is None else np.asarray(stash, dtype=float)
            )
