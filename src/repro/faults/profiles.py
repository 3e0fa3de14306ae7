"""Named, seeded fault profiles — the chaos configurations of the repo.

A :class:`FaultProfile` is a declarative bundle of fault rates.  All
randomness derives from one ``seed`` through independent
:class:`numpy.random.SeedSequence` children (one per seam), so enabling a
new fault type never perturbs the schedule of an existing one, and the
same profile + seed reproduces the exact same chaos run.

The registry ships the profiles the CI chaos matrix runs:

* ``flaky-reid`` — 10 % of ReID calls fail, 2 % time out.
* ``corrupt-features`` — 5 % of embeddings come back all-NaN and 5 %
  are silently swapped with an earlier call's embedding.
* ``window-crash`` — every window's worker is killed once mid-run.
* ``drop-frames`` — 5 % of detection frames arrive empty.
* ``reid-offline`` — every ReID call fails (full outage; forces the
  circuit breaker open and the pipeline into degraded mode).
* ``chaos`` — everything at once, at moderate rates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.faults.injectors import (
    CORRUPTION_MODES,
    FaultyReidModel,
    FeatureCorruptionInjector,
    FrameDropInjector,
    ReidCallFaultInjector,
    WindowCrashInjector,
)
from repro.telemetry import Telemetry

#: Stable child-stream indices, one per injection seam.  Appending new
#: seams keeps existing schedules byte-stable.
_STREAM_CALL = 0
_STREAM_CORRUPT = 1
_STREAM_FRAMES = 2
_STREAM_CRASH = 3


@dataclass(frozen=True)
class FaultProfile:
    """A declarative, seeded chaos configuration.

    Attributes:
        name: registry name (shown in reports and CLI output).
        reid_failure_rate: per-call probability of a hard ReID failure.
        reid_timeout_rate: per-call probability of a ReID timeout.
        timeout_penalty_ms: simulated wait charged per timeout.
        corrupt_rate: per-call probability of a corrupted embedding.
        corrupt_mode: ``"nan"`` or ``"swap"`` (see
            :class:`~repro.faults.injectors.FeatureCorruptionInjector`).
        frame_drop_rate: per-frame probability of a blanked frame.
        window_crash_rate: per-window probability of a worker crash.
        crash_min_calls: earliest scorer call a crash may fire at.
        crash_max_calls: latest scorer call a crash may fire at.
        seed: master seed; every injector draws from an independent
            child stream spawned from it.
    """

    name: str = "custom"
    reid_failure_rate: float = 0.0
    reid_timeout_rate: float = 0.0
    timeout_penalty_ms: float = 50.0
    corrupt_rate: float = 0.0
    corrupt_mode: str = "nan"
    frame_drop_rate: float = 0.0
    window_crash_rate: float = 0.0
    crash_min_calls: int = 5
    crash_max_calls: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for field_name in (
            "reid_failure_rate",
            "reid_timeout_rate",
            "corrupt_rate",
            "frame_drop_rate",
            "window_crash_rate",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]")
        if self.corrupt_mode not in CORRUPTION_MODES:
            raise ValueError(
                f"corrupt_mode must be one of {CORRUPTION_MODES}"
            )

    def _rng(self, stream: int) -> np.random.Generator:
        """An independent generator for one injection seam."""
        children = np.random.SeedSequence(self.seed).spawn(4)
        return np.random.default_rng(children[stream])

    @property
    def injects_reid_faults(self) -> bool:
        """True when the ReID call/feature seam is active."""
        return (
            self.reid_failure_rate > 0
            or self.reid_timeout_rate > 0
            or self.corrupt_rate > 0
        )

    def with_seed(self, seed: int) -> FaultProfile:
        """This profile re-seeded (a distinct, equally reproducible run)."""
        return replace(self, seed=seed)

    def window_seam_seed(
        self, index: int
    ) -> tuple[
        np.random.SeedSequence,
        np.random.SeedSequence,
        np.random.SeedSequence,
    ]:
        """One window's ``(call, corrupt, crash)`` seed substreams.

        Window-local execution (:mod:`repro.parallel`) gives every
        window the ``index``-th child of each seam's root sequence,
        addressed by spawn key, so a window's fault schedule is a pure
        function of ``(profile seed, window index)`` — independent of
        worker count, scheduling order and how many windows the run
        has.  Children hang off the same per-seam roots :meth:`_rng`
        uses, so adding a seam never perturbs the others.
        """
        if index < 0:
            raise ValueError("index must be non-negative")
        return tuple(
            np.random.SeedSequence(self.seed, spawn_key=(stream, index))
            for stream in (_STREAM_CALL, _STREAM_CORRUPT, _STREAM_CRASH)
        )

    def wrap_model(
        self,
        model,
        call_rng: np.random.Generator | None = None,
        corruption_rng: np.random.Generator | None = None,
        telemetry: Telemetry | None = None,
    ) -> FaultyReidModel:
        """Wrap a ReID model with this profile's call/feature injectors.

        Args:
            model: the extractor to wrap.
            call_rng: optional override of the call-fault generator
                (the parallel engine passes a per-window substream);
                defaults to the profile's run-level seam stream.
            corruption_rng: optional override of the corruption
                generator, same convention.
            telemetry: the run's Telemetry, counting injected faults.
        """
        call = None
        if self.reid_failure_rate > 0 or self.reid_timeout_rate > 0:
            call = ReidCallFaultInjector(
                call_rng if call_rng is not None else self._rng(_STREAM_CALL),
                failure_rate=self.reid_failure_rate,
                timeout_rate=self.reid_timeout_rate,
                timeout_penalty_ms=self.timeout_penalty_ms,
                telemetry=telemetry,
            )
        corruption = None
        if self.corrupt_rate > 0:
            corruption = FeatureCorruptionInjector(
                corruption_rng
                if corruption_rng is not None
                else self._rng(_STREAM_CORRUPT),
                rate=self.corrupt_rate,
                mode=self.corrupt_mode,
                telemetry=telemetry,
            )
        return FaultyReidModel(
            model, call_injector=call, corruption_injector=corruption
        )

    def frame_injector(
        self, telemetry: Telemetry | None = None
    ) -> FrameDropInjector:
        """A fresh frame-drop injector on this profile's schedule,
        counting drops into ``telemetry``."""
        return FrameDropInjector(
            self._rng(_STREAM_FRAMES),
            rate=self.frame_drop_rate,
            telemetry=telemetry,
        )

    def window_crasher(
        self,
        rng: np.random.Generator | None = None,
        telemetry: Telemetry | None = None,
    ) -> WindowCrashInjector:
        """A fresh window-crash injector on this profile's schedule.

        Args:
            rng: optional override of the crash-schedule generator (the
                parallel engine passes a per-window substream); defaults
                to the profile's run-level seam stream.
            telemetry: the run's Telemetry, counting armed crashes.
        """
        return WindowCrashInjector(
            rng if rng is not None else self._rng(_STREAM_CRASH),
            crash_rate=self.window_crash_rate,
            min_calls=self.crash_min_calls,
            max_calls=self.crash_max_calls,
            telemetry=telemetry,
        )


#: The shipped chaos profiles, by registry name.
PROFILES: dict[str, FaultProfile] = {
    profile.name: profile
    for profile in (
        FaultProfile(
            name="flaky-reid",
            reid_failure_rate=0.10,
            reid_timeout_rate=0.02,
        ),
        FaultProfile(
            name="corrupt-features",
            corrupt_rate=0.05,
            corrupt_mode="nan",
        ),
        FaultProfile(
            name="swapped-features",
            corrupt_rate=0.10,
            corrupt_mode="swap",
        ),
        FaultProfile(
            name="window-crash",
            window_crash_rate=1.0,
        ),
        FaultProfile(
            name="drop-frames",
            frame_drop_rate=0.05,
        ),
        FaultProfile(
            name="reid-offline",
            reid_failure_rate=1.0,
        ),
        FaultProfile(
            name="chaos",
            reid_failure_rate=0.05,
            reid_timeout_rate=0.02,
            corrupt_rate=0.02,
            corrupt_mode="nan",
            frame_drop_rate=0.02,
            window_crash_rate=0.5,
        ),
    )
}


def compose_profiles(
    name: str, parts: list[FaultProfile], seed: int = 0
) -> FaultProfile:
    """Compose several rate bundles into one profile.

    The scenario generator (:mod:`repro.scenarios`) expresses each regime
    axis (weather corruption, camera dropouts, …) as its own
    :class:`FaultProfile`; this combines them into the single profile a
    run consumes.  Rates **add** across parts and are capped at ``1.0``,
    so a composed schedule can never exceed the sum of its parts nor a
    valid probability — the invariant the scenario property suite pins.
    Non-rate knobs merge conservatively: the crash-call window is the
    union of the parts' windows, the timeout penalty is the worst
    (largest) one, and corruption modes must agree across every part
    that actually corrupts.

    Args:
        name: registry-style name of the composite.
        parts: the rate bundles to combine (empty list = all-zero rates).
        seed: master seed of the composed schedule.

    Raises:
        ValueError: when two parts request different corruption modes
            with non-zero rates (the schedules would be ambiguous).
    """
    corrupt_mode = CORRUPTION_MODES[0]
    corrupting = [p for p in parts if p.corrupt_rate > 0]
    if corrupting:
        modes = {p.corrupt_mode for p in corrupting}
        if len(modes) > 1:
            raise ValueError(
                f"conflicting corruption modes in composition: {sorted(modes)}"
            )
        corrupt_mode = corrupting[0].corrupt_mode

    def capped(field_name: str) -> float:
        return min(1.0, sum(getattr(p, field_name) for p in parts))

    return FaultProfile(
        name=name,
        reid_failure_rate=capped("reid_failure_rate"),
        reid_timeout_rate=capped("reid_timeout_rate"),
        timeout_penalty_ms=max(
            [p.timeout_penalty_ms for p in parts], default=50.0
        ),
        corrupt_rate=capped("corrupt_rate"),
        corrupt_mode=corrupt_mode,
        frame_drop_rate=capped("frame_drop_rate"),
        window_crash_rate=capped("window_crash_rate"),
        crash_min_calls=min([p.crash_min_calls for p in parts], default=5),
        crash_max_calls=max([p.crash_max_calls for p in parts], default=200),
        seed=seed,
    )


def fault_profile(name: str, seed: int | None = None) -> FaultProfile:
    """Look up a shipped profile, optionally re-seeded.

    Raises:
        KeyError: on an unknown profile name (message lists known names).
    """
    try:
        profile = PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {name!r}; choose from {sorted(PROFILES)}"
        ) from None
    if seed is not None:
        profile = profile.with_seed(seed)
    return profile
