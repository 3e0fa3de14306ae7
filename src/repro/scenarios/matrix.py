"""The named scenario matrix the sweep harness and CI run.

Each entry is a :class:`~repro.scenarios.spec.ScenarioSpec` crossing a
dataset preset with one or more regime axes.  Names are stable public
identifiers — the committed sweep baseline and the CI gate key on them —
so renaming a scenario is a baseline-refresh event by construction (its
``scenario_id`` moves with it).

The matrix covers, per preset: a clear-weather control, crowd surges,
weather/glare + feature corruption, camera dropouts, heavy-tailed track
lengths, and compound regimes mixing several axes.  ``chaos-baseline``
is the axis-free compact world the test suite's shared
``scenario_world`` fixture builds on.
"""

from __future__ import annotations

from dataclasses import replace

from repro.scenarios.axes import DropoutAxis, SurgeAxis, TailAxis, WeatherAxis
from repro.scenarios.spec import ScenarioSpec

#: Frame budget of a smoke-mode scenario (CI's quick lane).
SMOKE_FRAMES = 220

SCENARIO_MATRIX: tuple[ScenarioSpec, ...] = (
    # Clear-weather controls, one per preset.
    ScenarioSpec(name="mot17-clear", preset="mot17"),
    ScenarioSpec(name="kitti-clear", preset="kitti"),
    ScenarioSpec(name="pathtrack-clear", preset="pathtrack"),
    # Crowd surges.
    ScenarioSpec(
        name="mot17-rush-hour",
        preset="mot17",
        surge=SurgeAxis(bursts=((0.3, 0.7, 4.0),), max_objects_boost=6),
    ),
    ScenarioSpec(
        name="mot17-pulsed-surge",
        preset="mot17",
        surge=SurgeAxis(
            bursts=((0.1, 0.25, 3.0), (0.5, 0.65, 3.0), (0.8, 0.95, 3.0)),
            max_objects_boost=4,
        ),
    ),
    ScenarioSpec(
        name="kitti-onramp-surge",
        preset="kitti",
        surge=SurgeAxis(bursts=((0.4, 0.8, 5.0),), max_objects_boost=5),
    ),
    ScenarioSpec(
        name="pathtrack-crowd-swell",
        preset="pathtrack",
        surge=SurgeAxis(bursts=((0.2, 0.9, 2.5),), max_objects_boost=8),
    ),
    # Weather / glare.
    ScenarioSpec(
        name="mot17-glare-storm",
        preset="mot17",
        weather=WeatherAxis(glare_rate_boost=6.0, glare_strength=0.02),
    ),
    ScenarioSpec(
        name="kitti-sun-glare",
        preset="kitti",
        weather=WeatherAxis(
            glare_rate_boost=5.0, glare_strength=0.03, corrupt_rate=0.05
        ),
    ),
    ScenarioSpec(
        name="pathtrack-heat-haze",
        preset="pathtrack",
        weather=WeatherAxis(
            glare_rate_boost=3.0, corrupt_rate=0.08, corrupt_mode="swap"
        ),
    ),
    ScenarioSpec(
        name="mot17-night-rain",
        preset="mot17",
        weather=WeatherAxis(glare_rate_boost=2.0, corrupt_rate=0.12),
    ),
    # Camera dropouts.
    ScenarioSpec(
        name="mot17-flaky-uplink",
        preset="mot17",
        dropout=DropoutAxis(frame_drop_rate=0.08),
    ),
    ScenarioSpec(
        name="kitti-camera-dropout",
        preset="kitti",
        dropout=DropoutAxis(frame_drop_rate=0.12, window_crash_rate=0.25),
    ),
    ScenarioSpec(
        name="pathtrack-worker-churn",
        preset="pathtrack",
        dropout=DropoutAxis(window_crash_rate=0.6),
    ),
    # Heavy-tailed track lengths.
    ScenarioSpec(
        name="mot17-longtail",
        preset="mot17",
        tail=TailAxis(alpha=1.1, max_length=220),
    ),
    ScenarioSpec(
        name="pathtrack-longtail",
        preset="pathtrack",
        tail=TailAxis(alpha=0.9, max_length=260),
    ),
    ScenarioSpec(
        name="kitti-shortlived",
        preset="kitti",
        tail=TailAxis(alpha=3.5),
    ),
    # Compound regimes.
    ScenarioSpec(
        name="mot17-surge-dropout",
        preset="mot17",
        surge=SurgeAxis(bursts=((0.25, 0.75, 3.0),), max_objects_boost=5),
        dropout=DropoutAxis(frame_drop_rate=0.06, window_crash_rate=0.2),
    ),
    ScenarioSpec(
        name="kitti-glare-surge",
        preset="kitti",
        surge=SurgeAxis(bursts=((0.3, 0.7, 3.0),), max_objects_boost=4),
        weather=WeatherAxis(glare_rate_boost=4.0, corrupt_rate=0.05),
    ),
    ScenarioSpec(
        name="pathtrack-storm",
        preset="pathtrack",
        weather=WeatherAxis(
            glare_rate_boost=4.0, glare_strength=0.04, corrupt_rate=0.06
        ),
        dropout=DropoutAxis(frame_drop_rate=0.08),
    ),
    ScenarioSpec(
        name="mot17-perfect-storm",
        preset="mot17",
        surge=SurgeAxis(bursts=((0.2, 0.6, 3.5),), max_objects_boost=5),
        weather=WeatherAxis(glare_rate_boost=3.0, corrupt_rate=0.08),
        dropout=DropoutAxis(frame_drop_rate=0.05, window_crash_rate=0.3),
        tail=TailAxis(alpha=1.3, max_length=200),
    ),
    # The axis-free compact world backing the shared test fixture.
    ScenarioSpec(name="chaos-baseline", preset="mot17", n_frames=240),
)

_BY_NAME: dict[str, ScenarioSpec] = {
    spec.name: spec for spec in SCENARIO_MATRIX
}
if len(_BY_NAME) != len(SCENARIO_MATRIX):
    raise AssertionError("scenario names in SCENARIO_MATRIX must be unique")

#: The representative subset the default test job smoke-runs (one clear
#: control, one compound regime, one fault-seam regime).
SMOKE_SUBSET: tuple[str, ...] = (
    "mot17-clear",
    "kitti-camera-dropout",
    "mot17-perfect-storm",
)


def scenario_by_name(name: str) -> ScenarioSpec:
    """Look up a matrix spec by name.

    Raises:
        KeyError: on an unknown name (message lists the known names).
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


def smoke_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The smoke-mode (CI quick lane) variant of a spec.

    Shrinks the frame budget to :data:`SMOKE_FRAMES`; surge bursts are
    video-relative fractions so they survive the shrink unchanged.  The
    variant is a different spec with a different ``scenario_id`` — the
    committed sweep baseline is recorded at smoke scale and the gate
    checks mode match, so smoke and full numbers can never be confused.
    """
    return replace(spec, n_frames=min(spec.n_frames, SMOKE_FRAMES))
