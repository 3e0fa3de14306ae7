"""Dataset presets mirroring the paper's evaluation corpora.

The paper evaluates on MOT-17, KITTI (pedestrian videos) and PathTrack
(YouTube source videos).  We cannot ship those, so each preset configures
the simulator to match the statistics the paper reports:

* **MOT-17-like** — crowded pedestrian scenes; ~825 frames per video,
  ~400 track pairs per window with ~2 % polyonymous rate.
* **KITTI-like** — driving scenes; sparser pedestrians, shorter tracks,
  strong inter-object occlusion from vehicles.
* **PathTrack-like** — long (~2 minute) web videos; ~145 tracks per window,
  ~105 BBoxes per track, ``L_max ≈ 1000`` frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.synth.scene import SceneConfig


@dataclass(frozen=True)
class DatasetPreset:
    """A named scene recipe plus default video dimensions.

    Attributes:
        name: preset identifier (``mot17``, ``kitti``, ``pathtrack``).
        config: the scene configuration.
        video_frames: default per-video length in frames.
        default_window: default window length ``L`` used in the paper's
            experiments on this dataset.
    """

    name: str
    config: SceneConfig
    video_frames: int
    default_window: int


def mot17_like() -> DatasetPreset:
    """Crowded pedestrian surveillance, à la MOT-17."""
    config = SceneConfig(
        width=1920.0,
        height=1080.0,
        spawn_rate=0.015,
        initial_objects=8,
        max_objects=18,
        min_track_length=100,
        max_track_length=700,
        mean_speed=3.5,
        speed_jitter=1.2,
        person_fraction=0.97,
        n_static_occluders=4,
        glare_rate=2.0,
        glare_duration=(8, 30),
        glare_strength=0.05,
        random_walk_fraction=0.35,
    )
    return DatasetPreset(
        name="mot17",
        config=config,
        video_frames=900,
        default_window=2000,
    )


def kitti_like() -> DatasetPreset:
    """Driving scenes with pedestrians and vehicles, à la KITTI tracking."""
    config = SceneConfig(
        width=1242.0,
        height=375.0,
        spawn_rate=0.02,
        initial_objects=6,
        max_objects=15,
        min_track_length=30,
        max_track_length=300,
        mean_speed=5.0,
        speed_jitter=2.0,
        person_fraction=0.6,
        person_size=(45.0, 110.0),
        vehicle_size=(180.0, 100.0),
        n_static_occluders=2,
        occluder_size=(100.0, 250.0),
        glare_rate=3.0,
        glare_duration=(6, 25),
        glare_strength=0.05,
        random_walk_fraction=0.15,
    )
    return DatasetPreset(
        name="kitti",
        config=config,
        video_frames=800,
        default_window=2000,
    )


def pathtrack_like() -> DatasetPreset:
    """Long web videos with many person trajectories, à la PathTrack."""
    config = SceneConfig(
        width=1280.0,
        height=720.0,
        spawn_rate=0.02,
        initial_objects=8,
        max_objects=20,
        min_track_length=80,
        max_track_length=1000,
        mean_speed=2.5,
        speed_jitter=1.0,
        person_fraction=0.95,
        person_size=(50.0, 130.0),
        n_static_occluders=3,
        glare_rate=1.5,
        glare_duration=(10, 45),
        glare_strength=0.08,
        random_walk_fraction=0.4,
    )
    return DatasetPreset(
        name="pathtrack",
        config=config,
        video_frames=3600,
        default_window=2000,
    )


_PRESETS = {
    "mot17": mot17_like,
    "kitti": kitti_like,
    "pathtrack": pathtrack_like,
}


def preset_by_name(name: str) -> DatasetPreset:
    """Look up a preset; raises ``KeyError`` with the known names on miss."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown dataset preset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
