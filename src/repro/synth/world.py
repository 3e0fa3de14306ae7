"""Ground-truth world simulation.

:func:`simulate_world` rolls a :class:`~repro.synth.scene.SceneConfig`
forward for ``n_frames``, producing a :class:`VideoGroundTruth` — per frame,
the visible objects with their (clipped) bounding boxes and visibility
fractions.  Visibility combines dynamic object-object occlusion, static
occluders and scheduled glare; the detection simulator turns low visibility
into missed detections, which is what ultimately fragments tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import BBox, clip_bbox
from repro.synth.events import (
    GlareInterval,
    StaticOccluder,
    glare_factor,
    occlusion_fractions,
    schedule_glare,
)
from repro.synth.motion import ConstantVelocity, RandomWalk
from repro.synth.objects import (
    GroundTruthObject,
    ObjectClass,
    draw_appearance,
    draw_clustered_appearance,
)
from repro.synth.scene import SceneConfig

# An object must be at least this visible *and* this fraction inside the
# image for its GT state to be recorded at a frame.  Mirrors MOT annotation
# practice of dropping fully-occluded boxes.
_MIN_VISIBILITY = 0.02
_MIN_ONSCREEN_FRACTION = 0.25


@dataclass(frozen=True, slots=True)
class GroundTruthState:
    """One object's ground truth at one frame.

    Attributes:
        object_id: GT identity.
        bbox: bounding box clipped to the image.
        visibility: fraction of the object visible, in [0, 1]
            (1 − occlusion, multiplied by any active glare factor).
    """

    object_id: int
    bbox: BBox
    visibility: float

    def __reduce__(self):
        """Pickle through the constructor, not the slot-state hooks."""
        return (type(self), (self.object_id, self.bbox, self.visibility))


@dataclass
class VideoGroundTruth:
    """The complete ground truth of one simulated video.

    Attributes:
        config: the scene configuration used.
        n_frames: video length.
        objects: GT objects by id (including their appearance latents).
        frames: ``frames[t]`` lists the visible objects at frame ``t``.
        occluders: static occluders placed in the scene.
        glare: scheduled glare intervals.
    """

    config: SceneConfig
    n_frames: int
    objects: dict[int, GroundTruthObject]
    frames: list[list[GroundTruthState]]
    occluders: list[StaticOccluder]
    glare: list[GlareInterval]

    def states_for(self, object_id: int) -> list[tuple[int, GroundTruthState]]:
        """All (frame, state) entries of one object, in frame order."""
        result = []
        for frame, states in enumerate(self.frames):
            for state in states:
                if state.object_id == object_id:
                    result.append((frame, state))
        return result

    def gt_track_spans(self) -> dict[int, tuple[int, int]]:
        """First/last frame each GT object is actually visible."""
        spans: dict[int, tuple[int, int]] = {}
        for frame, states in enumerate(self.frames):
            for state in states:
                first, _ = spans.get(state.object_id, (frame, frame))
                spans[state.object_id] = (first, frame)
        return spans


def _spawn_edge_position(
    config: SceneConfig, rng: np.random.Generator
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Pick an entry point on an image edge and an inward direction."""
    edge = rng.integers(0, 4)
    w, h = config.width, config.height
    if edge == 0:  # left edge, moving right
        start = (0.0, float(rng.uniform(0.2 * h, 0.95 * h)))
        direction = (1.0, float(rng.uniform(-0.2, 0.2)))
    elif edge == 1:  # right edge, moving left
        start = (w, float(rng.uniform(0.2 * h, 0.95 * h)))
        direction = (-1.0, float(rng.uniform(-0.2, 0.2)))
    elif edge == 2:  # top edge, moving down
        start = (float(rng.uniform(0.05 * w, 0.95 * w)), 0.2 * h)
        direction = (float(rng.uniform(-0.3, 0.3)), 1.0)
    else:  # bottom edge, moving up
        start = (float(rng.uniform(0.05 * w, 0.95 * w)), h)
        direction = (float(rng.uniform(-0.3, 0.3)), -1.0)
    norm = float(np.hypot(*direction))
    return start, (direction[0] / norm, direction[1] / norm)


def _make_object(
    object_id: int,
    spawn_frame: int,
    config: SceneConfig,
    rng: np.random.Generator,
    interior: bool,
    cluster_centers: list[np.ndarray] | None = None,
) -> GroundTruthObject:
    """Draw one GT object: class, size, lifetime, motion and appearance."""
    is_person = rng.random() < config.person_fraction
    object_class = ObjectClass.PERSON if is_person else ObjectClass.VEHICLE
    base_w, base_h = (
        config.person_size if is_person else config.vehicle_size
    )
    jitter = 1.0 + rng.normal(0.0, config.size_jitter)
    jitter = float(np.clip(jitter, 0.5, 1.8))
    size = (base_w * jitter, base_h * jitter)

    if config.track_length_tail is not None:
        # Heavy-tailed lifetimes (scenario regimes): truncated Pareto with
        # shape α, anchored at the minimum lifetime.  One draw per object,
        # like the uniform branch, so enabling the tail never perturbs any
        # other stream — and the default (None) keeps the uniform draw
        # bit-identical to the pre-scenario simulator.
        draw = float(rng.pareto(config.track_length_tail))
        lifetime = int(
            np.clip(
                config.min_track_length * (1.0 + draw),
                config.min_track_length,
                config.max_track_length,
            )
        )
    else:
        lifetime = int(
            rng.integers(config.min_track_length, config.max_track_length + 1)
        )

    speed = max(float(rng.normal(config.mean_speed, config.speed_jitter)), 0.3)
    # Vehicles move faster than pedestrians.
    if object_class is ObjectClass.VEHICLE:
        speed *= 2.0

    if interior:
        start = (
            float(rng.uniform(0.1 * config.width, 0.9 * config.width)),
            float(rng.uniform(0.3 * config.height, 0.95 * config.height)),
        )
        angle = float(rng.uniform(0, 2 * np.pi))
        direction = (float(np.cos(angle)), float(np.sin(angle)))
    else:
        start, direction = _spawn_edge_position(config, rng)

    use_walk = is_person and rng.random() < config.random_walk_fraction
    if use_walk:
        motion = RandomWalk.generate(
            start, steps=lifetime, rng=rng, step_scale=speed, momentum=0.85
        )
    else:
        motion = ConstantVelocity(
            start, (direction[0] * speed, direction[1] * speed)
        )

    if cluster_centers:
        center = cluster_centers[int(rng.integers(0, len(cluster_centers)))]
        appearance = draw_clustered_appearance(
            center, config.cluster_spread, rng
        )
    else:
        appearance = draw_appearance(
            config.appearance_dim, config.appearance_spread, rng
        )
    return GroundTruthObject(
        object_id=object_id,
        object_class=object_class,
        spawn_frame=spawn_frame,
        lifetime=lifetime,
        size=size,
        motion=motion,
        appearance=appearance,
    )


def _place_occluders(
    config: SceneConfig, rng: np.random.Generator
) -> list[StaticOccluder]:
    occluders = []
    ow, oh = config.occluder_size
    for _ in range(config.n_static_occluders):
        cx = float(rng.uniform(0.15 * config.width, 0.85 * config.width))
        cy = float(rng.uniform(0.35 * config.height, 0.85 * config.height))
        occluders.append(StaticOccluder(BBox.from_center(cx, cy, ow, oh)))
    return occluders


def simulate_world(
    config: SceneConfig,
    n_frames: int,
    seed: int | np.random.Generator = 0,
    extra_objects: list[GroundTruthObject] | None = None,
) -> VideoGroundTruth:
    """Simulate a ground-truth video.

    Args:
        config: scene parameters.
        n_frames: number of frames to simulate.
        seed: integer seed or an existing numpy ``Generator``.
        extra_objects: optional hand-scripted objects (e.g. staged crossings
            in tests) added on top of the random population.

    Returns:
        The complete :class:`VideoGroundTruth`.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )

    cluster_centers = [
        draw_appearance(config.appearance_dim, config.appearance_spread, rng)
        for _ in range(config.appearance_clusters)
    ]

    objects: dict[int, GroundTruthObject] = {}
    next_id = 0
    for _ in range(config.initial_objects):
        obj = _make_object(
            next_id, 0, config, rng, interior=True,
            cluster_centers=cluster_centers,
        )
        objects[next_id] = obj
        next_id += 1
    for obj in extra_objects or []:
        if obj.object_id in objects:
            raise ValueError(f"duplicate extra object id {obj.object_id}")
        objects[obj.object_id] = obj
        next_id = max(next_id, obj.object_id + 1)

    occluders = _place_occluders(config, rng)
    glare = schedule_glare(
        n_frames,
        config.glare_rate,
        config.glare_duration,
        config.glare_strength,
        rng,
    )

    frames: list[list[GroundTruthState]] = []
    active: set[int] = set(objects)
    for frame in range(n_frames):
        # Spawn new arrivals (Poisson), respecting the population cap.
        # The scenario surge schedule scales the rate per frame; the
        # default empty schedule multiplies by 1.0, leaving the Poisson
        # stream untouched bit-for-bit.
        n_alive = sum(1 for oid in active if objects[oid].alive_at(frame))
        n_spawn = int(
            rng.poisson(config.spawn_rate * config.spawn_multiplier_at(frame))
        )
        for _ in range(n_spawn):
            if n_alive >= config.max_objects:
                break
            obj = _make_object(
                next_id, frame, config, rng, interior=False,
                cluster_centers=cluster_centers,
            )
            objects[next_id] = obj
            active.add(next_id)
            next_id += 1
            n_alive += 1

        # Collect alive, on-screen objects.
        ids: list[int] = []
        boxes: list[BBox] = []
        for oid in sorted(active):
            obj = objects[oid]
            if not obj.alive_at(frame):
                continue
            raw = obj.bbox_at(frame)
            clipped = clip_bbox(raw, config.width, config.height)
            if clipped is None:
                continue
            if raw.area > 0 and clipped.area / raw.area < _MIN_ONSCREEN_FRACTION:
                continue
            ids.append(oid)
            boxes.append(clipped)

        hidden = occlusion_fractions(boxes, occluders)
        frame_glare = glare_factor(frame, glare)
        states = []
        for oid, box, frac in zip(ids, boxes, hidden):
            visibility = (1.0 - frac) * frame_glare
            if visibility >= _MIN_VISIBILITY:
                states.append(GroundTruthState(oid, box, visibility))
        frames.append(states)

        # Retire objects that can no longer appear.
        active = {
            oid
            for oid in active
            if objects[oid].last_frame >= frame
        }

    return VideoGroundTruth(
        config=config,
        n_frames=n_frames,
        objects=objects,
        frames=frames,
        occluders=occluders,
        glare=glare,
    )
