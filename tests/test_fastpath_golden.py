"""Golden fingerprints of the tracker, ReID-extract and batched-scorer outputs.

The digests were captured from the reference implementation before the
association and scoring fast paths (DESIGN.md §9.3) replaced it; they pin
those rewrites to the exact bits it produced: track ids, frames and boxes,
feature bytes (hence the extraction RNG draw order), distances, and the
cache counters with their telemetry mirrors.  A digest change here means an
output changed; never refresh one to make a rewrite pass.
"""

import hashlib

import numpy as np
import pytest

from helpers import make_detection, make_track, tiny_world

from repro.detect import NoisyDetector
from repro.reid import FeatureCache, ReidScorer, SimReIDModel
from repro.reid.cost import CostModel
from repro.synth import simulate_world
from repro.synth.datasets import preset_by_name
from repro.telemetry import Telemetry
from repro.track import TracktorTracker


def track_fingerprint(tracks) -> str:
    """Digest of every track's id, frames and box corners, in order."""
    h = hashlib.sha256()
    for track in tracks:
        h.update(np.int64(track.track_id).tobytes())
        h.update(np.asarray(track.frames, dtype=np.int64).tobytes())
        h.update(
            np.asarray(
                [[b.x1, b.y1, b.x2, b.y2] for b in track.bboxes],
                dtype=np.float64,
            ).tobytes()
        )
    return h.hexdigest()[:16]


def float_fingerprint(values) -> str:
    """Digest of a float sequence's exact float64 bytes."""
    h = hashlib.sha256()
    h.update(np.asarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Tracker association
# ----------------------------------------------------------------------
TRACKER_CASES = {
    # preset: (frames, scene seed, detector seed)
    "mot17": (450, 0, 5),
    "pathtrack": (700, 0, 9),
}

TRACKER_GOLDEN = {
    "mot17": (34, "846cdf11937cd1a2"),
    "pathtrack": (53, "4b6677c0e215c6f5"),
}


def tracker_run(preset: str):
    frames, scene, detector_seed = TRACKER_CASES[preset]
    world = simulate_world(
        preset_by_name(preset).config, frames, seed=scene
    )
    detections = NoisyDetector().detect_video(world, seed=detector_seed)
    return TracktorTracker().run(detections)


@pytest.mark.parametrize("preset", sorted(TRACKER_CASES))
def test_tracktor_run_fingerprint(preset):
    tracks = tracker_run(preset)
    assert (len(tracks), track_fingerprint(tracks)) == TRACKER_GOLDEN[preset]


# ----------------------------------------------------------------------
# ReID extraction
# ----------------------------------------------------------------------
VISIBILITIES = (-0.5, 0.0, 0.37, 1.0, 1.5)

EXTRACT_GOLDEN = "0e413825a22c5e94"


def extract_features(world) -> list[np.ndarray]:
    """Features over a fixed sequence of GT-backed and clutter crops.

    One model serves every crop, so the digest also pins the order of
    the extraction RNG draws.
    """
    model = SimReIDModel(world, seed=4)
    out = []
    for object_id in list(world.objects)[:3]:
        obj = world.objects[object_id]
        box = obj.bbox_at(obj.spawn_frame)
        for visibility in VISIBILITIES:
            out.append(
                model.extract(
                    make_detection(
                        box.x1, box.y1, box.width, box.height,
                        source_id=object_id, visibility=visibility,
                    )
                )
            )
    for i, visibility in enumerate(VISIBILITIES):
        clutter = make_detection(
            13.25 * i, 7.5 + i, 31.0, 64.0,
            source_id=None, visibility=visibility,
        )
        out.append(model.extract(clutter))
        out.append(model.extract(clutter))  # the clutter latent is reused
    return out


def test_extract_feature_bytes():
    world = tiny_world(n_frames=60, seed=1)
    features = extract_features(world)
    assert all(f.dtype == np.float64 for f in features)
    assert float_fingerprint(features) == EXTRACT_GOLDEN


# ----------------------------------------------------------------------
# Batched scoring on a bounded cache
# ----------------------------------------------------------------------
BATCHED_GOLDEN = {
    "distances": "3fe1c6f323ba1782",
    "stats": {
        "hits": 9,
        "misses": 17,
        "evictions": 13,
        "entries": 4,
        "max_entries": 4,
    },
    "counters": {
        "cache.hits": 9.0,
        "cache.misses": 17.0,
        "cache.evictions": 13.0,
    },
    "lru": [(2, 1), (0, 3), (1, 3), (2, 0)],
    "sim_seconds": "0.045538",
}


def batched_session():
    """Batched and scalar scoring against a four-entry LRU cache.

    The calls touch more distinct crops than the cache holds, repeat keys
    within and across calls, and interleave the scalar path, so hits,
    misses, evictions and the LRU order all do work.
    """
    world = tiny_world(n_frames=60, seed=2)
    ids = list(world.objects)[:3]
    tracks = [
        make_track(t, list(range(10 * t, 10 * t + 6)), source_id=ids[t])
        for t in range(3)
    ]
    telemetry = Telemetry()
    cache = FeatureCache(max_entries=4)
    scorer = ReidScorer(
        SimReIDModel(world, seed=6),
        cost=CostModel(),
        cache=cache,
        telemetry=telemetry,
    )
    a, b, c = tracks
    calls = [
        [(a, 0, b, 0), (a, 1, b, 0), (a, 0, b, 1)],
        [(a, 0, b, 0), (b, 2, c, 3), (a, 5, c, 3), (a, 0, c, 0)],
        [(c, 0, a, 0), (c, 1, a, 0), (b, 0, b, 1), (c, 0, a, 0)],
    ]
    distances = []
    for requests in calls:
        distances.extend(scorer.distances_batched(requests, batch_size=2))
        distances.append(scorer.normalized_distance(a, 0, c, 1))
    distances.extend(
        scorer.normalized_distances_batched(
            [(a, 3, b, 3), (a, 0, c, 0), (c, 1, a, 0)], batch_size=1
        )
    )
    counters = {
        name: telemetry.metrics.value(name)
        for name in ("cache.hits", "cache.misses", "cache.evictions")
    }
    return {
        "distances": float_fingerprint(distances),
        "stats": cache.stats(),
        "counters": counters,
        "lru": [key for key, _ in cache.items()],
        "sim_seconds": repr(scorer.cost.seconds),
    }


def test_distances_batched_bounded_cache():
    session = batched_session()
    assert session == BATCHED_GOLDEN
