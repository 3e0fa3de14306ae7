"""Golden fingerprints of the tracker, ReID-extract and batched-scorer outputs.

The digests were captured from the reference implementation before the
association and scoring fast paths (DESIGN.md §9.3) replaced it; they pin
those rewrites to the exact bits it produced: track ids, frames and boxes
(Tracktor, and SORT and the IoU tracker since the scalar IoU kernel),
feature bytes (hence the extraction RNG draw order), distances, and the
cache counters with their telemetry mirrors.  A digest change here means an
output changed; never refresh one to make a rewrite pass.
"""

import hashlib
import json

import numpy as np
import pytest

from helpers import (
    large_window,
    make_detection,
    make_track,
    stub_scorer,
    tiny_world,
)

from repro.core.pairs import TrackPair
from repro.core.pipeline import IngestionPipeline
from repro.core.tmerge import TMerge
from repro.detect import NoisyDetector
from repro.faults import fault_profile
from repro.provenance import DecisionLedger
from repro.reid import FeatureCache, ReidScorer, SimReIDModel
from repro.reid.cost import CostModel
from repro.synth import simulate_world
from repro.synth.datasets import preset_by_name
from repro.telemetry import Telemetry
from repro.track import IoUTracker, SortTracker, TracktorTracker


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


#: The other IoU-gated trackers, captured before ``associate_iou``
#: replaced their ``iou_matrix`` + ``solve_assignment`` calls.  Every case
#: has frames with gate conflicts, so the Hungarian and greedy fallbacks
#: are pinned as well as the conflict-free path.
IOU_GATED_GOLDEN = {
    ("iou", "mot17"): (40, "652eaa4098d140d2"),
    ("iou", "pathtrack"): (61, "25ab37fddc7a988d"),
    ("sort", "mot17"): (30, "2dcef5f4ce9b0c7e"),
    ("sort", "pathtrack"): (46, "489cf417957aa3dc"),
}

IOU_GATED_TRACKERS = {"iou": IoUTracker, "sort": SortTracker}


def tracker_run(preset: str, tracker_cls=TracktorTracker):
    frames, scene, detector_seed = TRACKER_CASES[preset]
    world = simulate_world(
        preset_by_name(preset).config, frames, seed=scene
    )
    detections = NoisyDetector().detect_video(world, seed=detector_seed)
    return tracker_cls().run(detections)


@pytest.mark.parametrize("preset", sorted(TRACKER_CASES))
def test_tracktor_run_fingerprint(preset):
    tracks = tracker_run(preset)
    assert (len(tracks), track_fingerprint(tracks)) == TRACKER_GOLDEN[preset]


@pytest.mark.parametrize(
    "case", sorted(IOU_GATED_GOLDEN), ids=lambda case: "-".join(case)
)
def test_iou_gated_run_fingerprint(case):
    name, preset = case
    tracks = tracker_run(preset, IOU_GATED_TRACKERS[name])
    assert (len(tracks), track_fingerprint(tracks)) == IOU_GATED_GOLDEN[case]


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


# ----------------------------------------------------------------------
# TMerge iterations
# ----------------------------------------------------------------------
def json_fingerprint(value) -> str:
    """Digest of a pure-JSON value (keys sorted)."""
    payload = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


#: Windows where arms exhaust (tracks of 2 or 3 boxes give 4 or 9 BBox
#: pairs) and a tight ULB radius retires arms; the grouped case starts
#: above GROUP_MIN_LIVE and ends below it.
TMERGE_CASES = {
    # name: (large_window arguments, TMerge arguments)
    "scalar": (
        dict(n_pairs=120, track_len=3),
        dict(k=0.1, tau_max=900, seed=4, ulb_scale=0.05, ulb_interval=5),
    ),
    "b8": (
        dict(n_pairs=120, track_len=3),
        dict(
            k=0.1, tau_max=150, seed=4, batch_size=8, ulb_scale=0.05,
            ulb_interval=5,
        ),
    ),
    "scalar_grouped": (
        dict(n_pairs=1100, track_len=2),
        dict(k=0.05, tau_max=1200, seed=4, ulb_scale=0.05, ulb_interval=5),
    ),
}

TMERGE_GOLDEN = {
    "scalar": {
        "candidates": (12, "a18e7ce0c66d0e96"),
        "scores": "c51a883e8d959ca4",
        "iterations": 576,
        "simulated_seconds": "0.2595840000000082",
        "rng": "b5b6872c2e997581",
        "ledger": "6cf82b630c710ea6",
        "exhausted": 46,
        "counters": {
            "tmerge.iterations": 576.0,
            "tmerge.thompson_draws": 36699.0,
            "ulb.accepted": 2.0,
            "ulb.passes": 115.0,
            "ulb.rejected": 76.0,
        },
    },
    "b8": {
        "candidates": (12, "57f6da67e67b482c"),
        "scores": "066c4dab97bcbea3",
        "iterations": 70,
        "simulated_seconds": "0.07062999999999961",
        "rng": "befb78c6b4b7f53f",
        "ledger": "6adf36f05e139655",
        "exhausted": 42,
        "counters": {
            "tmerge.iterations": 70.0,
            "tmerge.thompson_draws": 4027.0,
            "ulb.accepted": 6.0,
            "ulb.passes": 14.0,
            "ulb.rejected": 79.0,
        },
    },
    "scalar_grouped": {
        "candidates": (55, "1b2d3f2df40805e9"),
        "scores": "f9722b8ab4e386c9",
        "iterations": 1200,
        "simulated_seconds": "0.5207999999999908",
        "rng": "fd8638f45296298a",
        "ledger": "ba5d755ae871b8e8",
        "exhausted": 28,
        "counters": {
            "tmerge.iterations": 1200.0,
            "tmerge.thompson_draws": 1205942.0,
            "ulb.passes": 240.0,
            "ulb.rejected": 318.0,
        },
    },
}


def tmerge_session(name, monkeypatch):
    """One ledger-on TMerge run; the generator it drew from is caught
    through ``sample_bbox_pair``, so its final state is pinned too."""
    window, config = TMERGE_CASES[name]
    pairs = large_window(**window)
    scorer = stub_scorer(noise=0.05, seed=9)
    ledger = DecisionLedger()
    scorer.telemetry = Telemetry(ledger=ledger)
    generators = []
    sample = TrackPair.sample_bbox_pair

    def spy(pair, rng):
        generators.append(rng)
        return sample(pair, rng)

    monkeypatch.setattr(TrackPair, "sample_bbox_pair", spy)
    result = TMerge(**config).run(pairs, scorer)
    assert len({id(rng) for rng in generators}) == 1
    counters = scorer.telemetry.metrics.counters_snapshot()
    return {
        "candidates": (
            len(result.candidates),
            json_fingerprint([list(key) for key in result.candidate_keys]),
        ),
        "scores": json_fingerprint(
            sorted([list(key), v] for key, v in result.scores.items())
        ),
        "iterations": result.iterations,
        "simulated_seconds": repr(result.simulated_seconds),
        "rng": json_fingerprint(generators[0].bit_generator.state),
        "ledger": json_fingerprint([e.to_dict() for e in ledger.events]),
        "exhausted": sum(pair.exhausted for pair in pairs),
        "counters": {
            key: value
            for key, value in counters.items()
            if key.startswith(("tmerge.", "ulb."))
        },
    }


@pytest.mark.parametrize("name", sorted(TMERGE_CASES))
def test_tmerge_iteration_fingerprint(name, monkeypatch):
    assert tmerge_session(name, monkeypatch) == TMERGE_GOLDEN[name]


#: ``tmerge.*`` counter totals and a digest of ``window_metrics`` for a
#: window whose ReID is down (every window degrades, or falls back
#: before its first iteration) and windows whose worker crashes once and
#: are retried from scratch, in both regimes (workers None and 1).
PIPELINE_GOLDEN = {
    ("reid-offline", None, None): (
        {"tmerge.degraded_windows": 3.0, "tmerge.thompson_draws": 12.0},
        "8525682113c6907b",
    ),
    ("reid-offline", None, 1): (
        {"tmerge.degraded_windows": 3.0, "tmerge.thompson_draws": 12.0},
        "750cb8c079b9565d",
    ),
    ("reid-offline", 8, None): (
        {"tmerge.degraded_windows": 3.0, "tmerge.thompson_draws": 12.0},
        "5dc9f3fa66c1a92a",
    ),
    ("reid-offline", 8, 1): (
        {"tmerge.degraded_windows": 3.0, "tmerge.thompson_draws": 12.0},
        "716fafb471ce10a1",
    ),
    ("window-crash", None, None): (
        {"tmerge.iterations": 215.0, "tmerge.thompson_draws": 1685.0},
        "8c9de82a827e8574",
    ),
    ("window-crash", None, 1): (
        {"tmerge.iterations": 150.0, "tmerge.thompson_draws": 1007.0},
        "e45539583b1fc6ca",
    ),
    ("window-crash", 8, None): (
        {"tmerge.iterations": 215.0, "tmerge.thompson_draws": 1604.0},
        "64055c8638f5d9a7",
    ),
    ("window-crash", 8, 1): (
        {"tmerge.iterations": 150.0, "tmerge.thompson_draws": 980.0},
        "783473d55250d321",
    ),
}


@pytest.fixture(scope="module")
def chaos_tracks(chaos_world):
    detections = NoisyDetector().detect_video(chaos_world, seed=2)
    return detections, TracktorTracker().run(detections)


@pytest.mark.parametrize(
    "case",
    sorted(PIPELINE_GOLDEN, key=repr),
    ids=lambda case: f"{case[0]}-B{case[1] or 1}-workers{case[2]}",
)
def test_tmerge_counters_under_faults(case, chaos_world, chaos_tracks):
    profile, batch_size, workers = case
    telemetry = Telemetry()
    with IngestionPipeline(
        tracker=TracktorTracker(),
        merger=TMerge(k=0.1, tau_max=100, batch_size=batch_size, seed=3),
        window_length=100,
        fault_profile=fault_profile(profile),
        telemetry=telemetry,
        workers=workers,
    ) as pipeline:
        result = pipeline.run_on_tracks(chaos_world, *chaos_tracks)
    totals = {
        key: value
        for key, value in telemetry.metrics.counters_snapshot().items()
        if key.startswith("tmerge.")
    }
    assert (
        totals, json_fingerprint(result.window_metrics)
    ) == PIPELINE_GOLDEN[case]
