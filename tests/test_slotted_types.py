"""The per-detection value types are slotted and pickle through their
constructors.

A slotted instance carries no ``__dict__``, which is where the memory
saving comes from.  Each type's ``__reduce__`` rebuilds it through its
constructor, so its pickle applies no state and names no field.  A
slotted dataclass without one pickles through its state hooks instead:
a bare instance plus a state ``BUILD`` per object (with every field name,
for the mutable types) in every task that crosses the process-pool seam.
"""

import copy
import dataclasses
import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_detection, make_track

from repro.core.pairs import TrackPair
from repro.detect import Detection
from repro.geometry import BBox
from repro.streaming.events import FrameEvent
from repro.synth.world import GroundTruthState
from repro.track.base import Track, TrackObservation


def _pair() -> TrackPair:
    pair = TrackPair(make_track(0, [0, 1, 2]), make_track(1, [5, 6]))
    pair.sample_bbox_pairs(3, np.random.default_rng(0))
    return pair


SAMPLES = {
    BBox: lambda: BBox(1.5, 2.0, 30.25, 41.0),
    Detection: lambda: make_detection(3.0, 4.0, source_id=None),
    TrackObservation: lambda: TrackObservation(7, make_detection()),
    Track: lambda: make_track(4, [0, 2, 3]),
    TrackPair: _pair,
    GroundTruthState: lambda: GroundTruthState(
        9, BBox(0.0, 0.0, 10.0, 20.0), 0.75
    ),
    FrameEvent: lambda: FrameEvent(11, [make_detection()], 12.5),
}
TYPES = list(SAMPLES)
FROZEN = [cls for cls in TYPES if cls.__dataclass_params__.frozen]


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_slotted_without_instance_dict(cls):
    assert "__slots__" in cls.__dict__
    assert not hasattr(SAMPLES[cls](), "__dict__")


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "clone",
    [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        copy.deepcopy,
        dataclasses.replace,
    ],
    ids=["pickle", "deepcopy", "replace"],
)
def test_copies_are_equal_instances(cls, clone):
    original = SAMPLES[cls]()
    cloned = clone(original)
    assert type(cloned) is cls
    assert cloned == original


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_types_stay_frozen(cls):
    instance = SAMPLES[cls]()
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(instance, name, getattr(instance, name))


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_pickle_goes_through_the_constructor(cls):
    payload = pickle.dumps(SAMPLES[cls]())
    # BUILD applies pickled state to a bare instance: the hooks' path.
    assert "BUILD" not in {op.name for op, _, _ in pickletools.genops(payload)}
    for field in dataclasses.fields(cls):
        assert field.name.encode() not in payload


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(-1e6, 1e6),
    y=st.floats(-1e6, 1e6),
    w=st.floats(0.0, 1e4),
    h=st.floats(0.0, 1e4),
)
def test_bbox_copies_round_trip(x, y, w, h):
    box = BBox.from_tlwh(x, y, w, h)
    for cloned in (
        pickle.loads(pickle.dumps(box)),
        copy.deepcopy(box),
        dataclasses.replace(box),
    ):
        assert type(cloned) is BBox
        assert cloned.to_xyxy() == box.to_xyxy()


def test_pairs_sharing_a_track_share_it_after_pickling():
    shared = make_track(0, [0, 1, 2])
    pairs = [
        TrackPair(shared, make_track(1, [4, 5])),
        TrackPair(shared, make_track(2, [6, 7, 8])),
    ]
    first, second = pickle.loads(pickle.dumps(pairs))
    assert first.track_a is second.track_a
    assert first.track_a == shared


def test_pair_keeps_its_sampling_state_across_pickling():
    pair = _pair()
    loaded = pickle.loads(pickle.dumps(pair))
    assert loaded.sampled_state() == pair.sampled_state()
    assert loaded.n_sampled == 3
    assert loaded.n_bbox_pairs == pair.n_bbox_pairs == 6
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    assert loaded.sample_bbox_pairs(3, rng_a) == pair.sample_bbox_pairs(
        3, rng_b
    )
    assert loaded.exhausted and pair.exhausted
