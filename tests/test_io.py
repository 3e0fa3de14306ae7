"""Unit tests for repro.io (MOTChallenge interchange)."""

import pytest

from helpers import make_track, tiny_world

from repro.io import (
    read_detections_mot,
    read_tracks_mot,
    world_to_mot_gt,
    write_detections_mot,
    write_tracks_mot,
)


class TestTrackRoundtrip:
    def test_roundtrip_preserves_geometry(self, tmp_path):
        tracks = [
            make_track(3, [0, 1, 2], positions=[(10, 20), (14, 20), (18, 20)]),
            make_track(7, [5, 6], positions=[(100, 50), (104, 50)]),
        ]
        path = tmp_path / "tracks.txt"
        write_tracks_mot(tracks, path)
        loaded = read_tracks_mot(path)
        assert [t.track_id for t in loaded] == [3, 7]
        assert loaded[0].frames == [0, 1, 2]
        for original, restored in zip(tracks, loaded):
            for obs_a, obs_b in zip(
                original.observations, restored.observations
            ):
                assert obs_a.bbox.to_tlwh() == pytest.approx(
                    obs_b.bbox.to_tlwh(), abs=0.01
                )

    def test_read_strips_simulation_attributes(self, tmp_path):
        tracks = [make_track(0, [0, 1], source_id=5)]
        path = tmp_path / "tracks.txt"
        write_tracks_mot(tracks, path)
        loaded = read_tracks_mot(path)
        assert loaded[0].observations[0].detection.source_id is None
        assert loaded[0].observations[0].detection.visibility == 1.0

    def test_duplicate_lines_tolerated(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text(
            "1,0,10,10,5,5,0.9,-1,-1,-1\n1,0,10,10,5,5,0.9,-1,-1,-1\n"
        )
        loaded = read_tracks_mot(path)
        assert len(loaded) == 1
        assert len(loaded[0]) == 1

    def test_frames_one_based_in_file(self, tmp_path):
        tracks = [make_track(0, [0])]
        path = tmp_path / "tracks.txt"
        write_tracks_mot(tracks, path)
        first_field = path.read_text().split(",")[0]
        assert first_field == "1"


class TestDetectionRoundtrip:
    def test_roundtrip(self, tmp_path):
        from helpers import make_detection

        detections = [
            [make_detection(10, 10), make_detection(50, 50)],
            [],
            [make_detection(20, 20, confidence=0.4)],
        ]
        path = tmp_path / "det.txt"
        write_detections_mot(detections, path)
        loaded = read_detections_mot(path)
        assert len(loaded) == 3
        assert len(loaded[0]) == 2
        assert loaded[1] == []
        assert loaded[2][0].confidence == pytest.approx(0.4, abs=1e-3)

    def test_tracks_runnable_after_read(self, tmp_path):
        """External detections feed the trackers like simulated ones."""
        from repro.track import IoUTracker
        from helpers import make_detection

        detections = [
            [make_detection(100 + 4 * t, 200)] for t in range(20)
        ]
        path = tmp_path / "det.txt"
        write_detections_mot(detections, path)
        loaded = read_detections_mot(path)
        tracks = IoUTracker().run(loaded)
        assert len(tracks) == 1


#: Malformed rows and the field their error must name.
MALFORMED_ROWS = {
    "frame-zero": ("0,1,10,10,5,5,0.9,-1,-1,-1", "frame"),
    "fractional-frame": ("1.7,1,10,10,5,5,0.9,-1,-1,-1", "frame"),
    "fractional-id": ("2,1.5,10,10,5,5,0.9,-1,-1,-1", "id"),
    "nan-coordinate": ("2,1,nan,10,5,5,0.9,-1,-1,-1", "bb_left"),
    "inf-width": ("2,1,10,10,inf,5,0.9,-1,-1,-1", "bb_width"),
    "non-numeric": ("2,1,10,abc,5,5,0.9,-1,-1,-1", "bb_top"),
    "negative-size": ("2,1,10,10,5,-5,0.9,-1,-1,-1", "bb_height"),
    "nan-confidence": ("2,1,10,10,5,5,nan,-1,-1,-1", "conf"),
    "short-row": ("2,1,10,10", "6 fields"),
}


@pytest.mark.parametrize("reader", [read_tracks_mot, read_detections_mot])
@pytest.mark.parametrize(
    "row, field", MALFORMED_ROWS.values(), ids=list(MALFORMED_ROWS)
)
def test_malformed_row_names_file_line_and_field(tmp_path, reader, row, field):
    path = tmp_path / "bad.txt"
    path.write_text(f"# comment\n1,1,10,10,5,5,0.9,-1,-1,-1\n{row}\n")
    with pytest.raises(ValueError, match=rf"bad\.txt:3: .*{field}"):
        reader(path)


class TestGtExport:
    def test_world_gt_lines(self, tmp_path):
        world = tiny_world(n_frames=20, seed=3)
        path = tmp_path / "gt.txt"
        world_to_mot_gt(world, path)
        lines = path.read_text().strip().splitlines()
        total_states = sum(len(f) for f in world.frames)
        assert len(lines) == total_states
        first = lines[0].split(",")
        assert len(first) == 9
        assert float(first[8]) <= 1.0  # visibility column

