"""MOTChallenge CSV interchange.

The MOTChallenge line format is::

    frame, id, bb_left, bb_top, bb_width, bb_height, conf, x, y, z

with 1-based frames, ``id = -1`` for raw detections, and ``-1`` for the
unused 3-D fields.  We preserve the convention exactly so files round-trip
against standard tooling; internally frames are 0-based, so readers and
writers shift by one.

Simulation-only attributes (GT source id, visibility) obviously do not
exist in external files; reading produces detections with
``source_id=None`` and full visibility, which is precisely the information
a real deployment would have.

Readers skip blank lines and ``#`` comments and reject every other
malformed row with a ``ValueError`` naming ``path:line`` and the bad
field, rather than guessing: a short row, a frame that is not a whole
number ≥ 1, a fractional id, a non-numeric or non-finite coordinate or
confidence, or a negative box size.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from pathlib import Path

from repro.detect import Detection
from repro.geometry import BBox
from repro.synth.world import VideoGroundTruth
from repro.track.base import Track


def write_tracks_mot(tracks: list[Track], path: str | Path) -> None:
    """Write tracker output as a MOTChallenge result file."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        rows = []
        for track in tracks:
            for obs in track.observations:
                x, y, w, h = obs.bbox.to_tlwh()
                rows.append(
                    (
                        obs.frame + 1,
                        track.track_id,
                        f"{x:.2f}",
                        f"{y:.2f}",
                        f"{w:.2f}",
                        f"{h:.2f}",
                        f"{obs.detection.confidence:.4f}",
                        -1,
                        -1,
                        -1,
                    )
                )
        rows.sort(key=lambda r: (r[0], r[1]))
        writer.writerows(rows)


#: Field names of the leading MOTChallenge columns, for error messages.
_FIELDS = ("frame", "id", "bb_left", "bb_top", "bb_width", "bb_height", "conf")


def _read_rows(path: str | Path) -> Iterator[tuple[int, int, Detection]]:
    """Parse every data row of a MOTChallenge file.

    Yields:
        ``(frame, id, detection)`` per row, with the frame 0-based.

    Raises:
        ValueError: naming ``path:line`` and the offending field for any
            malformed row (see the module docstring).
    """
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) < 6:
                raise ValueError(
                    f"{where}: expected at least 6 fields "
                    f"({', '.join(_FIELDS[:6])}), got {len(row)}"
                )
            values = []
            for name, text in zip(_FIELDS, row):
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(
                        f"{where}: {name} {text!r} is not a finite number"
                    )
                values.append(value)
            frame, track_id, x, y, w, h = values[:6]
            if frame < 1 or not frame.is_integer():
                raise ValueError(
                    f"{where}: frame {row[0]!r} is not a whole 1-based "
                    "frame number"
                )
            if not track_id.is_integer():
                raise ValueError(f"{where}: id {row[1]!r} is not an integer")
            if w < 0 or h < 0:
                raise ValueError(
                    f"{where}: negative box size "
                    f"(bb_width {row[4]!r}, bb_height {row[5]!r})"
                )
            confidence = values[6] if len(values) > 6 else 1.0
            detection = Detection(
                BBox.from_tlwh(x, y, w, h),
                confidence=max(min(confidence, 1.0), 0.0),
                source_id=None,
                visibility=1.0,
            )
            yield int(frame) - 1, int(track_id), detection


def read_tracks_mot(path: str | Path) -> list[Track]:
    """Read a MOTChallenge result file into tracks.

    Repeated ``(frame, id)`` lines are tolerated: the first one wins.

    Returns:
        Tracks ordered by TID; observation frames 0-based.

    Raises:
        ValueError: on a malformed row, naming ``path:line``.
    """
    by_id: dict[int, list[tuple[int, Detection]]] = {}
    for frame, track_id, detection in _read_rows(path):
        by_id.setdefault(track_id, []).append((frame, detection))

    tracks = []
    for track_id in sorted(by_id):
        observations = sorted(by_id[track_id], key=lambda fd: fd[0])
        track = Track(track_id)
        last_frame = None
        for frame, detection in observations:
            if frame == last_frame:
                continue  # tolerate duplicate lines
            track.append(frame, detection)
            last_frame = frame
        tracks.append(track)
    return tracks


def write_detections_mot(
    detections: list[list[Detection]], path: str | Path
) -> None:
    """Write per-frame detections as a MOTChallenge detection file."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        for frame, frame_detections in enumerate(detections):
            for det in frame_detections:
                x, y, w, h = det.bbox.to_tlwh()
                writer.writerow(
                    (
                        frame + 1,
                        -1,
                        f"{x:.2f}",
                        f"{y:.2f}",
                        f"{w:.2f}",
                        f"{h:.2f}",
                        f"{det.confidence:.4f}",
                        -1,
                        -1,
                        -1,
                    )
                )


def read_detections_mot(path: str | Path) -> list[list[Detection]]:
    """Read a MOTChallenge detection file into per-frame lists.

    Raises:
        ValueError: on a malformed row, naming ``path:line``.
    """
    frames: dict[int, list[Detection]] = {}
    for frame, _, detection in _read_rows(path):
        frames.setdefault(frame, []).append(detection)
    return [frames.get(f, []) for f in range(max(frames, default=-1) + 1)]


def world_to_mot_gt(world: VideoGroundTruth, path: str | Path) -> None:
    """Export a simulated world's ground truth as a MOTChallenge gt file.

    Format: ``frame, id, x, y, w, h, active(1), class(1), visibility``.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        for frame, states in enumerate(world.frames):
            for state in states:
                x, y, w, h = state.bbox.to_tlwh()
                writer.writerow(
                    (
                        frame + 1,
                        state.object_id,
                        f"{x:.2f}",
                        f"{y:.2f}",
                        f"{w:.2f}",
                        f"{h:.2f}",
                        1,
                        1,
                        f"{state.visibility:.3f}",
                    )
                )
