"""Guard: the runtime never imports scipy.

Only the tests use scipy (the assignment tests take it as an oracle).
Importing it on the ingest or streaming path would cost ~0.35 s of start-up
and ~40 MB of resident memory, so a fresh interpreter runs both entry points
and must end with no ``scipy`` module loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from helpers import tiny_world
from repro import IngestionPipeline, TMerge, TracktorTracker
from repro.streaming import StreamingIngestionService, SyntheticFeedSource

def merger():
    return TMerge(k=0.1, tau_max=100, batch_size=8, seed=3)

world = tiny_world(n_frames=160, seed=21)
result = IngestionPipeline(
    tracker=TracktorTracker(), merger=merger(), window_length=80, workers=1
).run(world)
assert result.tracks
stream = StreamingIngestionService(
    TracktorTracker(), merger(), window_length=80
).run(SyntheticFeedSource(world))
assert stream.emissions
print(",".join(sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.")
)))
"""


def test_ingest_and_stream_never_import_scipy():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=str(SRC), tests=str(TESTS))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""
