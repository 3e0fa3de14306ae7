"""Streaming ingestion: online, watermark-driven TMerge (DESIGN.md §8.3).

The online counterpart of the batch pipeline: events arrive from a
replayable source, windows open and close incrementally under a
watermark, each closing window merges through the parallel engine's
window-local regime, completed windows are evicted (bounded memory),
and the whole service state is checkpointed for crash-recoverable,
bit-identical restart.
"""

from repro.streaming.events import (
    DEFAULT_FRAME_INTERVAL_MS,
    FrameEvent,
    SyntheticFeedSource,
)
from repro.streaming.policy import MODES, BackpressurePolicy, IntakeQueue
from repro.streaming.service import (
    CHECKPOINT_VERSION,
    StreamingIngestionService,
    StreamRunResult,
    WindowEmission,
)
from repro.streaming.watermark import (
    UNSTARTED,
    ReorderBuffer,
    WatermarkTracker,
)

__all__ = [
    "DEFAULT_FRAME_INTERVAL_MS",
    "FrameEvent",
    "SyntheticFeedSource",
    "MODES",
    "BackpressurePolicy",
    "IntakeQueue",
    "CHECKPOINT_VERSION",
    "StreamingIngestionService",
    "StreamRunResult",
    "WindowEmission",
    "UNSTARTED",
    "ReorderBuffer",
    "WatermarkTracker",
]
