"""Outside-in wall-clock tracing for the end-to-end benchmark.

The tracer wraps each layer's public functions from outside the program
(class attributes, or a module's call-site binding of a function) and
keeps spans in memory: name, start, end, parent span, unit id and pid.
Functions called many thousand times per window (``LEAF`` entries) are
not kept as spans of their own: each call adds its count and duration to
the enclosing span, which keeps the trace small and still lets self time
subtract them.  Self time is a span's duration minus the time its child
spans and folded calls cover; a layer's busy time counts only spans
whose parent belongs to another layer.

Work that a process pool runs is traced too when workers are forked
(the wrappers are inherited): each worker appends the spans of every
shard it ran to a spool file, which the parent reads back.  Under a
``spawn`` start method the workers carry no wrappers and that work
stays unattributed.

A wrap target that cannot be found is reported as unattributed; it
never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN = "span"
LEAF = "leaf"
SHARD = "shard"
POOL = "pool"

#: (span name, module, attribute, kind) — the layer is the name's first
#: part.  Module-level functions are wrapped at the binding their caller
#: uses.
WRAPS = (
    ("detect.video", "repro.detect.detector",
     "NoisyDetector.detect_video", SPAN),
    ("track.run", "repro.track.tracktor", "TracktorTracker.run", SPAN),
    ("track.advance", "repro.track.tracktor", "TracktorStream.advance", LEAF),
    ("pairs.build", "repro.core.pipeline", "build_track_pairs", SPAN),
    ("pairs.build", "repro.streaming.service", "build_track_pairs", SPAN),
    ("tmerge.run", "repro.core.tmerge", "TMerge.run", SPAN),
    ("ulb.update", "repro.core.ulb", "UlbPruner.update", LEAF),
    ("bbox.draw", "repro.core.pairs", "TrackPair.sample_bbox_pair", LEAF),
    ("reid.batched", "repro.reid.scorer",
     "ReidScorer.distances_batched", LEAF),
    ("reid.scalar", "repro.reid.scorer",
     "ReidScorer.normalized_distance", LEAF),
    ("parallel.run", "repro.parallel.executor", "ParallelExecutor.run", SPAN),
    ("parallel.shard", "repro.parallel.executor", "execute_shard", SHARD),
    ("parallel.pool", "repro.parallel.executor", "ProcessPoolExecutor", POOL),
    ("merge.tracks", "repro.core.pipeline", "merge_tracks", SPAN),
    ("merge.tracks", "repro.core.merge", "merge_tracks", SPAN),
    ("query.index", "repro.query.engine", "QueryEngine.from_tracks", SPAN),
    ("query.run", "repro.query.engine", "QueryEngine.run", SPAN),
    ("streaming.run", "repro.streaming.service",
     "StreamingIngestionService.run", SPAN),
    ("streaming.checkpoint", "repro.resilience.checkpoint",
     "CheckpointStore.save", SPAN),
    ("streaming.restore", "repro.resilience.checkpoint",
     "CheckpointStore.load", SPAN),
)

#: Leaf calls whose individual durations are kept (for percentiles).
SAMPLED = ("track.advance",)

#: A draw on a pair at least this far sampled takes the O(n) fallback.
FALLBACK_SHARE = 0.75

_MISSING = object()


def layer_of(name: str) -> str:
    """The layer a span or leaf name belongs to."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; install it with :meth:`installed`.

    Args:
        spool_dir: directory forked pool workers append their spans to.
    """

    def __init__(self, spool_dir: str) -> None:
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list[dict] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.unattributed: list[str] = []
        self._stack: list[dict] = []
        self._seq = 0
        self._unit: str | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> dict:
        self._seq += 1
        span = {
            "id": f"{os.getpid()}-{self._seq}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "unit": self._unit,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
            "leaves": {},
            "marks": {},
        }
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span named ``name``."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def unit(self, unit_id: str):
        """Record one timed unit of work (a video, a stream leg)."""
        self._unit = unit_id
        try:
            with self.span("bench.unit"):
                yield
        finally:
            self._unit = None

    def leaf(self, name: str, seconds: float) -> None:
        """Fold one ``name`` call of ``seconds`` into the open span."""
        if not self._stack:
            return
        folded = self._stack[-1]["leaves"].setdefault(name, [0, 0.0])
        folded[0] += 1
        folded[1] += seconds
        if name in SAMPLED:
            self.samples[name].append(seconds)

    def waited(self, seconds: float) -> None:
        """Fold time the stream spent waiting for its next frame."""
        self.leaf("feed.wait", seconds)

    def mark(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``key`` of the open span."""
        if self._stack:
            marks = self._stack[-1]["marks"]
            marks[key] = marks.get(key, 0.0) + amount

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if name == "streaming.checkpoint" and args[0].path:
                span["marks"]["streaming.checkpoint_bytes"] = float(
                    sum(e.stat().st_size for e in os.scandir(args[0].path))
                )
            return result

        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        tracer = self
        is_draw = name == "bbox.draw"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_draw:
                pair = args[0]
                if pair.n_sampled >= FALLBACK_SHARE * pair.n_bbox_pairs:
                    tracer.mark("bbox.fallback_draws")
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf(name, time.perf_counter() - start)

        return wrapper

    def _shard_wrapper(self, fn):
        """``execute_shard``: a forked worker spools what it recorded."""
        tracer = self
        traced = self._span_wrapper("parallel.shard", fn)

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == tracer.pid:
                return traced(task)
            mark = len(tracer.spans)
            try:
                return traced(task)
            finally:
                spool = os.path.join(tracer.spool_dir, f"{os.getpid()}.jsonl")
                with open(spool, "a", encoding="utf-8") as fh:
                    for span in tracer.spans[mark:]:
                        fh.write(json.dumps(span) + "\n")
                del tracer.spans[mark:]

        return wrapper

    def _counting_pool(self, base):
        """A pool class counting pools and the pickled task bytes."""
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs) -> None:
                tracer.mark("parallel.pools")
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                tasks = list(iterables[0])
                tracer.mark(
                    "parallel.task_bytes",
                    float(sum(len(pickle.dumps(task)) for task in tasks)),
                )
                return super().map(fn, tasks, *iterables[1:], **kwargs)

        return CountingPool

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every target of :data:`WRAPS` for the enclosed block."""
        os.makedirs(self.spool_dir, exist_ok=True)
        patched: list[tuple[object, str, object]] = []
        try:
            for name, module_name, attribute, kind in WRAPS:
                found = _resolve(module_name, attribute)
                if found is None:
                    self.unattributed.append(f"{module_name}.{attribute}")
                    continue
                owner, leaf_name, raw = found
                original = owner.__dict__.get(leaf_name, _MISSING)
                patched.append((owner, leaf_name, original))
                setattr(owner, leaf_name, self._wrap(name, kind, raw))
            yield self
        finally:
            for owner, leaf_name, original in reversed(patched):
                if original is _MISSING:
                    delattr(owner, leaf_name)
                else:
                    setattr(owner, leaf_name, original)
            self._collect_spool()

    def _wrap(self, name: str, kind: str, raw):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(name, kind, raw.__func__))
        if kind == POOL:
            return self._counting_pool(raw)
        if kind == SHARD:
            return self._shard_wrapper(raw)
        if kind == LEAF:
            return self._leaf_wrapper(name, raw)
        return self._span_wrapper(name, raw)

    def _collect_spool(self) -> None:
        if not os.path.isdir(self.spool_dir):
            return
        for entry in sorted(os.scandir(self.spool_dir), key=lambda e: e.name):
            with open(entry.path, encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh)
            os.remove(entry.path)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write(self, path: str, table: dict, metrics: dict) -> None:
        """Write every span, then the layer table and metrics, as JSONL."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"type": "span", **span}) + "\n")
            fh.write(json.dumps({"type": "layers", "layers": table}) + "\n")
            fh.write(
                json.dumps(
                    {
                        "type": "metrics",
                        "metrics": metrics,
                        "unattributed": self.unattributed,
                    }
                )
                + "\n"
            )


def _resolve(module_name: str, attribute: str):
    """``(owner, name, raw attribute)`` of a wrap target, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf_name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, leaf_name)
    except AttributeError:
        return None
    return owner, leaf_name, raw


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Self time of every span, by span id."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"]
        - span["start"]
        - _covered(children[span["id"]])
        - sum(seconds for _, seconds in span["leaves"].values())
        for span in spans
    }


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy seconds, self seconds and counters.

    Only spans inside a timed unit count.  Busy time sums the spans (and
    folded calls) whose parent belongs to another layer, so concurrent
    pool workers can add up to more than the wall time; self time
    subtracts everything a span's children cover.
    """
    spans = [span for span in spans if span["unit"] is not None]
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        layer = layer_of(span["name"])
        parent = by_id.get(span["parent"])
        row = table[layer]
        row["calls"] += 1
        row["self_s"] += own[span["id"]]
        if parent is None or layer_of(parent["name"]) != layer:
            row["busy_s"] += span["end"] - span["start"]
        for leaf_name, (calls, seconds) in span["leaves"].items():
            leaf_row = table[layer_of(leaf_name)]
            leaf_row["calls"] += calls
            leaf_row["self_s"] += seconds
            if layer_of(leaf_name) != layer:
                leaf_row["busy_s"] += seconds
        for key, value in span["marks"].items():
            marked = table[layer_of(key)]
            marked[key] = marked.get(key, 0.0) + value
    return dict(table)
