"""The streaming ingestion service: watermark-driven incremental TMerge.

This is the online counterpart of
:class:`~repro.core.pipeline.IngestionPipeline`: frames arrive as
:class:`~repro.streaming.events.FrameEvent`\\ s from a replayable source,
a watermark advances, half-overlapping windows open and close
incrementally, each closing window is merged through the parallel
engine's *window-local* determinism regime, and everything a completed
window held is evicted — resident memory is bounded by the configured
open-window count, never by feed length.

Robustness model
----------------
* **Durable restart** — after every window emission the service writes a
  complete pure-JSON snapshot of its mutable state (source offset,
  intake queue, reorder buffer, tracker session, open-window buffers,
  watermark, simulated clock, counters) to a
  :class:`~repro.resilience.CheckpointStore`; the decision ledger's
  events go to the store's append-only journal first, so a checkpoint
  costs O(events since the last one), not O(ledger).  A service killed
  at a window boundary and rebuilt from the store replays the source from the
  recorded offset and emits **bit-identical** results to an
  uninterrupted run — the acceptance test of this subsystem.
* **Backpressure** — a bounded intake queue with a
  :class:`~repro.streaming.policy.BackpressurePolicy` (block /
  drop-oldest / degrade-to-spatial-prior), all decisions functions of
  simulated state only.
* **Disorder tolerance** — out-of-order arrivals within
  ``allowed_lateness`` are healed by the reorder stage (they reach
  every window they belong to while it is still open); later ones are
  shed and counted.
* **Fault injection** — the :mod:`repro.faults` seams apply per window
  exactly as in the parallel engine (frame drops upstream in the
  source, ReID call/feature faults and window crashes inside the
  per-window merge, with resilience auto-enabled).

Determinism: a window's merge result is a pure function of
``(reid_seed, window index, T_{c-1}, T_c)`` — the regime proven by
``tests/test_parallel_equivalence.py`` — and every service-level
decision (shedding, degradation, watermark advance) is a pure function
of checkpointed state, so worker count, pool backend and kill/resume
points never change emitted results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro import contracts
from repro.core.pairs import TrackPair, build_track_pairs
from repro.core.pipeline import (
    Merger,
    empty_merge_result,
    spatial_fallback_result,
)
from repro.core.results import MergeResult
from repro.core.windows import Window, window_at
from repro.detect import Detection
from repro.faults.profiles import FaultProfile
from repro.parallel.executor import (
    ParallelExecutor,
    WindowOutcome,
    build_window_tasks,
)
from repro.provenance import EVENT_DEGRADE, DecisionLedger
from repro.reid import CostModel, CostParams
from repro.resilience import CheckpointStore, ResilienceConfig
from repro.streaming.events import (
    DEFAULT_FRAME_INTERVAL_MS,
    FrameEvent,
    SyntheticFeedSource,
)
from repro.streaming.policy import BackpressurePolicy, IntakeQueue
from repro.streaming.watermark import ReorderBuffer, WatermarkTracker
from repro.telemetry import Telemetry
from repro.track.base import Track, Tracker

#: Checkpoint schema version (bump on incompatible layout changes); a
#: resume accepts only this one.  The snapshot carries the backpressure
#: verdict, the decision ledger's header — its counters plus the length
#: of the store journal holding its events, or ``None`` when the service
#: records no provenance — and the ``window_length`` and the merger's
#: batch it was written with, so a resume under another configuration is
#: refused instead of emitting shifted windows.  v5 journals TMerge
#: iterations as columnar ``sample`` blocks, one record per block.
CHECKPOINT_VERSION = 5


@dataclass
class WindowEmission:
    """One closed window's output, in emission (= index) order.

    Attributes:
        index: the window index ``c``.
        window: the window's frame span.
        n_tracks: ``|T_c|`` after min-length filtering.
        n_prev_tracks: ``|T_{c-1}|`` the pair set was built against.
        result: the merge result (may be degraded or empty).
        pairs: the window's full candidate pair set ``P_c`` (the tracks
            inside are the consumer's only chance to see them — the
            service evicts its buffers right after emitting; not part of
            the checkpoint or the fingerprint).
        lag_ms: simulated ms between the window's nominal last-frame
            arrival and its emission (the service's latency signal).
        queue_depth: intake depth when the window became ready.
    """

    index: int
    window: Window
    n_tracks: int
    n_prev_tracks: int
    result: MergeResult
    pairs: list[TrackPair]
    lag_ms: float
    queue_depth: int

    def fingerprint(self) -> dict:
        """Bit-exact JSON-able digest (restart-equivalence testing)."""
        return {
            "index": self.index,
            "span": [self.window.start, self.window.end],
            "n_tracks": self.n_tracks,
            "n_prev_tracks": self.n_prev_tracks,
            "method": self.result.method,
            "n_pairs": self.result.n_pairs,
            "candidates": sorted(
                list(key) for key in self.result.candidate_keys
            ),
            "scores": sorted(
                (list(key), value)
                for key, value in self.result.scores.items()
            ),
            "simulated_seconds": self.result.simulated_seconds,
            "iterations": self.result.iterations,
            "degraded": self.result.degraded,
            "lag_ms": self.lag_ms,
        }


@dataclass
class StreamRunResult:
    """Everything one :meth:`StreamingIngestionService.run` produced.

    Attributes:
        emissions: per-window outputs emitted by *this* run call (a
            resumed run reports only post-resume windows; counters are
            cumulative across the service's lifetime).
        counters: lifetime service counters (``stream.*`` keys).
        peak_open_windows: most windows ever resident at once.
        peak_queue_depth: deepest the intake queue ever got.
        watermark: final watermark position.
        position: source events consumed over the service lifetime.
        stopped: ``True`` when the run ended via ``stop_after_windows``
            (the simulated kill) rather than feed exhaustion.
        cost: run-aggregate simulated clock (window clocks folded in
            emission order).
        resilience_stats: per-window resilience counters, summed.
        window_metrics: per-emission telemetry counter deltas (empty
            when running unobserved).
    """

    emissions: list[WindowEmission]
    counters: dict[str, float]
    peak_open_windows: int
    peak_queue_depth: int
    watermark: int
    position: int
    stopped: bool
    cost: CostModel
    resilience_stats: dict[str, float] = field(default_factory=dict)
    window_metrics: list[dict[str, float]] = field(default_factory=list)

    def fingerprints(self) -> list[dict]:
        """Emission digests, for restart-equivalence comparison."""
        return [emission.fingerprint() for emission in self.emissions]


class _Killed(Exception):
    """Internal control flow: the simulated SIGKILL point was reached."""


class StreamingIngestionService:
    """Long-running windowed TMerge over an event feed.

    Args:
        tracker: a streamable tracker (must implement
            :meth:`~repro.track.base.Tracker.stream`).
        merger: the per-window merging algorithm (cloned per window,
            exactly as in :mod:`repro.parallel`).
        window_length: the paper's ``L``.
        allowed_lateness: out-of-order tolerance, in frames.
        max_open_windows: resident-window memory bound; exceeding it is
            a contract violation (eviction fell behind), not a shedding
            signal.
        policy: intake backpressure policy (default: lossless ``block``
            with capacity 64).
        reid_seed: root seed of the per-window ReID substreams.
        cost_params: simulated cost constants for window merges.
        frame_interval_ms: nominal feed spacing (latency accounting).
        fault_profile: optional chaos configuration (applied per window
            through the engine's seam substreams).
        resilience: retry/breaker tuning; defaults on when a fault
            profile is set, mirroring the offline pipeline.
        telemetry: optional injected :class:`~repro.telemetry.Telemetry`
            (pure observation; never changes results).  When set,
            :attr:`StreamRunResult.window_metrics` carries per-emission
            counter deltas.
        ledger: optional injected
            :class:`~repro.provenance.DecisionLedger`, riding on the
            run's Telemetry.  Per-window worker ledgers are absorbed in
            emission order (exactly like ``Tracer.absorb``),
            service-level degradation verdicts are
            recorded as ``degrade`` events, and every checkpoint
            journals the events recorded since the previous one so a
            killed-and-resumed run reconstructs a bit-identical decision
            log.  Pure observation — emissions are bit-identical with
            the ledger on or off.
        workers: fan-out for simultaneously-ready windows (≥ 1); any
            value produces bit-identical emissions.
        parallel_backend: ``"process"`` or ``"thread"``.
        store: the durable write-ahead state.  ``None`` runs without
            restart capability (no snapshots are written).
        checkpoint_key: snapshot key within the store (one store can
            host several services).
    """

    def __init__(
        self,
        tracker: Tracker,
        merger: Merger,
        *,
        window_length: int = 2000,
        allowed_lateness: int = 0,
        max_open_windows: int = 8,
        policy: BackpressurePolicy | None = None,
        reid_seed: int = 1,
        cost_params: CostParams | None = None,
        frame_interval_ms: float = DEFAULT_FRAME_INTERVAL_MS,
        fault_profile: FaultProfile | None = None,
        resilience: ResilienceConfig | None = None,
        telemetry: Telemetry | None = None,
        ledger: DecisionLedger | None = None,
        workers: int = 1,
        parallel_backend: str = "process",
        store: CheckpointStore | None = None,
        checkpoint_key: str = "stream",
    ) -> None:
        if window_length < 2:
            raise ValueError("window_length must be >= 2")
        if max_open_windows < 1:
            raise ValueError("max_open_windows must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.tracker = tracker
        self.merger = merger
        self.window_length = window_length
        self.stride = window_length // 2
        self.allowed_lateness = allowed_lateness
        self.max_open_windows = max_open_windows
        self.policy = policy or BackpressurePolicy()
        self.reid_seed = reid_seed
        self.cost_params = cost_params
        self.frame_interval_ms = frame_interval_ms
        self.fault_profile = fault_profile
        self.resilience = resilience
        self.telemetry = telemetry
        self.ledger = ledger
        #: The one Telemetry this service records into (the ledger rides
        #: on it); private when no ``telemetry`` is injected.
        self._telemetry = Telemetry.for_run(telemetry, ledger)
        self.workers = workers
        self.parallel_backend = parallel_backend
        #: Fans ready windows out; its pool lives for one :meth:`run`.
        self._executor = ParallelExecutor(workers, parallel_backend)
        self.store = store
        self.checkpoint_key = checkpoint_key
        self._reset_state()

    # ------------------------------------------------------------------
    # Mutable service state (everything here is checkpointed)
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        """Fresh-start mutable state (before any checkpoint restore)."""
        self.position = 0
        self.now_ms = 0.0
        self.watermark = WatermarkTracker(self.allowed_lateness)
        self.reorder = ReorderBuffer()
        self.queue = IntakeQueue(self.policy)
        self.stream = self.tracker.stream()
        self.open_windows: dict[int, list[Track]] = {}
        self.prev_tracks: list[Track] = []
        self.ready: list[dict] = []
        self.next_ready = 0
        self.next_emit = 0
        self.staged: FrameEvent | None = None
        self.counters: dict[str, float] = {}
        self.peak_open_windows = 0
        self.cost = CostModel(self.cost_params)
        self.resilience_stats: dict[str, float] = {}
        #: Whether the last backpressure verdict was "degrade" — kept
        #: across checkpoints so the transition counter never double
        #: counts an edge replayed after a resume.
        self._bp_active = False
        #: Ledger events with a ``seq`` below this are already journaled.
        self._journaled_seq = 0

    def _count(self, name: str, amount: float = 1.0) -> None:
        """Bump a lifetime counter (mirrored into telemetry)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount
        self._telemetry.count(name, amount)

    @property
    def _merger_batch(self) -> int | None:
        """The batch the merger samples with (``None``: one pair a step).

        TMerge runs ``batch_size=1`` as its scalar path, so it reports
        both as ``None``; other mergers report their ``batch_size``.
        """
        return getattr(
            self.merger,
            "effective_batch",
            getattr(self.merger, "batch_size", None),
        )

    @property
    def n_resident_windows(self) -> int:
        """Windows currently holding track state (open + retained prev)."""
        return len(self.open_windows) + (1 if self.prev_tracks else 0)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        """Write the full service snapshot (the write-ahead state).

        Ledger events recorded since the previous checkpoint are appended
        to the store's journal *before* the snapshot that counts them is
        saved, so a crash between the two leaves only a journal tail the
        next restore drops.  Once the snapshot is durable the journal may
        be compacted down to the retained events.
        """
        if self.store is None:
            return
        key = ["stream", self.checkpoint_key]
        ledger = self._telemetry.ledger
        header = None
        if ledger is not None:
            fresh = ledger.events_since(self._journaled_seq)
            header = ledger.header()
            header["journal"] = self.store.append(
                key, [event.to_dict() for event in fresh]
            )
            self._journaled_seq = ledger.n_recorded
        payload = {
            "version": CHECKPOINT_VERSION,
            "window_length": self.window_length,
            "batch": self._merger_batch,
            "position": self.position,
            "now_ms": self.now_ms,
            "watermark": self.watermark.state_dict(),
            "reorder": self.reorder.state_dict(),
            "queue": self.queue.state_dict(),
            "tracker": self.stream.state_dict(),
            "open_windows": {
                str(index): [track.to_dict() for track in tracks]
                for index, tracks in sorted(self.open_windows.items())
            },
            "prev_tracks": [track.to_dict() for track in self.prev_tracks],
            "ready": list(self.ready),
            "next_ready": self.next_ready,
            "next_emit": self.next_emit,
            "staged": (
                self.staged.to_dict() if self.staged is not None else None
            ),
            "counters": dict(self.counters),
            "peak_open_windows": self.peak_open_windows,
            "cost": self.cost.state_dict(),
            "resilience_stats": dict(self.resilience_stats),
            "bp_active": self._bp_active,
            "ledger": header,
        }
        self.store.save(key, payload)
        if ledger is not None:
            self.store.compact(key, len(ledger))

    def _try_restore(self) -> bool:
        """Rebuild state from the store, if a snapshot exists.

        Without a snapshot, any journal left under the key (a crash
        before the first save) is discarded: the run starts fresh.
        """
        if self.store is None:
            return False
        key = ["stream", self.checkpoint_key]
        payload = self.store.load(key)
        if payload is None:
            self.store.discard(key)
            return False
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version!r} is not supported: this "
                f"service resumes only version {CHECKPOINT_VERSION}"
            )
        for name, current in (
            ("window_length", self.window_length),
            ("batch", self._merger_batch),
        ):
            if payload[name] != current:
                raise ValueError(
                    f"checkpoint {key} was written with {name}="
                    f"{payload[name]!r} but this service runs with "
                    f"{name}={current!r}; resuming would not continue "
                    "the interrupted run"
                )
        ledger = self._telemetry.ledger
        if ledger is not None and payload["ledger"] is None:
            # A snapshot written without a ledger: resuming it into a
            # ledger-attached service would silently drop every pre-crash
            # decision event.  Refuse loudly instead.
            raise ValueError(
                "checkpoint carries no decision-ledger state; resume "
                "without a ledger or restart from scratch"
            )
        self.position = int(payload["position"])
        self.now_ms = float(payload["now_ms"])
        self.watermark.load_state_dict(payload["watermark"])
        self.reorder.load_state_dict(payload["reorder"])
        self.queue.load_state_dict(payload["queue"])
        self.stream = self.tracker.stream()
        self.stream.load_state_dict(payload["tracker"])
        self.open_windows = {
            int(index): [Track.from_dict(t) for t in tracks]
            for index, tracks in payload["open_windows"].items()
        }
        self.prev_tracks = [
            Track.from_dict(t) for t in payload["prev_tracks"]
        ]
        self.ready = [dict(entry) for entry in payload["ready"]]
        self.next_ready = int(payload["next_ready"])
        self.next_emit = int(payload["next_emit"])
        self.staged = (
            FrameEvent.from_dict(payload["staged"])
            if payload["staged"] is not None
            else None
        )
        self.counters = {
            str(k): float(v) for k, v in payload["counters"].items()
        }
        self.peak_open_windows = int(payload["peak_open_windows"])
        self.cost = CostModel(self.cost_params)
        self.cost.load_state_dict(payload["cost"])
        self.resilience_stats = {
            str(k): float(v)
            for k, v in payload["resilience_stats"].items()
        }
        self._bp_active = bool(payload["bp_active"])
        if ledger is not None:
            self._restore_ledger(ledger, key, payload["ledger"])
        return True

    def _restore_ledger(
        self, ledger: DecisionLedger, key: list, header: dict
    ) -> None:
        """Rebuild ``ledger`` from its snapshot header and the journal."""
        records = self.store.journal(key, int(header["journal"]))
        retained = int(header["n_recorded"]) - int(header["n_dropped"])
        if len(records) < retained:
            raise ValueError(
                f"journal of checkpoint {key} holds {len(records)} "
                f"records, fewer than the {retained} retained events its "
                "snapshot expects"
            )
        ledger.load_state_dict(
            {**header, "events": records[len(records) - retained:]}
        )
        self._journaled_seq = ledger.n_recorded

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------
    def run(
        self,
        source: SyntheticFeedSource,
        stop_after_windows: int | None = None,
    ) -> StreamRunResult:
        """Consume the feed; return this call's emissions.

        When the store holds a snapshot, the service restores it and
        re-attaches to the source at the recorded offset (resume); a
        fresh store starts from offset 0.

        Args:
            source: the event log (must be the same logical feed across
                resumes — offsets are only meaningful within one log).
            stop_after_windows: simulate a SIGKILL after this many
                window emissions *in this call*: the service stops dead
                right after the emission's checkpoint, exactly like a
                process killed at a window boundary.
        """
        resumed = self._try_restore()
        if not resumed:
            self._reset_state()
        self._world = source.world
        self._emissions: list[WindowEmission] = []
        self._window_metrics: list[dict[str, float]] = []
        self._stop_after = stop_after_windows
        stopped = False
        events = source.events(start=self.position)
        try:
            with self._telemetry.span(
                "stream.run", resumed=resumed, position=self.position
            ):
                self._loop(events)
                self._finalize_feed()
                if self.store is not None:
                    self.store.discard(["stream", self.checkpoint_key])
        except _Killed:
            stopped = True
        finally:
            self._executor.close()
        counters = dict(self.counters)
        counters["stream.events_shed_queue"] = float(self.queue.n_shed)
        return StreamRunResult(
            emissions=self._emissions,
            counters=counters,
            peak_open_windows=self.peak_open_windows,
            peak_queue_depth=self.queue.peak_depth,
            watermark=self.watermark.watermark,
            position=self.position,
            stopped=stopped,
            cost=self.cost,
            resilience_stats=dict(self.resilience_stats),
            window_metrics=self._window_metrics,
        )

    def _loop(self, events: Iterator[FrameEvent]) -> None:
        """The intake loop: stage → admit (policy) → process in order."""
        exhausted = False
        while True:
            if self.staged is None and not exhausted:
                self.staged = next(events, None)
                if self.staged is None:
                    exhausted = True
                else:
                    self.position += 1
            if self.staged is not None and (
                self.queue.depth == 0
                or self.staged.arrival_ms <= self.now_ms
            ):
                if (
                    self.queue.depth == 0
                    and self.staged.arrival_ms > self.now_ms
                ):
                    # Nothing to do until the next event arrives: idle.
                    self.now_ms = self.staged.arrival_ms
                if self.queue.admit(self.staged):
                    self.staged = None
                    continue
                # block policy at capacity: drain one, then re-offer.
                self._process(self.queue.pop())
                continue
            if self.queue.depth == 0:
                break
            self._process(self.queue.pop())

    def _process(self, event: FrameEvent) -> None:
        """Fold one arrived event into watermark/reorder/tracker state."""
        self._count("stream.frames_in")
        self.now_ms = max(self.now_ms, event.arrival_ms)
        watermark = self.watermark.observe(event.frame)
        if not self.reorder.add(event.frame, event.detections):
            self._count("stream.frames_shed_late")
        for frame, detections in self.reorder.release(watermark):
            if detections is None:
                self._count("stream.frames_missing")
                detections = []
            self._advance_tracking(frame, detections)
        telemetry = self._telemetry
        telemetry.set_gauge("stream.watermark", float(watermark))
        telemetry.set_gauge(
            "stream.watermark_lag_ms",
            self.now_ms - watermark * self.frame_interval_ms,
        )
        telemetry.set_gauge("stream.queue_depth", float(self.queue.depth))
        telemetry.set_gauge(
            "stream.open_windows", float(self.n_resident_windows)
        )
        self._mark_ready()
        self._drain_ready()

    def _advance_tracking(
        self, frame: int, detections: list[Detection]
    ) -> None:
        """Feed one final frame to the tracker; route closed tracks."""
        for track in self.stream.advance(frame, detections):
            self._route_track(track)

    def _route_track(self, track: Track) -> None:
        """File a closed track under its owning window's buffer."""
        owner = track.first_frame // self.stride
        if owner < self.next_emit:
            # Its window already closed (only possible for tracks that
            # outlive the L >= 2*L_max assumption): count, don't corrupt.
            self._count("stream.tracks_orphaned")
            return
        self.open_windows.setdefault(owner, []).append(track)
        self.peak_open_windows = max(
            self.peak_open_windows, self.n_resident_windows
        )
        if contracts.ENABLED:
            contracts.check_open_window_bound(
                self.n_resident_windows,
                self.max_open_windows,
                where="StreamingIngestionService",
            )

    def _mark_ready(self, feed_done: bool = False) -> None:
        """Detect windows whose track sets are now complete.

        A window's tracks are all closed once the released-frame
        frontier has passed its end by the tracker's ``close_lag``;
        readiness (and the backpressure/SLO verdict that decides
        degraded merging) is recorded *now*, so the verdict survives in
        the checkpoint and a resumed run replays the identical decision.
        """
        frontier = self.reorder.last_released
        earliest_open = self.stream.earliest_open_frame()
        while True:
            window = window_at(self.next_ready, self.window_length)
            if feed_done:
                if self.next_ready > max(
                    list(self.open_windows) + [self.next_emit - 1]
                ):
                    break
            elif frontier < window.end + self.stream.close_lag:
                break
            elif (
                earliest_open is not None
                and earliest_open // self.stride <= self.next_ready
            ):
                # A still-active track is owned by (or precedes) this
                # window — it outlived L/2 (the L ≥ 2·L_max margin);
                # defer closing until it dies so it is not orphaned.
                break
            lag_ms = self.now_ms - window.end * self.frame_interval_ms
            degraded = self.policy.should_degrade(self.queue.depth, lag_ms)
            if degraded != self._bp_active:
                # Count policy *transitions* (edges), not verdicts: a
                # long degraded stretch is one flip in, one flip out.
                self._bp_active = degraded
                self._count("stream.bp_transitions")
            self.ready.append(
                {
                    "index": self.next_ready,
                    "degraded": degraded,
                    "lag_ms": lag_ms,
                    "queue_depth": self.queue.depth,
                }
            )
            self.next_ready += 1

    def _drain_ready(self) -> None:
        """Merge and emit every ready window, in index order."""
        while self.ready:
            batch = list(self.ready)
            window_pairs, outcomes = self._merge_batch(batch)
            for entry in batch:
                index = entry["index"]
                self._emit(entry, window_pairs[index], outcomes.get(index))

    def _tracks_of(self, index: int) -> list[Track]:
        """``T_index`` in canonical (first_frame, track_id) order."""
        tracks = list(self.open_windows.get(index, []))
        tracks.sort(key=lambda t: (t.first_frame, t.track_id))
        return tracks

    def _previous_tracks_of(self, index: int) -> list[Track]:
        """``T_{index-1}``: still buffered, or the retained last
        emission.

        The split is on the emission frontier, not buffer presence: a
        not-yet-emitted empty predecessor must yield ``[]``, never reach
        back to an older retained set (which would also make batched and
        resumed runs diverge).
        """
        if index == 0:
            return []
        if index - 1 >= self.next_emit:
            return self._tracks_of(index - 1)
        return self.prev_tracks

    def _merge_batch(
        self, batch: list[dict]
    ) -> tuple[dict[int, list[TrackPair]], dict[int, WindowOutcome]]:
        """Build every ready window's pairs once, and run the
        non-degraded, non-empty ones through the engine (fanning out when
        several are ready at once).

        Returns each window's pairs and the engine's outcomes, by index;
        the outcomes' candidates are members of those pairs.
        """
        window_pairs = {
            entry["index"]: build_track_pairs(
                self._tracks_of(entry["index"]),
                self._previous_tracks_of(entry["index"]),
            )
            for entry in batch
        }
        windows = [
            (entry["index"], window_pairs[entry["index"]])
            for entry in batch
            if not entry["degraded"] and window_pairs[entry["index"]]
        ]
        tasks = build_window_tasks(
            windows,
            world=self._world,
            merger=self.merger,
            cost_params=self.cost_params,
            reid_seed=self.reid_seed,
            fault_profile=self.fault_profile,
            resilience=self.resilience,
            with_ledger=self._telemetry.ledger is not None,
        )
        outcomes = self._executor.run(tasks)
        return window_pairs, {outcome.index: outcome for outcome in outcomes}

    def _emit(
        self,
        entry: dict,
        pairs: list[TrackPair],
        outcome: WindowOutcome | None,
    ) -> None:
        """Finalize one window (its ``pairs`` built by
        :meth:`_merge_batch`): result, telemetry, eviction, checkpoint."""
        index = entry["index"]
        tracks = self._tracks_of(index)
        prev = self._previous_tracks_of(index)
        telemetry = self._telemetry
        if outcome is not None:
            result = outcome.result
            outcome.fold_into(self.cost, self.resilience_stats, telemetry)
            self._window_metrics.append(
                dict(outcome.telemetry["counters"])
                if self.telemetry is not None
                else {}
            )
        else:
            if entry["degraded"] and pairs:
                result = spatial_fallback_result(self.merger, pairs, 0.0)
                self._count("stream.windows_degraded")
                # Service-level verdict: the backpressure policy — not
                # the merge algorithm — degraded this window.
                telemetry.begin_window(index)
                telemetry.record(
                    EVENT_DEGRADE,
                    reason="backpressure",
                    lag_ms=float(entry["lag_ms"]),
                    queue_depth=int(entry["queue_depth"]),
                )
            else:
                result = empty_merge_result(self.merger)
            self._window_metrics.append({})
        if result.degraded and outcome is not None:
            self._count("stream.windows_degraded")

        self.now_ms += result.simulated_seconds * 1000.0
        emission = WindowEmission(
            index=index,
            window=window_at(index, self.window_length),
            n_tracks=len(tracks),
            n_prev_tracks=len(prev),
            result=result,
            pairs=pairs,
            lag_ms=entry["lag_ms"],
            queue_depth=entry["queue_depth"],
        )
        telemetry.observe(
            "stream.merge_latency_ms", result.simulated_seconds * 1000.0
        )
        telemetry.observe(
            "stream.emit_lag_ms",
            self.now_ms - emission.window.end * self.frame_interval_ms,
        )
        with telemetry.span(
            "stream.window",
            window_id=index,
            n_pairs=result.n_pairs,
            degraded=result.degraded,
            lag_ms=entry["lag_ms"],
        ):
            pass
        self._count("stream.windows_emitted")

        # Evict: the window's buffer becomes the retained previous set.
        self.open_windows.pop(index, None)
        self.prev_tracks = tracks
        self.ready = [e for e in self.ready if e["index"] != index]
        self.next_emit = index + 1
        self._emissions.append(emission)
        self._checkpoint()
        if (
            self._stop_after is not None
            and len(self._emissions) >= self._stop_after
        ):
            raise _Killed()

    def _finalize_feed(self) -> None:
        """End of feed: release every buffered frame, flush, close all."""
        pending = sorted(self.reorder.pending)
        if pending:
            released = self.reorder.release(pending[-1])
            for frame, detections in released:
                if detections is None:
                    self._count("stream.frames_missing")
                    detections = []
                self._advance_tracking(frame, detections)
        for track in self.stream.flush():
            self._route_track(track)
        self._mark_ready(feed_done=True)
        self._drain_ready()
