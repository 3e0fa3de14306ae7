"""The decision-event schema: one compact record per merge decision.

Every event a :class:`~repro.provenance.ledger.DecisionLedger` holds is a
:class:`DecisionEvent` — a small, pure-JSON record of one step of the
TMerge decision procedure (DESIGN.md §11).  The schema is deliberately
narrow: a sequence number, the owning window, the decision kind (one of
the reason codes below), the iteration τ it happened at, and a
kind-specific ``data`` payload of plain lists/floats/ints.  Everything
round-trips through JSON bit-exactly, which is what lets ledgers live
inside checkpoints and JSONL exports without a serialization layer.

Reason codes
------------
``window``
    A window's sampling run opened: records the arm → pair-key table
    (``pairs``, index-aligned with every later arm index), the candidate
    budget and the effective batch size.
``sample``
    One TMerge iteration: the arms whose Thompson draws were selected
    (``arms``, with their drawn ``theta``), the subset actually observed
    (``observed``, skipping exhausted pairs), the normalized ReID
    distances ``d_norm`` and the per-observed-arm posterior state
    ``posterior_before`` / ``posterior_after`` (``[alpha, beta]`` pairs).
``ulb``
    One ULB pruning pass that changed the partition: newly accepted and
    rejected arms with their Hoeffding radii at that τ.
``degrade``
    The window lost its ReID dependency (``reason="reid_unavailable"``)
    or the streaming backpressure policy pre-degraded it
    (``reason="backpressure"``); sampling stopped or never started.
``fault``
    The resilience layer intervened: a window crash forced a retry
    (``reason="window_crash"``, with whether a checkpoint resume or a
    from-scratch restart followed), or the spatial fallback replaced the
    merger's output (``reason="spatial_fallback"``).
``final``
    The window's verdict: chosen arms (the candidate set), their
    posterior means, the ULB partition sizes, iterations used and the
    degraded flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A window's sampling run opened (arm → pair-key table).
EVENT_WINDOW = "window"
#: One TMerge iteration (Thompson draws + posterior movement).
EVENT_SAMPLE = "sample"
#: One ULB pruning pass that accepted/rejected arms.
EVENT_ULB = "ulb"
#: ReID unavailable / backpressure pre-degradation.
EVENT_DEGRADE = "degrade"
#: Resilience intervention (window crash retry, spatial fallback).
EVENT_FAULT = "fault"
#: The window's final candidate verdict.
EVENT_FINAL = "final"

#: Every legal ``DecisionEvent.kind``, in lifecycle order.
EVENT_KINDS: tuple[str, ...] = (
    EVENT_WINDOW,
    EVENT_SAMPLE,
    EVENT_ULB,
    EVENT_DEGRADE,
    EVENT_FAULT,
    EVENT_FINAL,
)


@dataclass
class DecisionEvent:
    """One recorded merge decision (pure-JSON payload).

    Attributes:
        seq: ledger-assigned sequence number (monotone within a ledger;
            reassigned on :meth:`~repro.provenance.ledger.DecisionLedger.absorb`
            exactly like span ids in ``Tracer.absorb``).
        kind: one of :data:`EVENT_KINDS`.
        window: the owning window index (``None`` when the recorder ran
            outside any window context).
        tau: the TMerge iteration the event happened at (``None`` for
            events outside the sampling loop, e.g. ``window``/``final``).
        data: kind-specific payload of JSON-safe scalars and lists.
    """

    seq: int
    kind: str
    window: int | None
    tau: int | None = None
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )

    def to_dict(self) -> dict:
        """Pure-JSON payload (checkpoints, JSONL export)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "window": self.window,
            "tau": self.tau,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DecisionEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            window=(
                int(payload["window"])
                if payload.get("window") is not None
                else None
            ),
            tau=(
                int(payload["tau"])
                if payload.get("tau") is not None
                else None
            ),
            data=dict(payload.get("data", {})),
        )
