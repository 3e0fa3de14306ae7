"""The decision-event schema: compact records of merge decisions.

Every event a :class:`~repro.provenance.ledger.DecisionLedger` holds is a
:class:`DecisionEvent` — a pure-JSON record of one step of the TMerge
decision procedure, or of a block of sampling iterations (DESIGN.md
§11).  The schema is deliberately narrow: a sequence number, the owning
window, the decision kind (one of the reason codes below), the iteration
τ it happened at (a block's last), and a kind-specific ``data`` payload
of plain lists/floats/ints.  Everything
round-trips through JSON bit-exactly, which is what lets ledgers live
inside checkpoints and JSONL exports without a serialization layer.

Reason codes
------------
``window``
    A window's sampling run opened: records the arm → pair-key table
    (``pairs``, index-aligned with every later arm index), the candidate
    budget, the effective batch size and every arm's BetaInit prior
    (``prior_alpha`` / ``prior_beta``).
``sample``
    A block of consecutive TMerge iterations, one row each, stored as
    the columns of :class:`SampleBlock`: per row its ``tau``, ``n_arms``
    and ``n_observed``; flat over the rows, the arms whose Thompson draws
    were selected (``arms``, with their drawn ``theta``), the subset
    actually observed (``observed``, skipping exhausted pairs) and, per
    observation, the normalized ReID distance ``d_norm`` and the
    Bernoulli outcome ``hit`` (1 on success ⇒ "looks distant", else 0).  Posteriors
    are not stored: an arm's ``[alpha, beta]`` is its prior plus its
    hits and misses so far, which
    :func:`~repro.provenance.explain.explain_pair` rebuilds.
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
from typing import Iterator, NamedTuple

import numpy as np

#: A window's sampling run opened (arm → pair-key table).
EVENT_WINDOW = "window"
#: A block of TMerge iterations (Thompson draws + observations).
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
        tau: the TMerge iteration the event happened at — a ``sample``
            block's last row (``None`` for events outside the sampling
            loop, e.g. ``window``/``final``).
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


class SampleRow(NamedTuple):
    """One TMerge iteration read back from a ``sample`` block."""

    tau: int
    arms: list[int]
    theta: list[float]
    observed: list[int]
    d_norm: list[float]
    hit: list[int]


class SampleBlock:
    """A run's open ``sample`` block: TMerge iterations held as columns.

    :meth:`add` keeps each iteration's arrays by reference — no per-row
    conversion — and :meth:`data` turns them into the event's pure-JSON
    columns once, when the ledger closes the block.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Drop every row."""
        self._tau: list[int] = []
        self._arms: list[np.ndarray] = []
        self._theta: list[np.ndarray] = []
        self._observed: list[np.ndarray] = []
        self._d_norm: list[np.ndarray] = []
        self._hit: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._tau)

    @property
    def last_tau(self) -> int:
        """The τ of the newest row (the block's event τ)."""
        return self._tau[-1]

    def add(
        self,
        tau: int,
        arms: np.ndarray,
        theta: np.ndarray,
        observed: np.ndarray,
        d_norm: np.ndarray,
        hit: np.ndarray,
    ) -> None:
        """Append iteration ``tau``: the selected ``arms`` with their
        draws ``theta``, and the ``observed`` arms with their distances
        ``d_norm`` and outcomes ``hit``.  The arrays must not change
        afterwards."""
        self._tau.append(tau)
        self._arms.append(arms)
        self._theta.append(theta)
        self._observed.append(observed)
        self._d_norm.append(d_norm)
        self._hit.append(hit)

    def data(self) -> dict:
        """The block's ``sample`` event payload (pure JSON; the block
        holds at least one row)."""
        return {
            "tau": list(self._tau),
            "n_arms": [len(arms) for arms in self._arms],
            "n_observed": [len(observed) for observed in self._observed],
            "arms": np.concatenate(self._arms).tolist(),
            "theta": np.concatenate(self._theta).tolist(),
            "observed": np.concatenate(self._observed).tolist(),
            "d_norm": np.concatenate(self._d_norm).tolist(),
            "hit": np.concatenate(self._hit).astype(np.int64).tolist(),
        }


def sample_rows(data: dict) -> Iterator[SampleRow]:
    """The rows of a ``sample`` event's ``data``, in τ order."""
    at = seen = 0
    for tau, n_arms, n_observed in zip(
        data["tau"], data["n_arms"], data["n_observed"]
    ):
        arms_end, seen_end = at + n_arms, seen + n_observed
        yield SampleRow(
            tau=tau,
            arms=data["arms"][at:arms_end],
            theta=data["theta"][at:arms_end],
            observed=data["observed"][seen:seen_end],
            d_norm=data["d_norm"][seen:seen_end],
            hit=data["hit"][seen:seen_end],
        )
        at, seen = arms_end, seen_end
