"""Decision-chain reconstruction: *why* a pair was (not) merged.

Given a ledger's events — live from a :class:`DecisionLedger`, or loaded
back from a JSONL export — :func:`explain_pair` rebuilds the complete
decision chain for one track pair: its BetaInit prior, every Thompson
draw that selected it, every observation and the posterior movement it
caused (rebuilt from the window's BetaInit prior and the pair's hits and
misses in the ``sample`` blocks), the ULB verdict (with the radius in
force), any degradation or fault interventions, and the final candidate
verdict with its posterior mean.  This is the query surface behind
``python -m repro.experiments explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.provenance.events import (
    EVENT_DEGRADE,
    EVENT_FAULT,
    EVENT_FINAL,
    EVENT_SAMPLE,
    EVENT_ULB,
    EVENT_WINDOW,
    DecisionEvent,
    sample_rows,
)

#: Final verdicts :func:`explain_pair` can assign.
VERDICT_CANDIDATE = "candidate"
VERDICT_ULB_ACCEPTED = "candidate (ULB-accepted)"
VERDICT_ULB_REJECTED = "rejected (ULB-pruned)"
VERDICT_NOT_SELECTED = "not selected"
VERDICT_UNRESOLVED = "unresolved (no final event)"

#: ``window`` event keys a chain's opening step leaves out of its detail
#: (every arm's prior; the step is about the window, not the arms).
_PRIOR_KEYS = ("prior_alpha", "prior_beta")


@dataclass
class DecisionStep:
    """One line of a decision chain.

    Attributes:
        seq: the underlying event's ledger sequence number.
        tau: the TMerge iteration (``None`` outside the sampling loop).
        kind: the underlying event kind.
        summary: one human-readable sentence.
        detail: the step's raw numbers (draws, posteriors, radii).
    """

    seq: int
    tau: int | None
    kind: str
    summary: str
    detail: dict = field(default_factory=dict)


@dataclass
class DecisionChain:
    """The reconstructed decision history of one pair in one window.

    Attributes:
        pair: the pair key ``(track_a, track_b)`` as recorded.
        window: the owning window index.
        arm: the pair's arm index inside that window's run.
        steps: the chain, in event order.
        verdict: the final verdict string (one of the ``VERDICT_*``
            constants).
        final_score: the pair's final posterior mean (``None`` when the
            window never reached its final event).
        n_observations: how many ReID observations the pair received.
    """

    pair: tuple[int, int]
    window: int
    arm: int
    steps: list[DecisionStep]
    verdict: str
    final_score: float | None
    n_observations: int

    def render(self) -> str:
        """The chain as indented plain text (the ``explain`` CLI body)."""
        lines = [
            f"pair {self.pair[0]}-{self.pair[1]} in window {self.window} "
            f"(arm {self.arm}):"
        ]
        for step in self.steps:
            tau = f"tau={step.tau}" if step.tau is not None else "-"
            lines.append(f"  [{step.seq:>6}] {tau:>9} {step.summary}")
        score = (
            f"{self.final_score:.6f}" if self.final_score is not None else "?"
        )
        lines.append(
            f"  verdict: {self.verdict} "
            f"(posterior mean {score}, "
            f"{self.n_observations} observations)"
        )
        return "\n".join(lines)


def _posterior_mean(state: list) -> float:
    """The mean of one recorded ``[alpha, beta]`` posterior state."""
    alpha, beta = float(state[0]), float(state[1])
    return alpha / (alpha + beta)


def _prior(opened: DecisionEvent, arm: int) -> list[float]:
    """``arm``'s BetaInit ``[alpha, beta]`` from a ``window`` event."""
    return [
        float(opened.data["prior_alpha"][arm]),
        float(opened.data["prior_beta"][arm]),
    ]


def windows_containing(
    events: list[DecisionEvent], pair: tuple[int, int]
) -> list[int]:
    """Window indices whose recorded pair table contains ``pair``, each
    once (a window restarted from scratch records two tables)."""
    key = sorted(int(x) for x in pair)
    found = []
    for event in events:
        if (
            event.kind != EVENT_WINDOW
            or event.window is None
            or event.window in found
        ):
            continue
        for recorded in event.data.get("pairs", []):
            if sorted(int(x) for x in recorded) == key:
                found.append(event.window)
                break
    return found


def explain_pair(
    events: list[DecisionEvent],
    pair: tuple[int, int],
    window: int | None = None,
) -> DecisionChain:
    """Reconstruct the decision chain for ``pair``.

    Args:
        events: ledger events (live or loaded from JSONL), in ledger
            order.
        pair: the track-id pair to explain (order-insensitive).
        window: the window to explain it in; required when the pair
            appears in several windows.

    Raises:
        KeyError: the pair appears in no recorded window (or not in the
            requested one).
        ValueError: the pair appears in several windows and ``window``
            was not given.
    """
    candidates = windows_containing(events, pair)
    if window is not None:
        if window not in candidates:
            raise KeyError(
                f"pair {pair} does not appear in window {window}'s "
                f"recorded pair table (it appears in {candidates or 'none'})"
            )
        target = window
    else:
        if not candidates:
            raise KeyError(
                f"pair {pair} appears in no recorded window; was the "
                "ledger enabled for this run?"
            )
        if len(candidates) > 1:
            raise ValueError(
                f"pair {pair} appears in windows {candidates}; "
                "pass an explicit window"
            )
        target = candidates[0]

    key = sorted(int(x) for x in pair)
    scoped = [e for e in events if e.window == target]
    opened = next(e for e in scoped if e.kind == EVENT_WINDOW)
    table = opened.data.get("pairs", [])
    arm = next(
        i
        for i, recorded in enumerate(table)
        if sorted(int(x) for x in recorded) == key
    )

    steps: list[DecisionStep] = [
        DecisionStep(
            seq=opened.seq,
            tau=opened.tau,
            kind=EVENT_WINDOW,
            summary=(
                f"window opened: {opened.data.get('n_pairs')} pairs, "
                f"budget {opened.data.get('budget')}, "
                f"batch {opened.data.get('batch')}"
            ),
            detail={
                name: value
                for name, value in opened.data.items()
                if name not in _PRIOR_KEYS
            },
        )
    ]
    verdict = VERDICT_UNRESOLVED
    final_score: float | None = None
    n_observations = 0
    # The arm's [alpha, beta]: reset to its prior by each ``window``
    # event (a crashed window restarted from scratch logs a second one),
    # then moved by each of its observations' hit or miss.
    posterior = _prior(opened, arm)

    for event in scoped:
        if event.kind == EVENT_WINDOW:
            posterior = _prior(event, arm)
        elif event.kind == EVENT_SAMPLE:
            for row in sample_rows(event.data):
                if arm not in row.arms and arm not in row.observed:
                    continue
                detail = {"arms": row.arms, "observed": row.observed}
                if arm in row.arms:
                    detail["theta"] = float(row.theta[row.arms.index(arm)])
                if arm in row.observed:
                    pos = row.observed.index(arm)
                    d_norm = float(row.d_norm[pos])
                    before = list(posterior)
                    posterior[0 if row.hit[pos] else 1] += 1.0
                    n_observations += 1
                    detail.update(
                        d_norm=d_norm,
                        posterior_before=before,
                        posterior_after=list(posterior),
                    )
                    summary = (
                        f"drawn theta="
                        f"{detail.get('theta', float('nan')):.4f}, "
                        f"observed d_norm={d_norm:.4f}; posterior mean "
                        f"{_posterior_mean(before):.4f} -> "
                        f"{_posterior_mean(posterior):.4f}"
                    )
                else:
                    summary = (
                        f"drawn theta={detail['theta']:.4f} but pair "
                        "exhausted; no observation"
                    )
                steps.append(
                    DecisionStep(
                        seq=event.seq,
                        tau=row.tau,
                        kind=EVENT_SAMPLE,
                        summary=summary,
                        detail=detail,
                    )
                )
        elif event.kind == EVENT_ULB:
            accepted = [int(a) for a in event.data.get("accepted", [])]
            rejected = [int(a) for a in event.data.get("rejected", [])]
            if arm not in accepted and arm not in rejected:
                continue
            radius = float(event.data["radius"][str(arm)])
            accepted_here = arm in accepted
            steps.append(
                DecisionStep(
                    seq=event.seq,
                    tau=event.tau,
                    kind=EVENT_ULB,
                    summary=(
                        f"ULB {'accepted' if accepted_here else 'rejected'} "
                        f"(Hoeffding radius {radius:.4f}, "
                        f"budget {event.data.get('k_count')})"
                    ),
                    detail={"radius": radius, "accepted": accepted_here},
                )
            )
        elif event.kind in (EVENT_DEGRADE, EVENT_FAULT):
            reason = event.data.get("reason")
            steps.append(
                DecisionStep(
                    seq=event.seq,
                    tau=event.tau,
                    kind=event.kind,
                    summary=f"{event.kind}: {reason}",
                    detail=dict(event.data),
                )
            )
        elif event.kind == EVENT_FINAL:
            chosen = [int(a) for a in event.data.get("chosen", [])]
            ulb_accepted = [
                int(a) for a in event.data.get("ulb_accepted", [])
            ]
            ulb_rejected = [
                int(a) for a in event.data.get("ulb_rejected", [])
            ]
            means = event.data.get("means", [])
            if arm < len(means):
                final_score = float(means[arm])
            if arm in chosen:
                verdict = (
                    VERDICT_ULB_ACCEPTED
                    if arm in ulb_accepted
                    else VERDICT_CANDIDATE
                )
            elif arm in ulb_rejected:
                verdict = VERDICT_ULB_REJECTED
            else:
                verdict = VERDICT_NOT_SELECTED
            steps.append(
                DecisionStep(
                    seq=event.seq,
                    tau=event.tau,
                    kind=EVENT_FINAL,
                    summary=(
                        f"final: {len(chosen)} candidates chosen from "
                        f"{event.data.get('n_pairs')} pairs after "
                        f"{event.data.get('iterations')} iterations"
                        f"{' (degraded)' if event.data.get('degraded') else ''}"
                    ),
                    detail={
                        "chosen": arm in chosen,
                        "degraded": bool(event.data.get("degraded")),
                    },
                )
            )
    return DecisionChain(
        pair=(key[0], key[1]),
        window=target,
        arm=arm,
        steps=steps,
        verdict=verdict,
        final_score=final_score,
        n_observations=n_observations,
    )
