"""Circuit breaker over the simulated clock.

The classic three-state machine (closed → open → half-open), with one
repo-specific twist: "time" is the shared
:class:`~repro.reid.cost.CostModel` clock, so recovery timing is part of
the reproducible simulation rather than of wall time (REPRO002).  State
transitions are validated by :func:`repro.contracts.check_breaker_transition`
when runtime contracts are enabled.

States:

* ``closed`` — calls flow; consecutive failures are counted.
* ``open`` — calls fail fast (no charge); entered after
  ``failure_threshold`` consecutive failures; holds for
  ``recovery_timeout_ms`` of simulated time.
* ``half_open`` — after the timeout, trial calls are admitted; a success
  streak of ``trial_successes`` closes the breaker, any failure re-opens
  it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import contracts
from repro.telemetry import Telemetry

#: Breaker state names (kept as plain strings so checkpoints serialize).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker tuning.

    Attributes:
        failure_threshold: consecutive failures that trip the breaker.
        recovery_timeout_ms: simulated milliseconds the breaker stays
            open before admitting trial calls.
        trial_successes: consecutive half-open successes required to
            close the breaker again.
    """

    failure_threshold: int = 5
    recovery_timeout_ms: float = 1000.0
    trial_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.recovery_timeout_ms < 0:
            raise ValueError("recovery_timeout_ms must be non-negative")
        if self.trial_successes < 1:
            raise ValueError("trial_successes must be >= 1")


class CircuitBreaker:
    """The state machine guarding one unreliable dependency.

    Args:
        policy: thresholds and timings.
        clock: the :class:`~repro.reid.cost.CostModel` whose
            ``milliseconds`` drive recovery timing.
        telemetry: the run's :class:`~repro.telemetry.Telemetry`
            mirroring state flips into ``breaker.opens`` /
            ``breaker.closes`` (a private one when omitted).
    """

    def __init__(
        self,
        policy: BreakerPolicy,
        clock,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.telemetry = telemetry or Telemetry()
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trial_streak = 0
        self.opened_at_ms = 0.0
        self.n_opens = 0
        self.n_closes = 0

    def _transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        if contracts.ENABLED:
            contracts.check_breaker_transition(
                self.state, new_state, where="CircuitBreaker"
            )
        if new_state == OPEN:
            self.n_opens += 1
            self.opened_at_ms = float(self.clock.milliseconds)
            self.telemetry.count("breaker.opens")
        if new_state == CLOSED:
            self.n_closes += 1
            self.telemetry.count("breaker.closes")
        self.state = new_state

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        Reading the simulated clock here is what moves ``open`` to
        ``half_open`` once the recovery timeout has accrued.
        """
        if self.state == OPEN:
            elapsed = float(self.clock.milliseconds) - self.opened_at_ms
            if elapsed >= self.policy.recovery_timeout_ms:
                self.trial_streak = 0
                self._transition(HALF_OPEN)
            else:
                return False
        return True

    def record_success(self) -> None:
        """Note one successful call through the breaker."""
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.trial_streak += 1
            if self.trial_streak >= self.policy.trial_successes:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        """Note one failed call; may trip the breaker."""
        if self.state == HALF_OPEN:
            self._transition(OPEN)
            self.consecutive_failures = 1
            return
        self.consecutive_failures += 1
        if (
            self.state == CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self._transition(OPEN)

    def state_dict(self) -> dict:
        """Restorable breaker state (for window checkpoints)."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trial_streak": self.trial_streak,
            "opened_at_ms": self.opened_at_ms,
            "n_opens": self.n_opens,
            "n_closes": self.n_closes,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self.state = str(state["state"])
        self.consecutive_failures = int(state["consecutive_failures"])
        self.trial_streak = int(state["trial_streak"])
        self.opened_at_ms = float(state["opened_at_ms"])
        self.n_opens = int(state["n_opens"])
        self.n_closes = int(state["n_closes"])
