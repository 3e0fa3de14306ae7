"""Algorithm 4 — ULB: Hoeffding-bound pruning of track pairs.

After τ iterations, each sampled pair carries a confidence interval
``[s̃′ − U, s̃′ + U]`` with ``U = sqrt(2 log τ / n)`` around its running
score estimate (Hoeffding; the true score leaves the interval with
probability < 2/τ⁴).  A pair whose *upper* bound undercuts all but at most
⌈K·|P_c|⌉ − 1 other pairs' lower bounds is certainly inside the top-K
(accepted); a pair whose *lower* bound exceeds at least ⌈K·|P_c|⌉ other
pairs' upper bounds is certainly outside (rejected).  Either way it stops
being sampled.
"""

from __future__ import annotations

import math

import numpy as np

from repro import contracts
from repro.provenance import EVENT_ULB
from repro.telemetry import Telemetry


def hoeffding_radii(total_rounds: int, pulls: np.ndarray) -> np.ndarray:
    """The paper's ``U_{i,j} = sqrt(2 log τ / n_{i,j})`` per arm.

    Args:
        total_rounds: the current iteration count τ (≥ 1).
        pulls: per-arm sample counts (non-negative).

    Returns:
        A float64 array of two-sided confidence radii, ``inf`` where
        ``pulls == 0`` so unpulled arms are never prematurely pruned.
    """
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    pulls = np.asarray(pulls)
    if np.any(pulls < 0):
        raise ValueError("pulls must be non-negative")
    log_term = math.log(total_rounds) if total_rounds > 1 else 0.0
    # np.maximum guards the 0/0 → nan case (τ=1 with unpulled arms);
    # the np.where then restores inf for every unpulled arm.
    radii = np.sqrt(2.0 * log_term / np.maximum(pulls, 1))
    return np.where(pulls > 0, radii, np.inf)


class UlbPruner:
    """Incremental pruning state over a fixed arm set.

    Args:
        n_arms: number of track pairs.
        k_count: the candidate budget ⌈K·|P_c|⌉.
        radius_scale: multiplier on the Hoeffding radius.  1.0 is the
            paper's exact formula, which assumes observations span the full
            [0, 1] range; it is extremely conservative when the normalized
            distances concentrate in a sub-range (their empirical std is
            ≈ 0.15 here), to the point of never pruning at realistic pull
            counts.  Values < 1 correspond to a sub-Gaussian radius with
            σ = radius_scale (an empirical-Bernstein-style tightening) and
            make the mechanism observable; the Figure 8 ablation uses this.
        telemetry: the owning TMerge run's
            :class:`~repro.telemetry.Telemetry` (a private one when
            omitted).  Prune verdicts land in the ``ulb.passes`` /
            ``ulb.accepted`` / ``ulb.rejected`` counters, and each pass
            that changed the partition records one ``ulb`` decision
            event (newly accepted/rejected arms with the Hoeffding radii
            in force) on its ledger.  Pure observation — never affects
            pruning decisions.
    """

    def __init__(
        self,
        n_arms: int,
        k_count: int,
        radius_scale: float = 1.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if n_arms < 0:
            raise ValueError("n_arms must be non-negative")
        if k_count < 0:
            raise ValueError("k_count must be non-negative")
        if radius_scale <= 0:
            raise ValueError("radius_scale must be positive")
        self.n_arms = n_arms
        self.k_count = k_count
        self.radius_scale = radius_scale
        self.telemetry = telemetry or Telemetry()
        self.accepted: set[int] = set()
        self.rejected: set[int] = set()
        #: Non-finite running means clamped by :meth:`update` (only ever
        #: non-zero when corrupted distances slip past the scorer layer).
        self.n_nonfinite_clamped = 0

    @property
    def pruned(self) -> set[int]:
        """The paper's ``P_skip``: all arms removed from sampling."""
        return self.accepted | self.rejected

    def state_dict(self) -> dict:
        """Restorable pruning state (for window checkpoints)."""
        return {
            "accepted": sorted(self.accepted),
            "rejected": sorted(self.rejected),
            "n_nonfinite_clamped": self.n_nonfinite_clamped,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self.accepted = {int(a) for a in state["accepted"]}
        self.rejected = {int(a) for a in state["rejected"]}
        self.n_nonfinite_clamped = int(state["n_nonfinite_clamped"])

    def update(
        self,
        means: np.ndarray,
        pulls: np.ndarray,
        total_rounds: int,
    ) -> tuple[set[int], set[int]]:
        """Run one pruning pass.

        Args:
            means: running score estimates s̃′ per arm (length ``n_arms``).
            pulls: sample counts n per arm.
            total_rounds: the current iteration count τ.

        Returns:
            ``(newly_accepted, newly_rejected)`` arm indices.
        """
        if self.n_arms == 0 or self.k_count == 0:
            return set(), set()
        means = np.asarray(means, dtype=np.float64)
        pulled = np.asarray(pulls) > 0
        bad = pulled & ~np.isfinite(means)
        if np.any(bad):
            # Corrupted evidence must not steer the bounds: raise under
            # runtime contracts, otherwise treat the arm as maximally
            # distant (mean 1.0) and count the clamp.
            if contracts.ENABLED:
                raise contracts.ContractViolation(
                    f"UlbPruner: non-finite running means at arms "
                    f"{np.nonzero(bad)[0].tolist()}"
                )
            self.n_nonfinite_clamped += int(bad.sum())
            self.telemetry.count("ulb.nonfinite_clamped", int(bad.sum()))
            means = np.where(bad, 1.0, means)
        radii = self.radius_scale * hoeffding_radii(total_rounds, pulls)
        uppers = means + radii
        lowers = means - radii

        # Unsampled arms carry infinite radius: their lower bound (−inf)
        # keeps them counted as potential rivals of every other arm, and
        # their upper bound (+inf) keeps them from ever looking beaten.
        finite = np.isfinite(radii)
        sorted_lowers = np.sort(lowers)  # −inf entries sort first
        sorted_uppers = np.sort(uppers)  # +inf entries sort last

        consider = finite.copy()
        already = self.pruned
        if already:
            consider[list(already)] = False
        # Accept: at most k_count − 1 *other* arms might beat this one,
        # i.e. have a lower bound below this arm's upper bound.  The −1
        # discounts the arm's own (finite) lower bound, always < its
        # upper bound.  One vectorized searchsorted covers every arm.
        rivals_below = (
            np.searchsorted(sorted_lowers, uppers, side="left") - 1
        )
        accept = consider & (rivals_below <= self.k_count - 1)
        # Reject: at least k_count other arms are certainly better, i.e.
        # have an upper bound below this arm's lower bound.  Acceptance
        # takes precedence, exactly as in the per-arm formulation.
        certainly_better = np.searchsorted(sorted_uppers, lowers, side="left")
        reject = consider & ~accept & (certainly_better >= self.k_count)

        newly_accepted: set[int] = {
            int(arm) for arm in np.nonzero(accept)[0]
        }
        newly_rejected: set[int] = {
            int(arm) for arm in np.nonzero(reject)[0]
        }

        # Acceptance capacity: never accept more arms than the budget.
        room = self.k_count - len(self.accepted)
        if len(newly_accepted) > room:
            # Keep the arms with the smallest estimated scores.
            keep = sorted(newly_accepted, key=lambda a: means[a])[:room]
            newly_accepted = set(keep)

        self.accepted |= newly_accepted
        self.rejected |= newly_rejected
        telemetry = self.telemetry
        if newly_accepted or newly_rejected:
            changed = sorted(newly_accepted | newly_rejected)
            telemetry.record(
                EVENT_ULB,
                tau=int(total_rounds),
                accepted=sorted(newly_accepted),
                rejected=sorted(newly_rejected),
                radius={str(arm): float(radii[arm]) for arm in changed},
                k_count=self.k_count,
            )
        telemetry.count("ulb.passes")
        if newly_accepted:
            telemetry.count("ulb.accepted", len(newly_accepted))
        if newly_rejected:
            telemetry.count("ulb.rejected", len(newly_rejected))
        if contracts.ENABLED:
            contracts.check_ulb_partition(
                self.accepted, self.rejected, self.n_arms, where="UlbPruner"
            )
        return newly_accepted, newly_rejected
