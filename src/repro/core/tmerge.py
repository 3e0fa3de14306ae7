"""Algorithm 2 — TMerge: Thompson-sampling identification of polyonymous
track pairs, with BetaInit priors (Algorithm 3), ULB pruning (Algorithm 4)
and GPU-style batching (§IV-F).

Per iteration the algorithm samples θ from every eligible pair's Beta
posterior, pulls the arg-min pair, draws one fresh BBox pair from it,
computes the normalized ReID distance d̃, flips a Bernoulli coin with
success probability d̃ and updates the posterior (success ⇒ "looks
distant").  The batched variant pulls the ``B`` smallest-θ arms at once and
evaluates their BBox pairs in one simulated GPU call, preserving sample
diversity — the reason TMerge-B scales with ``B`` while LCB-B does not.

The per-iteration hot path is vectorized (DESIGN.md §6.2).  The Thompson
step has two regimes, chosen per iteration by the live-arm count alone:

* below :data:`~repro.core.thompson.GROUP_MIN_LIVE` live arms it is one
  ``rng.beta`` call across all live arms — *stream-exact*, bit-identical
  to the historical scalar loop;
* at or above it, a :class:`~repro.core.thompson.PosteriorClassIndex`
  draws once per posterior class ``(S, F)`` instead of once per arm —
  *exact in distribution* (the same law for the selected arms and their
  θ), not in bits (DESIGN.md §6.2).

Batched observations flow through
:meth:`~repro.reid.scorer.ReidScorer.normalized_distances_batched` in one
call, and posterior updates (Bernoulli flips included) are pure numpy
array operations; ``rng.random(m)`` draws the same doubles as ``m``
scalar ``rng.random()`` calls (the draw-order contract tested in
``tests/test_batched_equivalence.py``).  ``batch_size=1`` (like
``batch_size=None``) degenerates *exactly* to the scalar algorithm:
arg-min selection, unbatched scorer calls, unbatched cost accounting.
A scalar iteration costs its RNG calls plus scalar arithmetic on the
observed arm; in both paths the live-arm index is rebuilt only when an
arm leaves the live set, and the draw and iteration counters are
counted once per run (DESIGN.md §9.3).
"""

from __future__ import annotations

import numpy as np

from repro import contracts
from repro.core.beta_init import beta_init
from repro.core.pairs import TrackPair
from repro.core.regret import RegretTracker
from repro.core.results import MergeResult, top_k_count
from repro.core.thompson import GROUP_MIN_LIVE, PosteriorClassIndex
from repro.core.ulb import UlbPruner
from repro.provenance import (
    EVENT_DEGRADE,
    EVENT_FINAL,
    EVENT_WINDOW,
    DecisionLedger,
)
from repro.reid import ReidScorer
from repro.resilience import (
    REID_UNAVAILABLE,
    CheckpointStore,
    capture_scorer_state,
    encode_generator_state,
    restore_generator_state,
    restore_scorer_state,
)
from repro.telemetry import Telemetry

#: Checkpoint payload schema version; a resume accepts only this one.
#: The payload records the effective batch size, so a resume with a
#: mismatched ``batch_size`` fails loudly instead of silently diverging
#: from the interrupted run, and the decision ledger's state
#: (``"ledger"``, ``None`` when the run records no provenance), so a
#: kill+resume reconstructs the decision log bit-exactly (see
#: :meth:`TMerge._check_checkpoint_compat`).  v5 logs iterations as
#: columnar ``sample`` blocks (DESIGN.md §11).
CHECKPOINT_VERSION = 5

#: The outcomes of an iteration that observed no arm.
_NO_HITS = np.zeros(0, dtype=bool)


class TMerge:
    """The paper's algorithm (and this library's headline API).

    Args:
        k: fraction K of pairs to return as candidates.
        tau_max: iteration budget τ_max.
        thr_s: BetaInit spatial threshold in pixels; ``None`` disables
            BetaInit (ablation).
        use_ulb: enable ULB pruning (ablation switch).
        batch_size: when set, run as TMerge-B with this batch size 𝓑.
        seed: RNG seed for Thompson draws, BBox sampling and Bernoulli
            trials.
        ulb_interval: run the ULB pass every this many iterations (the
            paper runs it every iteration; amortizing it is a pure
            wall-clock optimization with no effect on simulated cost).
        ulb_scale: radius multiplier for ULB's confidence bounds; 1.0 is
            the paper's exact (very conservative) Hoeffding radius — see
            :class:`~repro.core.ulb.UlbPruner`.
        s_min: optional true minimum normalized score, enabling regret
            tracking (§IV-E analysis benches).
        checkpoint_interval: when set (with ``checkpoint_store``), persist
            a full resumable snapshot every this many iterations, so a
            window killed mid-run resumes bit-exactly.
        checkpoint_store: the
            :class:`~repro.resilience.checkpoint.CheckpointStore` holding
            snapshots; an initial snapshot is always written at τ=0 so
            even an early crash rewinds the simulated clock correctly.

    A run observes through the Telemetry of the scorer it is handed
    (:attr:`ReidScorer.telemetry <repro.reid.scorer.ReidScorer.telemetry>`):
    the bandit's counters (``tmerge.thompson_draws``, ``ulb.accepted`` …)
    land next to the ReID-cost counters, and when that Telemetry carries
    a :class:`~repro.provenance.DecisionLedger` the run records its
    iterations as columnar ``sample`` blocks, plus one decision event per
    ULB pass and degradation (DESIGN.md §11).  Observation never consumes
    the RNG stream or touches the simulated clock, so results are
    bit-identical with it on or off.
    The ledger state rides inside checkpoints, so a killed-and-resumed
    window reconstructs its decision log bit-exactly.
    """

    def __init__(
        self,
        k: float = 0.05,
        tau_max: int = 10_000,
        thr_s: float | None = 200.0,
        use_ulb: bool = True,
        batch_size: int | None = None,
        seed: int = 0,
        ulb_interval: int = 25,
        ulb_scale: float = 1.0,
        s_min: float | None = None,
        checkpoint_interval: int | None = None,
        checkpoint_store: CheckpointStore | None = None,
    ) -> None:
        if not 0.0 <= k <= 1.0:
            raise ValueError("k must be in [0, 1]")
        if tau_max < 1:
            raise ValueError("tau_max must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if ulb_interval < 1:
            raise ValueError("ulb_interval must be >= 1")
        if ulb_scale <= 0:
            raise ValueError("ulb_scale must be positive")
        if thr_s is not None and thr_s < 0:
            raise ValueError("thr_s must be non-negative")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.k = k
        self.tau_max = tau_max
        self.thr_s = thr_s
        self.use_ulb = use_ulb
        self.batch_size = batch_size
        self.seed = seed
        self.ulb_interval = ulb_interval
        self.ulb_scale = ulb_scale
        self.s_min = s_min
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_store = checkpoint_store

    @property
    def name(self) -> str:
        """Display name (``TMerge``, or ``TMerge-B<size>`` when batched)."""
        if self.batch_size is None:
            return "TMerge"
        return f"TMerge-B{self.batch_size}"

    @property
    def effective_batch(self) -> int | None:
        """The batch size actually used by the sampling loop.

        ``batch_size=1`` is the scalar algorithm — one arg-min arm, one
        unbatched scorer call, one observation — so it degenerates to the
        same code path as ``batch_size=None`` (same cost accounting, same
        RNG consumption, bit-identical results).  Only ``batch_size>1``
        engages top-B selection and the batched scorer seam.
        """
        if self.batch_size is None or self.batch_size == 1:
            return None
        return self.batch_size

    # ------------------------------------------------------------------
    def run(self, pairs: list[TrackPair], scorer: ReidScorer) -> MergeResult:
        """Identify the estimated top-⌈K·|P_c|⌉ polyonymous candidates.

        When a checkpoint store is configured, the run resumes from the
        window's last snapshot (if any) and snapshots its full state every
        ``checkpoint_interval`` iterations; the snapshot is discarded once
        the window completes.  When the resilience layer signals that ReID
        is unavailable mid-window, the run stops sampling and returns the
        best candidates supportable by the evidence gathered so far, with
        ``degraded=True``.
        """
        telemetry = scorer.telemetry
        telemetry.bind_clock(scorer.cost)
        with telemetry.span(
            "tmerge.run", method=self.name, n_pairs=len(pairs)
        ):
            try:
                return self._run(pairs, scorer, telemetry)
            finally:
                # Close the open sample block, so a crashed attempt's
                # iterations are logged too.
                if telemetry.ledger is not None:
                    telemetry.ledger.close_samples()

    def _run(
        self,
        pairs: list[TrackPair],
        scorer: ReidScorer,
        telemetry: Telemetry,
    ) -> MergeResult:
        """The sampling loop behind :meth:`run` (one traced span)."""
        rng = np.random.default_rng(self.seed)
        start_seconds = scorer.cost.seconds
        n = len(pairs)
        budget = top_k_count(n, self.k)

        successes, failures = beta_init(pairs, self.thr_s)
        if contracts.ENABLED:
            contracts.check_top_k_budget(budget, n, where="TMerge.run")
            contracts.check_beta_params(
                successes, failures, where="TMerge.beta_init"
            )

        sums = np.zeros(n)
        counts = np.zeros(n, dtype=np.int64)
        eligible = np.array([p.n_bbox_pairs > 0 for p in pairs])
        ledger = telemetry.ledger
        pruner = (
            UlbPruner(
                n, budget, radius_scale=self.ulb_scale, telemetry=telemetry
            )
            if self.use_ulb
            else None
        )
        regret = RegretTracker(self.s_min) if self.s_min is not None else None

        window_key = [list(pair.key) for pair in pairs]
        samples = None
        if ledger is not None:
            # Recorded *before* any checkpoint restore: a resume's
            # ledger.load_state_dict overwrites this re-recorded event
            # with the snapshot's log, so crash-retry never duplicates.
            # The priors let readers rebuild every posterior from the
            # sample blocks' hits.
            ledger.record(
                EVENT_WINDOW,
                pairs=window_key,
                n_pairs=n,
                budget=budget,
                batch=self.effective_batch,
                seed=self.seed,
                prior_alpha=successes.tolist(),
                prior_beta=failures.tolist(),
            )
            samples = ledger.samples

        tau0 = 0
        iterations = 0
        if self.checkpoint_store is not None:
            saved = self.checkpoint_store.load(window_key)
            if saved is not None:
                self._check_checkpoint_compat(saved, ledger)
                tau0 = int(saved["tau"])
                iterations = int(saved["iterations"])
                start_seconds = float(saved["start_seconds"])
                successes = np.asarray(saved["successes"], dtype=np.float64)
                failures = np.asarray(saved["failures"], dtype=np.float64)
                sums = np.asarray(saved["sums"], dtype=np.float64)
                counts = np.asarray(saved["counts"], dtype=np.int64)
                eligible = np.asarray(saved["eligible"], dtype=bool)
                for pair, flat in zip(pairs, saved["sampled"]):
                    pair.restore_sampled(flat)
                if pruner is not None and saved["pruner"] is not None:
                    pruner.load_state_dict(saved["pruner"])
                if regret is not None and saved["regret"] is not None:
                    regret.load_state_dict(saved["regret"])
                restore_generator_state(rng, saved["rng"])
                restore_scorer_state(scorer, saved["scorer"])
                if ledger is not None and saved.get("ledger") is not None:
                    ledger.load_state_dict(saved["ledger"])
            else:
                # τ=0 snapshot: even a crash before the first interval
                # rewinds clock, cache and RNGs to the window start.
                self.checkpoint_store.save(
                    window_key,
                    self._checkpoint_payload(
                        0, 0, start_seconds, pairs, successes, failures,
                        sums, counts, eligible, pruner, regret, rng, scorer,
                        ledger,
                    ),
                )

        batch = self.effective_batch
        ulb_interval = self.ulb_interval
        checkpoint_interval = (
            self.checkpoint_interval
            if self.checkpoint_store is not None
            else None
        )
        degraded = False
        # One posterior draw per live arm per iteration, batched or not —
        # the figure the bench gate watches alongside reid.invocations.
        draws = 0
        # Derived from (S, F, eligible) alone, so a resume rebuilds it.
        classes: PosteriorClassIndex | None = None
        # Rebuilt only when an arm leaves the live set.
        live = np.nonzero(eligible)[0]
        try:
            for tau in range(tau0 + 1, self.tau_max + 1):
                if live.size == 0:
                    break
                if live.size < GROUP_MIN_LIVE:
                    classes = None
                elif classes is None:
                    classes = PosteriorClassIndex(successes, failures, eligible)
                # The live set this iteration draws from, for the contract
                # checks after an exhausted or retired arm rebuilds ``live``.
                drawn = live

                if batch is None:
                    # One arm: the update is scalar arithmetic on its
                    # entries, and rng.random() draws the same double as
                    # rng.random(1) (DESIGN.md §9.2).
                    if classes is None:
                        theta = rng.beta(successes[live], failures[live])
                        best = theta.argmin()
                        arm = int(live[best])
                        theta_arm = theta[best]
                    else:
                        chosen, theta = classes.select(
                            successes, failures, rng, 1
                        )
                        arm = int(chosen[0])
                        theta_arm = theta[0]
                    selected, theta_sel = (arm,), (theta_arm,)
                    draws += live.size
                    pair = pairs[arm]
                    try:
                        ia, ib = pair.sample_bbox_pair(rng)
                        d_norm = scorer.normalized_distance(
                            pair.track_a, ia, pair.track_b, ib
                        )
                    except REID_UNAVAILABLE:
                        degraded = True
                        break
                    if contracts.ENABLED:
                        contracts.check_normalized_distance(
                            d_norm, where="TMerge.run"
                        )
                    if regret is not None:
                        regret.record(float(d_norm))
                    sums[arm] += d_norm
                    counts[arm] += 1
                    if classes is not None:
                        classes.discard(selected, successes, failures)
                    hit = rng.random() < d_norm
                    if hit:
                        successes[arm] += 1.0
                    else:
                        failures[arm] += 1.0
                    if pair.exhausted:
                        eligible[arm] = False
                        live = np.nonzero(eligible)[0]
                    elif classes is not None:
                        classes.add(selected, successes, failures)
                    if samples is not None:
                        observed = np.array([arm], dtype=np.int64)
                        samples.add(
                            tau, observed, np.array([theta_arm]), observed,
                            np.array([d_norm]), np.array([hit]),
                        )
                else:
                    selected, theta_sel = self._select_batch(
                        live, successes, failures, rng, classes
                    )
                    draws += live.size
                    try:
                        observed, d_norms = self._evaluate_batch(
                            pairs, selected, scorer, rng
                        )
                    except REID_UNAVAILABLE:
                        degraded = True
                        break
                    owners = np.asarray(observed, dtype=np.int64)
                    # Owners are distinct arms (one draw per selected live
                    # arm), so fancy-index scatter adds are exact; the
                    # Bernoulli flips come from one rng.random(m) call,
                    # which consumes the PCG64 stream in the same order as
                    # m scalar draws.
                    hits = _NO_HITS
                    if observed:
                        if contracts.ENABLED:
                            contracts.check_normalized_distance(
                                d_norms, where="TMerge.run"
                            )
                        if regret is not None:
                            regret.record_many(d_norms)
                        sums[owners] += d_norms
                        counts[owners] += 1
                        if classes is not None:
                            classes.discard(observed, successes, failures)
                        hits = rng.random(owners.size) < d_norms
                        successes[owners[hits]] += 1.0
                        failures[owners[~hits]] += 1.0
                        spent = [a for a in observed if pairs[a].exhausted]
                        if spent:
                            eligible[spent] = False
                            live = np.nonzero(eligible)[0]
                        if classes is not None:
                            classes.add(
                                [a for a in observed if eligible[a]],
                                successes,
                                failures,
                            )
                    if samples is not None:
                        samples.add(
                            tau, selected, theta_sel, owners, d_norms, hits
                        )

                scorer.cost.charge_overhead(1)
                iterations = tau

                if pruner is not None and tau % ulb_interval == 0:
                    means = np.where(
                        counts > 0, sums / np.maximum(counts, 1), 0.5
                    )
                    accepted, rejected = pruner.update(means, counts, tau)
                    retired = sorted(
                        a for a in accepted | rejected if eligible[a]
                    )
                    if retired:
                        eligible[retired] = False
                        live = np.nonzero(eligible)[0]
                        if classes is not None:
                            classes.discard(retired, successes, failures)
                    if contracts.ENABLED:
                        contracts.check_ulb_partition(
                            pruner.accepted, pruner.rejected, n,
                            where="TMerge.run",
                        )
                        contracts.check_class_index(
                            classes, successes, failures, eligible,
                            drawn, selected, theta_sel, where="TMerge.ulb",
                        )

                if (
                    checkpoint_interval is not None
                    and tau % checkpoint_interval == 0
                ):
                    if contracts.ENABLED:
                        contracts.check_class_index(
                            classes, successes, failures, eligible,
                            drawn, selected, theta_sel,
                            where="TMerge.checkpoint",
                        )
                    self.checkpoint_store.save(
                        window_key,
                        self._checkpoint_payload(
                            tau, iterations, start_seconds, pairs,
                            successes, failures, sums, counts, eligible,
                            pruner, regret, rng, scorer, ledger,
                        ),
                    )
            if degraded:
                telemetry.count("tmerge.degraded_windows")
                telemetry.record(
                    EVENT_DEGRADE, tau=tau, reason="reid_unavailable"
                )
        finally:
            # Counted once per run, so a crashed or degraded attempt's
            # draws and iterations count too.
            if draws:
                telemetry.count("tmerge.thompson_draws", draws)
            if iterations > tau0:
                telemetry.count("tmerge.iterations", iterations - tau0)

        if self.checkpoint_store is not None:
            self.checkpoint_store.discard(window_key)

        return self._finalize(
            pairs,
            successes,
            failures,
            pruner,
            budget,
            scorer.cost.seconds - start_seconds,
            iterations,
            regret,
            degraded,
            telemetry,
        )

    def _checkpoint_payload(
        self,
        tau: int,
        iterations: int,
        start_seconds: float,
        pairs: list[TrackPair],
        successes: np.ndarray,
        failures: np.ndarray,
        sums: np.ndarray,
        counts: np.ndarray,
        eligible: np.ndarray,
        pruner: UlbPruner | None,
        regret: RegretTracker | None,
        rng: np.random.Generator,
        scorer: ReidScorer,
        ledger: DecisionLedger | None,
    ) -> dict:
        """Full pure-JSON snapshot of a mid-window run (DESIGN.md §6.5)."""
        return {
            "version": CHECKPOINT_VERSION,
            "batch": self.effective_batch,
            "tau": tau,
            "iterations": iterations,
            "start_seconds": float(start_seconds),
            "successes": [float(x) for x in successes],
            "failures": [float(x) for x in failures],
            "sums": [float(x) for x in sums],
            "counts": [int(x) for x in counts],
            "eligible": [bool(x) for x in eligible],
            "sampled": [pair.sampled_state() for pair in pairs],
            "pruner": pruner.state_dict() if pruner is not None else None,
            "regret": regret.state_dict() if regret is not None else None,
            "rng": encode_generator_state(rng),
            "scorer": capture_scorer_state(scorer),
            "ledger": ledger.state_dict() if ledger is not None else None,
        }

    def _check_checkpoint_compat(
        self, saved: dict, ledger: DecisionLedger | None
    ) -> None:
        """Refuse to resume a snapshot this configuration cannot honour.

        Only :data:`CHECKPOINT_VERSION` payloads resume; any other
        version, or none at all, is refused.  The payload records the
        *effective* batch (``None`` and ``1`` are the same scalar
        algorithm), and a resume must use the same one: a different batch
        consumes the RNG stream differently, so continuing would silently
        diverge from the interrupted run.  A payload written without a
        ledger refuses to resume into a ledger-attached run, because the
        pre-crash decision events would be silently missing from the
        reconstructed log.  Merge *results* never depend on the ledger,
        so payloads carrying ledger state load fine into ledger-free runs
        (the state is just ignored).
        """
        version = saved.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version!r} is not supported: this "
                f"TMerge build resumes only version {CHECKPOINT_VERSION}"
            )
        if ledger is not None and saved.get("ledger") is None:
            raise ValueError(
                "checkpoint carries no decision-ledger state; resuming it "
                "with a ledger attached would silently drop every "
                "pre-crash decision event — resume without a ledger, or "
                "re-run from scratch"
            )
        saved_batch = saved.get("batch")
        if saved_batch != self.effective_batch:
            raise ValueError(
                f"checkpoint was written with batch={saved_batch!r} but "
                f"this run uses batch={self.effective_batch!r}; resuming "
                "across batch sizes would diverge from the interrupted run"
            )

    # ------------------------------------------------------------------
    def _select_batch(
        self,
        live: np.ndarray,
        successes: np.ndarray,
        failures: np.ndarray,
        rng: np.random.Generator,
        classes: PosteriorClassIndex | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Thompson-sample the live arms; return the B chosen arms + draws.

        Without a class index (windows below
        :data:`~repro.core.thompson.GROUP_MIN_LIVE` live arms) one
        vectorized Beta draw covers every live arm and the B smallest θ
        are taken via argpartition, ordered by θ — the stream-exact
        historical draw.  With one, the index draws per posterior class
        (exact in distribution, DESIGN.md §6.2).  Returns
        ``(arm_indices, theta_values)`` as parallel arrays ordered by θ —
        the θ values are a pure read-out of draws already made (the
        ledger records them without consuming any extra RNG).
        """
        take = min(self.effective_batch, live.size)
        if classes is not None:
            return classes.select(successes, failures, rng, take)
        theta = rng.beta(successes[live], failures[live])
        order = np.argpartition(theta, take - 1)[:take]
        order = order[np.argsort(theta[order])]
        return live[order], theta[order]

    def _evaluate_batch(
        self,
        pairs: list[TrackPair],
        selected: np.ndarray,
        scorer: ReidScorer,
        rng: np.random.Generator,
    ) -> tuple[list[int], np.ndarray]:
        """Draw one BBox pair per selected arm and score them in one call.

        Returns ``(owners, d_norms)``: the observed arms in selection
        order (exhausted arms are skipped) and their d̃.  Goes through the
        scorer's normalized entry point so the non-finite defense (and,
        when wrapped, the resilience layer) covers every observation.
        BBox sampling stays a per-arm loop: rejection sampling is data-
        dependent, and the loop preserves the historical RNG draw order.
        """
        requests = []
        owners = []
        for arm in selected.tolist():
            pair = pairs[arm]
            if pair.exhausted:
                continue
            ia, ib = pair.sample_bbox_pair(rng)
            requests.append((pair.track_a, ia, pair.track_b, ib))
            owners.append(arm)
        if not requests:
            return owners, np.empty(0, dtype=np.float64)
        d_norms = scorer.normalized_distances_batched(
            requests, batch_size=self.batch_size
        )
        return owners, np.asarray(d_norms, dtype=np.float64)

    def _finalize(
        self,
        pairs: list[TrackPair],
        successes: np.ndarray,
        failures: np.ndarray,
        pruner: UlbPruner | None,
        budget: int,
        elapsed: float,
        iterations: int,
        regret: RegretTracker | None,
        degraded: bool,
        telemetry: Telemetry,
    ) -> MergeResult:
        """Rank by posterior mean, honouring ULB accept/reject verdicts.

        In a degraded run many posteriors still sit at their BetaInit
        priors, so ties are broken by spatial distance — with *zero*
        observations this reduces exactly to the spatial-prior-only
        ranking, the documented degradation floor.
        """
        posterior_means = successes / (successes + failures)
        scores = {
            pair.key: float(posterior_means[i])
            for i, pair in enumerate(pairs)
        }

        accepted = pruner.accepted if pruner is not None else set()
        rejected = pruner.rejected if pruner is not None else set()

        chosen = sorted(accepted, key=lambda a: posterior_means[a])[:budget]
        chosen_set = set(chosen)
        if len(chosen) < budget:
            if degraded:
                spatial = np.array(
                    [pair.spatial_distance for pair in pairs]
                )
                order = np.lexsort((spatial, posterior_means))
            else:
                order = np.argsort(posterior_means, kind="stable")
            fill = [
                i
                for i in order
                if i not in chosen_set and i not in rejected
            ]
            chosen.extend(int(i) for i in fill[: budget - len(chosen)])

        extra = {
            "ulb_accepted": float(len(accepted)),
            "ulb_rejected": float(len(rejected)),
        }
        if regret is not None:
            extra["average_regret"] = regret.average
            extra["cumulative_regret"] = regret.cumulative

        telemetry.record(
            EVENT_FINAL,
            chosen=[int(i) for i in chosen],
            means=[float(m) for m in posterior_means],
            ulb_accepted=sorted(int(a) for a in accepted),
            ulb_rejected=sorted(int(a) for a in rejected),
            n_pairs=len(pairs),
            iterations=int(iterations),
            degraded=bool(degraded),
        )

        return MergeResult(
            method=self.name,
            candidates=[pairs[i] for i in chosen],
            scores=scores,
            n_pairs=len(pairs),
            k=self.k,
            simulated_seconds=elapsed,
            iterations=iterations,
            extra=extra,
            degraded=degraded,
        )
