"""Opt-in runtime contracts for the TMerge stack's numeric invariants.

The linter (:mod:`repro.lint`) enforces *structural* invariants
statically; this module enforces the *numeric* ones dynamically — but
only when ``REPRO_CHECK_INVARIANTS=1`` is set in the environment, so
benchmarks pay nothing.  The checked invariants, with their paper
anchors:

* Beta posterior parameters stay strictly positive (§IV posterior
  update — ``Be(S, F)`` is undefined otherwise and ``rng.beta`` would
  raise or return NaN).
* Normalized ReID distances satisfy ``d̃ ∈ [0, 1]`` (Definition 3.1 —
  the Bernoulli quantization ``P[success] = d̃`` needs a probability).
* The candidate budget obeys ``0 ≤ ⌈K·|P_c|⌉ ≤ |P_c|``.
* :class:`~repro.core.ulb.UlbPruner` keeps its accepted and rejected
  sets disjoint and in range (Algorithm 4 — an arm cannot be both
  certainly inside and certainly outside the top-K).
* The grouped Thompson draw's class index equals a rebuild from the
  window state, and its selections are distinct live arms with
  ``θ ∈ [0, 1]`` (§IV Thompson step, DESIGN.md §6.2).
* The window length satisfies ``L ≥ 2·L_max`` when a maximum track
  length is declared (§II — guarantees a fragmented GT track cannot
  out-span two consecutive windows).

Call sites guard with ``if contracts.ENABLED:`` so the disabled path
costs one attribute load; every check also early-returns when disabled,
making stray unguarded calls harmless.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

#: Environment variable that switches the contract layer on.
ENV_VAR = "REPRO_CHECK_INVARIANTS"

_FALSY = frozenset({"", "0", "false", "False", "no", "off"})


class ContractViolation(AssertionError):
    """A runtime invariant of the TMerge stack was broken."""


def _env_enabled() -> bool:
    """Whether the environment requests contract checking."""
    return os.environ.get(ENV_VAR, "") not in _FALSY


#: Module-level switch, resolved once at import from :data:`ENV_VAR`.
#: Tests flip it through :func:`set_enabled`.
ENABLED: bool = _env_enabled()


def enabled() -> bool:
    """Whether contract checks are currently active."""
    return ENABLED


def set_enabled(flag: bool) -> bool:
    """Set the contract switch; returns the previous value (for tests)."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(flag)
    return previous


def refresh_from_env() -> bool:
    """Re-read :data:`ENV_VAR` (after an ``os.environ`` change); returns
    the new switch state."""
    set_enabled(_env_enabled())
    return ENABLED


def check_beta_params(
    successes: np.ndarray, failures: np.ndarray, where: str = "posterior"
) -> None:
    """Beta shape parameters must be strictly positive and finite.

    Raises:
        ContractViolation: when any ``S`` or ``F`` is ≤ 0, NaN or inf.
    """
    if not ENABLED:
        return
    successes = np.asarray(successes, dtype=np.float64)
    failures = np.asarray(failures, dtype=np.float64)
    if successes.shape != failures.shape:
        raise ContractViolation(
            f"{where}: successes shape {successes.shape} != failures "
            f"shape {failures.shape}"
        )
    for label, params in (("successes", successes), ("failures", failures)):
        if params.size and not np.all(np.isfinite(params) & (params > 0.0)):
            bad = int(np.argmin(np.isfinite(params) & (params > 0.0)))
            raise ContractViolation(
                f"{where}: Beta {label} must be strictly positive and "
                f"finite; index {bad} holds {params.flat[bad]!r}"
            )


def check_normalized_distance(
    value: float | np.ndarray, where: str = "d_norm"
) -> None:
    """Normalized distances must lie in ``[0, 1]`` (Definition 3.1).

    Raises:
        ContractViolation: when any value is outside ``[0, 1]`` or NaN.
    """
    if not ENABLED:
        return
    values = np.asarray(value, dtype=np.float64)
    inside = np.isfinite(values) & (values >= 0.0) & (values <= 1.0)
    if values.size and not np.all(inside):
        bad = int(np.argmin(inside))
        raise ContractViolation(
            f"{where}: normalized distance must be in [0, 1]; got "
            f"{values.flat[bad]!r}"
        )


def check_top_k_budget(budget: int, n_pairs: int, where: str = "top_k") -> None:
    """The candidate budget obeys ``0 ≤ budget ≤ n_pairs``.

    Raises:
        ContractViolation: when the budget is negative or exceeds the
            pair count.
    """
    if not ENABLED:
        return
    if not 0 <= budget <= n_pairs:
        raise ContractViolation(
            f"{where}: candidate budget {budget} outside [0, {n_pairs}]"
        )


def check_ulb_partition(
    accepted: Iterable[int],
    rejected: Iterable[int],
    n_arms: int,
    where: str = "UlbPruner",
) -> None:
    """Accepted/rejected arm sets are disjoint subsets of the arm range.

    Raises:
        ContractViolation: on overlap or out-of-range arm indices.
    """
    if not ENABLED:
        return
    accepted = set(accepted)
    rejected = set(rejected)
    overlap = accepted & rejected
    if overlap:
        raise ContractViolation(
            f"{where}: arms {sorted(overlap)} both accepted and rejected"
        )
    out_of_range = [
        arm for arm in sorted(accepted | rejected) if not 0 <= arm < n_arms
    ]
    if out_of_range:
        raise ContractViolation(
            f"{where}: arm indices {out_of_range} outside "
            f"[0, {n_arms})"
        )


def check_class_index(
    index: object | None,
    successes: np.ndarray,
    failures: np.ndarray,
    eligible: np.ndarray,
    live: np.ndarray,
    selected: np.ndarray,
    theta: np.ndarray,
    where: str = "PosteriorClassIndex",
) -> None:
    """The grouped Thompson draw's index and its last selection are sound.

    ``index`` (a :class:`~repro.core.thompson.PosteriorClassIndex`, or
    ``None`` when the window draws per arm) must equal a rebuild from
    ``(S, F, eligible)``; the ``selected`` arms must be distinct members
    of ``live``, the live set they were drawn from; and every ``theta``
    must lie in ``[0, 1]``.

    Raises:
        ContractViolation: on a stale index, a repeated or non-live
            selected arm, or a θ outside ``[0, 1]``.
    """
    if not ENABLED:
        return
    if index is not None:
        rebuilt = type(index)(successes, failures, eligible)
        if index.state() != rebuilt.state():  # type: ignore[attr-defined]
            raise ContractViolation(
                f"{where}: class index differs from a rebuild from "
                "(S, F, eligible)"
            )
    selected = np.asarray(selected, dtype=np.int64)
    if np.unique(selected).size != selected.size:
        raise ContractViolation(
            f"{where}: selected arms {selected.tolist()} repeat an arm"
        )
    stale = selected[~np.isin(selected, live)]
    if stale.size:
        raise ContractViolation(
            f"{where}: selected arms {stale.tolist()} were not live"
        )
    theta = np.asarray(theta, dtype=np.float64)
    inside = np.isfinite(theta) & (theta >= 0.0) & (theta <= 1.0)
    if not np.all(inside):
        raise ContractViolation(
            f"{where}: Thompson draw {theta[~inside][0]!r} outside [0, 1]"
        )


def check_window_length(
    window_length: int, l_max: int, where: str = "partition_windows"
) -> None:
    """The §II window constraint ``L ≥ 2·L_max``.

    Raises:
        ContractViolation: when windows are too short for the declared
            maximum track length, so a fragmented GT track could span
            more than two consecutive windows.
    """
    if not ENABLED:
        return
    if l_max < 1:
        raise ContractViolation(f"{where}: l_max must be >= 1, got {l_max}")
    if window_length < 2 * l_max:
        raise ContractViolation(
            f"{where}: window length {window_length} violates "
            f"L >= 2*L_max = {2 * l_max}"
        )


def check_shard_cover(
    covered: Iterable[int],
    expected: Iterable[int],
    where: str = "parallel",
) -> None:
    """Shard outputs must cover every expected window exactly once.

    The parallel engine (:mod:`repro.parallel`) asserts that the
    reassembled window outcomes form a partition of the busy windows:
    no window lost, none computed twice, none invented.

    Raises:
        ContractViolation: on duplicated, missing or unexpected window
            indices.
    """
    if not ENABLED:
        return
    seen: set[int] = set()
    duplicates: set[int] = set()
    for index in covered:
        if index in seen:
            duplicates.add(index)
        seen.add(index)
    if duplicates:
        raise ContractViolation(
            f"{where}: windows {sorted(duplicates)} produced by more than "
            "one shard"
        )
    expected_set = set(expected)
    missing = expected_set - seen
    if missing:
        raise ContractViolation(
            f"{where}: windows {sorted(missing)} missing from shard outputs"
        )
    extra = seen - expected_set
    if extra:
        raise ContractViolation(
            f"{where}: unexpected windows {sorted(extra)} in shard outputs"
        )


#: Legal circuit-breaker transitions (see DESIGN.md §10): the breaker may
#: trip from closed, cool down from open, and resolve a trial either way.
LEGAL_BREAKER_TRANSITIONS = frozenset(
    {
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
        ("half_open", "open"),
    }
)


def check_finite_distance(
    value: float, where: str = "distance"
) -> None:
    """Raw ReID distances must be finite (no NaN/inf from corruption).

    Raises:
        ContractViolation: when ``value`` is NaN or infinite.
    """
    if not ENABLED:
        return
    if not np.isfinite(value):
        raise ContractViolation(
            f"{where}: non-finite ReID distance {value!r} (corrupted "
            "feature reached the scoring layer)"
        )


def check_breaker_transition(
    old_state: str, new_state: str, where: str = "CircuitBreaker"
) -> None:
    """Circuit-breaker state changes must follow the three-state machine.

    Raises:
        ContractViolation: when ``old_state → new_state`` is not in
            :data:`LEGAL_BREAKER_TRANSITIONS`.
    """
    if not ENABLED:
        return
    if (old_state, new_state) not in LEGAL_BREAKER_TRANSITIONS:
        raise ContractViolation(
            f"{where}: illegal breaker transition {old_state!r} -> "
            f"{new_state!r}"
        )


def _deep_equal(left: object, right: object) -> bool:
    """Structural equality for JSON-able payloads (no float coercion)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        if left.keys() != right.keys():  # type: ignore[union-attr]
            return False
        return all(
            _deep_equal(value, right[key])  # type: ignore[index]
            for key, value in left.items()
        )
    if isinstance(left, (list, tuple)):
        if len(left) != len(right):  # type: ignore[arg-type]
            return False
        return all(
            _deep_equal(a, b)
            for a, b in zip(left, right)  # type: ignore[call-overload]
        )
    return left == right


def check_checkpoint_roundtrip(
    original: dict, restored: dict, where: str = "checkpoint"
) -> None:
    """A checkpoint must deep-equal its own serialization round-trip.

    Floats must round-trip exactly (JSON repr is lossless for IEEE
    doubles) and container types must be preserved — otherwise a resumed
    window could diverge from the uninterrupted run.

    Raises:
        ContractViolation: when the round-tripped payload differs.
    """
    if not ENABLED:
        return
    if not _deep_equal(original, restored):
        raise ContractViolation(
            f"{where}: checkpoint payload does not survive its "
            "serialization round-trip"
        )


def check_windows_partition(
    windows: Iterable[object], n_frames: int, where: str = "windows"
) -> None:
    """Window ownership regions tile ``[0, n_frames)`` exactly once.

    Every frame must fall in exactly one window's first half (the
    region that owns new tracks), which is what makes Eq. 1's pair sets
    consider every unordered track pair exactly once.

    Raises:
        ContractViolation: on gaps or overlaps in the ownership tiling.
    """
    if not ENABLED:
        return
    cursor = 0
    for window in windows:
        start = window.start  # type: ignore[attr-defined]
        ownership_end = window.ownership_end  # type: ignore[attr-defined]
        if start != cursor:
            raise ContractViolation(
                f"{where}: window {window.index} ownership starts at "  # type: ignore[attr-defined]
                f"{start}, expected {cursor}"
            )
        cursor = ownership_end
    if cursor < n_frames:
        raise ContractViolation(
            f"{where}: ownership tiling ends at {cursor}, leaving frames "
            f"up to {n_frames} unowned"
        )


def check_open_window_bound(
    n_open: int, bound: int, where: str = "streaming"
) -> None:
    """Resident open-window count respects the configured memory bound.

    The streaming service's whole point is that memory is bounded by the
    number of simultaneously open windows, never by feed length; this
    trips the moment eviction falls behind.

    Raises:
        ContractViolation: when ``n_open`` exceeds ``bound``.
    """
    if not ENABLED:
        return
    if n_open > bound:
        raise ContractViolation(
            f"{where}: {n_open} windows resident, bound is {bound} — "
            "either eviction fell behind the watermark, or a track "
            "outlived bound*stride frames and its owner window cannot "
            "close; size max_open_windows above the longest expected "
            "track span divided by the window stride"
        )


def check_watermark_monotonic(
    previous: int, current: int, where: str = "streaming"
) -> None:
    """The watermark never moves backwards.

    Every window-close decision is justified by "no more frames at or
    before the watermark will arrive"; a regression would re-admit
    already-finalized frames and corrupt window contents.

    Raises:
        ContractViolation: when ``current`` is below ``previous``.
    """
    if not ENABLED:
        return
    if current < previous:
        raise ContractViolation(
            f"{where}: watermark regressed from {previous} to {current}"
        )
