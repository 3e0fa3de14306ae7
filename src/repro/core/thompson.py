"""Grouped Thompson draws: sample each posterior class, not every live arm.

Every TMerge posterior has integer shape parameters — BetaInit starts an
arm at ``Be(1, 1)`` or ``Be(1, 2)`` and each observation adds 1 to one
side — so on a large window thousands of live arms share a few dozen
``(S, F)`` states.  Arms in one state are exchangeable, and a Thompson
iteration only needs the ``B`` smallest of the live arms' θ.  The
:class:`PosteriorClassIndex` therefore draws per class instead of per arm
(the threshold method, DESIGN.md §6.2):

1. Pick the first point ``x*`` of a fixed geometric grid at which the
   expected number of draws at or below it, ``Σ_c m_c·I_{x*}(S_c, F_c)``,
   reaches ``2B``.  ``I_x(S, F) = P(Bin(S+F−1, x) ≥ S)`` is the Beta CDF
   for integer shapes, memoised per class on the grid.
2. Per class of ``m_c`` arms, the number of arms whose θ falls at or
   below ``x*`` is ``K_c ~ Bin(m_c, I_{x*})``; draw those ``K_c`` values
   from ``Be(S, F)`` truncated to ``[0, x*]``.
3. If fewer than ``B`` values are known to lie at or below the threshold,
   raise it to a higher grid point and draw, for the arms still unvalued,
   the count and values falling in the new slice ``(lo, hi]`` — at the
   top of the grid (``hi = 1``) every remaining arm gets its value.
4. The ``B`` smallest known values are the ``B`` smallest θ overall; each
   value a class contributes goes to a distinct member chosen uniformly.

This is exact in distribution: the selected arms, in θ order, and their
θ follow the same law as one independent ``Be(S_i, F_i)`` draw per live
arm followed by the ``B`` smallest.  It is not stream-exact — it consumes
the RNG differently from per-arm drawing — so TMerge takes this path only
on windows with at least :data:`GROUP_MIN_LIVE` live arms.  Arms with a
shape of :data:`HEAVY_SHAPE` or more are "heavy" and get their own
``rng.beta`` draw.

The index is derived state: it is a pure function of ``(S, F, eligible)``
and every draw visits classes in sorted ``(S, F)`` order with uniforms
drawn in fresh blocks, so the RNG stream depends only on that state and
the generator — a checkpoint resume rebuilds it and continues bit-exactly.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right, insort
from typing import Callable, Iterable, Iterator

import numpy as np

#: Windows with at least this many live arms take the grouped draw.  The
#: per-arm ``rng.beta`` draw is one numpy call whose cost grows with the
#: live-arm count; the grouped draw costs about the same for any count.
#: They cross near 1,024 live arms (EXPERIMENTS.md, grouped Thompson
#: draws), so smaller windows keep the per-arm draw bit for bit.
GROUP_MIN_LIVE = 1024

#: Arms with ``S`` or ``F`` at least this large get their own draw.
HEAVY_SHAPE = 32

#: Threshold grid: ``2^(-30) … 2^(-1/2)`` in steps of ``√2``, then 1.
GRID: tuple[float, ...] = tuple(
    [2.0 ** (-j / 2.0) for j in range(60, 0, -1)] + [1.0]
)
_TOP = len(GRID) - 1

#: Uniforms drawn per block; a selection draws fresh blocks as it needs.
_BLOCK = 128

#: Above this mean a class's binomial count comes from ``rng.binomial``
#: instead of inversion (whose loop grows with the mean).
_INVERSION_MAX_MEAN = 32.0

#: The power proposal is used while its acceptance stays above this
#: bound; below it, truncated values come from ``rng.beta`` rejection.
_MIN_ACCEPT = 0.25

Shape = tuple[int, int]


@functools.cache
def beta_cdf_table(shape: Shape) -> tuple[list[float], list[float]]:
    """``(I, J)``: the ``Be(S, F)`` CDF and its complement on :data:`GRID`.

    For integer shapes ``I_x(S, F) = P(Bin(S+F−1, x) ≥ S)``, summed from
    ``math.lgamma`` binomial terms; ``J = 1 − I`` is summed directly too,
    so neither loses precision near 0.  Memoised per shape (a pure
    function of it); callers must not mutate the lists.
    """
    s, f = shape
    n = s + f - 1
    log_choose = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        for k in range(n + 1)
    ]
    lower: list[float] = []
    upper: list[float] = []
    for x in GRID[:-1]:
        log_x = math.log(x)
        log_1mx = math.log1p(-x)
        terms = [
            math.exp(log_choose[k] + k * log_x + (n - k) * log_1mx)
            for k in range(n + 1)
        ]
        # Clamped monotone, so expected counts are monotone on the grid
        # and every search for a threshold finds the same point.
        lower.append(min(1.0, max(lower[-1:] + [math.fsum(terms[s:])])))
        upper.append(min(upper[-1:] + [math.fsum(terms[:s]), 1.0]))
    lower.append(1.0)
    upper.append(0.0)
    return lower, upper


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """Uniforms on [0, 1), drawn from ``rng`` in fresh blocks on demand."""
    while True:
        yield from rng.random(_BLOCK).tolist()


def _binomial(
    n: int, p: float, uniform: Callable[[], float], rng: np.random.Generator
) -> int:
    """One ``Bin(n, p)`` draw: inversion for small means, else numpy."""
    if p <= 0.0 or n == 0:
        return 0
    if p >= 1.0:
        return n
    if n * p > _INVERSION_MAX_MEAN:
        return int(rng.binomial(n, p))
    pmf = (1.0 - p) ** n
    target = uniform()
    cdf = pmf
    ratio = p / (1.0 - p)
    k = 0
    while target >= cdf and k < n:
        pmf *= (n - k) / (k + 1) * ratio
        k += 1
        cdf += pmf
    return k


def _truncated_beta(
    shape: Shape,
    lo_j: int,
    hi_j: int,
    count: int,
    uniform: Callable[[], float],
    rng: np.random.Generator,
) -> list[float]:
    """``count`` draws of ``Be(S, F)`` truncated to ``(GRID[lo_j], GRID[hi_j]]``
    (``lo_j = -1`` means a lower end of 0).

    Proposes from the ``x^(S−1)`` factor by inversion and accepts with
    probability ``((1−x)/(1−lo))^(F−1)`` while that acceptance stays
    above :data:`_MIN_ACCEPT`; otherwise (and always for ``hi = 1``)
    draws ``rng.beta`` blocks and keeps the values inside the slice.
    """
    s, f = shape
    lo = GRID[lo_j] if lo_j >= 0 else 0.0
    hi = GRID[hi_j]
    values: list[float] = []
    if hi_j < _TOP and ((1.0 - hi) / (1.0 - lo)) ** (f - 1) >= _MIN_ACCEPT:
        lo_pow = lo**s
        span = hi**s - lo_pow
        inv_s = 1.0 / s
        while len(values) < count:
            x = (lo_pow + span * uniform()) ** inv_s
            if f == 1 or uniform() <= ((1.0 - x) / (1.0 - lo)) ** (f - 1):
                values.append(x)
        return values
    upper = beta_cdf_table(shape)[1]
    mass = (upper[lo_j] if lo_j >= 0 else 1.0) - upper[hi_j]
    while len(values) < count:
        need = count - len(values)
        size = min(int(need / max(mass, 1e-6) * 1.25) + 4, 1 << 16)
        block = rng.beta(s, f, size=size)
        keep = block[(block > lo) & (block <= hi)]
        values.extend(keep[:need].tolist())
    return values


def _shape_of(s: float, f: float) -> Shape | None:
    """The class of an arm, or ``None`` when it is heavy.  A non-integer
    shape (only a hand-edited checkpoint could hold one) is drawn as
    heavy too, so the class tables are never applied to it."""
    si, fi = int(s), int(f)
    if si != s or fi != f or si >= HEAVY_SHAPE or fi >= HEAVY_SHAPE:
        return None
    return (si, fi)


class PosteriorClassIndex:
    """The live arms of a window, grouped by posterior shape ``(S, F)``.

    Each class keeps its members sorted by arm index; heavy arms (a shape
    of :data:`HEAVY_SHAPE` or more, or a non-integer one) are kept apart
    and drawn one by one.  Build it from the window state, keep it
    current with :meth:`discard` and :meth:`add` as arms change shape or
    leave the live set, and draw with :meth:`select`.
    """

    def __init__(
        self,
        successes: np.ndarray,
        failures: np.ndarray,
        eligible: np.ndarray,
    ) -> None:
        self._members: dict[Shape, list[int]] = {}
        self._shapes: list[Shape] = []
        self._heavy: list[int] = []
        # Where the last threshold search ended (a search start only).
        self._hint = 0
        live = np.nonzero(eligible)[0].tolist()
        for arm, s, f in zip(
            live, successes[live].tolist(), failures[live].tolist()
        ):
            shape = _shape_of(s, f)
            if shape is None:
                self._heavy.append(arm)
            else:
                self._members.setdefault(shape, []).append(arm)
        self._shapes = sorted(self._members)

    def state(self) -> tuple[dict[Shape, list[int]], list[int]]:
        """The index as ``(members per shape, heavy arms)``, for checks."""
        return (
            {shape: list(arms) for shape, arms in self._members.items()},
            list(self._heavy),
        )

    def discard(
        self, arms: Iterable[int], successes: np.ndarray, failures: np.ndarray
    ) -> None:
        """Remove live arms, each filed under its current shape."""
        for arm in arms:
            arm = int(arm)
            shape = _shape_of(float(successes[arm]), float(failures[arm]))
            if shape is None:
                self._heavy.pop(bisect_left(self._heavy, arm))
                continue
            members = self._members[shape]
            members.pop(bisect_left(members, arm))
            if not members:
                del self._members[shape]
                self._shapes.pop(bisect_left(self._shapes, shape))

    def add(
        self, arms: Iterable[int], successes: np.ndarray, failures: np.ndarray
    ) -> None:
        """File arms under their current shape."""
        for arm in arms:
            arm = int(arm)
            shape = _shape_of(float(successes[arm]), float(failures[arm]))
            if shape is None:
                insort(self._heavy, arm)
                continue
            members = self._members.get(shape)
            if members is None:
                self._members[shape] = [arm]
                insort(self._shapes, shape)
            else:
                insort(members, arm)

    def select(
        self,
        successes: np.ndarray,
        failures: np.ndarray,
        rng: np.random.Generator,
        take: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``take`` live arms with the smallest θ, and their θ.

        Returns ``(arm_indices, theta_values)`` ordered by θ, distributed
        as one independent ``Be(S_i, F_i)`` draw per live arm followed by
        the ``take`` smallest.
        """
        shapes = self._shapes
        groups = [self._members[shape] for shape in shapes]
        sizes = [len(members) for members in groups]
        tables = [beta_cdf_table(shape) for shape in shapes]
        heavy: list[tuple[float, int, int]] = []
        if self._heavy:
            arms = np.asarray(self._heavy, dtype=np.int64)
            draws = rng.beta(successes[arms], failures[arms]).tolist()
            heavy = sorted(zip(draws, [-1] * len(draws), self._heavy))
        heavy_theta = [value for value, _, _ in heavy]
        uniform = _uniforms(rng).__next__

        def reaches(j: int, target: float) -> bool:
            # Whether the expected class draws at or below GRID[j] reach
            # ``target``; monotone in j (see beta_cdf_table).
            if j == _TOP:
                return True
            expected = 0.0
            for size, (lower, _) in zip(sizes, tables):
                expected += size * lower[j]
            return expected >= target

        def first_point(start: int, target: float) -> int:
            # The first grid index ≥ start that reaches ``target``, walked
            # from the last answer: consecutive selections mostly land on
            # the same point, and the answer is unique, so where the walk
            # starts never changes it.
            j = max(start, min(self._hint, _TOP))
            if reaches(j, target):
                while j > start and reaches(j - 1, target):
                    j -= 1
            else:
                j += 1
                while not reaches(j, target):
                    j += 1
            return j

        target = 2.0 * take
        remaining = list(sizes)
        drawn: list[tuple[float, int, int]] = []
        lo_j = -1
        hi_j = self._hint = first_point(0, target)
        while True:
            for c, (lower, upper) in enumerate(tables):
                left = remaining[c]
                if not left:
                    continue
                # P(θ in this slice | θ above the last one), differenced
                # on whichever tail keeps its precision.
                if hi_j == _TOP:
                    share = 1.0
                elif lo_j < 0:
                    share = lower[hi_j]
                elif lower[hi_j] < 0.5:
                    share = (lower[hi_j] - lower[lo_j]) / upper[lo_j]
                else:
                    share = (upper[lo_j] - upper[hi_j]) / upper[lo_j]
                k = _binomial(left, share, uniform, rng)
                if k:
                    remaining[c] = left - k
                    for value in _truncated_beta(
                        shapes[c], lo_j, hi_j, k, uniform, rng
                    ):
                        drawn.append((value, c, -1))
            known = len(drawn) + bisect_right(heavy_theta, GRID[hi_j])
            if known >= take or hi_j == _TOP:
                break
            lo_j = hi_j
            target *= 2.0
            hi_j = first_point(lo_j + 1, target)

        drawn.extend(heavy)
        drawn.sort()
        # Sparse Fisher–Yates per class: each class value goes to a
        # distinct member, uniformly, in θ order.
        handed: dict[int, int] = {}
        swaps: dict[int, dict[int, int]] = {}
        arms_out: list[int] = []
        theta_out: list[float] = []
        for value, c, arm in drawn[:take]:
            if c >= 0:
                members = groups[c]
                used = handed.get(c, 0)
                handed[c] = used + 1
                perm = swaps.setdefault(c, {})
                pick = used + int(uniform() * (len(members) - used))
                arm = members[perm.get(pick, pick)]
                perm[pick] = perm.get(used, used)
            arms_out.append(arm)
            theta_out.append(value)
        return (
            np.asarray(arms_out, dtype=np.int64),
            np.asarray(theta_out, dtype=np.float64),
        )
