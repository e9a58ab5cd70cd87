"""Coefficient data for the dilation equation f(x) + f(a1 x) + ... + f(aN x) = 0.

Holds the multiplicative factors, their normalization to 1 < a1 < ... < aN,
the bridge to additive shifts b_k = ln(a_k), and the regularity index: the
least exponent m making sum((a_k / aN)**m, k=0..N-1) a contraction.  Any
solution that is C^m near 0 must vanish there, so m bounds the attainable
smoothness of nonzero solutions.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ._frozen import Frozen
from .errors import (
    DuplicateEntry,
    EmptyInput,
    InvalidInput,
    Nonconvergence,
    UnitEntry,
)

__all__ = [
    "CoefficientVector",
    "ShiftVector",
    "RegularityIndex",
    "normalize",
    "to_additive",
    "regularity_index",
]


class CoefficientVector(Frozen):
    """Normalized dilation factors 1 < a1 < ... < aN (a0 = 1 is implicit)."""

    __slots__ = ("entries",)
    entries: tuple[float, ...]

    def __init__(self, entries: tuple[float, ...]) -> None:
        super().__init__(entries)
        if len(self.entries) == 0:
            raise EmptyInput("coefficient vector must have at least one entry")
        if not all(math.isfinite(v) for v in self.entries):
            raise InvalidInput("coefficients must be finite")
        if self.entries[0] <= 1.0:
            raise InvalidInput(
                f"normalized coefficients must start above 1, got {self.entries[0]}"
            )
        for lo, hi in zip(self.entries, self.entries[1:]):
            if not hi > lo:
                raise InvalidInput("coefficients must be strictly increasing")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class ShiftVector(Frozen):
    """Additive shifts 0 < b1 < ... < bN (b0 = 0 is implicit)."""

    __slots__ = ("entries",)
    entries: tuple[float, ...]

    def __init__(self, entries: tuple[float, ...]) -> None:
        super().__init__(entries)
        if len(self.entries) == 0:
            raise EmptyInput("shift vector must have at least one entry")
        if not all(math.isfinite(v) for v in self.entries):
            raise InvalidInput("shifts must be finite")
        if self.entries[0] <= 0.0:
            raise InvalidInput("shifts must be positive")
        for lo, hi in zip(self.entries, self.entries[1:]):
            if not hi > lo:
                raise InvalidInput("shifts must be strictly increasing")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def largest(self) -> float:
        return self.entries[-1]


class RegularityIndex(Frozen):
    """Least m with sum((a_k/aN)**m, k=0..N-1) < 1, plus dissection bounds.

    ``contraction`` stores that sum at the minimizing m; ``lower_bound`` and
    ``upper_bound`` are aN/(2*max_gap) - 1 and aN/min_gap over the consecutive
    gaps of (1, a1, ..., aN), reported unclamped.
    """

    __slots__ = ("m", "contraction", "lower_bound", "upper_bound")
    m: int
    contraction: float
    lower_bound: float
    upper_bound: float


def _as_floats(raw: Iterable[float]) -> list[float]:
    try:
        values = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"coefficients must be real numbers: {exc}") from exc
    return values


def normalize(raw: Sequence[float]) -> CoefficientVector:
    """Bring raw dilation factors to the canonical form 1 < a1 < ... < aN.

    If the smallest factor a1 is below 1, the substitution y = a1*x turns the
    equation into an equivalent one with factors {a_k/a1 : k >= 2} and 1/a1,
    all above 1.  Duplicates are detected by exact comparison.
    """
    values = _as_floats(raw)
    if not values:
        raise EmptyInput("no coefficients given")
    if not all(math.isfinite(v) for v in values):
        raise InvalidInput("coefficients must be finite")
    if any(v <= 0.0 for v in values):
        raise InvalidInput("coefficients must be positive")
    if any(v == 1.0 for v in values):
        raise UnitEntry("coefficient equal to 1 is not allowed")
    if len(set(values)) != len(values):
        raise DuplicateEntry("coefficients must be pairwise distinct")

    values.sort()
    smallest = values[0]
    if smallest < 1.0:
        values = sorted([v / smallest for v in values[1:]] + [1.0 / smallest])
        # distinct factors can round to one quotient: keep them an ulp apart
        for i in range(1, len(values)):
            if values[i] <= values[i - 1]:
                values[i] = math.nextafter(values[i - 1], math.inf)
        # a subnormal smallest factor sends 1 / smallest past the largest float
        if not math.isfinite(values[-1]):
            raise InvalidInput("coefficients overflow when divided by the smallest one")
    return CoefficientVector(tuple(values))


def to_additive(a: CoefficientVector) -> ShiftVector:
    """Shifts b_k = ln(a_k) of the additive form g(w) + sum g(w + b_k) = 0."""
    return ShiftVector(tuple(math.log(v) for v in a.entries))


def _gaps(a: CoefficientVector) -> list[float]:
    pts = (1.0,) + a.entries
    return [hi - lo for lo, hi in zip(pts, pts[1:])]


def regularity_index(a: CoefficientVector) -> RegularityIndex:
    """Compute m(a), the least m >= 1 whose ratio sum is below 1, by bisection.

    The ratio sum falls as m grows, and it is provably below 1 by aN/min_gap,
    so m is bisected on [1, ceil(aN/min_gap) + 1]: about log2 of that bound
    sums, where stepping m upward took up to the bound itself (4.5e15 sums
    for factors within 1e-15 of 1).  A sum still >= 1 at the top signals a
    numerical inconsistency and raises ``Nonconvergence``; a bound that
    overflows raises ``InvalidInput``.
    """
    entries = a.entries
    a_n = entries[-1]
    ratios = [1.0 / a_n] + [v / a_n for v in entries[:-1]]
    gaps = _gaps(a)
    upper = a_n / min(gaps)
    lower = 0.5 * a_n / max(gaps) - 1.0
    if not math.isfinite(upper):
        raise InvalidInput("the bound aN/min_gap overflows: factors too close for their size")

    def total(m: int) -> float:
        return sum(r**m for r in ratios)

    limit = int(math.ceil(upper)) + 1
    if not total(limit) < 1.0:
        raise Nonconvergence(
            f"ratio sum still >= 1 at m = {limit}, beyond the bound {upper:.6g}"
        )
    # total(hi) < 1 throughout; lo is 0 or an m with total(lo) >= 1
    lo, hi = 0, limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return RegularityIndex(m=hi, contraction=total(hi), lower_bound=lower, upper_bound=upper)
