"""Closed-form periodicity results: pure arithmetic, no array numerics.

Two families of the additive equation g(w) + sum g(w + b_k) = 0 have their
periodic frequencies in closed form: equispaced shifts (d, 2d, ..., nd), and
two shifts whose ratio is a rational p/q.  Neither needs numpy, so this
module imports only ``math``, the error types and the package's record
base ``Frozen``, and the command-line subcommands built on it start without
loading numpy.  ``periodicity`` re-exports every name defined here.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .errors import (
    GridBudgetExceeded,
    InvalidInput,
    NonPositiveScale,
    NotCoprime,
    ZeroDenominator,
)

__all__ = [
    "equispaced_alphas",
    "two_term_periodic_exists",
    "TwoTermVerdict",
]

#: longest frequency list, in m_max, checked before the list is built
MAX_FREQUENCIES = 1_000_000


def equispaced_alphas(n: int, d: float, m_max: int) -> list[float]:
    """Closed-form frequencies 2*m*pi/((n+1)*d) for shifts (d, 2d, ..., nd).

    Indices m that are multiples of n+1 make every phase a full turn and are
    excluded.  An ``m_max`` above ``MAX_FREQUENCIES`` raises
    GridBudgetExceeded before the list is built.  An n + 1 too large for a
    float, and frequencies that overflow (a subnormal d) or underflow to 0
    (an infinite (n+1)*d), raise InvalidInput.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if not math.isfinite(d):
        raise InvalidInput("spacing d must be finite")
    if not (d > 0.0):
        raise NonPositiveScale("spacing d must be positive")
    if m_max < 1:
        raise InvalidInput("m_max must be >= 1")
    if m_max > MAX_FREQUENCIES:
        raise GridBudgetExceeded(
            f"m_max = {m_max} exceeds the budget of {MAX_FREQUENCIES} frequencies"
        )
    try:
        span = (n + 1) * d
    except OverflowError as exc:
        raise InvalidInput("n + 1 is too large for a float") from exc
    if not math.isfinite(span):
        raise InvalidInput("(n + 1) * d overflows, so every frequency would read 0")
    alphas = [2.0 * m * math.pi / span for m in range(1, m_max + 1) if m % (n + 1) != 0]
    if alphas and not math.isfinite(alphas[-1]):
        raise InvalidInput("the frequencies overflow: the spacing d is too small")
    return alphas


class TwoTermVerdict(Frozen):
    """Decision for g(x) + g(x+a) + g(x+b) = 0 with a/b = p/q in lowest terms."""

    __slots__ = ("exists", "witness", "reason")
    exists: bool
    witness: tuple[int, int] | None
    reason: str

    def __bool__(self) -> bool:
        return self.exists


def two_term_periodic_exists(p: int, q: int) -> TwoTermVerdict:
    """Decide periodic solvability of the two-shift equation from p/q.

    Solvable exactly when {p mod 3, q mod 3} == {1, 2}; then p/q equals
    (2+3k)/(1+3m) or its reciprocal for integer k, m recovered directly from
    the residues.  Pure integer arithmetic throughout.
    """
    if q == 0:
        raise ZeroDenominator("q must be nonzero")
    if p < 1 or q < 1:
        raise InvalidInput("p and q must be positive integers")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"{p}/{q} is not in lowest terms")

    residues = (p % 3, q % 3)
    if residues == (2, 1):
        return TwoTermVerdict(True, ((p - 2) // 3, (q - 1) // 3), "p = 2+3k, q = 1+3m")
    if residues == (1, 2):
        return TwoTermVerdict(True, ((q - 2) // 3, (p - 1) // 3), "p = 1+3m, q = 2+3k")
    return TwoTermVerdict(
        False, None, f"residues mod 3 are {residues}, need one 1 and one 2"
    )
