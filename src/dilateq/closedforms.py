"""Closed-form periodicity results: pure arithmetic, no array numerics.

Two families of the additive equation g(w) + sum g(w + b_k) = 0 have their
periodic frequencies in closed form: equispaced shifts (d, 2d, ..., nd), and
two shifts whose ratio is a rational p/q.  The harmonic coupling matrix of
``fourier_matrix`` is a short sum of cosines and sines.  None of them needs
numpy, so this module imports only ``math``, the error types, the
package's record base ``Frozen`` and ``coefficients.ShiftVector``, and the
command-line subcommands built on it start without loading numpy.
``periodicity`` re-exports every name defined here.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .coefficients import ShiftVector
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
    "fourier_matrix",
    "FourierMatrix",
]

#: longest frequency list, in m_max, checked before the list is built
MAX_FREQUENCIES = 1_000_000

#: numpy sums at most this many terms with eight interleaved accumulators
#: before it halves a run (``PW_BLOCKSIZE``)
_PAIRWISE_BLOCK = 128


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


class FourierMatrix(Frozen):
    """2x2 matrix acting on the (cos, sin) coefficients of harmonic k."""

    __slots__ = ("entries",)
    entries: tuple[tuple[float, float], tuple[float, float]]

    @property
    def det(self) -> float:
        (a, b), (c, d) = self.entries
        return a * d - b * c


def _shift_list(b) -> list[float]:
    """Accept a ShiftVector or any sequence of positive finite shifts.

    Repeated shifts are allowed (unlike ShiftVector) so that degenerate cases
    such as g(w) + 2 g(w+a) = 0, i.e. shifts (a, a), can be handled.
    """
    entries = [float(v) for v in (b.entries if isinstance(b, ShiftVector) else b)]
    if not entries:
        raise InvalidInput("at least one shift required")
    if not all(math.isfinite(v) for v in entries):
        raise InvalidInput("shifts must be finite")
    if not all(v > 0.0 for v in entries):
        raise InvalidInput("shifts must be positive")
    return entries


def _pairwise(terms: list[float]) -> float:
    """numpy's pairwise sum of ``terms``, in its order."""
    n = len(terms)
    if n < 8:
        total = 0.0
        for v in terms:
            total += v
        return total
    if n <= _PAIRWISE_BLOCK:
        acc = terms[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                acc[j] += terms[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in terms[end:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise(terms[:half]) + _pairwise(terms[half:])


def _numpy_sum(terms: list[float]) -> float:
    """``np.sum`` of a float64 vector, bit for bit: left to right below 8
    terms, numpy's pairwise blocks above that, added to +0.0."""
    return 0.0 + _pairwise(terms)


def fourier_matrix(k: int, theta: float, b) -> FourierMatrix:
    """Matrix sending harmonic-k coefficients of g to those of the equation.

    The entries are 1 + sum cos(k theta b_j) and sum sin(k theta b_j), each
    summed in numpy's order, so they equal the numpy formula
    ``1 + np.cos(phases).sum()`` bit for bit wherever numpy takes float64
    cosines and sines from the C library, as ``math`` does.  A k * theta past
    the float range, or a non-finite phase, raises InvalidInput.
    """
    if k < 1:
        raise InvalidInput("harmonic index k must be >= 1")
    shifts = _shift_list(b)
    try:
        step = k * theta
    except OverflowError as exc:
        raise InvalidInput("k * theta is too large for a float") from exc
    phases = [step * v for v in shifts]
    if not all(math.isfinite(p) for p in phases):
        raise InvalidInput("theta must be finite, and k * theta * b_k must not overflow")
    c = 1.0 + _numpy_sum([math.cos(p) for p in phases])
    s = _numpy_sum([math.sin(p) for p in phases])
    return FourierMatrix(entries=((c, s), (-s, c)))
