"""Terms exp(z_j λ_k) and sums E_j = Σ_k exp(z_j λ_k) along a line, from few
exact rows, and the search for grid minima both spectral engines run on them.

Both spectral engines evaluate one exponential sum at the equally spaced
points z_j = z0 + j h, 0 <= j < count: the periodicity scan on the
imaginary axis (λ = b), the zero search's seeding and winding count on the
grid's phases and the rectangle's sides (λ = ln k).  With a width m about
sqrt(count), j = q m + p with p < m and

    exp(z_j λ) = exp((z0 + q m h) λ) · exp(p h λ),

so the line needs libm complex exponentials only for its anchor rows
A[q] = exp(fl(z0 + q m h) λ) and offset rows O[p] = exp(fl(p h) λ), about
2 sqrt(count) rows in all.  ``sums`` takes E on a range of points from
the complex matrix product A @ O.T (BLAS, any summation order) and
``terms`` takes a row of terms as A[q] * O[p].

Bound.  Let u = 2^-53, Z = |z0| + count |h| (plus 2^-1000, which covers
subnormal rounding), r_k = exp(x λ_k) with x the larger real part of z0
and z0 + count h, and assume every real part of a libm cexp, cos or sin
result within 4 ulps (each at most 2 u |exp(w)|), so that the complex
result is within κ u |exp(w)| of exp(w), κ = 12.  Compare with the value
exp-by-exp at a point ẑ_j within 4 u Z of z_j, as any grid value
(``linspace``, ``step * arange``) is: T_jk = cexp(fl(ẑ_j λ_k)), or
cos + i sin of fl(ẑ_j λ_k) on the imaginary axis.  All λ_k must be >= 0.

- Arguments.  The anchor point is off by at most 2 u Z, fl(p h) by u Z, and
  each product with λ_k by u Z λ_k; the caller's point and product by
  4 u Z and u Z λ_k.  So the exponents of A[q] O[p] and of T_jk lie within
  5.01 u Z λ_k of z_j λ_k each.
- Factors.  Two libm results (κ u each) and one complex product
  (sqrt(2) γ_2 <= 2.9 u, Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., section 3.6) on one side, one libm result on the
  other.  As |e^Δ Π(1 + ε_i) - 1| <= expm1(|Δ| + Σ|ε_i|), each term of
  ``terms`` lies within r_k e_k of T_jk, where

      e_k = 2.1 expm1(8 u Z λ_k + (2 κ + 3) u)        (``error``);

  the 2.1 over the 2 of the two sides covers the rounding of r_k and e_k.
- Sums.  The product A @ O.T forms each real part of E_j as a sum of 2N
  real products (N = len(λ)), |Re A Re O| + |Im A Im O| <= |A||O|, so in
  any order, fused or not, it lies within sqrt(2) γ_2N Σ|A_k||O_k| of
  Σ A_k O_k (Higham, section 3.1); any order of summing T_jk lies within
  sqrt(2) γ_N Σ|T_jk| of their exact sum.  With |A_k||O_k|, |T_jk| at most
  r_k (1 + e_k), ``sums`` lies within

      B = Σ_k r_k (e_k + 3 γ_2N (1 + e_k)) + N 2^-1070 max|O|   (``bound``)

  of every summation of T_jk, and so does Σ_k of ``terms``.  The last
  term covers products whose anchor underflows: each errs by at most
  2^-1074 |O[p]| absolute.

A non-finite r_k or e_k makes B infinite or NaN, so a comparison against
it is false: a pruning caller prunes nothing.

Both engines then look for the grid minima of a residual the same way,
``pruned_minima``: estimate every point (from a table), drop each point
that a neighbour's estimate provably undercuts, sum exactly only the rest
and their neighbours, and keep the points ``<=`` every 4-neighbour.  The
periodicity scan passes a grid of one column, the seeding the rows and
columns of its rectangle.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

_UNIT_ROUNDOFF = 2.0**-53

#: |libm cexp(w), or cos + i sin, - exp(w)| <= _LIBM_ERROR * u * |exp(w)|
_LIBM_ERROR = 12.0

#: in a grid padded by one cell, where cell (i, j) sits at (i + 1, j + 1),
#: its 4-neighbours sit at (i + a, j + b)
_AROUND = ((0, 1), (2, 1), (1, 0), (1, 2))


def _width(count: int) -> int:
    return math.isqrt(max(count - 1, 0)) + 1


def table_rows(count: int) -> int:
    """Anchor and offset rows of the table of a line of ``count`` points, so a
    caller can check the table's size, ``table_rows * len(lambdas)`` complex
    entries, before building it."""
    width = _width(count)
    return -(-count // width) + width


class LineTable:
    """exp(z_j λ_k) at z_j = z0 + j h, j < count, from anchor and offset rows."""

    __slots__ = ("width", "anchors", "offsets", "_line")

    def __init__(self, z0: complex, h: complex, count: int, lambdas: np.ndarray) -> None:
        self.width = width = _width(count)
        self._line = (z0, h, count, lambdas)
        with np.errstate(over="ignore", invalid="ignore"):
            corner = np.arange(0, count, width) * h + z0
            self.anchors = np.exp(np.multiply.outer(corner, lambdas))
            self.offsets = np.exp(np.multiply.outer(np.arange(width) * h, lambdas))

    @property
    def error(self) -> np.ndarray:
        """e_k: each of ``terms`` lies within r_k e_k of its exp-by-exp value."""
        z0, h, count, lambdas = self._line
        u = _UNIT_ROUNDOFF
        reach = np.abs(z0) + count * np.abs(h) + 2.0**-1000
        with np.errstate(over="ignore", invalid="ignore"):
            return 2.1 * np.expm1(8.0 * u * reach * lambdas + (2.0 * _LIBM_ERROR + 3.0) * u)

    @property
    def bound(self) -> float:
        """B: each of ``sums`` lies within B of every exp-by-exp summation."""
        z0, h, count, lambdas = self._line
        error, size = self.error, lambdas.size
        gamma = 2 * size * _UNIT_ROUNDOFF / (1.0 - 2 * size * _UNIT_ROUNDOFF)
        with np.errstate(over="ignore", invalid="ignore"):
            modulus = np.exp(max(z0.real, z0.real + count * h.real) * lambdas)
            return float(
                modulus @ (error + 3.0 * gamma * (1.0 + error))
                + size * 2.0**-1070 * np.abs(self.offsets).max()
            )

    def terms(self, j: np.ndarray) -> np.ndarray:
        """The terms at the points ``j``, one row each: A[q] * O[p]."""
        q, p = np.divmod(j, self.width)
        out = self.anchors[q]
        with np.errstate(over="ignore", invalid="ignore"):
            out *= self.offsets[p]
        return out

    def term_block(self, lo: int, hi: int) -> np.ndarray:
        """The terms at the points lo <= j < hi (lo < hi), one row each: the
        anchor rows they need, each times every offset row, with no row gathered."""
        first = lo // self.width
        with np.errstate(over="ignore", invalid="ignore"):
            block = self.anchors[first : -(-hi // self.width), None] * self.offsets
        start = lo - first * self.width
        return block.reshape(-1, block.shape[-1])[start : start + hi - lo]

    def sums(self, lo: int, hi: int) -> np.ndarray:
        """E at the points lo <= j < hi (lo < hi) from the anchor rows they need,
        times every offset row: one complex matrix product, taken whole."""
        first = lo // self.width
        with np.errstate(over="ignore", invalid="ignore"):
            block = self.anchors[first : -(-hi // self.width)] @ self.offsets.T
        start = lo - first * self.width
        return block.ravel()[start : start + hi - lo]


def _undercut(est: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Cells whose estimate exceeds a 4-neighbour's by more than the bounds of
    both, ``bound`` holding one bound per column.

    A NaN estimate or an infinite bound makes the comparison false, so it
    prunes nothing.
    """
    out = np.zeros(est.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        rise, width = est[1:] - est[:-1], 2.0 * bound
        out[1:] |= rise > width
        out[:-1] |= -rise > width
        rise, width = est[:, 1:] - est[:, :-1], bound[1:] + bound[:-1]
        out[:, 1:] |= rise > width
        out[:, :-1] |= -rise > width
    return out


def pruned_minima(
    size: int, candidates: range, estimate: Callable, bound: np.ndarray, exact: Callable
) -> Iterator[tuple[int, int]]:
    """Yield the cells (row, column), in row-major order, of a grid of
    ``size`` rows whose row is a candidate and whose exact value is ``<=``
    each 4-neighbour's, +inf outside the grid; summed exactly only where a
    minimum can be.

    The candidates are the rows from ``candidates.start`` up to
    ``candidates.stop`` (within ``range(size)``), in blocks of
    ``candidates.step`` rows: the range holds the first row of each block.
    ``exact(rows, cols)`` gives the exact values of the cells
    ``(rows[m], cols[m])``, which come in row-major order (none for a block
    with no candidate left).  ``estimate(top, bottom)`` gives estimates of
    the rows top <= i < bottom, one column per column of the grid, each
    within ``bound[j]`` of its exact value, j its column; any estimate is
    within an infinite or NaN bound, or of a NaN value.  Each block is
    estimated with a one-row halo.  A cell whose estimate exceeds a
    neighbour's by more than both bounds (``_undercut``) has the larger
    exact value and fails the test, so it is dropped; only the remaining
    candidates and their neighbours are summed exactly, and the test runs
    only at those candidates.  A NaN estimate or bound drops nothing, and a
    NaN exact value is no minimum and makes no neighbour one, as in
    ``expsums._local_minima``.  The blocks are searched as the cells are
    taken.
    """
    for lo in candidates:
        hi = min(lo + candidates.step, candidates.stop)
        top, bottom = max(lo - 1, 0), min(hi + 1, size)
        keep = ~_undercut(estimate(top, bottom), bound)
        keep[: lo - top] = keep[hi - top :] = False
        need = keep.copy()
        need[1:] |= keep[:-1]
        need[:-1] |= keep[1:]
        need[:, 1:] |= keep[:, :-1]
        need[:, :-1] |= keep[:, 1:]
        # flat indices: np.nonzero of a 2-D mask is several times slower
        rows, cols = np.divmod(np.flatnonzero(need), need.shape[1])
        # the block's exact values, padded by +inf: a kept cell's neighbours
        # all lie in the block unless they lie outside the grid
        values = np.full((keep.shape[0] + 2, keep.shape[1] + 2), np.inf)
        values[rows + 1, cols + 1] = exact(rows + top, cols)
        i, j = np.divmod(np.flatnonzero(keep), keep.shape[1])
        low = np.all([values[i + 1, j + 1] <= values[i + a, j + b] for a, b in _AROUND], axis=0)
        yield from zip((i[low] + top).tolist(), j[low].tolist())
