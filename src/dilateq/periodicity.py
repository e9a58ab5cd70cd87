"""Existence of continuous periodic solutions of the additive equation.

A nonzero continuous periodic solution of g(w) + sum g(w + b_k) = 0 exists
exactly when some frequency alpha solves

    1 + sum cos(alpha b_k) = 0   and   sum sin(alpha b_k) = 0,

and then a*cos(alpha w) + b*sin(alpha w) works for every (a, b): the 2x2
matrix tying the Fourier coefficients of g to those of the equation's left
side has nonnegative determinant and vanishes entrywise as soon as its
determinant does.  The scanner minimizes that determinant (a sum of two
squares, so zeros are double roots and sign-based bracketing is useless);
the equispaced and two-shift families have closed forms checked exactly,
kept in ``closedforms`` (numpy-free) with ``fourier_matrix`` and re-exported
here.

The scan's grid holds at most ``MAX_GRID_POINTS`` points and at most
``_MAX_TERMS`` points times N terms, both checked before anything is
allocated, and is never stored: point j is step * (j + 1), then
alpha_max.  The points are equally spaced, so ``_linetable.LineTable``
estimates E = 1 + sum exp(i alpha b_k) on all of them from about
2 sqrt(points) rows of exponentials and one complex matrix product per
block of about 8 MiB, within a proved bound.  The zero search's seeding
and this scan share one search for grid minima,
``_linetable.pruned_minima``: here on a grid of one column whose end
points are no candidates.  A point that a neighbour's estimate undercuts
by more than both bounds is no minimum; only the other points and their
neighbours are summed exactly, so the grid minima are those of the
residual summed exp by exp at every point, bit for bit.  The search returns
the minima's indices as an array, each with the exact residuals at itself
and its two neighbours.  ``scan_minima`` then refines every interior grid
minimum by golden section, all brackets in lockstep: each step evaluates
the new points of every live bracket in one array call, and each bracket
takes exactly the steps a scalar golden section would take on it alone.
The refined residuals square the cosine and sine sums by libm ``pow``
(``np.float_power``), as the scalar residual does, so the certificates are
the same to the bit as refining one bracket at a time.
``find_periodic_alphas`` refines only the brackets that can still certify:
|E'| <= sum b_k, so the exact residuals at a minimum and its two
neighbours, which the search returns with it, bound |E| from below on the
bracket, and a bracket whose bound, less a proved rounding margin, keeps
every residual above the tolerance is dropped unrefined
(``_cannot_certify``).  Its certificates are those of refining every
minimum, bit for bit.  Non-finite shifts, frequencies and angles are
refused.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen
from ._linetable import _UNIT_ROUNDOFF, LineTable, pruned_minima, table_rows
from .closedforms import (
    FourierMatrix,
    TwoTermVerdict,
    _shift_list,
    equispaced_alphas,
    fourier_matrix,
    two_term_periodic_exists,
)
from .coefficients import ShiftVector
from .errors import GridBudgetExceeded, InvalidInput, InvalidRange, NonPositiveScale

__all__ = [
    "PeriodicityCertificate",
    "FourierMatrix",
    "system_residual",
    "scan_minima",
    "find_periodic_alphas",
    "equispaced_alphas",
    "fourier_matrix",
    "two_term_periodic_exists",
    "TwoTermVerdict",
    "scale_shifts",
]

#: squared-system acceptance threshold, about 1e-8 per linear equation
CERTIFICATE_TOL = 1e-16

#: golden-section brackets are narrowed to this absolute width, or to one ulp
#: of the bracket's top where that is wider (alpha >= 64)
_REFINE_WIDTH = 1e-14

#: golden-section steps never taken by a terminating call: narrowing 1 to one
#: ulp takes about 75
_GOLDEN_MAX_ITER = 2000

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: scan grids with more points are refused before anything is allocated
MAX_GRID_POINTS = 10_000_000

#: most terms, grid points times N, one scan grid may sum
_MAX_TERMS = 1 << 26

#: bytes of (points, N) temporaries per block of the grid residual
_BLOCK_BYTES = 8 << 20


def _shift_array(b) -> np.ndarray:
    """The shifts of ``closedforms._shift_list`` as a float array."""
    return np.asarray(_shift_list(b), dtype=float)


class PeriodicityCertificate(Frozen):
    """A frequency solving the trigonometric system."""

    __slots__ = ("alpha", "period", "system_residual")
    alpha: float
    period: float
    system_residual: float

    def witness_function(self):
        """The periodic solution cos(alpha w)."""
        alpha = self.alpha
        return lambda w: np.cos(alpha * np.asarray(w))


def _residuals(alphas: np.ndarray, shifts: np.ndarray, square) -> np.ndarray:
    """square(1 + sum cos(alpha b_k)) + square(sum sin(alpha b_k)) at each alpha
    of a 1-D ``alphas``, in blocks with about 8 MiB of (alphas, N) temporaries."""
    out = np.empty(alphas.size)
    rows = max(1, _BLOCK_BYTES // (8 * shifts.size))
    for i in range(0, alphas.size, rows):
        phases = np.multiply.outer(alphas[i : i + rows], shifts)
        cos_part = 1.0 + np.cos(phases).sum(axis=-1)
        out[i : i + rows] = square(cos_part) + square(np.sin(phases).sum(axis=-1))
    return out


def _row_residuals(alphas: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The residual at each alpha of a 1-D array, as the scalar residual forms it:
    squared by libm ``pow(x, 2.0)`` as Python squares a float (an array's
    ``x**2`` is ``x * x``, which differs in the last bit on about 0.1 %)."""
    return _residuals(alphas, shifts, lambda x: np.float_power(x, 2.0))


def system_residual(alpha, b) -> float | np.ndarray:
    """(1 + sum cos(alpha b_k))**2 + (sum sin(alpha b_k))**2.

    Nonnegative; zero exactly at frequencies admitting periodic solutions.
    Vectorized over ``alpha``, in blocks of about 8 MiB of temporaries; an
    array squares by ``x * x``, which only orders grid points.  A NaN or
    infinite frequency raises InvalidInput before anything is evaluated.
    """
    shifts = _shift_array(b)
    a = np.asarray(alpha, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidInput("frequencies must be finite")
    if a.ndim == 0:
        return float(_row_residuals(a.reshape(1), shifts)[0])
    return _residuals(a.ravel(), shifts, np.square).reshape(a.shape)


def _golden_minimize(f, lo, hi, width: float) -> np.ndarray:
    """Golden-section minima of a unimodal-enough f on every bracket [lo, hi].

    ``f`` maps an array of points to an array of values; each step evaluates
    the new points of every live bracket in one call.  A bracket stops at
    width ``width`` or one ulp of its ``hi``, whichever is wider (an absolute
    width below one ulp is never reached), and takes exactly the steps it
    would take alone.  Returns the midpoints of the final brackets.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = np.split(f(np.concatenate([x1, x2])), 2)
    for _ in range(_GOLDEN_MAX_ITER):
        # hi > 0 throughout, so spacing(hi) is math.ulp(hi)
        live = np.flatnonzero(hi - lo > np.maximum(width, np.spacing(hi)))
        if live.size == 0:
            break
        keep_left = f1[live] <= f2[live]
        left, right = live[keep_left], live[~keep_left]
        hi[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        x1[left] = hi[left] - _INV_GOLDEN * (hi[left] - lo[left])
        lo[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x2[right] = lo[right] + _INV_GOLDEN * (hi[right] - lo[right])
        fresh = f(np.concatenate([x1[left], x2[right]]))
        f1[left], f2[right] = fresh[: left.size], fresh[left.size :]
    return 0.5 * (lo + hi)


def default_grid_step(b, alpha_max: float) -> float:
    """Step resolving the fastest oscillation cos(alpha * bN)."""
    largest = float(_shift_array(b).max())
    return min(math.pi / (8.0 * largest), alpha_max / 1e4)


def scan_minima(
    b, alpha_max: float, grid_step: float | None = None
) -> list[tuple[float, float]]:
    """All refined local minima of the system residual on (0, alpha_max].

    Returns (alpha, residual) pairs sorted by alpha, regardless of how small
    the residual is: every interior grid minimum is refined, and
    ``find_periodic_alphas`` applies the acceptance cut.  A grid of over
    ``MAX_GRID_POINTS`` points, or whose points times N exceed
    ``_MAX_TERMS``, raises GridBudgetExceeded before anything is allocated.
    """
    return _refined_minima(b, alpha_max, grid_step, math.inf)


def _refined_minima(b, alpha_max: float, grid_step: float | None, tol: float):
    """``scan_minima``, less the brackets ``_cannot_certify`` proves hold no
    residual ``<= tol``: an infinite ``tol`` drops none."""
    if not (alpha_max > 0.0):
        raise InvalidRange("alpha_max must be positive")
    if not math.isfinite(alpha_max):
        raise InvalidRange("alpha_max must be finite")
    shifts = _shift_array(b)
    if grid_step is None:
        grid_step = default_grid_step(shifts, alpha_max)
    if not (grid_step > 0.0):
        raise InvalidRange("grid_step must be positive")
    points = alpha_max / grid_step
    if points >= MAX_GRID_POINTS + 1:
        raise GridBudgetExceeded(
            f"scan grid of {points:.6g} points exceeds the budget of {MAX_GRID_POINTS}"
        )
    if points * shifts.size > _MAX_TERMS:
        raise GridBudgetExceeded(
            f"scan grid of {points:.6g} points x {shifts.size} shifts exceeds "
            f"the budget of {_MAX_TERMS} terms"
        )
    count = math.floor(points)
    # the grid: step * (j + 1) for j < count, then alpha_max unless it is the last
    size = count + (grid_step * count < alpha_max)
    at = lambda j: np.where(j < count, grid_step * (j + 1), alpha_max)
    exact = lambda rows, cols: _residuals(at(rows), shifts, np.square)

    # a line table over 8 MiB (a few thousand shifts on a grid of 1e4 points)
    # would outgrow the exact sums' blocks: such grids, and the shortest, are
    # estimated by their residuals themselves, with a zero bound
    if size >= 3 and 16 * (shifts.size + 1) * table_rows(count) <= _BLOCK_BYTES:
        line = LineTable(1j * grid_step, 1j * grid_step, count, np.append(0.0, shifts))
        # |E|^2 and the residual, both squares of sums at most W = N + 1 + 2 B
        # in modulus, differ by at most 2.02 W (B + 2 u W): B (2 W) for the
        # sums and 2 u W^2 for the two squares and the add of each
        sums_bound = line.bound
        reach = shifts.size + 1.0 + 2.0 * sums_bound
        bound = np.array([2.02 * reach * (sums_bound + 2.0 * _UNIT_ROUNDOFF * reach)])
        # rows per block: about 48 bytes of temporaries each
        block = max(1, _BLOCK_BYTES // (48 * line.width)) * line.width

        def estimate(top: int, bottom: int) -> np.ndarray:
            sums = line.sums(top, min(bottom, count))
            # alpha_max, past the line, summed exactly where the block reaches it
            tail = exact(np.arange(count, bottom), None)
            return np.append(np.square(sums.real) + np.square(sums.imag), tail)[:, None]

    else:
        if size < 3:
            # four points instead, which ``exact`` then reads too
            at, size = np.linspace(min(grid_step, alpha_max / 3.0), alpha_max, 4).__getitem__, 4
        bound, block = np.zeros(1), max(1, _BLOCK_BYTES // 48)
        estimate = lambda top, bottom: exact(np.arange(top, bottom), None)[:, None]
    interior, _, around = pruned_minima(size, range(1, size - 1, block), estimate, bound, exact)
    lo, hi = at(interior - 1), at(interior + 1)
    # the exact residuals at each minimum's rows i - 1, i and i + 1
    keep = ~_cannot_certify(around[:, [1, 0, 2]], lo, at(interior), hi, shifts, tol)
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return []
    f = lambda a: _row_residuals(a, shifts)
    alphas = _golden_minimize(f, lo, hi, _REFINE_WIDTH)
    out: list[tuple[float, float]] = []
    for alpha, value in zip(alphas.tolist(), f(alphas).tolist()):
        if out and abs(alpha - out[-1][0]) < 1e-8:
            if value < out[-1][1]:
                out[-1] = (alpha, value)
            continue
        out.append((alpha, value))
    return out


def _cannot_certify(near, lo, mid, hi, shifts: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the brackets [lo, hi] around grid minima mid in which every
    residual the golden section can compute exceeds ``tol``, from the exact
    grid residuals ``near`` at (lo, mid, hi), one row per bracket, squared
    by ``x * x``.

    Let u = 2^-53, N shifts, W = N + 1, L = sum b_k and L^ its float sum,
    within gamma_N L of L.  |E'| <= L, so on [a, c]

        min |E| >= (|E(a)| + |E(c)| - L (c - a)) / 2;

    the bound B is the smaller of this on [lo, mid] and on [mid, hi], formed
    in floats from m = sqrt of each grid residual.  Every point the golden
    section evaluates lies in [lo, hi], as rounding is monotone, and its
    computed sums E^ (before squaring) lie within

        eta = u (c L + 12 N + 1.5 N W) + N 2^-1074

    of E there, c = hi: each phase fl(alpha b_k) is off by u c b_k (plus
    2^-1075 if it underflows), each cos + i sin within 12 u of the exact
    exponential of that phase (the 4-ulp assumption of ``_linetable``), and
    each of the two sums of at most W terms, N adds in any order, within
    gamma_N W (1 + 12 u).  A grid residual r, two squares by ``x * x`` and
    an add, gives |E^| >= m (1 - 2 u) - 2^-536 at its point.  Forming B in
    floats, with L^ for L, errs by at most 1.01 u (m_1 + m_2) + (gamma_N / 2
    + 1.51 u) L (c - a) + 2^-1075.  So at every evaluated point

        |E^| >= B - 2 eta - 4.1 u W - (0.51 N + 1.51) u c L - 2^-535
             >= B - delta,   delta = (N + 10) u (c L^ + 3 W) + 2^-530,

    as m <= 1.01 W, L <= 1.0001 L^ (N u < 2^-20: 2^33 shifts fill 64 GiB),
    (N + 10) covers 0.52 N + 3.6 times c L^ and 3 (N + 10) W covers
    3 N W + 28.1 W, with slack for rounding delta itself; the rounding of
    low = fl(B - delta) is u |B - delta| more.  A residual
    squares the sums by libm ``pow`` (within one ulp) and adds, so it is at
    least |E^|^2 (1 - 3 u) - 2^-1073 >= low^2 (1 - 5.01 u) - 2^-1073 when
    low > 0.  A bracket is excluded when fl(low^2 (1 - 8 u)) exceeds tol
    and 2^-1000: then low^2 (1 - 5.01 u) > tol + 2^-1073, so every residual
    it can compute, its refined one included, exceeds tol.  A NaN or
    infinite bound or margin (an overflowing sum of shifts, or phases near
    the largest float), and an infinite tol, exclude nothing.
    """
    u = _UNIT_ROUNDOFF
    with np.errstate(over="ignore", invalid="ignore"):
        lip = shifts.sum()
        m = np.sqrt(near)
        left, right = m[:, 0] + m[:, 1] - lip * (mid - lo), m[:, 1] + m[:, 2] - lip * (hi - mid)
        bound = 0.5 * np.minimum(left, right)
        margin = (shifts.size + 10) * u * (hi * lip + 3.0 * (shifts.size + 1)) + 2.0**-530
        low = np.maximum(bound - margin, 0.0)
        return low * low * (1.0 - 8.0 * u) > max(tol, 2.0**-1000)


def find_periodic_alphas(
    b,
    alpha_max: float,
    grid_step: float | None = None,
    tol: float = CERTIFICATE_TOL,
) -> list[PeriodicityCertificate]:
    """Certificates for every frequency in (0, alpha_max] solving the system.

    The witness is cos(alpha w); any (a, b) pair works because a vanishing
    determinant forces the whole Fourier matrix to vanish.

    The certificates are the minima of ``scan_minima`` whose residual is
    ``<= tol``, at alpha > 0 with a finite period, but only the brackets
    that ``_cannot_certify`` does not exclude are refined.  That drops no
    certificate and adds none.  Call a refined minimum with residual <= tol
    a certificate here.  An excluded bracket's refined residual exceeds
    tol, and so does the residual at every point of it: no certificate's
    alpha lies in it.  The brackets [at(i - 1), at(i + 1)] arrive in grid
    order, so a certificate from an earlier bracket lies below the excluded
    one and one from a later bracket above it.  In the 1e-8 pass that
    merges neighbouring minima, an excluded minimum never displaces a
    certificate (its residual is larger), and when it starts a run of its
    own, the next certificate lies above it and so at least 1e-8 above the
    earlier certificate it parted from: it starts a run in both passes.  So
    the minima with residual <= tol come out of the pass the same with or
    without the excluded ones, and the cut keeps the same certificates.
    """
    if not (tol > 0.0):
        raise InvalidRange("tol must be positive")
    certs = []
    for alpha, residual in _refined_minima(b, alpha_max, grid_step, tol):
        # a subnormal alpha_max can refine to 0, or to a frequency whose
        # period overflows: neither states a periodic solution
        if residual <= tol and alpha > 0.0 and 2.0 * math.pi / alpha < math.inf:
            certs.append(
                PeriodicityCertificate(
                    alpha=alpha,
                    period=2.0 * math.pi / alpha,
                    system_residual=residual,
                )
            )
    return certs


def scale_shifts(b, d: float):
    """Multiply every shift by d > 0; periodic solvability is invariant.

    A plain sequence, and its scaled shifts, must pass ``_shift_list`` as a
    ShiftVector's must pass its own checks: an empty, non-positive or
    non-finite one raises InvalidInput.
    """
    if not (d > 0.0):
        raise NonPositiveScale("scale must be positive")
    if isinstance(b, ShiftVector):
        return ShiftVector(tuple(v * d for v in b.entries))
    return tuple(_shift_list([v * d for v in _shift_list(b)]))
