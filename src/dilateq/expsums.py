"""Zeros of the exponential sums 1 + 2^z + ... + N^z and induced solutions.

The integer-coefficient dilation equation f(x) + f(2x) + ... + f(Nx) = 0 has
one-sided power solutions Re(|x|^alpha) on x < 0 for every complex zero alpha
of the sum.  Zeros are located from the local minima of the modulus on a
grid, refined by Newton, and audited with an argument-principle winding
count over the rectangle boundary.

The engine keeps transcendental calls few where a proved bound allows, and
takes every exact value one way:

- Every exact |G| is ``abs(power_sum(n, z))`` bit for bit: the terms
  ``exp(z ln k)`` from one table (``_terms``), each point's n terms summed
  along a contiguous last axis, in blocks of about ``_CHUNK_BYTES`` (1 MiB)
  of temporaries.  ``scan_modulus`` and the seeding's exact cells take it
  from ``_grid_modulus``, made from the two grid axes alone.
- ``find_zeros`` seeds from the minima of that scan without computing it
  (``_grid_minima``): two real matrix products of a real radial table
  ``k^x`` and a phase table taken from a ``_linetable.LineTable`` on the
  im axis (about ``2 sqrt(grid_im) * n`` exponentials) estimate |G| on
  every cell within a proved bound, one per column.  The search for minima
  is the one the periodicity scan runs too, ``_linetable.pruned_minima``:
  cells that a neighbour provably undercuts are dropped, and only the rest
  and their neighbours are summed exactly.  It returns the minima's rows
  and columns as arrays, from which ``_seed`` builds the Newton starts.
  The seeds, and so every zero, are those of the full scan, bit for bit and
  in the same order.
- Newton runs from all seeds in lockstep (``_newton``): each step takes
  ``g`` and ``g'`` at the next iterate of every live seed from one table of
  terms ``exp(z ln k)``, in blocks, and each seed keeps Python's complex
  division and the scalar stop rules, so it gets the bits it gets alone
  (``newton_refine``).  A zero's residual is the last of its Newton history,
  ``abs(power_sum(n, z))`` bit for bit, read by ``_modulus``.
- ``winding_count`` tracks arg G along the boundary on samples close
  enough that it provably moves by less than pi between neighbours (see its
  docstring), bisecting every uncertified step in one array pass per level.
  The principal angles of the steps then sum to 2 pi times the count, up to
  rounding, on at most ``_WINDING_MAX_SAMPLES`` samples.  G comes from one
  ``LineTable`` per side: a complex matrix product for the first samples,
  and for a midpoint the terms rebuilt from the side's anchor, offset and
  half-step rows, with no complex exponential per sample and term.  G at a
  sample lies within the tolerance its docstring states of ``power_sum``
  there, and the slope bound is the same float as summed sample by sample.
- ``find_zeros`` takes the winding count before it seeds, so a rectangle
  the count refuses costs no seeding and no Newton start.  It seeds once
  more on the grid with every cell halved when the count exceeds the zeros
  found and that grid is within the budgets, keeping the zeros it has.  The
  budgets grow with n: grid points, table entries
  ``(grid_re + grid_im) * n`` and terms summed ``points * n`` are checked
  before anything is allocated.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from typing import Callable

import numpy as np

from ._frozen import Frozen
from ._linetable import _UNIT_ROUNDOFF, LineTable, pruned_minima, table_rows
from .errors import (
    BoundaryZero,
    GridBudgetExceeded,
    IncompleteSearch,
    InvalidInput,
    InvalidRange,
    _integer,
)

__all__ = [
    "ComplexZero",
    "SearchRectangle",
    "power_sum",
    "zeta_partial_sum",
    "power_sum_deriv",
    "default_rectangle",
    "newton_refine",
    "winding_count",
    "find_zeros",
    "scan_modulus",
    "solution_from_zero",
    "PowerSolution",
    "residual_integer_equation",
]

#: a refined zero must push the modulus below this to be accepted
ZERO_RESIDUAL_TOL = 1e-10

#: zeros closer together than this are merged
_DEDUPE_DIST = 1e-8

#: zeros this close to the rectangle edge make the winding integral unreliable
_EDGE_MARGIN = 1e-6

_NEWTON_MAX_ITER = 60

#: bytes of temporaries per block of exact moduli, of Newton, of the seeding and
#: of winding samples
_CHUNK_BYTES = 1 << 20

#: most points one modulus scan grid may hold
_MAX_SCAN_POINTS = 1 << 22

#: most entries of the seeding's tables, (grid_re + grid_im) * n, which bounds its
#: radial table (grid_re * n) and its phase line's rows (under grid_im * n), and
#: of one power sum at a point, n
_MAX_TABLE_TERMS = 1 << 22

#: most terms one scan may sum, grid points * n, and one equation residual may
#: evaluate, samples * n
_MAX_TERMS = 1 << 26

#: most boundary samples one winding count may evaluate
_WINDING_MAX_SAMPLES = 1 << 18

#: bisection levels a winding sample's bitmask of half steps holds; samples
#: placed deeper are summed exp by exp
_MASK_BITS = 64


#: log tables kept at once: a search reads one n, and each table holds n floats
_LOG_TABLES = 8


@functools.lru_cache(maxsize=_LOG_TABLES)
def _log_table(n: int) -> np.ndarray:
    return np.log(np.arange(1, n + 1, dtype=float))


def _check_n(n: int) -> None:
    """Refuse an n that is no integer, or below 2."""
    if _integer(n, "n") < 2:
        raise InvalidInput("the exponential sum needs n >= 2")


def _terms(n: int, zz: np.ndarray) -> np.ndarray:
    """exp(z ln k), k = 1..n, on a new last axis.  Callers ignore overflow and
    invalid: inf from wildly divergent Newton iterates is discarded.  An n
    over ``_MAX_TABLE_TERMS``, or points times n over ``_MAX_TERMS``, raises
    GridBudgetExceeded before the log table is built."""
    _check_n(n)
    _check_terms(n, zz.size)
    return np.exp(np.multiply.outer(zz, _log_table(n)))


def power_sum(n: int, z) -> complex | np.ndarray:
    """1 + 2^z + ... + n^z, each term computed as exp(z ln k)."""
    zz = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _terms(n, zz).sum(axis=-1)
    return complex(out) if zz.ndim == 0 else out


def zeta_partial_sum(n: int, z) -> complex | np.ndarray:
    """1 + 2^-z + ... + n^-z, the length-n partial sum of the zeta series."""
    return power_sum(n, -np.asarray(z, dtype=complex))


def power_sum_deriv(n: int, z) -> complex | np.ndarray:
    """d/dz of the power sum: sum(ln(k) * k^z, k=2..n)."""
    zz = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _terms(n, zz)
        out = (_log_table(n) * terms).sum(axis=-1)
    return complex(out) if zz.ndim == 0 else out


class SearchRectangle(Frozen):
    """Axis-aligned scan region with grid resolution for seeding Newton.

    The bounds must be finite and the grid sizes integers of at least 2;
    numpy integers are taken through ``operator.index``, and any other
    grid size raises InvalidRange.
    """

    __slots__ = ("re_min", "re_max", "im_min", "im_max", "grid_re", "grid_im")
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    grid_re: int
    grid_im: int

    def __init__(
        self,
        re_min: float,
        re_max: float,
        im_min: float,
        im_max: float,
        grid_re: int = 61,
        grid_im: int = 241,
    ) -> None:
        try:
            grid_re, grid_im = operator.index(grid_re), operator.index(grid_im)
        except TypeError:
            raise InvalidRange("grid resolution must be an integer") from None
        super().__init__(re_min, re_max, im_min, im_max, grid_re, grid_im)
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(v) for v in bounds):
            raise InvalidRange("rectangle bounds must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InvalidRange("rectangle must have positive width and height")
        if self.grid_re < 2 or self.grid_im < 2:
            raise InvalidRange("grid resolution must be at least 2")

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def contains(self, z: complex) -> bool:
        return (
            self.re_min <= z.real <= self.re_max
            and self.im_min <= z.imag <= self.im_max
        )

    def edge_distance(self, z: complex) -> float:
        return min(
            z.real - self.re_min,
            self.re_max - z.real,
            z.imag - self.im_min,
            self.im_max - z.imag,
        )


def default_rectangle() -> SearchRectangle:
    """Upper-half-plane region holding the low zeros for moderate n."""
    return SearchRectangle(-3.0, 2.0, 0.0, 30.0)


class ComplexZero(Frozen):
    """A verified zero of the order-n power sum; an n that is no integer, or
    below 2, raises InvalidInput."""

    __slots__ = ("z", "modulus_residual", "n")
    z: complex
    modulus_residual: float
    n: int

    def __init__(self, z: complex, modulus_residual: float, n: int) -> None:
        super().__init__(z, modulus_residual, n)
        _check_n(self.n)
        # both checks are written so that NaN fails them
        if not self.modulus_residual <= ZERO_RESIDUAL_TOL:
            raise InvalidInput(
                f"residual {self.modulus_residual:.3g} exceeds {ZERO_RESIDUAL_TOL:.0e}"
            )
        if not abs(self.z.imag) > _EDGE_MARGIN:
            raise InvalidInput("the power sum is positive on the real axis")


def _modulus(g: complex) -> float:
    """``abs(g)``, but inf where the modulus overflows a float and NaN for a NaN
    ``g`` with no infinite part.  ``abs`` itself raises OverflowError in both
    cases, the second whenever an earlier libm call left errno at ERANGE."""
    if math.isinf(g.real) or math.isinf(g.imag):
        return math.inf
    if math.isnan(g.real) or math.isnan(g.imag):
        return math.nan
    try:
        return abs(g)
    except OverflowError:
        return math.inf


def newton_refine(n: int, z0: complex) -> tuple[complex, list[float]] | None:
    """Newton iteration on the power sum from z0.

    Returns the limit and the per-step modulus history, or None when the
    iteration stalls, diverges or runs out of steps: the one-seed case of
    ``_newton``.
    """
    _check_n(n)
    return _newton(n, np.array([z0], dtype=complex))[0]


def _newton(n: int, starts: np.ndarray) -> list[tuple[complex, list[float]] | None]:
    """``newton_refine`` from each of the complex ``starts``, in lockstep.

    Each pass takes G and G' at the next iterate of every live seed from one
    table of terms exp(z ln k) (``_terms``), in blocks of about
    ``_CHUNK_BYTES``, and sums each row as ``power_sum`` and
    ``power_sum_deriv`` do.  Each seed then takes Python's complex division
    and the stop rules on its own: G' zero or not finite, or an iterate not
    finite, fails; at rounding level (a last residual <= 1e-12) a residual
    that does not fall keeps the iterate before it; a step
    ``|dz| <= 1e-13 (1 + |z|)`` converges.  So every result is the scalar
    iteration's, bit for bit, and each residual in a history is
    ``abs(power_sum(n, z))`` at its iterate, read by ``_modulus``.  A live
    seed is held as its index, iterate, step and next iterate in arrays, and
    its history, made at its first residual; the first pass evaluates the
    starts.
    """
    results: list = [None] * starts.size
    index, iterate, step, ahead = np.arange(starts.size), starts, starts, starts
    histories: list = [None] * starts.size
    block = max(1, _CHUNK_BYTES // (32 * n))
    for first in [True] + [False] * _NEWTON_MAX_ITER:
        alive, kept = np.zeros(index.size, dtype=bool), []
        step_next, ahead_next = np.empty_like(ahead), np.empty_like(ahead)
        for lo in range(0, index.size, block):
            part = slice(lo, lo + block)
            with np.errstate(over="ignore", invalid="ignore"):
                terms = _terms(n, ahead[part])
                g, gp = terms.sum(axis=-1), (_log_table(n) * terms).sum(axis=-1)
            seeds = zip(
                range(lo, lo + block), index[part].tolist(), iterate[part].tolist(),
                step[part].tolist(), ahead[part].tolist(), histories[part], g.tolist(), gp.tolist(),
            )
            for m, k, z, dz, z_next, history, g_k, gp_k in seeds:
                if not first:
                    res = _modulus(g_k)
                    if history and history[-1] <= 1e-12 and res >= history[-1]:
                        # at rounding level another step cannot improve; keep the best iterate
                        results[k] = z, history
                        continue
                    history = history or []
                    history.append(res)
                    if abs(dz) <= 1e-13 * (1.0 + abs(z_next)):
                        results[k] = z_next, history
                        continue
                if gp_k == 0 or not (math.isfinite(gp_k.real) and math.isfinite(gp_k.imag)):
                    continue
                step_next[m] = dz = g_k / gp_k
                ahead_next[m] = z_after = z_next - dz
                if math.isfinite(z_after.real) and math.isfinite(z_after.imag):
                    alive[m] = True
                    kept.append(history)
        if not kept:
            break
        index, iterate, step, ahead = index[alive], ahead[alive], step_next[alive], ahead_next[alive]
        histories = kept
    return results


def _grid_refusal(n: int, grid_re: int, grid_im: int) -> str | None:
    """Why a scan of n terms on this grid is over budget, or None."""
    points = grid_re * grid_im
    if points > _MAX_SCAN_POINTS:
        return (
            f"scan grid of {grid_re} x {grid_im} points exceeds the budget of {_MAX_SCAN_POINTS}"
        )
    if (grid_re + grid_im) * n > _MAX_TABLE_TERMS:
        return (
            f"seeding's radial table and phase rows of ({grid_re} + {grid_im}) x {n} terms "
            f"exceed the budget of {_MAX_TABLE_TERMS}"
        )
    if points * n > _MAX_TERMS:
        return f"scan of {points} points x {n} terms exceeds the budget of {_MAX_TERMS}"
    return None


def _check_grid(n: int, rect: SearchRectangle) -> None:
    _check_n(n)
    refusal = _grid_refusal(n, rect.grid_re, rect.grid_im)
    if refusal is not None:
        raise GridBudgetExceeded(refusal)


def _check_terms(n: int, samples: int) -> None:
    """Refuse an n over ``_MAX_TABLE_TERMS``, or samples * n over ``_MAX_TERMS``."""
    if n > _MAX_TABLE_TERMS or samples * n > _MAX_TERMS:
        raise GridBudgetExceeded(
            f"{samples} samples x {n} terms exceed the budget of {_MAX_TERMS} terms, "
            f"or n exceeds {_MAX_TABLE_TERMS}"
        )


def _grid_axes(n: int, rect: SearchRectangle) -> tuple[np.ndarray, np.ndarray]:
    """The grid axes (re, im), after the checks of ``_check_grid``."""
    _check_grid(n, rect)
    re = np.linspace(rect.re_min, rect.re_max, rect.grid_re)
    return re, np.linspace(rect.im_min, rect.im_max, rect.grid_im)


def _grid_modulus(n: int, re: np.ndarray, im: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """|G| at the grid points re[cols[m]] + i im[rows[m]], or at every cell in
    row-major order when ``rows`` and ``cols`` are None.

    Each point takes its terms from ``_terms`` and sums them as
    ``power_sum`` does, so it equals ``abs(power_sum(n, z))`` bit for bit.
    The points go in blocks of about ``_CHUNK_BYTES`` of temporaries, as
    ``_newton``'s do, made from the two axes alone: a block ends anywhere
    in a row without changing a bit.
    """
    size = im.size * re.size if rows is None else rows.size
    out = np.empty(size)
    block = max(1, _CHUNK_BYTES // (32 * n))
    for lo in range(0, size, block):
        at = np.arange(lo, min(lo + block, size))
        i, j = np.divmod(at, re.size) if rows is None else (rows[at], cols[at])
        with np.errstate(over="ignore", invalid="ignore"):
            np.abs(_terms(n, re[j] + 1j * im[i]).sum(axis=-1), out=out[lo : lo + block])
    return out


def scan_modulus(n: int, rect: SearchRectangle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modulus of the power sum on the rectangle grid (re axis, im axis, |G|).

    Every cell is ``abs(power_sum(n, z))`` at its point, bit for bit, summed
    by ``_grid_modulus`` in blocks of about ``_CHUNK_BYTES`` (1 MiB) of
    complex temporaries, small enough to stay in a core's L2 cache.  The
    grid is checked against the budgets before anything is allocated.
    """
    re, im = _grid_axes(n, rect)
    return re, im, _grid_modulus(n, re, im).reshape(im.size, re.size)


def _grid_minima(
    n: int, rect: SearchRectangle
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid axes (re, im) and the rows and columns of
    ``_local_minima(scan_modulus(n, rect)[2])``, summed exactly only where a
    minimum can be.

    Re G and Im G are estimated on every cell by two real matrix products,
    ``P.real @ radial.T`` and ``P.imag @ radial.T``, which BLAS sums in any
    order.  ``radial`` holds r_k = k^x, the real parts of the terms
    (``_terms``) at the points x of the re axis, and P the phases taken
    from a ``LineTable`` on the im axis, each within e_k (its ``error``) of
    the phase c_k + i s_k, cos + i sin of fl(y ln k), that the complex
    exponential of the cell's term takes.  With u = 2^-53 and
    gamma_n = n u / (1 - n u), a cell's estimate E lies within

        B = 8 gamma_n sum_k r_k + 3 sum_k e_k r_k

    of its exact value S = abs(power_sum(n, z)) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1).  Take first
    the exact phases.  While x ln k <= 709 the complex exponential gives the
    rounded products r_k c_k and r_k s_k, and both their pairwise sum and a
    dot product in any order lie within gamma_n sum_k |r_k c_k| <=
    gamma_n sum_k r_k of the exact sum, as |c_k|, |s_k| <= 1.  So each part
    of E and S differs by at most 2 gamma_n sum r_k, and the moduli by at
    most 2 sqrt(2) gamma_n sum r_k.  Each of the two hypot roundings adds at
    most 2 u of its value, and E and S are at most sum r_k up to rounding,
    so with gamma_n >= 2 u (n >= 2) both add at most 2 gamma_n sum r_k.
    Above 709 the complex exponential rescales: a term is
    exp(x ln k - 709) times exp(709) c_k, rounded twice, and r_k the same
    two exponentials' rounded product, so the term lies within 3.01 u r_k
    of r_k c_k rather than u r_k.  That moves the modulus by at most
    sqrt(2) 2.01 u sum r_k <= 1.43 gamma_n sum r_k more, and the first
    term of B is over 1.25 times the total, which covers the rounding of B
    and of the comparisons of neighbours.  (Such an r_k exceeds a quarter
    of the largest float, so B is infinite there anyway.)  The first term
    is exactly 1, so sum r_k >= 1 also covers the absolute error, below
    2^-1074 a term, of products that underflow.  The sum is taken four
    times before it is scaled, so B is infinite wherever a partial sum, or
    E, could overflow.  The line's phases then move each part of E by at
    most sum e_k r_k, its modulus by sqrt(2) times that, and the rounding
    terms by under 2 gamma_n sum e_k r_k: the second term covers the three.

    ``_linetable.pruned_minima`` then finds the minima with B, one bound
    per column: it drops a cell that a neighbour provably undercuts, and
    sums exactly (``_grid_modulus``) only the rest and their neighbours.
    Every row is a candidate, in blocks of about ``_CHUNK_BYTES`` of
    temporaries, and the minima come in row-major order, as intp arrays.
    """
    re, im = _grid_axes(n, rect)
    # linspace's own step: the line's points are the im axis up to rounding
    step = (rect.im_max - rect.im_min) / (rect.grid_im - 1)
    line = LineTable(1j * rect.im_min, 1j * step, im.size, _log_table(n))
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):
        rad = np.ascontiguousarray(_terms(n, re.astype(complex)).real)
        bound = 2.0 * gamma * (4.0 * rad.sum(axis=1)) + 3.0 * (rad @ line.error)

    def estimate(top: int, bottom: int) -> np.ndarray:
        block = line.term_block(top, bottom)
        with np.errstate(over="ignore", invalid="ignore"):
            real, imag = (np.ascontiguousarray(part) @ rad.T for part in (block.real, block.imag))
            return np.hypot(real, imag)

    exact = functools.partial(_grid_modulus, n, re, im)
    block = max(1, _CHUNK_BYTES // (8 * (2 * n + 8 * re.size)))
    rows, cols, _ = pruned_minima(im.size, range(0, im.size, block), estimate, bound, exact)
    return re, im, rows, cols


def _local_minima(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of the cells of ``a`` that are ``<=`` each
    4-neighbour, +inf outside the grid, in row-major order: the dense
    reference of ``_linetable.pruned_minima``."""
    padded = np.pad(a, 1, constant_values=np.inf)
    core = padded[1:-1, 1:-1]
    mask = (
        (core <= padded[:-2, 1:-1])
        & (core <= padded[2:, 1:-1])
        & (core <= padded[1:-1, :-2])
        & (core <= padded[1:-1, 2:])
    )
    return np.nonzero(mask)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a nonempty 1-D array by one
    sort: ``np.unique`` imports ``numpy.ma`` on its first call, about 20 ms
    of a short process."""
    kinds = np.sort(values)
    kinds = kinds[np.concatenate(([True], kinds[1:] != kinds[:-1]))]
    return kinds, np.searchsorted(kinds, values)


def _sample_block(
    n: int,
    z: np.ndarray,
    lines: list[LineTable | None],
    halves: list[np.ndarray],
    side: np.ndarray,
    index: np.ndarray,
    mask: np.ndarray,
    level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """G at one block of boundary samples z and the bound
    M = sum(ln k * k^(Re z), k=2..n) on |G'| left of each.

    Sample m lies on side ``side[m]``, whose table ``lines[side[m]]`` runs
    from its first corner in steps h, at index[m] + f steps, where f sums
    2^-b over the bits b - 1 set in ``mask[m]``: the half steps that placed
    it.  ``halves[b - 1]`` holds each side's row exp(h 2^-b ln k).  The first
    samples (``level`` 0) are their tables' ``sums``.  A later pass rebuilds
    the terms A[q] O[p] of each sample and multiplies them by the product of
    its half-step rows, formed once per distinct mask, the pass's own row
    last.  Past ``_MASK_BITS`` levels, which no mask holds, and on sides
    without tables (``lines`` of None), the samples are summed exp by exp.
    M is taken once per distinct real part, each by the same operations as
    at any other.
    """
    g = np.empty(z.shape, dtype=complex)
    # samples run around the boundary, so each side is one run of the block
    edges = np.searchsorted(side, np.arange(5)).tolist()
    runs = [(s, edges[s], edges[s + 1]) for s in range(4) if edges[s] < edges[s + 1]]
    if level > _MASK_BITS or lines[0] is None:
        g[:] = power_sum(n, z)
    elif level == 0:
        # the first samples of a side are its points in order
        for s, lo, hi in runs:
            g[lo:hi] = lines[s].sums(int(index[lo]), int(index[hi - 1]) + 1)
    else:
        kinds, which = _distinct(mask)
        has = (kinds[:, None] >> np.arange(level, dtype=np.uint64)) & 1 == 1
        with np.errstate(over="ignore", invalid="ignore"):
            for s, lo, hi in runs:
                rows = np.ones((kinds.size, n), dtype=complex)
                for b in range(level):
                    rows[has[:, b]] *= halves[b][s]
                terms = lines[s].terms(index[lo:hi])
                terms *= rows[which[lo:hi]]
                g[lo:hi] = terms.sum(axis=-1)
    logs = _log_table(n)[1:]
    reals, at = _distinct(z.real)
    with np.errstate(over="ignore"):
        bound = (logs * np.exp(np.multiply.outer(reals, logs))).sum(axis=-1)
    return g, bound[at]


def _boundary_samples(
    n: int,
    z: np.ndarray,
    lines: list[LineTable | None],
    halves: list[np.ndarray],
    side: np.ndarray,
    index: np.ndarray,
    mask: np.ndarray,
    level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """G at z and the bound on |G'| by ``_sample_block``, in blocks of about
    ``_CHUNK_BYTES``; a non-finite G or bound, or a modulus below 1e-9,
    raises BoundaryZero.
    """
    g = np.empty(z.shape, dtype=complex)
    bound = np.empty(z.shape)
    step = max(1, _CHUNK_BYTES // (16 * n))
    for lo in range(0, z.size, step):
        part = slice(lo, lo + step)
        g[part], bound[part] = _sample_block(
            n, z[part], lines, halves, side[part], index[part], mask[part], level
        )
    bad = ~(np.isfinite(g) & np.isfinite(bound))
    if bad.any():
        raise BoundaryZero(f"power sum or its slope is not finite at {z[np.argmax(bad)]:.6g}")
    small = np.abs(g) < 1e-9
    if small.any():
        k = int(np.argmax(small))
        raise BoundaryZero(f"modulus {abs(g[k]):.3g} on the boundary at {z[k]:.6g}")
    return g, bound


def winding_count(n: int, rect: SearchRectangle) -> int:
    """Number of zeros inside the rectangle by the argument principle.

    Certified phase tracking (Ying and Katz, Numer. Math. 53, 1988).  A step
    [a, b] of the boundary is accepted when |b - a| * M < |G(a)| + |G(b)|
    (exact moduli: see the end), where M = sum(ln k * k^x, k=2..n) bounds
    |G'| up to x, the larger real part of a and b.  G then maps the step
    into an ellipse with foci G(a) and G(b) that excludes 0, so arg G moves
    by less than pi and the principal angle of G(b)/G(a) is its exact
    change.  Every rejected step is bisected, one array pass per level.
    Raises BoundaryZero when G or M is not finite, or |G| is below 1e-9, on
    a sample, when the samples would exceed ``_WINDING_MAX_SAMPLES``
    (checked before they are allocated), when a step to split has a
    midpoint that rounds onto one of its ends, or when the angle sum is not
    near an integer multiple of 2 pi.  Raises
    GridBudgetExceeded before any sample is evaluated when n exceeds
    ``_MAX_TABLE_TERMS`` or the first samples times n exceed ``_MAX_TERMS``,
    and before a bisection pass when the samples so far times n would.

    G comes from one ``LineTable`` per side (``_sample_block``): no complex
    exponential per sample and term.  Each sample keeps its side, its index
    among the side's first samples and a bitmask of the half steps that
    placed it, and no terms.  Tables that would hold more rows than a block
    of ``_CHUNK_BYTES`` holds samples (n of about 1000 or more on the
    default rectangle) are not built, and every sample is summed exp by exp.
    A sample placed at level L lies within

        B_L = sum_k k^x (e_k + 3 gamma_2n (1 + e_k)),
        e_k = 2.1 expm1((8 + L) u Z ln k + (L + 2)(kappa + 3) u),

    of ``power_sum`` at its point, with x the side's larger real part,
    Z = |corner| + count |h| for the side's first corner and step h, and
    kappa and u as in ``LineTable`` (level 0: its ``bound``): the midpoints
    round once per level, and each half step adds a libm row and a product.

    So |G(a)| and |G(b)| above are the computed moduli less what rounding may
    have moved each by, E = u (160 Z M + (2100 + 7 n)(1 + 1.5 M)) with M at
    the sample and Z the largest of the four sides'.  Relative to k^x a term
    errs by at most 2.1 (72 u Z ln k + 990 u) at level 64, the deepest a
    mask holds, while that is small (a phase off by more errs by at most 2),
    and by 3 u Z ln k + (kappa + 1) u exp by exp; the sums add 7 n u; and
    sum_k k^x <= 1 + M / ln 2.  A zero on the boundary, whose step would
    otherwise pass or fail by rounding alone, is split until a sample's |G|
    falls below 1e-9 or a midpoint meets an end.
    """
    _check_n(n)
    corners = rect.corners
    pairs = list(zip(corners, corners[1:] + corners[:1]))
    lengths = [abs(b - a) * max(1.0, math.log(n)) for a, b in pairs]
    if sum(max(8.0, length) for length in lengths) > _WINDING_MAX_SAMPLES:
        raise BoundaryZero(
            f"winding count needs more than {_WINDING_MAX_SAMPLES} samples on the boundary"
        )
    counts = [max(8, math.ceil(length)) for length in lengths]
    _check_terms(n, sum(counts))
    logs = _log_table(n)
    # tables holding more rows than a block holds samples (n about 1000 or
    # more) would outgrow the blocks: their samples are summed exp by exp
    tabled = sum(map(table_rows, counts)) <= _CHUNK_BYTES // (16 * n)
    z, steps, lines, halves = [], [], [], []
    for (a, b), count in zip(pairs, counts):
        points, h = np.linspace(a, b, count, endpoint=False, retstep=True)
        z.append(points)
        steps.append(h)
        lines.append(LineTable(a, h, count, logs) if tabled else None)
    z = np.concatenate(z)
    side = np.repeat(np.arange(4, dtype=np.int8), counts)
    index = np.concatenate([np.arange(count, dtype=np.int32) for count in counts])
    mask = np.zeros(z.size, dtype=np.uint64)
    level = 0
    g, bound = _boundary_samples(n, z, lines, halves, side, index, mask, level)
    # the two factors of E (see the docstring), 160 Z and 2100 + 7 n
    reach, spread = 160.0 * max(abs(a) + abs(b - a) for a, b in pairs), 2100.0 + 7.0 * n
    while True:
        # step j runs from sample j to sample j + 1, the last one back to the first
        z_next, g_next = np.roll(z, -1), np.roll(g, -1)
        slope = np.maximum(bound, np.roll(bound, -1))
        with np.errstate(over="ignore"):
            # a lower bound on each exact |G|: the computed one less E
            low = np.abs(g) - _UNIT_ROUNDOFF * (reach * bound + spread * (1.0 + 1.5 * bound))
            split = np.abs(z_next - z) * slope >= low + np.roll(low, -1)
        if not split.any():
            break
        samples = z.size + int(np.count_nonzero(split))
        if samples > _WINDING_MAX_SAMPLES:
            k = int(np.argmax(split))
            raise BoundaryZero(
                f"winding count needs more than {_WINDING_MAX_SAMPLES} samples near "
                f"{z[k]:.6g}; zero close to the edge?"
            )
        _check_terms(n, samples)
        level += 1
        bit = np.uint64(1 << (level - 1) if level <= _MASK_BITS else 0)
        if tabled and level <= _MASK_BITS:
            # every step split at this level is h 2^(1 - level) long
            with np.errstate(over="ignore", invalid="ignore"):
                halves.append(_terms(n, np.array(steps) * 0.5**level))
        # a step's midpoint lies on the side of its left end
        mid = 0.5 * (z[split] + z_next[split])
        stuck = (mid == z[split]) | (mid == z_next[split])
        if stuck.any():
            point = mid[np.argmax(stuck)]
            raise BoundaryZero(f"winding step at {point:.17g} has no midpoint between its ends")
        mid_side, mid_index, mid_mask = side[split], index[split], mask[split] | bit
        g_mid, bound_mid = _boundary_samples(
            n, mid, lines, halves, mid_side, mid_index, mid_mask, level
        )
        # each midpoint goes right after its step's left end
        after = np.concatenate([np.arange(z.size), np.flatnonzero(split)])
        order = np.argsort(after, kind="stable")
        z = np.concatenate([z, mid])[order]
        g = np.concatenate([g, g_mid])[order]
        bound = np.concatenate([bound, bound_mid])[order]
        side = np.concatenate([side, mid_side])[order]
        index = np.concatenate([index, mid_index])[order]
        mask = np.concatenate([mask, mid_mask])[order]
    turns = float(np.angle(np.roll(g, -1) / g).sum()) / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.2:
        raise BoundaryZero(f"winding sum {turns:.6g} is not close to an integer")
    return int(nearest)


def _seed(n: int, rect: SearchRectangle, found: dict[complex, float]) -> dict[complex, float]:
    """Add to ``found`` the zeros Newton reaches from the grid minima of |G|,
    each with its residual, the last of its Newton history.

    A converged zero is kept when its residual is at most ZERO_RESIDUAL_TOL,
    it lies in the rectangle, and no kept zero is within _DEDUPE_DIST of it;
    the minima are taken in order.  They are those of
    ``scan_modulus(n, rect)``, found by ``_grid_minima`` as arrays of rows and
    columns, and Newton runs from all of them at once (``_newton``), started
    at the grid points re[cols] + i im[rows].
    """
    re, im, rows, cols = _grid_minima(n, rect)
    starts = np.empty(rows.size, dtype=complex)
    starts.real, starts.imag = re[cols], im[rows]
    for refined in _newton(n, starts):
        if refined is None:
            continue
        z, history = refined
        if history[-1] > ZERO_RESIDUAL_TOL or not rect.contains(z):
            continue
        if all(abs(z - seen) > _DEDUPE_DIST for seen in found):
            found[z] = history[-1]
    return found


def _verified(n: int, rect: SearchRectangle, found: dict[complex, float]) -> list[ComplexZero]:
    """The zeros sorted by (Im, Re) with their residuals; none may hug the edge.

    Each residual is the last of its Newton history, which is
    ``abs(power_sum(n, z))`` bit for bit.
    """
    for z in found:
        if rect.edge_distance(z) < _EDGE_MARGIN:
            raise BoundaryZero(f"zero {z:.9g} within {_EDGE_MARGIN:.0e} of the edge")
    ordered = sorted(found, key=lambda z: (z.imag, z.real))
    return [ComplexZero(z=z, modulus_residual=found[z], n=n) for z in ordered]


def find_zeros(n: int, rect: SearchRectangle | None = None) -> list[ComplexZero]:
    """Locate the zeros of the power sum inside a rectangle.

    The audit comes first: the scan grid's budget, then the winding count,
    so a rectangle either refuses with GridBudgetExceeded or BoundaryZero
    before any seeding or Newton start.  Grid minima of the modulus then seed
    Newton refinement; converged zeros are deduplicated, filtered to the
    rectangle and checked against the count.  When the count exceeds the
    zeros found, the search is seeded once more on the grid
    (2 grid_re - 1) x (2 grid_im - 1), which keeps every old node, and only
    new zeros are added; that grid is skipped when it is over the budget.
    An ``IncompleteSearch`` warning flags any mismatch left.  Zeros within
    1e-6 of the boundary raise BoundaryZero instead of silently corrupting
    the audit.
    """
    if rect is None:
        rect = default_rectangle()
    _check_grid(n, rect)
    turns = winding_count(n, rect)
    found = _seed(n, rect, {})
    grid_re, grid_im = 2 * rect.grid_re - 1, 2 * rect.grid_im - 1
    if turns > len(found) and _grid_refusal(n, grid_re, grid_im) is None:
        finer = SearchRectangle(
            rect.re_min, rect.re_max, rect.im_min, rect.im_max, grid_re, grid_im
        )
        _seed(n, finer, found)
    zeros = _verified(n, rect, found)
    if turns != len(zeros):
        warnings.warn(
            IncompleteSearch(
                f"winding count {turns} != {len(zeros)} zeros found; "
                "refine the grid or shrink the rectangle"
            )
        )
    return zeros


class PowerSolution(Frozen):
    """One-sided solution Re(|x|^alpha) on x < 0, zero on x >= 0.

    Solves f(x) + f(2x) + ... + f(nx) = 0 pointwise for x != 0; continuous
    at 0 only when Re(alpha) > 0 (the modulus blows up or oscillates without
    settling otherwise), reported by ``continuous_at_zero``.  An n that is
    no integer, or below 2, and a NaN or infinite point raise InvalidInput.
    """

    __slots__ = ("alpha", "n")
    alpha: complex
    n: int

    def __init__(self, alpha: complex, n: int) -> None:
        super().__init__(alpha, n)
        _check_n(self.n)

    @property
    def continuous_at_zero(self) -> bool:
        # derived, not a field: pickle and copy rebuild a record from its fields
        return self.alpha.real > 0.0

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if not np.isfinite(arr).all():
            raise InvalidInput("points must be finite")
        scalar = np.isscalar(x) or arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros_like(arr)
        neg = arr < 0.0
        if np.any(neg):
            r = np.log(-arr[neg])
            out[neg] = np.exp(self.alpha.real * r) * np.cos(self.alpha.imag * r)
        return float(out[0]) if scalar else out


def solution_from_zero(zero: ComplexZero) -> PowerSolution:
    """Build the power-type solution attached to a verified zero."""
    return PowerSolution(alpha=zero.z, n=zero.n)


def residual_integer_equation(f: Callable, n: int, grid) -> float:
    """max over the grid of |f(x) + f(2x) + ... + f(nx)|.

    A grid whose size times n exceeds ``_MAX_TERMS`` raises GridBudgetExceeded
    before f is called, and so does InvalidInput when a multiple k x of a
    finite point overflows (n x for the largest |x| overflows first).
    """
    _check_n(n)
    x = np.asarray(grid, dtype=float)
    _check_terms(n, x.size)
    top = float(np.abs(x[np.isfinite(x)]).max(initial=0.0))
    if math.isinf(n * top):
        raise InvalidInput(f"the point {n} x overflows a float at |x| = {top:.17g}")
    total = np.zeros_like(x)
    for k in range(1, n + 1):
        vals = f(k * x)
        total = total + np.asarray(vals, dtype=float)
    return float(np.max(np.abs(total))) if x.size else 0.0
