"""Zeros of the exponential sums 1 + 2^z + ... + N^z and induced solutions.

The integer-coefficient dilation equation f(x) + f(2x) + ... + f(Nx) = 0 has
one-sided power solutions Re(|x|^alpha) on x < 0 for every complex zero alpha
of the sum.  Zeros are located from the local minima of the modulus on a
grid, refined by Newton, and audited with an argument-principle winding
count over the rectangle boundary.

The engine keeps transcendental calls few:

- ``scan_modulus`` splits ``k^(x+iy) = k^x * e^(iy ln k)``.  It takes
  ``(grid_re + grid_im) * n`` complex exponentials for a radial and a phase
  table (``_tables``) instead of one per grid point and term, multiplies the
  tables for a block of rows at a time (temporaries stay near
  ``_CHUNK_BYTES``, 1 MiB) and sums each row's terms in the same pairwise
  order as ``power_sum``.  While ``max|Re z| * ln n <= 700`` every cell
  equals ``abs(power_sum(n, z))`` bit for bit.  Above 709 the complex
  exponential scales its argument and rounds twice, so a finite cell may
  differ in the last bit, and a cell whose terms overflow is non-finite in
  both and may read ``inf`` in one and ``nan`` in the other.
  ``find_zeros`` never gets that far: the rectangle's right edge overflows
  too, and the winding count raises ``BoundaryZero``.
- ``find_zeros`` seeds from the minima of that scan without computing it
  (``_grid_minima``): two real matrix products of the same tables estimate
  |G| on every cell within a proved bound, cells that a neighbour provably
  undercuts are dropped, and only the rest and their neighbours are summed
  exactly, by the scan's own operations.  The seeds, and so every zero,
  are those of the full scan, bit for bit and in the same order.
- ``newton_refine`` takes ``g`` and ``g'`` of each iterate from one table of
  terms ``exp(z ln k)``: one exponential pass per step.
- ``winding_count`` tracks arg G along the boundary on samples close
  enough that it provably moves by less than pi between neighbours (see its
  docstring), bisecting every uncertified step in one array pass per level.
  The principal angles of the steps then sum to 2 pi times the count, up to
  rounding, on at most ``_WINDING_MAX_SAMPLES`` samples.
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
import warnings
from typing import Callable

import numpy as np

from ._frozen import Frozen
from .errors import BoundaryZero, GridBudgetExceeded, IncompleteSearch, InvalidInput, InvalidRange

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

#: bytes of temporaries per block of the scan, of the seeding and of winding samples
_CHUNK_BYTES = 1 << 20

#: unit roundoff of float64
_UNIT_ROUNDOFF = 2.0**-53

#: most points one modulus scan grid may hold
_MAX_SCAN_POINTS = 1 << 22

#: most entries of one scan's radial and phase tables, (grid_re + grid_im) * n,
#: and of one power sum at a point, n
_MAX_TABLE_TERMS = 1 << 22

#: most terms one scan may sum, grid points * n, and one equation residual may
#: evaluate, samples * n
_MAX_TERMS = 1 << 26

#: most boundary samples one winding count may evaluate
_WINDING_MAX_SAMPLES = 1 << 18


#: log tables kept at once: a search reads one n, and each table holds n floats
_LOG_TABLES = 8


@functools.lru_cache(maxsize=_LOG_TABLES)
def _log_table(n: int) -> np.ndarray:
    return np.log(np.arange(1, n + 1, dtype=float))


def _check_n(n: int) -> None:
    if n < 2:
        raise InvalidInput("the exponential sum needs n >= 2")


def _terms(n: int, zz: np.ndarray) -> np.ndarray:
    """exp(z ln k), k = 1..n, on a new last axis.  Callers ignore overflow and
    invalid: inf from wildly divergent Newton iterates is discarded."""
    _check_n(n)
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
        out = (_log_table(n) * _terms(n, zz)).sum(axis=-1)
    return complex(out) if zz.ndim == 0 else out


class SearchRectangle(Frozen):
    """Axis-aligned scan region with grid resolution for seeding Newton."""

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
    """A verified zero of the order-n power sum."""

    __slots__ = ("z", "modulus_residual", "n")
    z: complex
    modulus_residual: float
    n: int

    def __init__(self, z: complex, modulus_residual: float, n: int) -> None:
        super().__init__(z, modulus_residual, n)
        # both checks are written so that NaN fails them
        if not self.modulus_residual <= ZERO_RESIDUAL_TOL:
            raise InvalidInput(
                f"residual {self.modulus_residual:.3g} exceeds {ZERO_RESIDUAL_TOL:.0e}"
            )
        if not abs(self.z.imag) > _EDGE_MARGIN:
            raise InvalidInput("the power sum is positive on the real axis")


def newton_refine(n: int, z0: complex) -> tuple[complex, list[float]] | None:
    """Newton iteration on the power sum from z0.

    Returns the limit and the per-step modulus history, or None when the
    iteration stalls, diverges or runs out of steps.
    """
    z = complex(z0)
    g, gp = _value_and_slope(n, z)
    history: list[float] = []
    for _ in range(_NEWTON_MAX_ITER):
        if gp == 0 or not (math.isfinite(gp.real) and math.isfinite(gp.imag)):
            return None
        dz = g / gp
        z_next = z - dz
        if not (math.isfinite(z_next.real) and math.isfinite(z_next.imag)):
            return None
        g_next, gp_next = _value_and_slope(n, z_next)
        res_next = abs(g_next)
        if history and history[-1] <= 1e-12 and res_next >= history[-1]:
            # at rounding level another step cannot improve; keep the best iterate
            return z, history
        z, g, gp = z_next, g_next, gp_next
        history.append(res_next)
        if abs(dz) <= 1e-13 * (1.0 + abs(z)):
            return z, history
    return None


def _value_and_slope(n: int, z: complex) -> tuple[complex, complex]:
    """``power_sum(n, z)`` and ``power_sum_deriv(n, z)`` from one term table."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _terms(n, np.asarray(z, dtype=complex))
        return complex(terms.sum(axis=-1)), complex((_log_table(n) * terms).sum(axis=-1))


def _grid_refusal(n: int, grid_re: int, grid_im: int) -> str | None:
    """Why a scan of n terms on this grid is over budget, or None."""
    points = grid_re * grid_im
    if points > _MAX_SCAN_POINTS:
        return (
            f"scan grid of {grid_re} x {grid_im} points exceeds the budget of {_MAX_SCAN_POINTS}"
        )
    if (grid_re + grid_im) * n > _MAX_TABLE_TERMS:
        return f"scan tables of ({grid_re} + {grid_im}) x {n} terms exceed {_MAX_TABLE_TERMS}"
    if points * n > _MAX_TERMS:
        return f"scan of {points} points x {n} terms exceeds the budget of {_MAX_TERMS}"
    return None


def _check_grid(n: int, rect: SearchRectangle) -> None:
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


def _tables(n: int, rect: SearchRectangle) -> tuple[np.ndarray, ...]:
    """The grid axes and the scan's tables ``(re, im, radial, phase)``.

    ``radial[j, k]`` is exp(re[j] ln k) and ``phase[i, k]`` is exp(i im[i] ln k),
    both exponentiated as complex numbers so that their products match
    exp((x + iy) ln k) bit for bit; see the module docstring for the range.
    ``radial`` is real: its imaginary parts are zero.  A grid of more than
    ``_MAX_SCAN_POINTS`` points, or over the n-aware budgets
    ``_MAX_TABLE_TERMS`` and ``_MAX_TERMS``, raises GridBudgetExceeded before
    anything is allocated.
    """
    _check_n(n)
    _check_grid(n, rect)
    re = np.linspace(rect.re_min, rect.re_max, rect.grid_re)
    im = np.linspace(rect.im_min, rect.im_max, rect.grid_im)
    logs = _log_table(n)
    with np.errstate(over="ignore", invalid="ignore"):
        radial = np.exp(np.multiply.outer(re, logs).astype(complex))
        phase = np.exp(1j * np.multiply.outer(im, logs))
    return re, im, radial, phase


def scan_modulus(n: int, rect: SearchRectangle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modulus of the power sum on the rectangle grid (re axis, im axis, |G|).

    Each term is the product of a radial factor exp(x ln k) and a phase
    exp(iy ln k) from ``_tables``, which also checks the budgets.

    The im rows are taken in blocks of about ``_CHUNK_BYTES`` (1 MiB) of
    complex temporaries, small enough to stay in a core's L2 cache.  A cell
    is computed by the same operations whatever its block, so the block size
    does not change a bit of the result.
    """
    re, im, radial, phase = _tables(n, rect)
    mod = np.empty((im.size, re.size))
    rows = max(1, _CHUNK_BYTES // (16 * re.size * n))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, im.size, rows):
            terms = radial * phase[i : i + rows, None, :]
            np.abs(terms.sum(axis=-1), out=mod[i : i + rows])
    return re, im, mod


def _exact_modulus(
    radial: np.ndarray, phase: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """|G| at the cells ``(rows[m], cols[m])`` by the scan's own operations.

    Each cell multiplies the same table entries in the same order and sums
    its n terms along a contiguous last axis, as ``scan_modulus`` does, so it
    equals its scan cell bit for bit.  Cells go in chunks of about
    ``_CHUNK_BYTES`` of complex temporaries.
    """
    out = np.empty(rows.size)
    step = max(1, _CHUNK_BYTES // (48 * radial.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, rows.size, step):
            terms = radial[cols[lo : lo + step]] * phase[rows[lo : lo + step]]
            np.abs(terms.sum(axis=-1), out=out[lo : lo + step])
    return out


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


def _grid_minima(
    n: int, rect: SearchRectangle
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """The grid axes and ``_local_minima(scan_modulus(n, rect)[2])``, summed
    exactly only where a minimum can be.

    Re G and Im G are estimated on every cell by two real matrix products of
    the scan's tables, ``phase.real @ radial.T`` and ``phase.imag @ radial.T``,
    which BLAS sums in any order.  With r_k = k^x the radial entries of a
    cell's column, u = 2^-53 and gamma_n = n u / (1 - n u), its estimate E
    lies within

        B = 8 gamma_n sum_k r_k

    of its scan value S (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1).  The scan's terms are the rounded
    products r_k c_k and r_k s_k of the table entries, and both their
    pairwise sum and a dot product in any order lie within
    gamma_n sum_k |r_k c_k| <= gamma_n sum_k r_k of the exact sum, as
    |c_k|, |s_k| <= 1.  So each part of E and S differs by at most
    2 gamma_n sum r_k, and the moduli by at most 2 sqrt(2) gamma_n sum r_k.
    Each of the two hypot roundings adds at most 2 u of its value, and E and
    S are at most sum r_k up to rounding, so with gamma_n >= 2 u (n >= 2)
    both add at most 2 gamma_n sum r_k.  B is over 1.6 times the total, which
    covers the rounding of B and of the comparison below.  The first term
    is exactly 1, so sum r_k >= 1 also covers the absolute error, below
    2^-1074 a term, of products that underflow.  The sum is taken four
    times before it is scaled, so B is infinite wherever a partial sum, or
    E, could overflow.

    A cell is pruned when a 4-neighbour's estimate is lower by more than both
    bounds (``_undercut``): that neighbour's scan value is then strictly
    lower, and the cell fails the minimum test.  A non-finite estimate or
    bound prunes nothing.  Only the survivors and their neighbours are summed
    exactly (``_exact_modulus``), and a survivor is a minimum when it is
    ``<=`` each neighbour, +inf outside the grid, as in ``_local_minima``.
    Rows go in blocks of about ``_CHUNK_BYTES`` of temporaries, each with a
    one-row halo of neighbours, and the minima come in row-major order.
    """
    re, im, radial, phase = _tables(n, rect)
    rad = np.ascontiguousarray(radial.real)
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore"):
        bound = 2.0 * gamma * (4.0 * rad.sum(axis=1))
    rows = max(1, _CHUNK_BYTES // (8 * (2 * n + 8 * re.size)))
    minima: list[tuple[int, int]] = []
    for lo in range(0, im.size, rows):
        hi = min(lo + rows, im.size)
        top, bottom = max(lo - 1, 0), min(hi + 1, im.size)
        block = phase[top:bottom]
        with np.errstate(over="ignore", invalid="ignore"):
            est = np.hypot(
                np.ascontiguousarray(block.real) @ rad.T,
                np.ascontiguousarray(block.imag) @ rad.T,
            )
        keep = ~_undercut(est, bound)
        keep[: lo - top] = False
        keep[hi - top :] = False
        need = keep.copy()
        need[1:] |= keep[:-1]
        need[:-1] |= keep[1:]
        need[:, 1:] |= keep[:, :-1]
        need[:, :-1] |= keep[:, 1:]
        exact = np.full(keep.shape, np.nan)
        cell_rows, cell_cols = np.nonzero(need)
        exact[cell_rows, cell_cols] = _exact_modulus(radial, phase, cell_rows + top, cell_cols)
        minima += [(top + i, j) for i, j in _local_minima(exact) if keep[i, j]]
    return re, im, minima


def _local_minima(a: np.ndarray) -> list[tuple[int, int]]:
    padded = np.pad(a, 1, constant_values=np.inf)
    core = padded[1:-1, 1:-1]
    mask = (
        (core <= padded[:-2, 1:-1])
        & (core <= padded[2:, 1:-1])
        & (core <= padded[1:-1, :-2])
        & (core <= padded[1:-1, 2:])
    )
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]


def _boundary_samples(n: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G at z and the bound sum(ln k * k^(Re z), k=2..n) on |G'| left of Re z.

    Evaluated in blocks of about ``_CHUNK_BYTES``; a non-finite G or bound,
    or a modulus below 1e-9, raises BoundaryZero.
    """
    logs = _log_table(n)[1:]
    g = np.empty(z.shape, dtype=complex)
    bound = np.empty(z.shape)
    step = max(1, _CHUNK_BYTES // (16 * n))
    for lo in range(0, z.size, step):
        part = z[lo : lo + step]
        g[lo : lo + step] = power_sum(n, part)
        with np.errstate(over="ignore"):
            radial = np.exp(np.multiply.outer(part.real, logs))
            bound[lo : lo + step] = (logs * radial).sum(axis=-1)
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
    [a, b] of the boundary is accepted when |b - a| * M < |G(a)| + |G(b)|,
    where M = sum(ln k * k^x, k=2..n) bounds |G'| up to x, the larger real
    part of a and b.  G then maps the step into an ellipse with foci G(a) and
    G(b) that excludes 0, so arg G moves by less than pi and the principal
    angle of G(b)/G(a) is its exact change.  Every rejected step is bisected,
    one array pass per level.  Raises BoundaryZero when G or M is not finite,
    or |G| is below 1e-9, on a sample, when the samples would exceed
    ``_WINDING_MAX_SAMPLES`` (checked before they are allocated), or when the
    angle sum is not near an integer multiple of 2 pi.  Raises
    GridBudgetExceeded before any sample is evaluated when n exceeds
    ``_MAX_TABLE_TERMS`` or the first samples times n exceed ``_MAX_TERMS``,
    and before a bisection pass when the samples so far times n would.
    """
    _check_n(n)
    corners = rect.corners
    sides = list(zip(corners, corners[1:] + corners[:1]))
    lengths = [abs(b - a) * max(1.0, math.log(n)) for a, b in sides]
    if sum(max(8.0, length) for length in lengths) > _WINDING_MAX_SAMPLES:
        raise BoundaryZero(
            f"winding count needs more than {_WINDING_MAX_SAMPLES} samples on the boundary"
        )
    counts = [max(8, math.ceil(length)) for length in lengths]
    _check_terms(n, sum(counts))
    z = np.concatenate(
        [np.linspace(a, b, count, endpoint=False) for (a, b), count in zip(sides, counts)]
    )
    g, bound = _boundary_samples(n, z)
    while True:
        # step j runs from sample j to sample j + 1, the last one back to the first
        z_next, g_next = np.roll(z, -1), np.roll(g, -1)
        slope = np.maximum(bound, np.roll(bound, -1))
        with np.errstate(over="ignore"):
            split = np.abs(z_next - z) * slope >= np.abs(g) + np.abs(g_next)
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
        mid = 0.5 * (z[split] + z_next[split])
        g_mid, bound_mid = _boundary_samples(n, mid)
        at = np.flatnonzero(split) + 1
        z, g = np.insert(z, at, mid), np.insert(g, at, g_mid)
        bound = np.insert(bound, at, bound_mid)
    turns = float(np.angle(np.roll(g, -1) / g).sum()) / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.2:
        raise BoundaryZero(f"winding sum {turns:.6g} is not close to an integer")
    return int(nearest)


def _seed(n: int, rect: SearchRectangle, found: list[complex]) -> list[complex]:
    """Add to ``found`` the zeros Newton reaches from the grid minima of |G|.

    A converged zero is kept when its residual is at most ZERO_RESIDUAL_TOL,
    it lies in the rectangle, and no kept zero is within _DEDUPE_DIST of it.
    The minima are those of ``scan_modulus(n, rect)``, found by ``_grid_minima``.
    """
    re, im, minima = _grid_minima(n, rect)
    for i, j in minima:
        refined = newton_refine(n, complex(re[j], im[i]))
        if refined is None:
            continue
        z, history = refined
        # the last residual in the history is |G(z)|
        if history[-1] > ZERO_RESIDUAL_TOL or not rect.contains(z):
            continue
        if all(abs(z - seen) > _DEDUPE_DIST for seen in found):
            found.append(z)
    return found


def _verified(n: int, rect: SearchRectangle, found: list[complex]) -> list[ComplexZero]:
    """The zeros sorted by (Im, Re) with their residuals; none may hug the edge."""
    for z in found:
        if rect.edge_distance(z) < _EDGE_MARGIN:
            raise BoundaryZero(f"zero {z:.9g} within {_EDGE_MARGIN:.0e} of the edge")
    ordered = sorted(found, key=lambda z: (z.imag, z.real))
    return [ComplexZero(z=z, modulus_residual=abs(power_sum(n, z)), n=n) for z in ordered]


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
    _check_n(n)
    _check_grid(n, rect)
    turns = winding_count(n, rect)
    found = _seed(n, rect, [])
    zeros = _verified(n, rect, found)
    grid_re, grid_im = 2 * rect.grid_re - 1, 2 * rect.grid_im - 1
    if turns > len(zeros) and _grid_refusal(n, grid_re, grid_im) is None:
        finer = SearchRectangle(
            rect.re_min, rect.re_max, rect.im_min, rect.im_max, grid_re, grid_im
        )
        zeros = _verified(n, rect, _seed(n, finer, found))
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
    settling otherwise), reported by ``continuous_at_zero``.
    """

    __slots__ = ("alpha", "n")
    alpha: complex
    n: int

    @property
    def continuous_at_zero(self) -> bool:
        # derived, not a field: pickle and copy rebuild a record from its fields
        return self.alpha.real > 0.0

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
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
    before f is called.
    """
    _check_n(n)
    x = np.asarray(grid, dtype=float)
    _check_terms(n, x.size)
    total = np.zeros_like(x)
    for k in range(1, n + 1):
        vals = f(k * x)
        total = total + np.asarray(vals, dtype=float)
    return float(np.max(np.abs(total))) if x.size else 0.0
