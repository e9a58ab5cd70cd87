"""Zeros of the exponential sums 1 + 2^z + ... + N^z and induced solutions.

The integer-coefficient dilation equation f(x) + f(2x) + ... + f(Nx) = 0 has
one-sided power solutions Re(|x|^alpha) on x < 0 for every complex zero alpha
of the sum.  Zeros are located by a grid scan of the modulus followed by
Newton refinement, and audited with an argument-principle winding count over
the rectangle boundary.

The engine keeps transcendental calls few:

- ``scan_modulus`` splits ``k^(x+iy) = k^x * e^(iy ln k)``.  It takes
  ``(grid_re + grid_im) * n`` complex exponentials for a radial and a phase
  table instead of one per grid point and term, multiplies the tables for a
  block of rows at a time (temporaries stay near ``_CHUNK_BYTES``, 8 MiB)
  and sums each row's terms in the same pairwise order as ``power_sum``.
  While ``max|Re z| * ln n <= 700`` every cell equals
  ``abs(power_sum(n, z))`` bit for bit.  Above 709 the complex exponential
  scales its argument and rounds twice, so a finite cell may differ in the
  last bit, and a cell whose terms overflow is non-finite in both and may
  read ``inf`` in one and ``nan`` in the other.  ``find_zeros`` never gets
  that far: the rectangle's right edge overflows too, and the winding count
  raises ``BoundaryZero``.
- ``newton_refine`` reuses the value from each step's residual check as the
  next step's ``g``: one ``power_sum`` and one ``power_sum_deriv`` per step.
- ``winding_count`` evaluates each side's nodes in one array call and then
  refines breadth first, one array call per level for the midpoints of every
  unsettled segment.  Tolerances, depth, Python complex arithmetic and the
  tree order of the sums are those of the depth-first adaptive trapezoid
  rule, so the integral is the same to the bit.  A non-finite integrand
  raises ``BoundaryZero`` at once, and so does a level of more than
  ``_WINDING_MAX_ACTIVE`` segments.
- ``find_zeros`` seeds once more on the grid with every cell halved when
  the winding count exceeds the zeros found, keeping the zeros it has.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundaryZero, IncompleteSearch, InvalidInput, InvalidRange

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

#: bytes of complex temporaries per block of the scan and per winding call
_CHUNK_BYTES = 8 << 20

#: adaptive winding refinement: first tolerance, halved per level, and depth
_WINDING_TOL = 1e-3
_WINDING_DEPTH = 48

#: initial boundary segments refined together, and the most segments one
#: refinement level of such a block may hold
_WINDING_BLOCK = 4096
_WINDING_MAX_ACTIVE = 1 << 16


@functools.lru_cache(maxsize=None)
def _log_table(n: int) -> np.ndarray:
    return np.log(np.arange(1, n + 1, dtype=float))


def _check_n(n: int) -> None:
    if n < 2:
        raise InvalidInput("the exponential sum needs n >= 2")


def power_sum(n: int, z) -> complex | np.ndarray:
    """1 + 2^z + ... + n^z, each term computed as exp(z ln k)."""
    _check_n(n)
    zz = np.asarray(z, dtype=complex)
    # overflow for wildly divergent Newton iterates is fine: inf is discarded
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(np.multiply.outer(zz, _log_table(n))).sum(axis=-1)
    return complex(out) if zz.ndim == 0 else out


def zeta_partial_sum(n: int, z) -> complex | np.ndarray:
    """1 + 2^-z + ... + n^-z, the length-n partial sum of the zeta series."""
    return power_sum(n, -np.asarray(z, dtype=complex))


def power_sum_deriv(n: int, z) -> complex | np.ndarray:
    """d/dz of the power sum: sum(ln(k) * k^z, k=2..n)."""
    _check_n(n)
    zz = np.asarray(z, dtype=complex)
    logs = _log_table(n)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (logs * np.exp(np.multiply.outer(zz, logs))).sum(axis=-1)
    return complex(out) if zz.ndim == 0 else out


@dataclass(frozen=True)
class SearchRectangle:
    """Axis-aligned scan region with grid resolution for seeding Newton."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    grid_re: int = 61
    grid_im: int = 241

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class ComplexZero:
    """A verified zero of the order-n power sum."""

    z: complex
    modulus_residual: float
    n: int

    def __post_init__(self) -> None:
        if self.modulus_residual > ZERO_RESIDUAL_TOL:
            raise InvalidInput(
                f"residual {self.modulus_residual:.3g} exceeds {ZERO_RESIDUAL_TOL:.0e}"
            )
        if abs(self.z.imag) <= _EDGE_MARGIN:
            raise InvalidInput("the power sum is positive on the real axis")


def newton_refine(n: int, z0: complex) -> tuple[complex, list[float]] | None:
    """Newton iteration on the power sum from z0.

    Returns the limit and the per-step modulus history, or None when the
    iteration stalls, diverges or runs out of steps.
    """
    z = complex(z0)
    g = power_sum(n, z)
    history: list[float] = []
    for _ in range(_NEWTON_MAX_ITER):
        gp = power_sum_deriv(n, z)
        if gp == 0 or not (math.isfinite(gp.real) and math.isfinite(gp.imag)):
            return None
        dz = g / gp
        z_next = z - dz
        if not (math.isfinite(z_next.real) and math.isfinite(z_next.imag)):
            return None
        g_next = power_sum(n, z_next)
        res_next = abs(g_next)
        if history and history[-1] <= 1e-12 and res_next >= history[-1]:
            # at rounding level another step cannot improve; keep the best iterate
            return z, history
        z, g = z_next, g_next
        history.append(res_next)
        if abs(dz) <= 1e-13 * (1.0 + abs(z)):
            return z, history
    return None


def scan_modulus(n: int, rect: SearchRectangle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modulus of the power sum on the rectangle grid (re axis, im axis, |G|).

    Each term is the product of a radial factor exp(x ln k) and a phase
    exp(iy ln k), both exponentiated as complex numbers so that they match
    exp((x + iy) ln k) bit for bit; see the module docstring for the range.
    """
    _check_n(n)
    re = np.linspace(rect.re_min, rect.re_max, rect.grid_re)
    im = np.linspace(rect.im_min, rect.im_max, rect.grid_im)
    logs = _log_table(n)
    mod = np.empty((im.size, re.size))
    rows = max(1, _CHUNK_BYTES // (16 * re.size * n))
    with np.errstate(over="ignore", invalid="ignore"):
        radial = np.exp(np.multiply.outer(re, logs).astype(complex))
        phase = np.exp(1j * np.multiply.outer(im, logs))
        for i in range(0, im.size, rows):
            terms = radial * phase[i : i + rows, None, :]
            np.abs(terms.sum(axis=-1), out=mod[i : i + rows])
    return re, im, mod


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


def _logderiv(n: int, zs: list[complex]) -> list[complex]:
    """G'/G at the points zs, in array calls of about ``_CHUNK_BYTES`` each.

    The quotient is taken in Python complex arithmetic, as a scalar call
    would; a modulus below 1e-9 or a non-finite quotient raises BoundaryZero.
    """
    out: list[complex] = []
    step = max(1, _CHUNK_BYTES // (16 * n))
    for lo in range(0, len(zs), step):
        z = np.array(zs[lo : lo + step], dtype=complex)
        g = power_sum(n, z)
        small = np.abs(g) < 1e-9
        if small.any():
            k = int(np.argmax(small))
            raise BoundaryZero(f"modulus {abs(g[k]):.3g} on the boundary at {z[k]:.6g}")
        d = power_sum_deriv(n, z)
        for zk, dk, gk in zip(z.tolist(), d.tolist(), g.tolist()):
            out.append(dk / gk)
            if not cmath.isfinite(out[-1]):
                raise BoundaryZero(f"winding integrand is not finite at {zk:.6g}")
    return out


def _refine(n: int, segs: list) -> list[complex]:
    """Adaptive trapezoid integrals of G'/G over segments (a, b, f(a), f(b)).

    A segment whose one-step refinement moves the integral by more than its
    tolerance (1e-3, halved per level) is split, at most 48 levels deep.  The
    levels are evaluated breadth first, one array call each, and every split
    segment's value is the sum of its halves, as in the depth-first rule.
    """
    levels: list[tuple[list[complex], list[int]]] = []
    tol, depth = _WINDING_TOL, _WINDING_DEPTH
    while segs:
        mids = [0.5 * (a + b) for a, b, _, _ in segs]
        fms = _logderiv(n, mids)
        fine, split, children = [], [], []
        for i, ((a, b, fa, fb), mid, fm) in enumerate(zip(segs, mids, fms)):
            coarse = 0.5 * (fa + fb) * (b - a)
            fine.append(0.5 * (fa + fm) * (mid - a) + 0.5 * (fm + fb) * (b - mid))
            if not abs(fine[-1] - coarse) <= tol:
                split.append(i)
                children += [(a, mid, fa, fm), (mid, b, fm, fb)]
        levels.append((fine, split))
        if split and depth <= 0:
            raise BoundaryZero(
                f"winding integrand will not settle near {mids[split[0]]:.6g}; "
                "zero close to the edge?"
            )
        if len(children) > _WINDING_MAX_ACTIVE:
            raise BoundaryZero(
                f"winding refinement needs more than {_WINDING_MAX_ACTIVE} segments "
                f"at level {len(levels) + 1}; zero close to the edge?"
            )
        segs, tol, depth = children, 0.5 * tol, depth - 1
    below: list[complex] = []
    for fine, split in reversed(levels):
        for j, i in enumerate(split):
            fine[i] = below[2 * j] + below[2 * j + 1]
        below = fine
    return below


def _boundary_segments(n: int, rect: SearchRectangle):
    """Initial trapezoid segments (a, b, f(a), f(b)) side by side, counterclockwise."""
    corners = rect.corners
    for a, b in zip(corners, corners[1:] + corners[:1]):
        pieces = max(8, int(math.ceil(abs(b - a) * max(1.0, math.log(n)))))
        zs = [a + (b - a) * k / pieces for k in range(pieces + 1)]
        fs = _logderiv(n, zs)
        yield from zip(zs, zs[1:], fs, fs[1:])


def winding_count(n: int, rect: SearchRectangle) -> int:
    """Number of zeros inside the rectangle by the argument principle.

    Trapezoid rule on (d/dz log) of the power sum along the boundary, with
    per-segment adaptive subdivision (``_refine``) over blocks of at most
    ``_WINDING_BLOCK`` initial segments; raises BoundaryZero when the
    integral is ill-conditioned or lands too far from an integer.
    """
    _check_n(n)
    segments = _boundary_segments(n, rect)
    total = 0.0j
    while block := list(itertools.islice(segments, _WINDING_BLOCK)):
        for value in _refine(n, block):
            total += value
    turns = total.imag / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.2:
        raise BoundaryZero(f"winding integral {turns:.6g} is not close to an integer")
    return int(nearest)


def _seed(n: int, rect: SearchRectangle, found: list[complex]) -> list[complex]:
    """Add to ``found`` the zeros Newton reaches from the grid minima of |G|.

    A converged zero is kept when its residual is at most ZERO_RESIDUAL_TOL,
    it lies in the rectangle, and no kept zero is within _DEDUPE_DIST of it.
    """
    re, im, mod = scan_modulus(n, rect)
    for i, j in _local_minima(mod):
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

    Grid minima of the modulus seed Newton refinement; converged zeros are
    deduplicated, filtered to the rectangle and checked against the winding
    count.  When the count exceeds the zeros found, the search is seeded once
    more on the grid (2 grid_re - 1) x (2 grid_im - 1), which keeps every old
    node, and only new zeros are added; an ``IncompleteSearch`` warning flags
    any mismatch left.  Zeros within 1e-6 of the boundary raise BoundaryZero
    instead of silently corrupting the audit.
    """
    if rect is None:
        rect = default_rectangle()
    found = _seed(n, rect, [])
    zeros = _verified(n, rect, found)
    turns = winding_count(n, rect)
    if turns > len(zeros):
        finer = dataclasses.replace(
            rect, grid_re=2 * rect.grid_re - 1, grid_im=2 * rect.grid_im - 1
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


@dataclass(frozen=True)
class PowerSolution:
    """One-sided solution Re(|x|^alpha) on x < 0, zero on x >= 0.

    Solves f(x) + f(2x) + ... + f(nx) = 0 pointwise for x != 0; continuous
    at 0 only when Re(alpha) > 0 (the modulus blows up or oscillates without
    settling otherwise), recorded in ``continuous_at_zero``.
    """

    alpha: complex
    n: int
    continuous_at_zero: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "continuous_at_zero", self.alpha.real > 0.0)

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
    """max over the grid of |f(x) + f(2x) + ... + f(nx)|."""
    _check_n(n)
    x = np.asarray(grid, dtype=float)
    total = np.zeros_like(x)
    for k in range(1, n + 1):
        vals = f(k * x)
        total = total + np.asarray(vals, dtype=float)
    return float(np.max(np.abs(total))) if x.size else 0.0
