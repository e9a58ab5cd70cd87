"""Global extension of boundary data for g(w) + g(w+b1) + ... + g(w+bN) = 0.

Continuous data g on [0, bN] extends to a unique continuous solution on all
of R once it satisfies the compatibility condition g(0) + g(b1) + ... + g(bN)
= 0.  Rightward, each new strip of width bN - b_{N-1} is determined by the
rearranged equation

    g(y) = -[ g(y - bN) + g(y - (bN - b1)) + ... + g(y - (bN - b_{N-1})) ],

whose arguments all lie in previously covered territory; leftward, strips of
width b1 come from g(x) = -[ g(x + b1) + ... + g(x + bN) ].

Everything here stays piecewise linear: a new strip is a sum of shifted
restrictions of the already-built function, so it is represented exactly by
its values on the union of the shifted breakpoints.  That makes the equation
hold identically (up to float rounding) instead of only at sample points.

One loop builds the strips of both sides, at a cost linear in their number:
a strip reads only the breakpoints within bN of it (one binary search).
Where strips join, the two values must agree to within the rounding of the
read positions times the local slopes (or to 1e-9 relative), and values
that overflow a float are refused where they overflow.

The loop, the buffer it builds in, the seam check, the strip body in Python
floats, the compatibility tolerance and its refusal, the merge range, the
plan of a build (steps, stops, breakpoint estimate, vanishing strips) and
the read budget live in ``_floats``, which imports no numpy and which the
command line also runs on its own for small ``extend`` and ``residual
--shifts`` calls.  A strip whose window breakpoints times N is at most
``_floats._FLOAT_STRIP_READS`` is built in floats, where numpy's call
overhead on a few dozen floats would cost more than the arithmetic; this
module gives the loop its array body (``_array_strip``) for larger strips,
over zero-copy views of the buffer.  The two agree bit for bit: the float
body does the array body's float operations in the same order, reads each
point by numpy's own interpolation formula and sums each node's terms in
read order from +0.0, as ``np.add.reduce`` sums rows.  Every library caller
gets ``PiecewiseLinear`` arrays.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._floats import (
    INTERPOLATION_TOL,
    _MERGE_EPS,
    _Breakpoints,
    _check_reads,
    _grow,
    _incompatible,
    _plan,
    _unbounded,
)
from ._frozen import Frozen
from .coefficients import CoefficientVector, ShiftVector
from .errors import (
    CoverageBudgetExceeded,
    DilateqError,
    DomainMismatch,
    GridBudgetExceeded,
    InvalidInput,
    InvalidRange,
    NonPositiveSample,
    OutOfCoverage,
    _integer,
)

__all__ = [
    "PiecewiseLinear",
    "ExtendedSolution",
    "check_interpolation",
    "tent_boundary",
    "periodic_reference",
    "extend",
    "residual_additive",
    "residual_multiplicative",
    "popoviciu_determinant",
]

#: hard cap on breakpoints accumulated during extension
MAX_BREAKPOINTS = 1_000_000

#: most entries, (order + 1)^2, of one Popoviciu Hankel matrix: 8 MiB of floats
_MAX_HANKEL_ENTRIES = 1 << 20


class PiecewiseLinear:
    """Continuous piecewise-linear function on [breakpoints[0], breakpoints[-1]].

    Evaluation between breakpoints interpolates linearly.  A point within a
    relative slack of 1e-12 outside the domain reads the value at the nearer
    end; a point beyond it raises ``OutOfCoverage``, and NaN raises
    ``InvalidInput``.  A read is one ``np.interp`` pass that marks points
    outside the domain NaN; only when a NaN shows up does a second pass sort
    them into ends, refusals and NaN reads.  A Python or numpy float within
    the slack skips the array handling.  ``breakpoints`` and ``values`` are
    read-only views of private copies, so neither the caller's input nor
    ``f.values[i] = ...`` can change the function after construction, nor
    that of a pickled or copied one.  Breakpoint or value differences that
    overflow a float, whose slopes would read NaN, raise ``InvalidInput``.
    """

    __slots__ = ("breakpoints", "values", "_xp", "_fp", "_lo", "_hi")

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        x = np.array(breakpoints, dtype=float)
        y = np.array(values, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise InvalidInput("breakpoints and values must be 1-d and equal length")
        if x.size < 2:
            raise InvalidInput("need at least two breakpoints")
        with np.errstate(over="ignore", invalid="ignore"):
            dx, dy = np.diff(x), np.diff(y)
        if not np.all(dx > 0):
            raise InvalidInput("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidInput("breakpoints and values must be finite")
        # a difference past the largest float makes a slope inf, or NaN (inf / inf)
        if not (np.isfinite(dx).all() and np.isfinite(dy).all()):
            raise InvalidInput("breakpoint or value differences overflow a float")
        # np.interp copies a read-only array on every call, so evaluation
        # reads private writable arrays and callers get read-only views
        self._xp, self._fp = x, y
        self.breakpoints, self.values = x.view(), y.view()
        self.breakpoints.flags.writeable = False
        self.values.flags.writeable = False
        # the readable interval, domain plus slack, as Python floats
        slack = _MERGE_EPS * max(1.0, abs(x[0]), abs(x[-1]))
        self._lo, self._hi = float(x[0] - slack), float(x[-1] + slack)

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, read-only views included
        return (PiecewiseLinear, (self._xp, self._fp))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __call__(self, w):
        # np.interp answers fp[0] and fp[-1] at and beyond the ends, as at the
        # clamped point, so a read within the slack needs no clamping
        if isinstance(w, float) and self._lo <= w <= self._hi:
            return float(np.interp(w, self._xp, self._fp))
        arr = np.asarray(w, dtype=float)
        out = np.interp(arr, self._xp, self._fp, left=math.nan, right=math.nan)
        # min propagates NaN: one test finds a point outside the domain or a NaN
        if out.size and np.isnan(out.min()):
            if np.isnan(arr).any():
                raise InvalidInput("evaluation point is NaN")
            bad = arr[(arr < self._lo) | (arr > self._hi)]
            if bad.size:
                lo, hi = self.domain
                raise OutOfCoverage(
                    f"point {float(np.ravel(bad)[0]):.17g} outside [{lo:.17g}, {hi:.17g}]"
                )
            # points within the slack, or a NaN that interpolation itself made
            out = np.interp(arr, self._xp, self._fp)
        return float(out) if np.isscalar(w) or arr.ndim == 0 else out


def _shift_entries(b) -> tuple[float, ...]:
    if isinstance(b, ShiftVector):
        return b.entries
    return ShiftVector(tuple(float(v) for v in b)).entries


def check_interpolation(g: PiecewiseLinear, b: ShiftVector | Sequence[float]) -> float:
    """Residual g(0) + g(b1) + ... + g(bN) of the compatibility condition."""
    shifts = _shift_entries(b)
    lo, hi = g.domain
    slack = _MERGE_EPS * max(1.0, abs(shifts[-1]))
    if abs(lo) > slack or abs(hi - shifts[-1]) > slack:
        raise DomainMismatch(
            f"boundary domain [{lo:.17g}, {hi:.17g}] is not [0, {shifts[-1]:.17g}]"
        )
    return float(g(0.0) + sum(g(s) for s in shifts))


def tent_boundary(b: ShiftVector | Sequence[float]) -> PiecewiseLinear:
    """Plateau-and-drop boundary data: 1 on [0, b_{N-1}], linear to -N at bN.

    Satisfies the compatibility condition exactly and is not differentiable,
    which is what makes its extension a witness against finite-dimensionality
    of the solution space.  For N = 1 the plateau degenerates and the data is
    the single segment from (0, 1) to (b1, -1).
    """
    shifts = _shift_entries(b)
    n = len(shifts)
    if n == 1:
        return PiecewiseLinear([0.0, shifts[0]], [1.0, -1.0])
    return PiecewiseLinear(
        [0.0, shifts[-2], shifts[-1]], [1.0, 1.0, -float(n)]
    )


def periodic_reference(n: int) -> PiecewiseLinear:
    """One period of the closed-form solution for shifts b_k = k.

    On [0, n+1]: 1 up to n-1, then down to -n at n along -(n+1)x + n^2, then
    back up to 1 at n+1 along (n+1)x - n(n+2).  Tiled with period n+1 this is
    the global extension of ``tent_boundary((1, ..., n))``.  An n that is no
    integer raises InvalidInput.
    """
    n = _integer(n, "n")
    if n < 2:
        raise InvalidInput("periodic reference requires n >= 2")
    return PiecewiseLinear(
        [0.0, float(n - 1), float(n), float(n + 1)],
        [1.0, 1.0, -float(n), 1.0],
    )


class ExtendedSolution(Frozen):
    """Constructed global solution: boundary data plus covered interval.

    ``pieces`` restricted to [0, bN] reproduces ``boundary``; on any w with
    all of w, w+b1, ..., w+bN inside ``covered`` the additive equation holds
    to rounding.  Immutable after construction; evaluation is thread-safe.
    """

    __slots__ = ("shifts", "boundary", "covered", "pieces")
    shifts: ShiftVector
    boundary: PiecewiseLinear
    covered: tuple[float, float]
    pieces: PiecewiseLinear

    def __call__(self, w):
        return self.pieces(w)


def _array_strip(
    xs: np.ndarray, ys: np.ndarray, reads: np.ndarray, lo: float, hi: float, right: bool
):
    """Nodes and values of the strip on [lo, hi] from the window (xs, ys), in numpy arrays."""
    kinks = xs - reads
    inner = kinks[(kinks > lo) & (kinks < hi)]
    nodes = np.empty(inner.size + 2)
    nodes[0], nodes[1], nodes[2:] = lo, hi, inner
    nodes.sort()
    # 1e-12 * max(1, |w|) is the one multiply +-1e-12 * w where the strip has |w| >= 1
    if lo >= 1.0 if right else hi <= -1.0:
        eps = nodes[1:] * (_MERGE_EPS if right else -_MERGE_EPS)
    else:
        eps = _MERGE_EPS * np.maximum(1.0, np.abs(nodes[1:]))
    keep = np.empty(nodes.size, dtype=bool)
    keep[0] = True
    np.greater(nodes[1:] - nodes[:-1], eps, out=keep[1:])
    nodes = nodes[keep]
    # lo is first and kept; keep hi exact even if a kink landed within merge range
    nodes[-1] = hi
    terms = np.interp(nodes + reads, xs, ys)
    # rows in order, starting from +0.0: minus the strip's values
    return nodes, np.negative(np.add.reduce(terms, axis=0, initial=0.0))


def _window_strip(reads: np.ndarray, right: bool, xs: memoryview, ys: memoryview,
                  lo: float, hi: float):
    """``_array_strip`` on zero-copy views of the window (xs, ys) of the buffer."""
    return _array_strip(np.frombuffer(xs), np.frombuffer(ys), reads, lo, hi, right)


def extend(
    boundary: PiecewiseLinear,
    b: ShiftVector | Sequence[float],
    target: tuple[float, float],
    tol: float = INTERPOLATION_TOL,
) -> ExtendedSolution:
    """Extend boundary data on [0, bN] to cover ``target``, strip by strip.

    ``target`` must contain [0, bN].  The result covers at least ``target``
    (coverage grows in whole strips).  Boundary data must satisfy the
    compatibility condition to within ``tol``.  A target needing more than
    ``MAX_BREAKPOINTS`` breakpoints, or strips on a side no wider than twice
    the merge range 1e-12 * max(1, |w|) at that side's far end, is refused
    with ``CoverageBudgetExceeded`` before any strip is built.  Values that
    overflow a float raise it too, at the latest when the buffer next
    doubles, a batch of small strips' nodes is written or a side is done.
    """
    shifts = _shift_entries(b)
    b_n = shifts[-1]
    residual = check_interpolation(boundary, shifts)  # also validates the domain
    if abs(residual) > tol:
        raise _incompatible(residual, tol)
    w_lo, w_hi = float(target[0]), float(target[1])
    if not (w_lo <= 0.0 and w_hi >= b_n):
        raise InvalidRange(f"target must contain [0, {b_n:.17g}]")

    if not (math.isfinite(w_lo) and math.isfinite(w_hi)):
        raise CoverageBudgetExceeded("an infinite target needs unboundedly many breakpoints")

    lo, hi = boundary.domain
    least, sides = _plan(shifts, lo, hi, boundary.breakpoints.size, w_lo, w_hi)
    if least > MAX_BREAKPOINTS:
        raise CoverageBudgetExceeded(
            f"target needs at least {least:.6g} breakpoints, over the budget of {MAX_BREAKPOINTS}"
        )

    built = _Breakpoints(boundary.breakpoints.tobytes(), boundary.values.tobytes())
    # overflowing values are refused by ``check_finite``, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for reads, edge, step, stop, right in sides:
            arrays = partial(_window_strip, np.array(reads)[:, None], right)
            over = _grow(built, reads, edge, step, stop, right, MAX_BREAKPOINTS, arrays)
            if over:
                raise CoverageBudgetExceeded(f"{over} breakpoints exceed the budget")

    # the constructor copies the live part of the buffer
    live = slice(built.head, built.tail)
    pieces = PiecewiseLinear(np.frombuffer(built.bx[live]), np.frombuffer(built.by[live]))
    return ExtendedSolution(
        shifts=ShiftVector(shifts),
        boundary=boundary,
        covered=pieces.domain,
        pieces=pieces,
    )


def _eval_many(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate a scalar-or-vector callable on an array.

    A callable that fails on the array is read point by point, unless it
    refused the points itself (any ``DilateqError``).
    """
    try:
        out = np.asarray(f(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except DilateqError:
        raise
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(x))) for x in xs])


def _largest_sum(f: Callable, grid: np.ndarray, moved, name: str) -> float:
    """max over ``grid`` of |f(grid) + f(m1) + f(m2) + ...|, the m_k the arrays of ``moved``.

    An empty grid gives 0.  A sum that is not finite (it overflows, or is
    inf - inf) raises DomainViolation at its first such grid point.
    """
    # a sum that overflows or is inf - inf is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        total = _eval_many(f, grid)
        for points in moved:
            total = total + _eval_many(f, points)
    if not grid.size:
        return 0.0
    peak = float(np.max(np.abs(total)))
    if not math.isfinite(peak):
        first = int(np.flatnonzero(~np.isfinite(total))[0])
        raise _unbounded(name, float(grid.flat[first]), float(total.flat[first]))
    return peak


def residual_additive(g: Callable, b: ShiftVector | Sequence[float], grid) -> float:
    """max over the grid of |g(w) + g(w+b1) + ... + g(w+bN)|.

    A grid whose size times N + 1 exceeds ``_MAX_READS`` raises
    GridBudgetExceeded before g is called, and a sum that is not finite
    (it overflows, or is inf - inf) raises DomainViolation.
    """
    shifts = _shift_entries(b)
    w = np.asarray(grid, dtype=float)
    _check_reads(w.size, len(shifts))
    return _largest_sum(g, w, (w + s for s in shifts), "w")


def residual_multiplicative(
    f: Callable, a: CoefficientVector | Sequence[float], grid
) -> float:
    """max over positive grid points of |f(x) + f(a1 x) + ... + f(aN x)|.

    A grid whose size times N + 1 exceeds ``_MAX_READS`` raises
    GridBudgetExceeded before f is called, and so does OutOfCoverage when
    a_k x overflows for a finite point (the largest |a_k| times the largest
    x overflows first).  A sum that is not finite raises DomainViolation.
    """
    factors = a.entries if isinstance(a, CoefficientVector) else tuple(map(float, a))
    x = np.asarray(grid, dtype=float)
    _check_reads(x.size, len(factors))
    if np.any(x <= 0.0):
        raise NonPositiveSample("multiplicative residual needs x > 0")
    largest, top = max(map(abs, factors), default=0.0), float(x[np.isfinite(x)].max(initial=0.0))
    if math.isinf(largest * top):
        raise OutOfCoverage(f"the point {largest!r} x overflows a float at x = {top:.17g}")
    return _largest_sum(f, x, (c * x for c in factors), "x")


def _check_order(n: int) -> None:
    """Refuse a Hankel matrix of order n with over ``_MAX_HANKEL_ENTRIES`` entries."""
    if (n + 1) ** 2 > _MAX_HANKEL_ENTRIES:
        raise GridBudgetExceeded(
            f"order above {math.isqrt(_MAX_HANKEL_ENTRIES) - 1}: its Hankel matrix would "
            f"hold more than {_MAX_HANKEL_ENTRIES} entries"
        )


def popoviciu_determinant(f: Callable, x: float, h: float, n: int) -> float:
    """Determinant of the (n+1) x (n+1) Hankel matrix [f(x + (i+j) h)].

    Vanishing for all (x, h) characterizes exponential polynomials; a single
    decisively nonzero value certifies that f is not one.  An order whose
    matrix would hold more than ``_MAX_HANKEL_ENTRIES`` entries raises
    GridBudgetExceeded before any sample is taken, and an order that is no
    integer raises InvalidInput.
    """
    if h == 0.0:
        raise InvalidInput("step h must be nonzero")
    n = _integer(n, "order n")
    if n < 1:
        raise InvalidInput("order n must be >= 1")
    _check_order(n)
    samples = _eval_many(f, x + h * np.arange(2 * n + 1, dtype=float))
    idx = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    return float(np.linalg.det(samples[idx]))
