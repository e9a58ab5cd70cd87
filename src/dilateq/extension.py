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
a strip reads only the breakpoints within bN of it (one binary search).  The
function built so far lives in a buffer that doubles when a side fills.
Two Python lists cache one window of it plus the nodes of small strips not
yet written, so that a small strip finds its window, reads it and adds its
nodes without a numpy call: the lists are filled from the buffer when a
strip's window is not inside them, and emptied when their nodes are written
in a batch and before a large strip.  The breakpoint budget is checked
before any strip is built and once per strip.  Where strips join,
the two values must agree to within the rounding of the read positions
times the local slopes (or to 1e-9 relative).

A strip has two bodies, chosen by size.  When its window breakpoints times
N is at most ``_FLOAT_STRIP_READS`` it is built in Python floats, where
numpy's call overhead on a few dozen floats would cost more than the
arithmetic; larger strips are built in numpy arrays.  The two agree bit for
bit: the float body does the array body's float operations in the same
order, reads each point by numpy's own interpolation formula and sums each
node's terms in read order from +0.0, as ``np.add.reduce`` sums rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Sequence

import numpy as np

from ._frozen import Frozen
from .coefficients import CoefficientVector, ShiftVector
from .errors import (
    CoverageBudgetExceeded,
    DilateqError,
    DomainMismatch,
    GridBudgetExceeded,
    InternalInconsistency,
    InterpolationViolated,
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

#: default tolerance on the boundary compatibility residual
INTERPOLATION_TOL = 1e-9

#: breakpoints closer than _MERGE_EPS * max(1, |w|) are treated as one
_MERGE_EPS = 1e-12

#: relative tolerance of the seam check where strips join (see ``_seam_check``)
_MERGE_VALUE_TOL = 1e-9

#: most reads one residual grid may take, grid points times N + 1
_MAX_READS = 1 << 26

#: most entries, (order + 1)^2, of one Popoviciu Hankel matrix: 8 MiB of floats
_MAX_HANKEL_ENTRIES = 1 << 20

#: most reads (window breakpoints times N) of a strip built in Python floats;
#: a larger strip is built in numpy arrays (see ``_grow``).  The measured
#: crossover lies near 80 reads on dense windows and near 200 on the
#: sparse ones of lattice data (BENCH_12.json)
_FLOAT_STRIP_READS = 128

#: nodes of small strips held in lists before one write to the buffer
_BATCH_NODES = 512


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


class _Breakpoints:
    """Breakpoints and values of the function built so far, in growing buffers.

    The live data is ``bx[head:tail]`` (breakpoints) and ``by[head:tail]``
    (values).  Right strips are written at ``tail`` and left strips before
    ``head``; when a side runs out of room both buffers are reallocated at
    twice the live size plus the request, with all the free room on that
    side.  Two arrays rather than one two-row block halve the size of the
    blocks freed on growth, which keeps glibc's dynamic mmap threshold, and
    with it the heap fragmentation of later large arrays, low.

    Values, or value differences, that overflow a float are refused at the
    next reallocation or when a side is done (``check_finite``), and a batch
    of small strips' nodes as it is written (``write``): not per strip, one
    pass over the live values per copy of them and one over each batch.
    """

    __slots__ = ("bx", "by", "head", "tail")

    def __init__(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self.bx, self.by = np.empty(2 * xs.size), np.empty(2 * xs.size)
        self.head, self.tail = 0, xs.size
        self.bx[: xs.size] = xs
        self.by[: xs.size] = ys

    @property
    def size(self) -> int:
        return self.tail - self.head

    @property
    def xs(self) -> np.ndarray:
        return self.bx[self.head : self.tail]

    @property
    def ys(self) -> np.ndarray:
        return self.by[self.head : self.tail]

    def check_finite(self, right: bool) -> None:
        """Refuse values or differences that overflow, naming the first w a side reached.

        A difference is finite only if both values are, so one test covers
        both.  Runs under ``extend``'s ``errstate``: the overflow is expected.
        """
        bad = np.flatnonzero(~np.isfinite(np.diff(self.ys)))
        if bad.size:
            w = self.xs[bad[0] + 1] if right else self.xs[bad[-1]]
            raise CoverageBudgetExceeded(
                f"extension values or their differences overflow a float at w = {w:.17g}"
            )

    def _regrow(self, room: int, right: bool) -> None:
        self.check_finite(right)
        live = self.size
        cap = 2 * (live + room)
        head = 0 if right else cap - live
        bx, by = np.empty(cap), np.empty(cap)
        bx[head : head + live] = self.xs
        by[head : head + live] = self.ys
        self.bx, self.by, self.head, self.tail = bx, by, head, head + live

    def claim(self, count: int, right: bool) -> int:
        """Start of ``count`` new slots past the tail or before the head.

        The caller has checked the breakpoint budget for them.
        """
        if right:
            if self.tail + count > self.bx.size:
                self._regrow(count, right=True)
            self.tail += count
            return self.tail - count
        if self.head < count:
            self._regrow(count, right=False)
        self.head -= count
        return self.head

    def write(self, xs: list, ys: list, count: int, right: bool) -> None:
        """Write the ``count`` newest entries of lists (xs, ys) past the tail or before the head.

        The newest entries are the last on the right and the first on the
        left.  Values that overflow, in the batch or where it joins the live
        data, are refused as ``check_finite`` refuses them.
        """
        at = self.claim(count, right)
        new = slice(-count, None) if right else slice(count)
        self.bx[at : at + count] = xs[new]
        self.by[at : at + count] = ys[new]
        joined = self.by[at - 1 : at + count] if right else self.by[at : at + count + 1]
        if not np.isfinite(np.diff(joined)).all():
            self.check_finite(right)


def _seam_check(
    existing: float,
    incoming: float,
    where: float,
    points: np.ndarray,
    terms: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> None:
    """Refuse a strip whose value at the seam ``where`` disagrees beyond rounding.

    ``points`` and ``terms`` are the N read positions and values that gave
    ``incoming``; (xs, ys) is the window they were read from.  A gap within
    1e-9 relative passes at once.  Otherwise the bound is 1e-9 of the summed
    term sizes plus the rounding of the read positions (16 ulps at |w| plus
    the largest read) times the summed local slopes.
    """
    gap = abs(existing - incoming)
    if gap <= _MERGE_VALUE_TOL * max(1.0, abs(existing), abs(incoming)):
        return
    # steeper of the two segments next to each read position
    k = np.minimum(np.maximum(np.searchsorted(xs, points), 1), xs.size - 1)
    m = np.minimum(k, xs.size - 2)
    left = np.abs((ys[k] - ys[k - 1]) / (xs[k] - xs[k - 1]))
    right = np.abs((ys[m + 1] - ys[m]) / (xs[m + 1] - xs[m]))
    size = np.abs(terms)
    bound = _MERGE_VALUE_TOL * max(1.0, float(size.sum())) + 16.0 * float(
        np.spacing(abs(where) + size.max()) * np.maximum(left, right).sum()
    )
    if gap > bound:
        raise InternalInconsistency(
            f"strip value {incoming:.17g} disagrees with {existing:.17g} at w = {where:.17g}"
        )


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


def _float_strip(xs: list, ys: list, reads: list, lo: float, hi: float, right: bool):
    """``_array_strip`` in Python floats, bit for bit, with lists for arrays.

    Each step is the array body's own float operation.  ``fl(x - r)`` is
    monotone in x, so the kinks of a read are one run of the window, found
    from a ``bisect`` start.  A read takes ``np.interp``'s formula (numpy's
    ``arr_interp``): the stored value at a breakpoint or past an end, else
    ``slope * (p - x_a) + y_a`` with x_a <= p < x_(a+1), retried from the
    right end of the segment when that is NaN.  A node's terms are summed in
    read order from +0.0, as ``np.add.reduce`` sums the rows.  No read point
    is NaN: nodes and reads are finite.
    """
    last = len(xs) - 1
    x0, xl, y0, yl = xs[0], xs[last], ys[0], ys[last]
    inner = []
    for r in reads:
        # past fl(lo + r), x - r > lo, so fl(x - r) >= lo; a kink equal to lo
        # merges into it.  At or below it, fl(x - r) may still exceed lo
        a = bisect_right(xs, lo + r)
        while a > 0 and xs[a - 1] - r > lo:
            a -= 1
        while a <= last and xs[a] - r < hi:
            inner.append(xs[a] - r)
            a += 1
    inner.sort()
    inner.append(hi)
    nodes, before = [lo], lo
    if lo >= 1.0 if right else hi <= -1.0:
        scale = _MERGE_EPS if right else -_MERGE_EPS
        for x in inner:
            if x - before > x * scale:
                nodes.append(x)
            before = x
    else:
        for x in inner:
            if x - before > _MERGE_EPS * max(1.0, abs(x)):
                nodes.append(x)
            before = x
    nodes[-1] = hi
    values = []
    for node in nodes:
        total = 0.0
        for r in reads:
            p = node + r
            if x0 < p < xl:
                a = bisect_right(xs, p) - 1
                x, y = xs[a], ys[a]
                if x != p:
                    slope = (ys[a + 1] - y) / (xs[a + 1] - x)
                    t = slope * (p - x) + y
                    if t != t:
                        t = slope * (p - xs[a + 1]) + ys[a + 1]
                        if t != t and y == ys[a + 1]:
                            t = y
                    y = t
            else:
                y = y0 if p <= x0 else yl
            total += y
        values.append(-total)
    return nodes, values


def _grow(built: _Breakpoints, reads, edge: float, step: float, stop: float, right: bool):
    """Add strips of width ``step`` at ``edge`` until ``edge`` passes ``stop``.

    The strip on [lo, hi] is g(y) = -sum_j g(y + reads[j]), ``reads`` an
    (N, 1) column reaching back to -bN (right) or forward to bN (left).  Its
    nodes are the exact ends plus every kink xs - reads[j] inside (lo, hi),
    less each within merge range of the one before.  It reads the breakpoints
    within bN of ``edge`` plus two, so interpolation on that window brackets
    every read as all of the data would; the window's near end is the live
    end of the side, its far end one binary search.

    A strip whose window breakpoints times N is at most
    ``_FLOAT_STRIP_READS`` is built in Python floats (``_float_strip``),
    a larger one in numpy arrays (``_array_strip``): on a few dozen floats
    numpy's call overhead outweighs its arithmetic.  Both take the same
    float operations in the same order, numpy's interpolation formula and
    the row order of ``np.add.reduce`` from +0.0 included, so their bits
    agree.  The seam check and the budget are shared.

    A small strip makes no numpy call unless its seam needs checking.  Two
    lists (lx, ly) cache one window of the buffer: when not empty, they hold
    the window copied at the last miss plus the ``pending`` nodes of small
    strips added since, which are not yet in the buffer.  A strip reads its
    window from them when its ``bisect_left`` index proves the window lies
    inside: on the right when it starts at least two in or the lists start
    at the live head, on the left when it ends within them.  Otherwise it
    misses: the pending nodes are written, the buffer is searched, and the
    lists are refilled with a small window or emptied for a large one.  The
    pending nodes are also written once there are ``_BATCH_NODES`` of them,
    which empties the lists, and when the side is done.  A large strip reads
    and writes the buffer directly.  The budget is checked once per strip,
    before its nodes are stored.
    """
    shifts = reads[:, 0].tolist()
    n = len(shifts)
    reach = shifts[0] if right else shifts[-1]
    # the seam: the stored value at ``edge`` (last or first) and the strip's node there
    end, seam = (-1, 0) if right else (0, -1)
    new = slice(1, None) if right else slice(None, -1)
    # ``at_head``: the lists start at the live head (set only on the right)
    lx, ly, at_head, pending = [], [], False, 0
    while edge < stop if right else edge > stop:
        lo, hi = (edge, edge + step) if right else (edge - step, edge)
        k = bisect_left(lx, edge + reach)
        if right:
            # the window starts two before the bisect index, or at the live head
            a, b = k - 2 if k > 2 else 0, len(lx)
            held = k >= 2 or at_head
        else:
            # the window ends two past the bisect index
            a, b = 0, k + 2
            held = b <= len(lx)
        small = held and (b - a) * n <= _FLOAT_STRIP_READS
        if not small:
            if pending:
                built.write(lx, ly, pending, right)
                pending = 0
            head, tail = built.head, built.tail
            k = int(built.bx[head:tail].searchsorted(edge + reach))
            i, j = (head + max(k - 2, 0), tail) if right else (head, min(head + k + 2, tail))
            small = (j - i) * n <= _FLOAT_STRIP_READS
            if small:
                lx, ly, at_head = built.bx[i:j].tolist(), built.by[i:j].tolist(), i == head
                a, b = 0, j - i
            else:
                lx, ly, at_head = [], [], False
        if small:
            xs, ys = lx[a:b], ly[a:b]
            nodes, values = _float_strip(xs, ys, shifts, lo, hi, right)
            existing, incoming = ys[end], values[seam]
        else:
            xs, ys = built.bx[i:j], built.by[i:j]
            nodes, values = _array_strip(xs, ys, reads, lo, hi, right)
            existing, incoming = float(ys[end]), float(values[seam])
        if existing != incoming:
            # the N reads at the seam node, read again: np.interp gives a point
            # the same value in any call on the same window
            xs, ys = np.asarray(xs), np.asarray(ys)
            points = nodes[seam] + reads[:, 0]
            _seam_check(existing, incoming, edge, points, np.interp(points, xs, ys), xs, ys)
        count = len(nodes) - 1
        total = built.size + pending + count
        if total > MAX_BREAKPOINTS:
            raise CoverageBudgetExceeded(f"{total} breakpoints exceed the budget")
        if small:
            if right:
                lx += nodes[new]
                ly += values[new]
            else:
                lx[:0] = nodes[new]
                ly[:0] = values[new]
            pending += count
            if pending >= _BATCH_NODES:
                built.write(lx, ly, pending, right)
                lx, ly, at_head, pending = [], [], False, 0
        else:
            at = built.claim(count, right)
            built.bx[at : at + count] = nodes[new]
            built.by[at : at + count] = values[new]
        edge = hi if right else lo
    if pending:
        built.write(lx, ly, pending, right)
    built.check_finite(right)


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
    n = len(shifts)
    b_n = shifts[-1]
    residual = check_interpolation(boundary, shifts)  # also validates the domain
    if abs(residual) > tol:
        raise InterpolationViolated(
            f"boundary residual {residual:.6g} exceeds tolerance {tol:.6g}"
        )
    w_lo, w_hi = float(target[0]), float(target[1])
    if not (w_lo <= 0.0 and w_hi >= b_n):
        raise InvalidRange(f"target must contain [0, {b_n:.17g}]")

    if not (math.isfinite(w_lo) and math.isfinite(w_hi)):
        raise CoverageBudgetExceeded("an infinite target needs unboundedly many breakpoints")

    # ShiftVector's strict increase makes both steps positive
    step_right = b_n - (shifts[-2] if n >= 2 else 0.0)
    step_left = shifts[0]
    eps = _MERGE_EPS * max(1.0, abs(w_lo), abs(w_hi))
    lo, hi = boundary.domain
    # a strip no wider than the merge range at its far end keeps no new node,
    # so coverage would stop growing or end short; twice that range leaves
    # room for a last strip past the target and for rounding of its ends
    for side, step, far, needed in (
        ("right", step_right, w_hi, hi < w_hi - eps),
        ("left", step_left, w_lo, lo > w_lo + eps),
    ):
        if needed and not step > 2.0 * _MERGE_EPS * max(1.0, abs(far)):
            raise CoverageBudgetExceeded(
                f"{side} strips of width {step:.6g} vanish in the merge range at w = {far:.17g}"
            )
    # every strip adds a breakpoint; one strip less per side absorbs rounding
    # in the strip positions, so this refuses only targets the loops below
    # would refuse too
    least = (
        boundary.breakpoints.size
        + max(0.0, (w_hi - eps - hi) / step_right - 1.0)
        + max(0.0, (lo - eps - w_lo) / step_left - 1.0)
    )
    if least > MAX_BREAKPOINTS:
        raise CoverageBudgetExceeded(
            f"target needs at least {least:.6g} breakpoints, over the budget of {MAX_BREAKPOINTS}"
        )

    # a right strip reads g(y - bN), g(y - (bN - b1)), ...: all within bN to its left
    back_shifts = np.array([-b_n] + [s - b_n for s in shifts[:-1]])[:, None]
    # a left strip reads g(x + b1), ..., g(x + bN): all within bN to its right
    fwd_shifts = np.array(shifts)[:, None]
    built = _Breakpoints(boundary.breakpoints, boundary.values)
    # overflowing values are refused by ``check_finite``, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        _grow(built, back_shifts, hi, step_right, w_hi - eps, right=True)
        _grow(built, fwd_shifts, lo, step_left, w_lo + eps, right=False)

    # the constructor copies the live part of the buffer
    pieces = PiecewiseLinear(built.xs, built.ys)
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


def _check_reads(samples: int, n: int) -> None:
    """Refuse a grid of ``samples`` points, each read at N + 1 points, over ``_MAX_READS``."""
    if samples * (n + 1) > _MAX_READS:
        raise GridBudgetExceeded(
            f"{samples} samples x {n + 1} reads exceed the budget of {_MAX_READS} reads"
        )


def residual_additive(g: Callable, b: ShiftVector | Sequence[float], grid) -> float:
    """max over the grid of |g(w) + g(w+b1) + ... + g(w+bN)|.

    A grid whose size times N + 1 exceeds ``_MAX_READS`` raises
    GridBudgetExceeded before g is called.
    """
    shifts = _shift_entries(b)
    w = np.asarray(grid, dtype=float)
    _check_reads(w.size, len(shifts))
    total = _eval_many(g, w)
    for s in shifts:
        total = total + _eval_many(g, w + s)
    return float(np.max(np.abs(total))) if w.size else 0.0


def residual_multiplicative(
    f: Callable, a: CoefficientVector | Sequence[float], grid
) -> float:
    """max over positive grid points of |f(x) + f(a1 x) + ... + f(aN x)|.

    A grid whose size times N + 1 exceeds ``_MAX_READS`` raises
    GridBudgetExceeded before f is called, and so does OutOfCoverage when
    a_k x overflows for a finite point (the largest |a_k| times the largest
    x overflows first).
    """
    factors = a.entries if isinstance(a, CoefficientVector) else tuple(map(float, a))
    x = np.asarray(grid, dtype=float)
    _check_reads(x.size, len(factors))
    if np.any(x <= 0.0):
        raise NonPositiveSample("multiplicative residual needs x > 0")
    largest, top = max(map(abs, factors), default=0.0), float(x[np.isfinite(x)].max(initial=0.0))
    if math.isinf(largest * top):
        raise OutOfCoverage(f"the point {largest!r} x overflows a float at x = {top:.17g}")
    total = _eval_many(f, x)
    for c in factors:
        total = total + _eval_many(f, c * x)
    return float(np.max(np.abs(total))) if x.size else 0.0


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
