"""The strip loop of the extension and the command line's engine, in Python floats.

Both engines of the extension build through this module, which imports no
numpy.  It holds the compatibility tolerance and its refusal, the merge
range, the plan of a build (steps, stops, breakpoint estimate), the read
budget of a residual grid, the store of a build (``_Breakpoints``, two flat
``array('d')`` buffers), the one strip loop (``_grow``), the strip body in
floats and the seam check.  The loop builds a strip with few window reads in
floats and hands a larger one to the array body its caller passes:
``extension.extend`` passes numpy's, over zero-copy views of the buffers.
With no array body every strip is built in floats, with the same bits.

``sampled`` is the command line's engine for ``extend`` and ``residual
--shifts`` when the sizes it sees before building are within
``_FLOAT_NODES`` and ``_FLOAT_READS``: there the numpy import costs more than
the work.  It builds every strip in floats, reads a point by numpy's
interpolation formula (``_read``), forms a grid by ``np.linspace``'s
(``linspace``) and sums in the numpy engine's order, so its numbers and its
refusals are that engine's bit for bit.  Where it would not do what the
numpy engine does, it hands over: it returns None and the caller runs the
numpy engine.  It hands over on boundary data that fails validation or does
not lie exactly on [0, bN], a non-finite target or range width, a size past
its limits and a read outside coverage.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right

from .closedforms import _numpy_sum
from .errors import (
    CoverageBudgetExceeded,
    DomainViolation,
    GridBudgetExceeded,
    InternalInconsistency,
    InterpolationViolated,
)

#: default tolerance on the boundary compatibility residual
INTERPOLATION_TOL = 1e-9

#: breakpoints closer than _MERGE_EPS * max(1, |w|) are treated as one
_MERGE_EPS = 1e-12

#: relative tolerance of the seam check where strips join (see ``_seam_check``)
_MERGE_VALUE_TOL = 1e-9

#: most reads one residual grid may take, grid points times N + 1
_MAX_READS = 1 << 26

#: the float engine's limits on the breakpoints of the boundary and of the
#: extension, and on the reads of the grid (samples times N + 1).  Each is
#: about half the size where floats cost as much more than numpy as the
#: numpy import, so both at once still cost less (BENCH_24.json, crossover)
_FLOAT_NODES = 1 << 15
_FLOAT_READS = 1 << 16

#: most reads (window breakpoints times N) of a strip built in Python floats
#: when the loop has an array body (see ``_grow``).  The measured crossover
#: lies near 80 reads on dense windows and near 200 on the sparse ones of
#: lattice data (BENCH_12.json)
_FLOAT_STRIP_READS = 128

#: nodes of small strips held in lists before one write to the buffer
_BATCH_NODES = 512

#: the byte of a native float that holds its sign and top seven exponent bits
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0

_LARGEST = sys.float_info.max

_ZERO = array("d", [0.0])


def _check_reads(samples: int, n: int) -> None:
    """Refuse a grid of ``samples`` points, each read at N + 1 points, over ``_MAX_READS``."""
    if samples * (n + 1) > _MAX_READS:
        raise GridBudgetExceeded(
            f"{samples} samples x {n + 1} reads exceed the budget of {_MAX_READS} reads"
        )


def _incompatible(residual: float, tol: float) -> InterpolationViolated:
    """The refusal of boundary data whose compatibility residual exceeds ``tol``."""
    return InterpolationViolated(f"boundary residual {residual:.6g} exceeds tolerance {tol:.6g}")


def _unbounded(name: str, point: float, total: float) -> DomainViolation:
    """The refusal of a residual sum that is not finite, at its first such grid point."""
    return DomainViolation(
        f"the residual sum at {name} = {point:.17g} is {total:.17g}, not a finite number"
    )


def _plan(shifts: tuple, lo: float, hi: float, size: int, w_lo: float, w_hi: float):
    """The sides of a build of [w_lo, w_hi] from ``size`` breakpoints on [lo, hi].

    Returns a lower bound on the breakpoints of the result and, per side,
    its reads, first edge, step, stop and direction.  A side whose strips are
    no wider than twice the merge range 1e-12 * max(1, |w|) at its far end
    keeps no new node, so coverage would stop growing or end short: that
    raises ``CoverageBudgetExceeded``.
    """
    b_n = shifts[-1]
    # ShiftVector's strict increase makes both steps positive
    step_right = b_n - (shifts[-2] if len(shifts) >= 2 else 0.0)
    step_left = shifts[0]
    eps = _MERGE_EPS * max(1.0, abs(w_lo), abs(w_hi))
    # twice the merge range leaves room for a last strip past the target and
    # for rounding of its ends
    for side, step, far, needed in (
        ("right", step_right, w_hi, hi < w_hi - eps),
        ("left", step_left, w_lo, lo > w_lo + eps),
    ):
        if needed and not step > 2.0 * _MERGE_EPS * max(1.0, abs(far)):
            raise CoverageBudgetExceeded(
                f"{side} strips of width {step:.6g} vanish in the merge range at w = {far:.17g}"
            )
    # every strip adds a breakpoint; one strip less per side absorbs rounding
    # in the strip positions, so a bound over a budget is a build over it too
    least = (
        size
        + max(0.0, (w_hi - eps - hi) / step_right - 1.0)
        + max(0.0, (lo - eps - w_lo) / step_left - 1.0)
    )
    # a right strip reads g(y - bN), g(y - (bN - b1)), ...: all within bN to
    # its left; a left strip reads g(x + b1), ..., g(x + bN): all within bN to its right
    sides = (
        ([-b_n] + [s - b_n for s in shifts[:-1]], hi, step_right, w_hi - eps, True),
        (list(shifts), lo, step_left, w_lo + eps, False),
    )
    return least, sides


def linspace(lo: float, hi: float, num: int) -> list:
    """``np.linspace(lo, hi, num).tolist()`` for num >= 1, bit for bit.

    numpy's formula: ``j * step + lo`` with step (hi - lo) / (num - 1), or
    ``j / (num - 1) * (hi - lo) + lo`` where that step underflows to zero,
    and ``hi`` written last; a single point is ``0.0 * (hi - lo) + lo``.
    """
    delta = hi - lo
    div = num - 1
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    if step == 0.0:
        grid = [j / div * delta + lo for j in range(num)]
    else:
        grid = [j * step + lo for j in range(num)]
    grid[-1] = hi
    return grid


def _read(xs: list, ys: list, points) -> list:
    """``np.interp(points, xs, ys).tolist()``, bit for bit, for points that are not NaN.

    numpy's formula (``arr_interp``): the stored value at a breakpoint or
    past an end, else ``slope * (p - x_a) + y_a`` with x_a <= p < x_(a+1),
    retried from the right end of the segment when that is NaN.
    """
    last = len(xs) - 1
    x0, xl, y0, yl = xs[0], xs[last], ys[0], ys[last]
    out = []
    for p in points:
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
        out.append(y)
    return out


def _float_strip(xs: list, ys: list, reads: list, lo: float, hi: float, right: bool):
    """``extension._array_strip`` in Python floats, bit for bit, with lists for arrays.

    Each step is the array body's own float operation.  ``fl(x - r)`` is
    monotone in x, so the kinks of a read are one run of the window, found
    from a ``bisect`` start.  A read takes ``_read``'s formula, written out
    here: a call per node costs half again a strip's time.  A node's terms
    are summed in read order from +0.0, as ``np.add.reduce`` sums the rows.
    No read point is NaN: nodes and reads are finite.
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


def _valid(xs: list, ys: list) -> bool:
    """Whether ``PiecewiseLinear(xs, ys)`` constructs: two or more finite,
    strictly increasing breakpoints, as many finite values, finite differences."""
    if not (len(xs) == len(ys) >= 2 and all(map(math.isfinite, xs + ys))):
        return False
    dx = [b - a for a, b in zip(xs, xs[1:])]
    dy = [b - a for a, b in zip(ys, ys[1:])]
    return all(d > 0.0 for d in dx) and all(map(math.isfinite, dx + dy))




def _huge(values) -> bool:
    """Whether a float of the memoryview ``values`` is NaN, infinite or at least 2^1009 in size.

    Below 2^1009 no two floats differ by more than the largest float.  A
    float at or above it has its top seven exponent bits set, so its byte
    that holds them and the sign is 0x7f or 0xff: one pass over those bytes,
    at C speed, finds it.
    """
    top = values.cast("B").tobytes()[_SIGN_BYTE::8]
    return b"\x7f" in top or b"\xff" in top


class _Breakpoints:
    """Breakpoints and values of the function built so far, in growing buffers.

    The live data is ``bx[head:tail]`` (breakpoints) and ``by[head:tail]``
    (values): memoryviews of two flat ``array('d')`` buffers, which index to
    floats and which an array body reads without a copy.  Right strips are
    written at ``tail`` and left strips before ``head``; when a side runs out
    of room both buffers are reallocated at twice the live size plus the
    request, with all the free room on that side.  Two buffers rather than
    one two-row block halve the size of the blocks freed on growth, which
    keeps glibc's dynamic mmap threshold, and with it the heap fragmentation
    of later large arrays, low.

    Values, or value differences, that overflow a float are refused at the
    next reallocation or when a side is done (``check_finite``), and a batch
    of small strips' nodes as it is written (``write``): not per strip, one
    pass over the live values per copy of them and one over each batch.
    """

    __slots__ = ("bx", "by", "head", "tail")

    def __init__(self, xs, ys) -> None:
        # lists of floats, or their bytes
        self.bx, self.by = memoryview(array("d", xs)), memoryview(array("d", ys))
        self.head, self.tail = 0, len(self.bx)

    @property
    def size(self) -> int:
        return self.tail - self.head

    def check_finite(self, right: bool, i: int, j: int) -> None:
        """Refuse values in ``by[i:j]``, or differences of neighbours there, that
        overflow a float, naming the first w a side reached."""
        if _huge(self.by[i:j]):
            by = self.by
            # a difference is finite only if both values are
            bad = [k for k in range(i, j - 1) if not math.isfinite(by[k + 1] - by[k])]
            if bad:
                w = self.bx[bad[0] + 1] if right else self.bx[bad[-1]]
                raise CoverageBudgetExceeded(
                    f"extension values or their differences overflow a float at w = {w:.17g}"
                )

    def _regrow(self, room: int, right: bool) -> None:
        self.check_finite(right, self.head, self.tail)
        live = self.size
        cap = 2 * (live + room)
        head = 0 if right else cap - live
        bx, by = memoryview(_ZERO * cap), memoryview(_ZERO * cap)
        bx[head : head + live] = self.bx[self.head : self.tail]
        by[head : head + live] = self.by[self.head : self.tail]
        self.bx, self.by, self.head, self.tail = bx, by, head, head + live

    def claim(self, count: int, right: bool) -> int:
        """Start of ``count`` new slots past the tail or before the head.

        The caller has checked the breakpoint budget for them.
        """
        if right:
            if self.tail + count > len(self.bx):
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
        self.bx[at : at + count] = array("d", xs[new])
        self.by[at : at + count] = array("d", ys[new])
        if right:
            self.check_finite(right, at - 1, at + count)
        else:
            self.check_finite(right, at, at + count + 1)


def _seam_check(existing: float, incoming: float, where: float, points: list, terms: list,
                xs, ys) -> None:
    """Refuse a strip whose value at the seam ``where`` disagrees beyond rounding.

    ``points`` and ``terms`` are the N read positions, none NaN, and values
    that gave ``incoming``; (xs, ys) is the window they were read from.  A
    gap within 1e-9 relative passes at once.  Otherwise the bound is 1e-9 of
    the summed term sizes plus the rounding of the read positions (16 ulps
    at |w| plus the largest read) times the summed local slopes.  Each step
    is numpy's: ``bisect_left`` for ``searchsorted``, sums in ``np.sum``'s
    order, a NaN size or slope carried into the largest size or the sum,
    and ``np.spacing``'s ulp.
    """
    gap = abs(existing - incoming)
    if gap <= _MERGE_VALUE_TOL * max(1.0, abs(existing), abs(incoming)):
        return
    last = len(xs) - 1
    steep = []
    for p in points:
        # steeper of the two segments next to the read position
        k = min(max(bisect_left(xs, p), 1), last)
        m = min(k, last - 1)
        left = abs((ys[k] - ys[k - 1]) / (xs[k] - xs[k - 1]))
        right = abs((ys[m + 1] - ys[m]) / (xs[m + 1] - xs[m]))
        steep.append(left if left >= right or left != left else right)
    size = [abs(t) for t in terms]
    total = _numpy_sum(size)
    # a NaN size makes the sum NaN, and np.max NaN
    top = abs(where) + (total if total != total else max(size))
    # np.spacing is inf at the largest float; at inf or NaN no gap exceeds the bound
    ulp = math.ulp(top) if top < _LARGEST else math.inf
    bound = _MERGE_VALUE_TOL * max(1.0, total) + 16.0 * (ulp * _numpy_sum(steep))
    if gap > bound:
        raise InternalInconsistency(
            f"strip value {incoming:.17g} disagrees with {existing:.17g} at w = {where:.17g}"
        )


def _grow(built: _Breakpoints, reads: list, edge: float, step: float, stop: float, right: bool,
          budget: int, arrays=None) -> int:
    """Add strips of width ``step`` at ``edge`` until ``edge`` passes ``stop``.

    Returns 0, or the breakpoint count at the first strip that would take
    the build past ``budget``, which is not stored.

    The strip on [lo, hi] is g(y) = -sum_j g(y + reads[j]), the N ``reads``
    reaching back to -bN (right) or forward to bN (left).  Its nodes are the
    exact ends plus every kink xs - reads[j] inside (lo, hi), less each
    within merge range of the one before.  It reads the breakpoints within
    bN of ``edge`` plus two, so interpolation on that window brackets every
    read as all of the data would; the window's near end is the live end of
    the side, its far end one binary search.

    A strip whose window breakpoints times N is at most
    ``_FLOAT_STRIP_READS``, and every strip when ``arrays`` is None, is built
    in Python floats (``_float_strip``); a larger one by ``arrays(xs, ys,
    lo, hi)``, the window (xs, ys) given as memoryviews of the buffers: on a
    few dozen floats numpy's call overhead outweighs its arithmetic.  Both take
    the same float operations in the same order, numpy's interpolation
    formula and the row order of ``np.add.reduce`` from +0.0 included, so
    their bits agree.  The seam check and the budget are shared.

    A small strip reads no buffer.  Two lists (lx, ly) cache one window of
    the buffer: when not empty, they hold the window copied at the last miss
    plus the ``pending`` nodes of small strips added since, which are not yet
    in the buffer.  A strip reads its window from them when its
    ``bisect_left`` index proves the window lies inside: on the right when
    it starts at least two in or the lists start at the live head, on the
    left when it ends within them.  Otherwise it misses: the pending nodes
    are written, the buffer is searched, and the lists are refilled with a
    small window or emptied for a large one.  The pending nodes are also
    written once there are ``_BATCH_NODES`` of them, which empties the lists,
    and when the side is done.  A large strip reads and writes the buffer
    directly.
    """
    n = len(reads)
    limit = _FLOAT_STRIP_READS if arrays else math.inf
    reach = reads[0] if right else reads[-1]
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
        small = held and (b - a) * n <= limit
        if not small:
            if pending:
                built.write(lx, ly, pending, right)
                pending = 0
            head, tail = built.head, built.tail
            k = bisect_left(built.bx, edge + reach, head, tail)
            i, j = (max(k - 2, head), tail) if right else (head, min(k + 2, tail))
            small = (j - i) * n <= limit
            if small:
                lx, ly, at_head = built.bx[i:j].tolist(), built.by[i:j].tolist(), i == head
                a, b = 0, j - i
            else:
                lx, ly, at_head = [], [], False
        if small:
            xs, ys = lx[a:b], ly[a:b]
            nodes, values = _float_strip(xs, ys, reads, lo, hi, right)
        else:
            xs, ys = built.bx[i:j], built.by[i:j]
            nodes, values = arrays(xs, ys, lo, hi)
        existing, incoming = ys[end], float(values[seam])
        if existing != incoming:
            # the N reads at the seam node, read again: interpolation gives a
            # point the same value in any call on the same window
            node = float(nodes[seam])
            points = [node + r for r in reads]
            _seam_check(existing, incoming, edge, points, _read(xs, ys, points), xs, ys)
        count = len(nodes) - 1
        total = built.size + pending + count
        if total > budget:
            return total
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
    built.check_finite(right, built.head, built.tail)
    return 0


def sampled(xs: list, ys: list, shifts: tuple, target: tuple, tol: float,
            lo: float, hi: float, samples: int):
    """What ``extend`` and ``residual --shifts`` print, or None to hand over.

    Extends the boundary data (xs, ys) to ``target``, which contains [0, bN],
    within ``tol`` as ``extension.extend`` does and reads the extension g on
    ``np.linspace(lo, hi, samples)``.  Returns the compatibility residual,
    the grid, g on it and max |g(w) + g(w + b1) + ... + g(w + bN)| there, as
    ``residual_additive`` sums it.  Boundary data over ``_FLOAT_NODES``
    breakpoints, a grid over ``_FLOAT_READS`` reads and a target whose least
    breakpoint count is over ``_FLOAT_NODES`` are handed over before any
    strip is built, and a build that outgrows ``_FLOAT_NODES`` when it does.
    """
    if len(xs) > _FLOAT_NODES or samples * (len(shifts) + 1) > _FLOAT_READS:
        return None
    if not (_valid(xs, ys) and xs[0] == 0.0 and xs[-1] == shifts[-1]):
        return None
    terms = _read(xs, ys, (0.0, *shifts))
    # ``check_interpolation``'s sum, in its order
    residual = terms[0] + sum(terms[1:])
    if abs(residual) > tol:
        raise _incompatible(residual, tol)
    # with a finite width every grid point is finite, so min and max are exact
    if not all(map(math.isfinite, (*target, hi - lo))):
        return None
    least, sides = _plan(shifts, xs[0], xs[-1], len(xs), *target)
    if least > _FLOAT_NODES:
        return None
    built = _Breakpoints(xs, ys)
    for side in sides:
        if _grow(built, *side, _FLOAT_NODES):
            return None
    px, py = built.bx[built.head : built.tail].tolist(), built.by[built.head : built.tail].tolist()
    # ``PiecewiseLinear``'s readable interval: the domain plus its slack
    slack = _MERGE_EPS * max(1.0, abs(px[0]), abs(px[-1]))
    grid = linspace(lo, hi, samples)
    if not (px[0] - slack <= min(grid) and max(grid) + shifts[-1] <= px[-1] + slack):
        return None
    values = _read(px, py, grid)
    total = values
    for s in shifts:
        total = [t + y for t, y in zip(total, _read(px, py, [w + s for w in grid]))]
    for w, t in zip(grid, total):
        if not math.isfinite(t):
            raise _unbounded("w", w, t)
    return residual, grid, values, max(map(abs, total))
