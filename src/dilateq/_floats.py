"""The extension of boundary data in Python floats, bit for bit with ``extension``.

``extension`` builds in numpy arrays and is the reference.  This module holds
what both engines share: the compatibility tolerance and its refusal, the
merge range, the steps, stops and breakpoint estimate of a build, the read
budget of a residual grid and the strip body in floats.  It imports no numpy.

It also holds an engine on Python lists, which the command line runs for
``extend`` and ``residual --shifts`` when the sizes it sees before building
are within ``_FLOAT_NODES`` and ``_FLOAT_READS``: there the numpy import
costs more than the work.  The engine builds each strip with
``_float_strip``, reads a point by numpy's interpolation formula
(``_read``), forms a grid by ``np.linspace``'s (``linspace``) and sums in
the numpy engine's order, so its numbers are that engine's bit for bit.
Where it would not do what the numpy engine does, it hands over: ``sampled``
returns None and the caller runs the numpy engine, which gives the result
or the refusal.  It hands over on a boundary that fails validation or does
not lie exactly on [0, bN], any non-finite value, a seam whose two values
differ, a build that outgrows ``_FLOAT_NODES`` and any read outside
coverage.  The one refusal it raises is ``InterpolationViolated``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .errors import CoverageBudgetExceeded, GridBudgetExceeded, InterpolationViolated

#: default tolerance on the boundary compatibility residual
INTERPOLATION_TOL = 1e-9

#: breakpoints closer than _MERGE_EPS * max(1, |w|) are treated as one
_MERGE_EPS = 1e-12

#: most reads one residual grid may take, grid points times N + 1
_MAX_READS = 1 << 26

#: the float engine's limits on the breakpoints of the boundary and of the
#: extension, and on the reads of the grid (samples times N + 1).  Each is
#: about half the size where floats cost as much more than numpy as the
#: numpy import, so both at once still cost less (BENCH_24.json, crossover)
_FLOAT_NODES = 1 << 15
_FLOAT_READS = 1 << 16


def _check_reads(samples: int, n: int) -> None:
    """Refuse a grid of ``samples`` points, each read at N + 1 points, over ``_MAX_READS``."""
    if samples * (n + 1) > _MAX_READS:
        raise GridBudgetExceeded(
            f"{samples} samples x {n + 1} reads exceed the budget of {_MAX_READS} reads"
        )


def _incompatible(residual: float, tol: float) -> InterpolationViolated:
    """The refusal of boundary data whose compatibility residual exceeds ``tol``."""
    return InterpolationViolated(f"boundary residual {residual:.6g} exceeds tolerance {tol:.6g}")


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


def _extend(xs: list, ys: list, shifts: tuple, target: tuple, tol: float):
    """``extension.extend`` on lists, to a target that contains [0, bN]: the
    compatibility residual and the extension's breakpoints and values, or
    None to hand over."""
    if not (_valid(xs, ys) and xs[0] == 0.0 and xs[-1] == shifts[-1]):
        return None
    terms = _read(xs, ys, (0.0, *shifts))
    # ``check_interpolation``'s sum, in its order
    residual = terms[0] + sum(terms[1:])
    if abs(residual) > tol:
        raise _incompatible(residual, tol)
    w_lo, w_hi = target
    if not (math.isfinite(w_lo) and math.isfinite(w_hi)):
        return None
    try:
        least, sides = _plan(shifts, xs[0], xs[-1], len(xs), w_lo, w_hi)
    except CoverageBudgetExceeded:
        return None
    if least > _FLOAT_NODES:
        return None
    # the boundary and the right strips ascend; the left strips' nodes are
    # appended outward, so that no strip moves the nodes already stored
    px, py, qx, qy = list(xs), list(ys), [], []
    for reads, edge, step, stop, right in sides:
        reach = reads[0] if right else reads[-1]
        while edge < stop if right else edge > stop:
            # the window of ``extension._grow``: from two before the bisect
            # index to the live tail, or from the live head to two past it
            t = edge + reach
            if right:
                a = max(bisect_left(px, t) - 2, 0)
                wx, wy = px[a:], py[a:]
            else:
                # the bisect index in qx reversed and px joined, then the
                # window's part of each
                k = len(qx) - bisect_right(qx, -t, key=float.__neg__)
                if k == len(qx):
                    k += bisect_left(px, t)
                m = min(k + 2, len(qx))
                wx = qx[len(qx) - m:][::-1] + px[: k + 2 - m]
                wy = qy[len(qy) - m:][::-1] + py[: k + 2 - m]
            lo, hi = (edge, edge + step) if right else (edge - step, edge)
            nodes, values = _float_strip(wx, wy, reads, lo, hi, right)
            # the seam: the stored value at ``edge`` and the strip's node there
            seam = (values[0], wy[-1]) if right else (values[-1], wy[0])
            if seam[0] != seam[1] or len(px) + len(qx) + len(nodes) - 1 > _FLOAT_NODES:
                return None
            if right:
                px += nodes[1:]
                py += values[1:]
            else:
                qx += nodes[-2::-1]
                qy += values[-2::-1]
            edge = hi if right else lo
    px, py = qx[::-1] + px, qy[::-1] + py
    return (residual, px, py) if _valid(px, py) else None


def sampled(xs: list, ys: list, shifts: tuple, target: tuple, tol: float,
            lo: float, hi: float, samples: int):
    """What ``extend`` and ``residual --shifts`` print, or None to hand over.

    Extends the boundary data (xs, ys) to ``target`` within ``tol`` as
    ``extension.extend`` does and reads the extension g on
    ``np.linspace(lo, hi, samples)``.  Returns the compatibility residual,
    the grid, g on it and max |g(w) + g(w + b1) + ... + g(w + bN)| there, as
    ``residual_additive`` sums it.  Boundary data over ``_FLOAT_NODES``
    breakpoints or a grid over ``_FLOAT_READS`` reads is handed over at once,
    and so is a target whose least breakpoint count is over ``_FLOAT_NODES``
    and a sum that is not finite.
    """
    if len(xs) > _FLOAT_NODES or samples * (len(shifts) + 1) > _FLOAT_READS:
        return None
    built = _extend(xs, ys, shifts, target, tol)
    # with a finite width every grid point is finite, so min and max are exact
    if built is None or not math.isfinite(hi - lo):
        return None
    residual, px, py = built
    # ``PiecewiseLinear``'s readable interval: the domain plus its slack
    slack = _MERGE_EPS * max(1.0, abs(px[0]), abs(px[-1]))
    first, last = px[0] - slack, px[-1] + slack
    grid = linspace(lo, hi, samples)
    if not (first <= min(grid) and max(grid) + shifts[-1] <= last):
        return None
    values = _read(px, py, grid)
    total = values
    for s in shifts:
        total = [t + y for t, y in zip(total, _read(px, py, [w + s for w in grid]))]
    # numpy warns on stderr of a sum that overflows or is inf - inf
    if not all(map(math.isfinite, total)):
        return None
    return residual, grid, values, max(map(abs, total))
