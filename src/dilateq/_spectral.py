"""The command line's engines for ``zeros`` and ``periodicity``, in Python floats.

At the sizes the README shows, both subcommands spent most of their wall
time importing numpy.  This module imports no numpy.  ``find_zeros`` and
``find_periodic_alphas`` return what ``expsums.find_zeros`` (with
``scan_modulus``'s grid) and ``periodicity.find_periodic_alphas`` return, bit
for bit, when the sizes known before any work are within ``_FLOAT_TERMS``
and ``_FLOAT_PHASES``, and None otherwise: the caller then runs the library
engine.  Each number is formed as numpy forms it on this platform, and
``tests/test_spectral.py`` pins every agreement relied on here:

- A term exp(z ln k) is numpy's complex exp, glibc's ``cexp``.  Below a
  real part of 708 that is ``cmath.exp``, which also takes exp(x) times
  cos y and sin y; above, ``_cexp`` rescales as glibc does.
  ``math.log(k)`` equals ``np.log(k)`` for k <= 9169 (9170 is the first
  that differs), so n stops there; ``math.cos`` and ``math.sin`` equal
  ``np.cos`` and ``np.sin``.
- Sums take numpy's pairwise order (``_pairwise``): eight lanes of up to
  128 terms for a real row, four of up to 64 for a complex one.
- A grid modulus is numpy's complex ``abs`` (``_cabs``): the larger part
  times sqrt(fma(r, r, 1)), r the ratio of the parts, which differs from
  ``hypot`` on about a third of random inputs.  A Newton residual is
  Python's ``abs``, as ``expsums._modulus`` takes it.
- A refined periodicity residual squares by libm ``pow`` (``x ** 2.0``),
  as ``np.float_power`` does; a grid residual squares by ``x * x``.

The zero search seeds from the exact |G| on every cell, the dense search
that ``_linetable.pruned_minima`` was proved equal to, so the same grid is
the ``--scan-csv`` table.  Its winding count is the Ying-Katz count of
``expsums.winding_count`` with the same error margin, on exact samples
rather than line tables: both are certified, so the two counts agree
wherever both end.  A refusal of the count (``BoundaryZero``) reads the
computed samples: on a zero the modulus it quotes is another rounding,
and near one the two engines could in principle refuse at different
samples, or one where the other does not.  The count hands over when its
bisection outgrows ``_FLOAT_TERMS``.

The periodicity scan follows ``periodicity._refined_minima`` step by step:
the dense interior minima of the exact grid residuals, the brackets
``_cannot_certify`` cannot exclude, one golden section per bracket, the
1e-8 merge and the certificate cut.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import repeat
from operator import add, le, mul

from .closedforms import _numpy_sum, _shift_list
from .errors import BoundaryZero, GridBudgetExceeded, InvalidInput, InvalidRange, _integer

# the library engines' constants (``expsums`` and ``periodicity``), pinned
# equal to theirs by the tests
ZERO_RESIDUAL_TOL = 1e-10
CERTIFICATE_TOL = 1e-16
_DEDUPE_DIST = 1e-8
_EDGE_MARGIN = 1e-6
_NEWTON_MAX_ITER = 60
_MAX_SCAN_POINTS = 1 << 22
_MAX_TABLE_TERMS = 1 << 22
_MAX_TERMS = 1 << 26
_WINDING_MAX_SAMPLES = 1 << 18
MAX_GRID_POINTS = 10_000_000
_REFINE_WIDTH = 1e-14
_GOLDEN_MAX_ITER = 2000
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_UNIT_ROUNDOFF = 2.0**-53

#: the largest n whose log table ``math.log`` gives as ``np.log`` does
_MAX_LOG_N = 9169

#: most terms, n times the grid cells and the first winding samples, that a
#: zero search takes in floats: about half the measured end-to-end crossover
#: with numpy and its import (3e5 to 6e5 terms, BENCH_28.json), as a re-seed
#: sums four times the first grid's terms
_FLOAT_TERMS = 1 << 18

#: most phases, grid points times shifts, that a periodicity scan takes in
#: floats: about a third of the crossover (2e5 phases), as the golden
#: sections' cost is not known before the scan
_FLOAT_PHASES = 1 << 16

#: real parts of z ln k up to which ``cmath.exp`` is glibc's ``cexp``
_CMATH_REAL = 708.0

#: glibc's ``cexp`` rescales by exp(709) past this real part
_CEXP_STEP = 709

_E_STEP = math.exp(_CEXP_STEP)
_INF = math.inf
_LARGEST = sys.float_info.max
_SMALLEST = sys.float_info.min


# -- numpy's arithmetic ------------------------------------------------------

def _pairwise(term, lo: int, hi: int, lanes: int, plus):
    """numpy's pairwise sum of term(lo), ..., term(hi - 1), in its order, by ``plus``.

    Below ``lanes`` terms left to right; up to 16 lanes' worth in ``lanes``
    interleaved accumulators, joined as a balanced tree, then the rest left
    to right; above that, two halves split at a multiple of ``lanes``.
    numpy sums a float64 row in 8 lanes and a complex128 row in 4.  Terms
    and ``plus`` may be scalars and ``+`` or equal lists and ``_vadd``.
    """
    size = hi - lo
    if size < lanes:
        total = term(lo)
        for k in range(lo + 1, hi):
            total = plus(total, term(k))
        return total
    if size <= 16 * lanes:
        acc = [term(k) for k in range(lo, lo + lanes)]
        end = hi - size % lanes
        for k in range(lo + lanes, end):
            acc[(k - lo) % lanes] = plus(acc[(k - lo) % lanes], term(k))
        while len(acc) > 1:
            acc = [plus(acc[i], acc[i + 1]) for i in range(0, len(acc), 2)]
        total = acc[0]
        for k in range(end, hi):
            total = plus(total, term(k))
        return total
    half = size // 2 - size // 2 % lanes
    return plus(
        _pairwise(term, lo, lo + half, lanes, plus), _pairwise(term, lo + half, hi, lanes, plus)
    )


def _vadd(a: list, b: list) -> list:
    return list(map(add, a, b))


def _csum(terms: list) -> complex:
    """``np.sum`` of a complex128 row: pairwise in four lanes, added to 0j."""
    return 0j + _pairwise(terms.__getitem__, 0, len(terms), 4, add)


def _fma_square(r: float) -> float:
    """fma(r, r, 1.0), rounded once, for 0 <= r <= 1.

    p + e = r^2 exactly (Dekker's product) and q + t = 1 + p exactly, so
    the fused result is q unless t + e passes half an ulp of q, 2^-53
    (q < 2 whenever e or t is not 0); ties go to the even neighbour.
    Below p = 2^-53 both are 1.
    """
    p = r * r
    q = 1.0 + p
    t = p - (q - 1.0)
    if p < 2.0**-53 or -2.0**-54 < t < 2.0**-54:
        # |e| <= 2^-54: t + e cannot reach half an ulp
        return q
    c = 134217729.0 * r
    hi = c - (c - r)
    lo = r - hi
    e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    odd = int((q - 1.0) * 2.0**52) & 1
    edge = 2.0**-53 - t
    if e > edge or (e == edge and odd):
        return q + 2.0**-52
    edge = -2.0**-53 - t
    if e < edge or (e == edge and odd):
        return q - 2.0**-52
    return q


def _cabs(g: complex) -> float:
    """numpy's complex ``abs`` on this platform: larger part times
    sqrt(fma(r, r, 1)), inf where a part is, NaN where a part is NaN."""
    a, b = abs(g.real), abs(g.imag)
    if not a + b < _INF:
        if a == _INF or b == _INF:
            return _INF
        if a != a or b != b:
            return math.nan
    if a < b:
        a, b = b, a
    if a == 0.0:
        return 0.0
    return math.sqrt(_fma_square(b / a)) * a


def _modulus(g: complex) -> float:
    """``expsums._modulus``: ``abs(g)``, inf where it overflows, NaN for NaN."""
    if math.isinf(g.real) or math.isinf(g.imag):
        return _INF
    if math.isnan(g.real) or math.isnan(g.imag):
        return math.nan
    try:
        return abs(g)
    except OverflowError:
        return _INF


def _cexp(w: complex) -> complex:
    """glibc's ``cexp``, numpy's complex exp, at any w."""
    x, y = w.real, w.imag
    if math.isfinite(x):
        if not math.isfinite(y):
            return complex(math.nan, math.nan)
        s, c = (math.sin(y), math.cos(y)) if abs(y) > _SMALLEST else (y, 1.0)
        for _ in range(2):
            if x > _CEXP_STEP:
                x -= _CEXP_STEP
                s *= _E_STEP
                c *= _E_STEP
        if x > _CEXP_STEP:
            return complex(_LARGEST * c, _LARGEST * s)
        e = math.exp(x)
        return complex(e * c, e * s)
    if math.isinf(x):
        if math.isfinite(y):
            value = 0.0 if x < 0.0 else _INF
            if y == 0.0:
                return complex(value, y)
            s, c = (math.sin(y), math.cos(y)) if abs(y) > _SMALLEST else (y, 1.0)
            return complex(math.copysign(value, c), math.copysign(value, s))
        return complex(_INF, y - y) if x > 0.0 else complex(0.0, math.copysign(0.0, y))
    return complex(math.nan, y if y == 0.0 else math.nan)


def _terms(logs: list, z: complex) -> list:
    """exp(z ln k), k = 1..n, as ``expsums._terms`` forms them."""
    top = logs[-1]
    if z.real * top <= _CMATH_REAL and -_INF < z.real * top and abs(z.imag * top) < _INF:
        exp = cmath.exp
        return [exp(z * ln) for ln in logs]
    return [_cexp(z * ln) for ln in logs]


def _linspace(lo: float, hi: float, num: int) -> list:
    """``np.linspace(lo, hi, num).tolist()`` for num >= 2."""
    delta = hi - lo
    div = num - 1
    step = delta / div
    if step == 0.0:
        grid = [j / div * delta + lo for j in range(num)]
    else:
        grid = [j * step + lo for j in range(num)]
    grid[-1] = hi
    return grid


def _side(a: complex, b: complex, num: int) -> list:
    """``np.linspace(a, b, num, endpoint=False)`` of complex ends: numpy
    divides by num as a complex (a product with 1 / num) and scales
    complex(j, 0)."""
    delta = b - a
    inv = 1.0 / num
    step = complex((delta.real + delta.imag * 0.0) * inv, (delta.imag - delta.real * 0.0) * inv)
    if step == 0.0:
        return [complex(j * inv, 0.0 * inv) * delta + a for j in range(num)]
    return [complex(j, 0.0) * step + a for j in range(num)]


# -- zeros of 1 + 2^z + ... + n^z ------------------------------------------------

def _check_rectangle(re_min, re_max, im_min, im_max, grid_re, grid_im) -> None:
    """``expsums.SearchRectangle``'s checks, in its order and words."""
    if not all(math.isfinite(v) for v in (re_min, re_max, im_min, im_max)):
        raise InvalidRange("rectangle bounds must be finite")
    if not (re_min < re_max and im_min < im_max):
        raise InvalidRange("rectangle must have positive width and height")
    if grid_re < 2 or grid_im < 2:
        raise InvalidRange("grid resolution must be at least 2")


def _grid_refusal(n: int, grid_re: int, grid_im: int) -> str | None:
    """``expsums._grid_refusal``: why a scan of n terms on this grid is over budget."""
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


def _check_terms(n: int, samples: int) -> None:
    if n > _MAX_TABLE_TERMS or samples * n > _MAX_TERMS:
        raise GridBudgetExceeded(
            f"{samples} samples x {n} terms exceed the budget of {_MAX_TERMS} terms, "
            f"or n exceeds {_MAX_TABLE_TERMS}"
        )


def _first_samples(n: int, rect: tuple) -> list:
    """The winding count's sides and first samples per side, or its refusal
    of a boundary too long to sample."""
    re_min, re_max, im_min, im_max = rect
    corners = [
        complex(re_min, im_min), complex(re_max, im_min),
        complex(re_max, im_max), complex(re_min, im_max),
    ]
    pairs = list(zip(corners, corners[1:] + corners[:1]))
    lengths = [abs(b - a) * max(1.0, math.log(n)) for a, b in pairs]
    if sum(max(8.0, length) for length in lengths) > _WINDING_MAX_SAMPLES:
        raise BoundaryZero(
            f"winding count needs more than {_WINDING_MAX_SAMPLES} samples on the boundary"
        )
    return [(a, b, max(8, math.ceil(length))) for (a, b), length in zip(pairs, lengths)]


def _slope_bound(logs: list, x: float) -> float:
    """M = sum(ln k * k^x, k=2..n) in numpy's order; ``math.exp`` and
    ``np.exp`` differ in the last bit on a few inputs, which the count's
    margin covers."""
    terms = []
    for ln in logs[1:]:
        try:
            terms.append(ln * math.exp(x * ln))
        except OverflowError:
            terms.append(_INF)
    return _numpy_sum(terms)


def _samples(logs: list, z: list, bounds: dict) -> tuple[list, list]:
    """G and M at the samples z; ``expsums._boundary_samples``'s refusals."""
    g = [_csum(_terms(logs, w)) for w in z]
    slope = []
    for w in z:
        if w.real not in bounds:
            bounds[w.real] = _slope_bound(logs, w.real)
        slope.append(bounds[w.real])
    for w, g_w, m in zip(z, g, slope):
        if not (cmath.isfinite(g_w) and math.isfinite(m)):
            raise BoundaryZero(f"power sum or its slope is not finite at {w:.6g}")
    for w, g_w in zip(z, g):
        modulus = _cabs(g_w)
        if modulus < 1e-9:
            raise BoundaryZero(f"modulus {modulus:.3g} on the boundary at {w:.6g}")
    return g, slope


def _winding(logs: list, sides: list) -> int | None:
    """``expsums.winding_count`` on exact samples, or None once its samples
    times n pass ``_FLOAT_TERMS``.

    Each step passes the Ying-Katz test with |G| at both ends less the
    margin E of ``winding_count``'s docstring, which bounds the error of
    an exp-by-exp sample as well as a line table's.
    """
    n = len(logs)
    z = [w for a, b, count in sides for w in _side(a, b, count)]
    bounds: dict = {}
    g, slope = _samples(logs, z, bounds)
    u = _UNIT_ROUNDOFF
    reach = 160.0 * max(abs(a) + abs(b - a) for a, b, _ in sides)
    spread = 2100.0 + 7.0 * n

    def lows(g: list, slope: list) -> list:
        # a lower bound on each exact |G|: the computed one less E
        return [_cabs(g_w) - u * (reach * m + spread * (1.0 + 1.5 * m)) for g_w, m in zip(g, slope)]

    low = lows(g, slope)
    # a step that passed passes again: only the steps new since the last pass are tested
    fresh = [True] * len(z)
    while True:
        split = []
        for j in [j for j, new in enumerate(fresh) if new]:
            k = j + 1 if j + 1 < len(z) else 0
            steep = slope[j] if slope[j] >= slope[k] else slope[k]
            if _cabs(z[k] - z[j]) * steep >= low[j] + low[k]:
                split.append(j)
        if not split:
            break
        samples = len(z) + len(split)
        if samples > _WINDING_MAX_SAMPLES:
            raise BoundaryZero(
                f"winding count needs more than {_WINDING_MAX_SAMPLES} samples near "
                f"{z[split[0]]:.6g}; zero close to the edge?"
            )
        _check_terms(n, samples)
        if samples * n > _FLOAT_TERMS:
            return None
        ends = [(z[j], z[j + 1 if j + 1 < len(z) else 0]) for j in split]
        mid = [0.5 * (a + b) for a, b in ends]
        for point, (a, b) in zip(mid, ends):
            if point == a or point == b:
                raise BoundaryZero(
                    f"winding step at {point:.17g} has no midpoint between its ends"
                )
        g_mid, slope_mid = _samples(logs, mid, bounds)
        low_mid = lows(g_mid, slope_mid)
        # each midpoint goes right after its step's left end
        parts = [z, g, slope, low]
        merged: list = [[], [], [], [], []]
        at = 0
        for j in range(len(z)):
            cut = at < len(split) and split[at] == j
            for part, values in zip(merged, parts):
                part.append(values[j])
            merged[4].append(cut)
            if cut:
                for part, values in zip(merged, (mid, g_mid, slope_mid, low_mid)):
                    part.append(values[at])
                merged[4].append(True)
                at += 1
        z, g, slope, low, fresh = merged
    # ``math.atan2``, as ``np.angle`` takes it: ``cmath.phase`` raises where it underflows
    quotients = [g[j + 1 if j + 1 < len(g) else 0] / g[j] for j in range(len(g))]
    angles = [math.atan2(q.imag, q.real) for q in quotients]
    turns = _numpy_sum(angles) / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.2:
        raise BoundaryZero(f"winding sum {turns:.6g} is not close to an integer")
    return int(nearest)


def _scan(logs: list, rect: tuple, grid_re: int, grid_im: int) -> tuple[list, list, list]:
    """The grid axes of ``expsums.scan_modulus`` and G on every cell, by rows.

    A term at x + i y is exp(x ln k) times cos and sin of y ln k, as
    ``cmath.exp`` forms it while x ln k <= 708, from one table per axis;
    each column's n terms go through the pairwise sum as lists over rows.
    """
    re_min, re_max, im_min, im_max = rect
    re, im = _linspace(re_min, re_max, grid_re), _linspace(im_min, im_max, grid_im)
    phases = [[complex(math.cos(y * ln), math.sin(y * ln)) for y in im] for ln in logs]
    columns = []
    for x in re:
        sizes = [math.exp(x * ln) for ln in logs]
        term = lambda k: list(map(mul, phases[k], repeat(sizes[k])))
        columns.append(_pairwise(term, 0, len(logs), 4, _vadd))
    return re, im, [list(row) for row in zip(*columns)]


def _hypot(row: list) -> list:
    """``abs`` of each G of a row, within 2^-50 of ``_cabs``, or ``_cabs``
    itself where ``abs`` overflows."""
    try:
        return list(map(abs, row))
    except OverflowError:
        return list(map(_cabs, row))


def _minima(sums: list) -> list:
    """The cells whose |G| (``_cabs``) is ``<=`` each 4-neighbour's, +inf
    outside the grid, row-major: ``expsums._local_minima`` of the scan.

    ``abs`` and ``_cabs`` lie within 2^-50 of each other relative to the
    modulus, so a cell whose ``abs`` exceeds a neighbour's by more than
    2^-48 of it is no minimum; ``_cabs`` is taken only at the others and
    their neighbours.
    """
    rows, cols = len(sums), len(sums[0])
    near = [_hypot(row) for row in sums]
    exact: dict = {}

    def modulus(i: int, j: int) -> float:
        if (i, j) not in exact:
            exact[i, j] = _cabs(sums[i][j])
        return exact[i, j]

    # a cell's abs may exceed a neighbour's by 2^-48 of it, or 2^-1000
    reach = [[w * (1.0 + 2.0**-48) + 2.0**-1000 for w in row] for row in near]
    wall = [_INF] * cols
    out = []
    for i, row in enumerate(near):
        tests = zip(
            range(cols),
            map(le, row, [_INF, *reach[i][:-1]]),
            map(le, row, [*reach[i][1:], _INF]),
            map(le, row, reach[i - 1] if i else wall),
            map(le, row, reach[i + 1] if i + 1 < rows else wall),
        )
        for j in [j for j, left, right, up, down in tests if left and right and up and down]:
            v = modulus(i, j)
            around = ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
            if all(v <= modulus(a, b) for a, b in around if 0 <= a < rows and 0 <= b < cols):
                out.append((i, j))
    return out


def _newton(logs: list, z: complex) -> tuple[complex, list] | None:
    """``expsums.newton_refine`` from z: Python's complex division and its
    stop rules on G and G' summed as ``expsums._newton`` sums them."""
    history: list = []
    ahead = iterate = step = z
    for first in [True] + [False] * _NEWTON_MAX_ITER:
        terms = _terms(logs, ahead)
        g = _csum(terms)
        gp = _csum([ln * t for ln, t in zip(logs, terms)])
        if not first:
            res = _modulus(g)
            if history and history[-1] <= 1e-12 and res >= history[-1]:
                # at rounding level another step cannot improve; keep the best iterate
                return iterate, history
            history.append(res)
            if abs(step) <= 1e-13 * (1.0 + abs(ahead)):
                return ahead, history
        if gp == 0 or not cmath.isfinite(gp):
            return None
        step = g / gp
        iterate, ahead = ahead, ahead - step
        if not cmath.isfinite(ahead):
            return None
    return None


def _contains(rect: tuple, z: complex) -> bool:
    re_min, re_max, im_min, im_max = rect
    return re_min <= z.real <= re_max and im_min <= z.imag <= im_max


def _seed(logs: list, rect: tuple, grid: tuple, found: dict) -> dict:
    """``expsums._seed``: the zeros Newton reaches from the grid minima."""
    re, im, sums = grid
    for i, j in _minima(sums):
        refined = _newton(logs, complex(re[j], im[i]))
        if refined is None:
            continue
        z, history = refined
        if history[-1] > ZERO_RESIDUAL_TOL or not _contains(rect, z):
            continue
        if all(abs(z - seen) > _DEDUPE_DIST for seen in found):
            found[z] = history[-1]
    return found


def _verified(rect: tuple, found: dict) -> list:
    """``expsums._verified``: (z, residual) sorted by (Im, Re), with its refusals."""
    re_min, re_max, im_min, im_max = rect
    for z in found:
        edge = min(z.real - re_min, re_max - z.real, z.imag - im_min, im_max - z.imag)
        if edge < _EDGE_MARGIN:
            raise BoundaryZero(f"zero {z:.9g} within {_EDGE_MARGIN:.0e} of the edge")
    ordered = sorted(found, key=lambda z: (z.imag, z.real))
    for z in ordered:
        # ``expsums.ComplexZero``'s checks, written so that NaN fails them
        if not found[z] <= ZERO_RESIDUAL_TOL:
            raise InvalidInput(f"residual {found[z]:.3g} exceeds {ZERO_RESIDUAL_TOL:.0e}")
        if not abs(z.imag) > _EDGE_MARGIN:
            raise InvalidInput("the power sum is positive on the real axis")
    return [(z, found[z]) for z in ordered]


def find_zeros(n: int, re_min, re_max, im_min, im_max, grid_re: int, grid_im: int, scan=False):
    """``expsums.find_zeros(n, SearchRectangle(...))`` in floats.

    Returns the zeros as (z, residual) pairs, the list of warning texts (an
    ``IncompleteSearch``, or none), and with ``scan`` the first grid as
    ``scan_modulus`` gives it, (re, im, rows of |G|), else None, all bit for
    bit.  Refuses what the library refuses, with its
    exception and words, when it would refuse before seeding.  Returns None,
    for the library engine to run, when n exceeds ``_MAX_LOG_N``, when n
    times the grid cells and first winding samples exceeds
    ``_FLOAT_TERMS``, when the rectangle reaches x ln n > 708, or when the
    winding count's bisection outgrows ``_FLOAT_TERMS``.
    """
    _check_rectangle(re_min, re_max, im_min, im_max, grid_re, grid_im)
    if _integer(n, "n") < 2:
        raise InvalidInput("the exponential sum needs n >= 2")
    refusal = _grid_refusal(n, grid_re, grid_im)
    if refusal is not None:
        raise GridBudgetExceeded(refusal)
    rect = (re_min, re_max, im_min, im_max)
    sides = _first_samples(n, rect)
    first = sum(count for _, _, count in sides)
    _check_terms(n, first)
    if n > _MAX_LOG_N or (grid_re * grid_im + first) * n > _FLOAT_TERMS:
        return None
    logs = [math.log(k) for k in range(1, n + 1)]
    if not re_max * logs[-1] <= _CMATH_REAL:
        return None
    turns = _winding(logs, sides)
    if turns is None:
        return None
    grid = _scan(logs, rect, grid_re, grid_im)
    found = _seed(logs, rect, grid, {})
    finer = 2 * grid_re - 1, 2 * grid_im - 1
    if turns > len(found) and _grid_refusal(n, *finer) is None:
        _seed(logs, rect, _scan(logs, rect, *finer), found)
    zeros = _verified(rect, found)
    warned = []
    if turns != len(zeros):
        warned.append(
            f"winding count {turns} != {len(zeros)} zeros found; "
            "refine the grid or shrink the rectangle"
        )
    if not scan:
        return zeros, warned, None
    re, im, sums = grid
    return zeros, warned, (re, im, [list(map(_cabs, row)) for row in sums])


# -- periodic solutions ------------------------------------------------------------

def _residuals(alphas: list, shifts: list, square) -> list:
    """square(1 + sum cos(alpha b_k)) + square(sum sin(alpha b_k)) at each
    alpha, the sums in numpy's order, as lists over the alphas."""
    phases = [list(map(mul, alphas, repeat(b))) for b in shifts]
    cos = _pairwise(lambda k: list(map(math.cos, phases[k])), 0, len(shifts), 8, _vadd)
    sin = _pairwise(lambda k: list(map(math.sin, phases[k])), 0, len(shifts), 8, _vadd)
    return [square(1.0 + c) + square(s) for c, s in zip(cos, sin)]


def _grid_square(x: float) -> float:
    return x * x


def _pow_square(x: float) -> float:
    return x**2.0


def _spacing(x: float) -> float:
    """``np.spacing(x)`` for x > 0."""
    return math.ulp(x) if x < _LARGEST else _INF


def _golden(f, lo: float, hi: float) -> float:
    """``periodicity._golden_minimize`` on one bracket."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if not hi - lo > max(_REFINE_WIDTH, _spacing(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _cannot_certify(near: tuple, lo: float, mid: float, hi: float, shifts: list, tol: float) -> bool:
    """``periodicity._cannot_certify`` on one bracket, with numpy's NaN
    semantics for ``minimum`` and ``maximum``."""
    u = _UNIT_ROUNDOFF
    lip = _numpy_sum(shifts)
    m_lo, m, m_hi = (math.sqrt(v) for v in near)
    left, right = m_lo + m - lip * (mid - lo), m + m_hi - lip * (hi - mid)
    bound = 0.5 * (left if left != left or left < right else right)
    margin = (len(shifts) + 10) * u * (hi * lip + 3.0 * (len(shifts) + 1)) + 2.0**-530
    low = bound - margin
    if low < 0.0:
        low = 0.0
    return low * low * (1.0 - 8.0 * u) > max(tol, 2.0**-1000)


def _refined_minima(b, alpha_max: float, grid_step, tol: float):
    """``periodicity._refined_minima`` in floats: (alpha, residual) pairs, or
    None past ``_FLOAT_PHASES`` or where a phase could near the float range."""
    if not (alpha_max > 0.0):
        raise InvalidRange("alpha_max must be positive")
    if not math.isfinite(alpha_max):
        raise InvalidRange("alpha_max must be finite")
    shifts = _shift_list(b)
    largest = max(shifts)
    if grid_step is None:
        grid_step = min(math.pi / (8.0 * largest), alpha_max / 1e4)
    if not (grid_step > 0.0):
        raise InvalidRange("grid_step must be positive")
    points = alpha_max / grid_step
    if points >= MAX_GRID_POINTS + 1:
        raise GridBudgetExceeded(
            f"scan grid of {points:.6g} points exceeds the budget of {MAX_GRID_POINTS}"
        )
    if points * len(shifts) > _MAX_TERMS:
        raise GridBudgetExceeded(
            f"scan grid of {points:.6g} points x {len(shifts)} shifts exceeds "
            f"the budget of {_MAX_TERMS} terms"
        )
    count = math.floor(points)
    size = count + (grid_step * count < alpha_max)
    # 0.5 (lo + hi) and every phase stay finite below 2^1000
    if size * len(shifts) > _FLOAT_PHASES or not alpha_max * max(largest, 1.0) < 2.0**1000:
        return None
    if size < 3:
        grid = _linspace(min(grid_step, alpha_max / 3.0), alpha_max, 4)
    else:
        grid = [grid_step * (j + 1) for j in range(count)] + [alpha_max] * (size - count)
    near = _residuals(grid, shifts, _grid_square)
    f = lambda a: _residuals([a], shifts, _pow_square)[0]
    out: list = []
    for i in range(1, len(grid) - 1):
        value = near[i]
        if not (value <= near[i - 1] and value <= near[i + 1]):
            continue
        lo, hi = grid[i - 1], grid[i + 1]
        if _cannot_certify(near[i - 1 : i + 2], lo, grid[i], hi, shifts, tol):
            continue
        alpha = _golden(f, lo, hi)
        value = f(alpha)
        if out and abs(alpha - out[-1][0]) < 1e-8:
            if value < out[-1][1]:
                out[-1] = (alpha, value)
            continue
        out.append((alpha, value))
    return out


def find_periodic_alphas(b, alpha_max: float, grid_step, tol: float):
    """``periodicity.find_periodic_alphas`` in floats: (alpha, period,
    residual) triples, bit for bit, or None for the library engine to run."""
    if not (tol > 0.0):
        raise InvalidRange("tol must be positive")
    minima = _refined_minima(b, alpha_max, grid_step, tol)
    if minima is None:
        return None
    return [
        (alpha, 2.0 * math.pi / alpha, residual)
        for alpha, residual in minima
        # a subnormal alpha_max can refine to 0, or to a frequency whose
        # period overflows: neither states a periodic solution
        if residual <= tol and alpha > 0.0 and 2.0 * math.pi / alpha < _INF
    ]
