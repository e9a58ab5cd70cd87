import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dilateq import expsums, periodicity
from dilateq._linetable import LineTable, pruned_minima

#: the largest phase alpha * b_k a scan on its default step reaches within its
#: term budget: at most 2^26 grid points, each at most pi / 8 past the last
PHASE_MAX = periodicity._MAX_TERMS * math.pi / 8.0

#: the largest |y ln n| the seeding tests draw
SEEDING_MAX = 1e6


def _assert_within(line, lambdas, terms, top):
    """``line``'s terms and sums against exp-by-exp terms at its points, each
    term within r_k e_k and each sum within the bound of any summation."""
    j = np.arange(terms.shape[0])
    modulus = np.exp(top * lambdas)
    assert np.all(np.abs(line.terms(j) - terms) <= modulus * line.error)
    assert np.all(np.abs(line.terms(j).sum(axis=-1) - terms.sum(axis=-1)) <= line.bound)
    assert np.all(np.abs(line.sums(0, j.size) - terms.sum(axis=-1)) <= line.bound)
    assert np.all(np.abs(line.sums(0, j.size) - terms[:, ::-1].sum(axis=-1)) <= line.bound)
    # any range, aligned on the anchors or not
    lo, hi = j.size // 3, max(j.size // 3 + 1, 2 * j.size // 3)
    assert line.sums(lo, hi).shape == (hi - lo,)
    assert np.all(np.abs(line.sums(lo, hi) - terms[lo:hi].sum(axis=-1)) <= line.bound)


class TestLineTable:
    @settings(max_examples=60, deadline=None)
    @given(
        shifts=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=16),
        count=st.integers(1, 3000),
        reach=st.floats(1e-2, PHASE_MAX),
    )
    def test_periodicity_grid_within_bound(self, shifts, count, reach):
        # the scan's grid step * (j + 1) and its cos + i sin of fl(alpha b_k),
        # with the leading 1 as the term of lambda = 0
        b = np.asarray(shifts)
        step = reach / (count * b.max())
        alphas = step * np.arange(1, count + 1)
        lambdas = np.append(0.0, b)
        phases = np.multiply.outer(alphas, lambdas)
        terms = np.cos(phases) + 1j * np.sin(phases)
        line = LineTable(1j * step, 1j * step, count, lambdas)
        _assert_within(line, lambdas, terms, 0.0)
        # the scan's own summation order
        sums = (1.0 + terms[:, 1:].real.sum(axis=-1)) + 1j * terms[:, 1:].imag.sum(axis=-1)
        assert np.all(np.abs(line.sums(0, count) - sums) <= line.bound)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        lo=st.floats(-1.0, 1.0),
        height=st.floats(1e-6, 2.0),
        count=st.integers(2, 600),
    )
    def test_seeding_phases_within_bound(self, n, lo, height, count):
        # the im axis of a seeding grid, |y ln n| up to SEEDING_MAX
        scale = SEEDING_MAX / math.log(n)
        rect = expsums.SearchRectangle(-1.0, 1.0, lo * scale, (lo + height) * scale, 2, count)
        im = np.linspace(rect.im_min, rect.im_max, count)
        step = (rect.im_max - rect.im_min) / (count - 1)
        logs = expsums._log_table(n)
        line = LineTable(1j * rect.im_min, 1j * step, count, logs)
        _assert_within(line, logs, np.exp(1j * np.multiply.outer(im, logs)), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 200),
        a=st.complex_numbers(max_magnitude=300.0).filter(lambda z: -20.0 <= z.real <= 4.0),
        d=st.complex_numbers(min_magnitude=1e-3, max_magnitude=30.0),
        count=st.integers(1, 2000),
    )
    def test_boundary_side_within_bound(self, n, a, d, count):
        # a winding side: linspace's samples, each summed as power_sum sums
        b = a + d
        points, h = np.linspace(a, b, count, endpoint=False, retstep=True)
        logs = expsums._log_table(n)
        line = LineTable(a, h, count, logs)
        terms = np.exp(np.multiply.outer(points, logs))
        _assert_within(line, logs, terms, max(a.real, b.real))

    def test_anchor_rows_are_exact_rows(self):
        # an anchor lies on a grid point: its row is that point's phase row
        n, count = 30, 481
        im = np.linspace(0.0, 30.0, count)
        logs = expsums._log_table(n)
        line = LineTable(0j, 1j * (30.0 / (count - 1)), count, logs)
        assert line.width == 22 and line.anchors.shape == (22, n)
        corners = np.arange(0, count, line.width)
        phases = np.exp(1j * np.multiply.outer(im[corners], logs))
        assert line.anchors.tobytes() == phases.tobytes()
        assert line.offsets[0].tolist() == [1.0] * n

    def test_one_point(self):
        line = LineTable(2j, 1j, 1, np.array([0.0, 1.0]))
        assert line.width == 1
        assert line.sums(0, 1).tolist() == [1.0 + np.exp(2j)]

    def test_non_finite_bound_prunes_nothing(self):
        # phases near 1e19: the bound is infinite, and a comparison with it false
        line = LineTable(1e17j, 1e17j, 100, np.array([0.0, 1.0, 2.0]))
        assert line.bound == math.inf and not 1.0 > line.bound


#: exact grid values: ties, signed infinities and NaN among ordinary floats
VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, math.nan, math.inf, -math.inf]), st.floats(-1e3, 1e3)
)

#: per-column bounds: infinite and NaN bounds allow any estimate
BOUNDS = st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, math.inf, math.nan]))


#: a chain of values that only exact neighbours rank: see the examples below
CHAIN = [2.0, 1.9, 0.0, -100.0]


def _within(estimate: float, value: float, bound: float) -> bool:
    """|estimate - value| <= bound in exact arithmetic, for finite arguments."""
    return abs(Fraction(estimate) - Fraction(value)) <= Fraction(bound)


@st.composite
def _pruning_cases(draw):
    """A grid of exact values, one bound per column, a shift in [-1, 1] and a
    lost flag per cell, and the candidate rows as (start, stop, block)."""
    rows, cols = draw(st.integers(1, 12)), draw(st.one_of(st.just(1), st.integers(2, 6)))
    cells = rows * cols
    values = draw(st.lists(VALUES, min_size=cells, max_size=cells))
    bound = draw(st.lists(BOUNDS, min_size=cols, max_size=cols))
    shift = draw(st.lists(st.floats(-1.0, 1.0), min_size=cells, max_size=cells))
    # estimates lost to NaN, as a table's overflow loses them
    lost = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    start = draw(st.integers(0, rows))
    stop = draw(st.integers(start, rows))
    candidates = (start, stop, draw(st.integers(1, rows + 1)))
    return np.array(values).reshape(rows, cols), bound, shift, lost, candidates


class TestPrunedMinima:
    @settings(max_examples=200, deadline=None)
    @given(case=_pruning_cases())
    # a flat column: every point ties, and every candidate is a minimum
    @example(case=(np.ones((3, 1)), [0.0], [0.0] * 3, [False] * 3, (1, 2, 1)))
    # 1.9 is below 2 by less than the bounds, so 2 is kept, and 1.9 is
    # dropped for 0 and 0 for -100: 2 is no minimum, which only the exact
    # 1.9 shows, along a row and a column, either way
    @example(case=(np.array([CHAIN]), [0.5] * 4, [0.0] * 4, [False] * 4, (0, 1, 1)))
    @example(case=(np.array([CHAIN[::-1]]), [0.5] * 4, [0.0] * 4, [False] * 4, (0, 1, 1)))
    @example(case=(np.array([CHAIN]).T, [0.5], [0.0] * 4, [False] * 4, (0, 4, 1)))
    @example(case=(np.array([CHAIN[::-1]]).T, [0.5], [0.0] * 4, [False] * 4, (0, 4, 1)))
    def test_brute_force_minima_of_the_candidates(self, case):
        exact, bound, shift, lost, (start, stop, step) = case
        rows, cols = exact.shape
        bound = np.array(bound)
        # each estimate within its column's bound: the exact value moved by
        # up to the bound, kept only where that holds without rounding
        est = exact.copy()
        for (i, j), value in np.ndenumerate(exact):
            k, value, width = i * cols + j, float(value), float(bound[j])
            moved = value + shift[k] * width
            if math.isnan(value) or not math.isfinite(width):
                # any estimate is within an infinite or NaN bound, or of NaN
                est[i, j] = 1e3 * shift[k]
            elif math.isfinite(moved) and _within(moved, value, width):
                est[i, j] = moved
            if lost[k]:
                est[i, j] = math.nan
        calls = []

        def estimate(top, bottom):
            assert 0 <= top < bottom <= rows
            return est[top:bottom]

        def exact_cells(r, c):
            calls.append(r.size)
            return exact[r, c]

        # the first row of each block of candidates, every row up to the stop
        blocks = range(start, stop, step)
        found = list(pruned_minima(rows, blocks, estimate, bound, exact_cells))
        assert found == [(i, j) for i, j in expsums._local_minima(exact) if start <= i < stop]
        # exact sums go only to the candidates and their neighbours
        assert sum(calls) <= (stop - start + 2 * len(blocks)) * cols
