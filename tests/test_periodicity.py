import hashlib
import math
import tracemalloc
from math import gcd, pi

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dilateq import (
    ShiftVector,
    equispaced_alphas,
    find_periodic_alphas,
    fourier_matrix,
    residual_additive,
    scale_shifts,
    scan_minima,
    system_residual,
    two_term_periodic_exists,
)
from dilateq import periodicity
from dilateq.errors import (
    DomainViolation,
    GridBudgetExceeded,
    InvalidInput,
    InvalidRange,
    NonPositiveScale,
    NotCoprime,
    ZeroDenominator,
)


class TestSystemResidual:
    def test_cube_roots_of_unity(self):
        # 1 + cos(2pi/3) + cos(4pi/3) = 0 and the sines cancel
        assert system_residual(2 * pi / 3, (1.0, 2.0)) == pytest.approx(0.0, abs=1e-28)

    def test_repeated_shift_floor(self):
        # (1 + 2cos a)^2 + (2 sin a)^2 = 5 + 4 cos a, floored at 1
        assert system_residual(pi, [1.0, 1.0]) == pytest.approx(1.0, rel=1e-14)

    def test_zero_frequency(self):
        for n in (1, 2, 5):
            assert system_residual(0.0, [float(k) for k in range(1, n + 1)]) == (1 + n) ** 2

    def test_vectorized(self):
        alphas = np.linspace(0.1, 5.0, 7)
        out = system_residual(alphas, (1.0, 2.0))
        assert out.shape == alphas.shape
        assert out[0] == system_residual(float(alphas[0]), (1.0, 2.0))

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(InvalidInput):
            system_residual(1.0, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_frequency(self, bad, monkeypatch):
        monkeypatch.setattr(periodicity, "_residuals", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(InvalidInput, match="finite"):
            system_residual(bad, [1.0, 2.0])
        with pytest.raises(InvalidInput, match="finite"):
            system_residual(np.array([[1.0, 2.0], [bad, 3.0]]), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_shift(self, bad):
        with pytest.raises(InvalidInput):
            system_residual(1.0, [1.0, bad])
        with pytest.raises(InvalidInput):
            scan_minima([bad], 10.0)


class TestScanner:
    def test_two_shifts_finds_all_three(self):
        certs = find_periodic_alphas((1.0, 2.0), 10.0)
        expected = [2 * pi / 3, 4 * pi / 3, 8 * pi / 3]
        assert len(certs) == len(expected)
        for cert, alpha in zip(certs, expected):
            assert cert.alpha == pytest.approx(alpha, abs=1e-10)
            assert cert.period == pytest.approx(2 * pi / alpha, rel=1e-12)
            assert cert.system_residual <= 1e-16

    def test_repeated_shift_has_no_certificates(self):
        assert find_periodic_alphas([1.0, 1.0], 20.0, tol=1e-12) == []
        minima = scan_minima([1.0, 1.0], 20.0)
        assert min(r for _, r in minima) == pytest.approx(1.0, abs=1e-9)

    def test_single_shift_antiperiodic(self):
        certs = find_periodic_alphas((1.0,), 10.0)
        assert [c.alpha for c in certs] == pytest.approx([pi, 3 * pi], abs=1e-10)

    def test_witnesses_solve_the_equation(self):
        rng = np.random.default_rng(11)
        for shifts in [(1.0, 2.0), (1.0,)]:
            for cert in find_periodic_alphas(shifts, 10.0):
                w = rng.uniform(-20.0, 20.0, 1000)
                a = cert.alpha
                assert residual_additive(lambda t: np.cos(a * t), shifts, w) <= 1e-10
                assert residual_additive(lambda t: np.sin(a * t), shifts, w) <= 1e-10

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            find_periodic_alphas((1.0,), -1.0)
        with pytest.raises(InvalidRange):
            find_periodic_alphas((1.0,), 10.0, grid_step=-0.1)
        with pytest.raises(InvalidRange):
            find_periodic_alphas((1.0,), 10.0, tol=0.0)

    @pytest.mark.parametrize("alpha_max", [math.inf, math.nan])
    def test_nonfinite_alpha_max(self, alpha_max):
        with pytest.raises(InvalidRange):
            scan_minima((1.0, 2.0), alpha_max)

    @pytest.mark.parametrize(
        "alpha_max, grid_step", [(10.0, 1e-12), (1e300, 1e-300), (1e8, None)]
    )
    def test_grid_budget_checked_before_allocating(self, alpha_max, grid_step):
        with pytest.raises(GridBudgetExceeded, match=str(periodicity.MAX_GRID_POINTS)):
            scan_minima((1.0, 2.0), alpha_max, grid_step)
        assert issubclass(GridBudgetExceeded, DomainViolation)

    def test_grid_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(periodicity, "MAX_GRID_POINTS", 1000)
        assert len(scan_minima((1.0, 2.0), 10.0, 0.01)) == 3
        with pytest.raises(GridBudgetExceeded):
            scan_minima((1.0, 2.0), 10.0, 0.00999)

    def test_term_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(periodicity, "_MAX_TERMS", 2000)
        assert len(scan_minima((1.0, 2.0), 10.0, 0.01)) == 3
        message = "^scan grid of 1001 points x 2 shifts exceeds the budget of 2000 terms$"
        with pytest.raises(GridBudgetExceeded, match=message):
            scan_minima((1.0, 2.0), 10.0, 0.00999)

    def test_term_budget_checked_before_allocating(self, monkeypatch):
        # 1e6 points on 2 shifts: the grid alone would take 8 MB
        monkeypatch.setattr(periodicity, "_MAX_TERMS", 1000)
        monkeypatch.setattr(periodicity, "_residuals", lambda *a: pytest.fail("evaluated"))
        tracemalloc.start()
        try:
            with pytest.raises(GridBudgetExceeded, match="1e\\+06 points x 2 shifts"):
                scan_minima((1.0, 2.0), 1e4, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_refined_minima_within_1e_8_keep_the_smaller_residual(self):
        # two grid minima refine to alphas 7.9e-9 apart near pi / 3; the later
        # one, 1.0471975547088392, has the smaller residual and replaces the
        # earlier one, 1.0471975468160677 (residual 4.0)
        shifts = (3.0, 3.0, 3.0)
        out = scan_minima(shifts, 7.349019775830515, 0.19039955476301776)
        alphas = [alpha for alpha, _ in out]
        assert all(b - a >= 1e-8 for a, b in zip(alphas, alphas[1:]))
        assert out[0] == (1.0471975547088392, 3.999999999999999)
        assert system_residual(1.0471975468160677, shifts) == 4.0 > out[0][1]
        assert alphas == [1.0471975547088392, 3.1415926571020343, 5.235987759495229]

    def test_grid_of_fewer_than_three_points(self):
        # the grid {2, 3} is too short to hold an interior minimum: the scan
        # falls back to four points and still certifies 2 pi / 3
        certs = find_periodic_alphas([1, 2], 3.0, grid_step=2.0)
        assert len(certs) == 1
        assert certs[0].alpha == pytest.approx(2 * pi / 3, abs=1e-10)

    def test_witness_function_is_cosine(self):
        cert = find_periodic_alphas((1.0, 2.0), 3.0)[0]
        w = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_array_equal(cert.witness_function()(w), np.cos(cert.alpha * w))


class TestEquispaced:
    def test_n2_excludes_multiples_of_three(self):
        assert equispaced_alphas(2, 1.0, 4) == pytest.approx(
            [2 * pi / 3, 4 * pi / 3, 8 * pi / 3]
        )

    def test_scaling_by_d(self):
        assert equispaced_alphas(3, 0.5, 2) == pytest.approx([pi, 2 * pi])

    def test_n1(self):
        assert equispaced_alphas(1, 1.0, 2) == pytest.approx([pi])
        assert equispaced_alphas(1, 1.0, 3) == pytest.approx([pi, 3 * pi])

    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
    def test_non_finite_spacing_refused(self, d):
        with pytest.raises(InvalidInput, match="finite"):
            equispaced_alphas(2, d, 2)

    def test_closed_form_solves_system(self):
        for n in range(1, 6):
            for d in (0.5, 1.0, math.log(2)):
                shifts = [d * k for k in range(1, n + 1)]
                for alpha in equispaced_alphas(n, d, 12):
                    assert system_residual(alpha, shifts) <= 1e-16

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [0.5, 1.0, math.log(2)])
    def test_scanner_agrees_with_closed_form(self, n, d):
        alpha_max = 12.0 / d
        shifts = [d * k for k in range(1, n + 1)]
        found = [c.alpha for c in find_periodic_alphas(shifts, alpha_max)]
        expected = [
            2 * m * pi / ((n + 1) * d)
            for m in range(1, 1000)
            if m % (n + 1) != 0 and 2 * m * pi / ((n + 1) * d) <= alpha_max
        ]
        assert len(found) == len(expected)
        np.testing.assert_allclose(found, expected, atol=1e-10)

    def test_above_alpha_64(self):
        # one ulp of alpha exceeds 1e-14 from alpha = 64 on; the bracket still closes
        top = 32
        alpha_max = (top + 0.5) * 2 * pi / 3
        found = [c.alpha for c in find_periodic_alphas((1.0, 2.0), alpha_max)]
        expected = equispaced_alphas(2, 1.0, top)
        assert len(found) == len(expected) == 22
        assert max(expected) > 66.0
        np.testing.assert_allclose(found, expected, atol=1e-13)

    def test_golden_section_steps_above_64(self):
        calls = []

        def f(a):
            calls.append(a)
            if len(calls) > 1000:
                raise RuntimeError("golden section does not terminate")
            return (a - 66.0) ** 2

        alpha = periodicity._golden_minimize(f, 65.9, 66.1, periodicity._REFINE_WIDTH)
        assert abs(alpha - 66.0) <= 4 * math.ulp(66.0)
        assert len(calls) < 100


#: name -> (shifts, alpha_max, grid_step); the CLI's two periodicity calls come first
SCAN_FIXTURES = {
    "cli-periodicity-0": ((1.0, 2.0), 10.0, None),
    "cli-periodicity-1": ((0.5, 1.0, 1.5), 20.0, 0.01),
    "two-shift-alpha-70": ((1.0, 2.0), 70.0, None),
    "equispaced-16": (tuple(0.5 * k for k in range(1, 17)), 58.0, None),
    "rational-5-4": ((1.2, 1.5), 40.0, None),
    "generic-6": (
        (0.42634086690768613, 1.254162436256363, 1.6317171478802124,
         1.9005963295860828, 2.8405570956026294, 2.933482375981572),
        50.0,
        None,
    ),
    # unsorted; squaring the sums as arrays (x * x) changes their digests
    "generic-2": ((3.8348618312801492, 0.47002574511576384), 6.804285714576909, None),
    "generic-4": (
        (3.4649785211183852, 1.007837410980788, 1.99536999010018, 2.5719429822837285),
        57.23134354340762,
        None,
    ),
    "repeated-1-1": ((1.0, 1.0), 20.0, None),
    "single-shift": ((1.0,), 10.0, None),
    "fine-step": ((1.0, 2.0), 10.0, 1e-4),
    "log-2-3-5": ((math.log(2), math.log(3), math.log(5)), 30.0, None),
}

#: sha256 of repr(scan_minima(*fixture)), captured from the scan that refined
#: one bracket at a time with scalar residual calls
SCAN_DIGESTS = {
    "cli-periodicity-0": "400ec78dff9bc2252a2d5e094d13fc93b590618b726dc6c6ac8f3b87c6dfbca6",
    "cli-periodicity-1": "5a0141e1ada7ca9bdbdb4bbbbc47dc1618b0821e1bfdb509ef1a19d50421b54a",
    "two-shift-alpha-70": "a66b44d8d3c29278888b217ac4b1cf9b646d0394e9387df146bb28d3797c4dd7",
    "equispaced-16": "4a6f7f5e2bdb7e4cec5a24e8331a436d8c44d15e7a53137dde4ac4b2c5b14604",
    "rational-5-4": "27aaa13c9b99bca091e51ba81b83a3447517f5c4bd47e6b247db2cb72aab7e0a",
    "generic-6": "93b398d9e5acda38fc53cc9b0b025f50ee58cd214644622a09ce10d674817470",
    "generic-2": "7cc706a06b89479c2b5f527196c11695e8290df6d175118e5dcc2f3c1336f00d",
    "generic-4": "eb58b35889e5a83735d1228f7f9a10ef2c2bcea70dac530d825c3db0507b33d5",
    "repeated-1-1": "d3f00d76c63f8b98d96263ad49359051e525dc9e6548c9973aedb5d4c9833735",
    "single-shift": "8205feacb85fd38f68f70e430bedd2b9114bf1f27e27b72fd2f4ebf5ddbdb071",
    "fine-step": "eced504b356fa537ff11351c5b77f6b40a57196a3ffdc7331b8fddc9b07f6d53",
    "log-2-3-5": "15687f9fbd706b23c6479a717c012f43c49aa8d401976a0d5ca1827daeff0b62",
}


def _scalar_residual(alpha: float, shifts: np.ndarray) -> float:
    phases = np.multiply.outer(np.asarray(alpha), shifts)
    cos_part = 1.0 + np.cos(phases).sum(axis=-1)
    sin_part = np.sin(phases).sum(axis=-1)
    return float(cos_part**2 + sin_part**2)


def _scalar_golden(f, lo: float, hi: float) -> float:
    x1 = hi - periodicity._INV_GOLDEN * (hi - lo)
    x2 = lo + periodicity._INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(periodicity._GOLDEN_MAX_ITER):
        if hi - lo <= max(periodicity._REFINE_WIDTH, math.ulp(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - periodicity._INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + periodicity._INV_GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _reference_scan(b, alpha_max: float, grid_step=None) -> list[tuple[float, float]]:
    """The scan refining one bracket at a time with scalar residual calls."""
    shifts = np.asarray(b, dtype=float)
    if grid_step is None:
        grid_step = min(pi / (8.0 * shifts.max()), alpha_max / 1e4)
    grid = grid_step * np.arange(1, math.floor(alpha_max / grid_step) + 1)
    if grid.size == 0 or grid[-1] < alpha_max:
        grid = np.append(grid, alpha_max)
    if grid.size < 3:
        grid = np.linspace(min(grid_step, alpha_max / 3.0), alpha_max, 4)
    phases = np.multiply.outer(grid, shifts)
    res = (1.0 + np.cos(phases).sum(axis=-1)) ** 2 + np.sin(phases).sum(axis=-1) ** 2
    interior = np.flatnonzero((res[1:-1] <= res[:-2]) & (res[1:-1] <= res[2:])) + 1
    f = lambda a: _scalar_residual(a, shifts)
    out: list[tuple[float, float]] = []
    for i in interior:
        alpha = _scalar_golden(f, float(grid[i - 1]), float(grid[i + 1]))
        if out and abs(alpha - out[-1][0]) < 1e-8:
            if f(alpha) < out[-1][1]:
                out[-1] = (alpha, f(alpha))
            continue
        out.append((alpha, f(alpha)))
    return out


class TestBitwise:
    @pytest.mark.parametrize("name", list(SCAN_FIXTURES))
    def test_scan_minima_digest(self, name):
        out = scan_minima(*SCAN_FIXTURES[name])
        assert hashlib.sha256(repr(out).encode()).hexdigest() == SCAN_DIGESTS[name]

    def test_blocks_do_not_change_bits(self, monkeypatch):
        alphas = np.linspace(0.01, 60.0, 5001)
        shifts = SCAN_FIXTURES["generic-6"][0]
        whole = system_residual(alphas, shifts)
        # blocks of 5 rows of 6 shifts, so every call spans several blocks
        monkeypatch.setattr(periodicity, "_BLOCK_BYTES", 8 * 6 * 5)
        assert system_residual(alphas, shifts).tobytes() == whole.tobytes()
        assert system_residual(alphas.reshape(3, -1), shifts).shape == (3, 1667)
        out = scan_minima(*SCAN_FIXTURES["generic-6"])
        assert hashlib.sha256(repr(out).encode()).hexdigest() == SCAN_DIGESTS["generic-6"]

    @settings(max_examples=40, deadline=None)
    @given(
        shifts=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=16),
        alpha_max=st.floats(5.0, 80.0),
        grid_step=st.none(),
    )
    # alpha_max appended to the grid, next to the minimum near 8 pi / 3
    @example(shifts=[1.0, 2.0], alpha_max=8 * pi / 3 + 0.05, grid_step=0.1)
    # a grid of two points, which falls back to four
    @example(shifts=[1.0, 2.0], alpha_max=3.0, grid_step=2.0)
    # ties: two grid minima refine to alphas 7.9e-9 apart
    @example(shifts=[3.0, 3.0, 3.0], alpha_max=7.349019775830515, grid_step=0.19039955476301776)
    # a flat grid: every residual reads 4.0, so nothing is pruned
    @example(shifts=[1e-9], alpha_max=5.0, grid_step=0.5)
    # phases near 1e19, whose bound is infinite and prunes nothing
    @example(shifts=[1.0, 2.0], alpha_max=1e19, grid_step=1e17)
    def test_equals_scalar_reference(self, shifts, alpha_max, grid_step):
        expected = _reference_scan(shifts, alpha_max, grid_step)
        assert scan_minima(shifts, alpha_max, grid_step) == expected

    @pytest.mark.parametrize("name", list(SCAN_FIXTURES))
    def test_grid_sums_three_points_per_minimum(self, name, monkeypatch):
        # the grid is estimated from a few exact rows; only each minimum and
        # its two neighbours, and an appended alpha_max, are summed exactly
        exact, brackets = [], []
        residuals, golden = periodicity._residuals, periodicity._golden_minimize

        def spy_residuals(alphas, shifts, square):
            if square is np.square:
                exact.append(alphas.size)
            return residuals(alphas, shifts, square)

        def spy_golden(f, lo, hi, width):
            brackets.append(lo.size)
            return golden(f, lo, hi, width)

        monkeypatch.setattr(periodicity, "_residuals", spy_residuals)
        monkeypatch.setattr(periodicity, "_golden_minimize", spy_golden)
        scan_minima(*SCAN_FIXTURES[name])
        assert 0 < brackets[0] and sum(exact) <= 3 * brackets[0] + 1

    def test_rows_match_scalar_reference(self):
        # squares of Python floats (libm pow) and of arrays (x * x) differ on
        # about 1 in 1000 inputs: 20000 rows meet some of them
        rng = np.random.default_rng(3)
        for _ in range(20):
            shifts = rng.uniform(0.05, 5.0, int(rng.integers(1, 17)))
            alphas = rng.uniform(0.0, 100.0, 1000)
            expected = [_scalar_residual(a, shifts) for a in alphas.tolist()]
            assert periodicity._row_residuals(alphas, shifts).tolist() == expected
            assert system_residual(float(alphas[0]), shifts) == expected[0]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), block_rows=st.integers(1, 400))
    def test_rows_square_as_python_floats(self, seed, block_rows):
        # the squares of the old Python-float loop, bit for bit, whatever the
        # block; x * x differs on about 1 in 1000 rows, so draw rows in bulk
        rng = np.random.default_rng(seed)
        shifts = rng.uniform(0.01, 10.0, int(rng.integers(1, 41)))
        alphas = rng.uniform(0.0, 500.0, int(rng.integers(1, 2001)))
        expected = [
            c**2 + s**2
            for c, s in zip(
                (1.0 + np.cos(np.multiply.outer(alphas, shifts)).sum(axis=-1)).tolist(),
                np.sin(np.multiply.outer(alphas, shifts)).sum(axis=-1).tolist(),
            )
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(periodicity, "_BLOCK_BYTES", 8 * shifts.size * block_rows)
            assert periodicity._row_residuals(alphas, shifts).tolist() == expected

    def test_row_evaluations_per_golden_step(self, monkeypatch):
        sizes = []
        row_residuals = periodicity._row_residuals

        def counted(alphas, shifts):
            sizes.append(alphas.size)
            return row_residuals(alphas, shifts)

        monkeypatch.setattr(periodicity, "_row_residuals", counted)
        certs = find_periodic_alphas(*SCAN_FIXTURES["equispaced-16"][:2])
        assert len(certs) == 74
        # one call for the first two points of every bracket, one per golden
        # step (about 60 narrow a grid cell to 1e-14) and one for the
        # midpoints; a bracket at a time took 4530 scalar calls here
        assert len(sizes) <= 80
        assert sizes[0] == 2 * 74 and max(sizes) == 2 * 74


def _cut_every_minimum(b, alpha_max, grid_step, tol) -> list[tuple[float, float, float]]:
    """(alpha, period, residual) of the acceptance cut applied to every refined
    minimum of ``scan_minima``."""
    return [
        (alpha, 2 * pi / alpha, residual)
        for alpha, residual in scan_minima(b, alpha_max, grid_step)
        if residual <= tol and alpha > 0.0 and 2 * pi / alpha < math.inf
    ]


_SHIFT_FAMILIES = st.one_of(
    # lattice: integer multiples of one spacing
    st.builds(
        lambda d, ks: [d * k for k in ks],
        st.floats(0.05, 3.0),
        st.lists(st.integers(1, 8), min_size=1, max_size=8),
    ),
    # two-shift rational
    st.builds(
        lambda d, p, q: [p * d, q * d],
        st.floats(0.05, 3.0),
        st.integers(1, 11),
        st.integers(1, 11),
    ),
    st.lists(st.floats(0.05, 4.0), min_size=1, max_size=16),
    # repeated
    st.builds(lambda d, n: [d] * n, st.floats(0.05, 3.0), st.integers(1, 6)),
)


class TestExclusion:
    """``find_periodic_alphas`` refines only the grid minima that a Lipschitz
    bound on |E| does not keep above tol, and certifies what the cut on
    every refined minimum certifies."""

    @settings(max_examples=150, deadline=None)
    @given(
        shifts=_SHIFT_FAMILIES,
        alpha_max=st.floats(1.0, 80.0),
        grid_step=st.one_of(st.none(), st.floats(0.01, 0.5)),
        tol=st.sampled_from([1e-16, 1e-8, 1e-2, 0.5, math.inf]),
    )
    @example(shifts=list(SCAN_FIXTURES["generic-6"][0]), alpha_max=50.0, grid_step=None, tol=1e-16)
    # a near miss: the best refined residual is 1.1e-6, a certificate at
    # tol 1e-2 and an excluded bracket at tol 1e-8
    @example(shifts=[1.0, 2.001], alpha_max=3.0, grid_step=None, tol=1e-8)
    @example(shifts=[1.0, 2.001], alpha_max=3.0, grid_step=None, tol=1e-2)
    # phases near 1e19 round by more than |E| can be: nothing is excluded
    @example(shifts=[1.0, 2.0], alpha_max=1e19, grid_step=1e17, tol=0.5)
    def test_equals_the_cut_on_every_minimum(self, shifts, alpha_max, grid_step, tol):
        certs = find_periodic_alphas(shifts, alpha_max, grid_step, tol)
        got = [(c.alpha, c.period, c.system_residual) for c in certs]
        assert got == _cut_every_minimum(shifts, alpha_max, grid_step, tol)

    @staticmethod
    def _brackets(monkeypatch, scan, *args) -> list[int]:
        """Brackets of each golden-section call ``scan(*args)`` makes."""
        sizes = []
        golden = periodicity._golden_minimize

        def spy(f, lo, hi, width):
            sizes.append(lo.size)
            return golden(f, lo, hi, width)

        with monkeypatch.context() as patch:
            patch.setattr(periodicity, "_golden_minimize", spy)
            scan(*args)
        return sizes

    @pytest.mark.parametrize("name", ["generic-2", "repeated-1-1", "log-2-3-5"])
    def test_no_golden_step_where_nothing_certifies(self, name, monkeypatch):
        assert len(scan_minima(*SCAN_FIXTURES[name])) > 0
        monkeypatch.setattr(periodicity, "_golden_minimize", lambda *a: pytest.fail("refined"))
        monkeypatch.setattr(periodicity, "_row_residuals", lambda *a: pytest.fail("evaluated"))
        assert find_periodic_alphas(*SCAN_FIXTURES[name]) == []

    def test_every_equispaced_bracket_refined(self, monkeypatch):
        fixture = SCAN_FIXTURES["equispaced-16"]
        assert self._brackets(monkeypatch, find_periodic_alphas, *fixture)[0] == 74

    def test_generic_refines_only_what_can_certify(self, monkeypatch):
        # 17 minima, the smallest residual 3.8e-4 and the next 0.041: only
        # the bracket of the smallest is refined
        fixture = SCAN_FIXTURES["generic-6"]
        assert len(scan_minima(*fixture)) == 17
        assert self._brackets(monkeypatch, find_periodic_alphas, *fixture) == [1]

    def test_overflowing_shift_sum_excludes_nothing(self, monkeypatch):
        # |1 + 2 exp(i alpha b)| >= 1 everywhere: with a finite sum of shifts
        # every bracket is excluded, with an infinite one none is
        finite = ((8e307, 8e307), 1e-305, 1e-309)
        overflowing = ((9e307, 9e307), 1e-305, 1e-309)
        assert self._brackets(monkeypatch, scan_minima, *finite)[0] > 0
        assert self._brackets(monkeypatch, find_periodic_alphas, *finite) == []
        every = self._brackets(monkeypatch, scan_minima, *overflowing)
        assert every[0] > 0
        assert self._brackets(monkeypatch, find_periodic_alphas, *overflowing) == every


def test_subnormal_alpha_max_certifies_no_zero_frequency():
    # alpha_max / 3 underflows to 0, and every minimum passes an infinite
    # tolerance: a refined alpha of 0 divided by zero (exit 1 on the CLI)
    assert find_periodic_alphas([1e300], 5e-324, grid_step=math.inf, tol=math.inf) == []


class TestFourierMatrix:
    def test_vanishes_at_certified_frequency(self):
        mat = fourier_matrix(1, 2 * pi / 3, (1.0, 2.0))
        assert max(abs(v) for row in mat.entries for v in row) <= 1e-8
        assert mat.det == pytest.approx(0.0, abs=1e-16)

    def test_full_turn(self):
        mat = fourier_matrix(1, 2 * pi, (1.0, 2.0))
        np.testing.assert_allclose(mat.entries, [[3.0, 0.0], [0.0, 3.0]], atol=1e-14)

    @pytest.mark.parametrize("k, theta", [(1, math.nan), (1, math.inf), (2, -math.inf), (10**6, 1e305)])
    def test_non_finite_phase_refused(self, k, theta):
        with pytest.raises(InvalidInput, match="finite"):
            fourier_matrix(k, theta, (1.0, 2.0))

    def test_k_no_float_holds_refused(self):
        with pytest.raises(InvalidInput, match="too large for a float"):
            fourier_matrix(10**400, 0.5, (1.0, 2.0))

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 10**6),
        theta=st.floats(-1e4, 1e4),
        # numpy sums left to right below 8 terms, in blocks of 8 accumulators
        # up to 128 and by halves above that
        shifts=st.one_of(st.integers(1, 40), st.integers(120, 300)).flatmap(
            lambda n: st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)
        ),
    )
    def test_equals_the_numpy_formula(self, k, theta, shifts):
        phases = k * theta * np.asarray(shifts)
        assume(np.isfinite(phases).all())
        c = 1.0 + float(np.cos(phases).sum())
        s = float(np.sin(phases).sum())
        entries = [v.hex() for row in fourier_matrix(k, theta, shifts).entries for v in row]
        assert entries == [v.hex() for v in (c, s, -s, c)]

    def test_harmonic_frequency_product(self):
        a = fourier_matrix(2, pi / 3, (1.0, 2.0))
        b = fourier_matrix(1, 2 * pi / 3, (1.0, 2.0))
        np.testing.assert_allclose(a.entries, b.entries, atol=1e-14)

    def test_det_matches_system_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            shifts = np.sort(rng.uniform(0.2, 4.0, int(rng.integers(1, 6))))
            k = int(rng.integers(1, 5))
            theta = float(rng.uniform(0.1, 4.0))
            mat = fourier_matrix(k, theta, shifts)
            assert mat.det == pytest.approx(system_residual(k * theta, shifts), rel=1e-12)
            assert mat.det >= 0.0

    def test_zero_det_forces_zero_matrix(self):
        # whenever the determinant vanishes, every entry must vanish
        for n in range(1, 6):
            for d in (0.5, 1.0, math.log(2)):
                shifts = [d * k for k in range(1, n + 1)]
                for alpha in equispaced_alphas(n, d, 10):
                    mat = fourier_matrix(1, alpha, shifts)
                    if mat.det <= 1e-16:
                        assert max(abs(v) for row in mat.entries for v in row) <= 1e-8


class TestScaleShifts:
    def test_basic(self):
        assert scale_shifts(ShiftVector((1.0, 2.0)), 2.0).entries == (2.0, 4.0)

    def test_identity(self):
        b = ShiftVector((math.log(2), math.log(3)))
        assert scale_shifts(b, 1.0).entries == b.entries

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveScale):
            scale_shifts(ShiftVector((1.0,)), 0.0)

    @pytest.mark.parametrize(
        "shifts, d, message",
        [
            ((1.0, 2.0), 1e308, "finite"),
            ((1.0, -2.0), 2.0, "positive"),
            ((), 2.0, "at least one shift"),
            ((1e-300,), 1e-300, "positive"),
            ((1.0, math.nan), 2.0, "finite"),
        ],
    )
    def test_plain_sequence_checked_as_a_shift_vector(self, shifts, d, message):
        # the input and the scaled shifts alike, as the ShiftVector path refuses them
        with pytest.raises(InvalidInput, match=message):
            scale_shifts(shifts, d)
        assert scale_shifts([1, 2.5], 2.0) == (2.0, 5.0)

    def test_certified_frequency_scales(self):
        assert system_residual(2 * pi / 3, (1.0, 2.0)) <= 1e-28
        assert system_residual(pi / 3, scale_shifts(ShiftVector((1.0, 2.0)), 2.0)) <= 1e-28

    def test_invariance_100_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            shifts = np.sort(rng.uniform(0.1, 3.0, n))
            alpha = float(rng.uniform(0.5, 8.0))
            d = float(rng.uniform(0.25, 4.0))
            r1 = system_residual(alpha, shifts)
            r2 = system_residual(alpha / d, scale_shifts(tuple(shifts), d))
            assert abs(r1 - r2) <= 1e-12 * abs(r1)


def _brute_force_two_term(p: int, q: int, bound: int = 200) -> bool:
    """Membership of p/q in {(2+3k)/(1+3m), (1+3m)/(2+3k)} over the (m, k) box.

    For each m the matching k is determined by divisibility, so sweeping m and
    checking both orientations enumerates the whole box.
    """
    for m in range(-bound, bound + 1):
        num = 1 + 3 * m
        lhs = p * num - 2 * q
        if lhs % (3 * q) == 0 and abs(lhs // (3 * q)) <= bound:
            return True
        lhs = q * num - 2 * p
        if lhs % (3 * p) == 0 and abs(lhs // (3 * p)) <= bound:
            return True
    return False


class TestTwoTerm:
    def test_equal_shifts_impossible(self):
        verdict = two_term_periodic_exists(1, 1)
        assert not verdict.exists
        assert verdict.witness is None

    def test_double_ratio(self):
        verdict = two_term_periodic_exists(2, 1)
        assert verdict.exists
        assert verdict.witness == (0, 0)

    def test_five_fourths(self):
        verdict = two_term_periodic_exists(5, 4)
        assert verdict.exists
        assert verdict.witness == (1, 1)

    def test_multiple_of_three_never(self):
        assert not two_term_periodic_exists(3, 1).exists

    def test_witness_reconstructs_ratio(self):
        for p, q in [(2, 1), (5, 4), (7, 2), (4, 5), (1, 2), (7, 5)]:
            verdict = two_term_periodic_exists(p, q)
            assert verdict.exists
            k, m = verdict.witness
            # p/q equals (2+3k)/(1+3m) or its reciprocal
            assert p * (1 + 3 * m) == q * (2 + 3 * k) or p * (2 + 3 * k) == q * (1 + 3 * m)

    def test_errors(self):
        with pytest.raises(ZeroDenominator):
            two_term_periodic_exists(1, 0)
        with pytest.raises(NotCoprime):
            two_term_periodic_exists(2, 2)
        with pytest.raises(InvalidInput):
            two_term_periodic_exists(0, 1)

    def test_oracle_equivalence_under_50(self):
        fractions = [
            (p, q) for q in range(1, 51) for p in range(1, q + 1) if gcd(p, q) == 1
        ]
        assert len(fractions) == 774
        disagreements = [
            (p, q)
            for p, q in fractions
            if two_term_periodic_exists(p, q).exists != _brute_force_two_term(p, q)
        ]
        assert disagreements == []
