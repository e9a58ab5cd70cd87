import hashlib
import math
import time
import tracemalloc
import warnings
from math import log, pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dilateq import (
    ComplexZero,
    SearchRectangle,
    default_rectangle,
    find_zeros,
    power_sum,
    residual_integer_equation,
    solution_from_zero,
    winding_count,
    zeta_partial_sum,
)
from dilateq import _linetable, expsums
from dilateq.errors import (
    BoundaryZero,
    GridBudgetExceeded,
    IncompleteSearch,
    InvalidInput,
    InvalidRange,
)
from dilateq.expsums import newton_refine, power_sum_deriv, scan_modulus

LN2 = log(2.0)


class TestEvaluation:
    def test_at_zero(self):
        assert power_sum(2, 0) == 2

    def test_at_one(self):
        assert power_sum(3, 1) == pytest.approx(6.0)

    def test_exact_complex_zero(self):
        # 2^z = exp(i pi) = -1 at z = i pi / ln 2
        assert abs(power_sum(2, 1j * pi / LN2)) <= 1e-15

    def test_vectorized(self):
        z = np.array([0.0, 1.0, 2.0], dtype=complex)
        np.testing.assert_allclose(power_sum(2, z), [2.0, 3.0, 5.0])

    def test_zeta_partial(self):
        assert zeta_partial_sum(2, 1) == pytest.approx(1.5)
        assert zeta_partial_sum(4, 2) == pytest.approx(205 / 144, rel=1e-15)
        assert abs(zeta_partial_sum(2, -1j * pi / LN2)) <= 1e-15

    def test_derivative_matches_finite_difference(self):
        h = 1e-7
        for z in (0.3 + 2.0j, -1.0 + 5.0j):
            fd = (power_sum(3, z + h) - power_sum(3, z - h)) / (2 * h)
            assert power_sum_deriv(3, z) == pytest.approx(fd, rel=1e-6)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInput):
            power_sum(1, 0.0)


class TestLogTableCache:
    def test_bounded(self):
        expsums._log_table.cache_clear()
        for n in range(2, 42):
            expsums.power_sum(n, 0.5)
        info = expsums._log_table.cache_info()
        assert info.maxsize == expsums._LOG_TABLES
        assert info.currsize <= expsums._LOG_TABLES

    def test_one_search_reads_one_table(self):
        expsums._log_table.cache_clear()
        find_zeros(5)
        info = expsums._log_table.cache_info()
        assert info.misses == 1 and info.hits > 0


class TestRectangle:
    def test_rejects_reversed(self):
        with pytest.raises(InvalidRange):
            SearchRectangle(1.0, -1.0, 0.0, 1.0)

    def test_rejects_coarse_grid(self):
        with pytest.raises(InvalidRange):
            SearchRectangle(0.0, 1.0, 0.0, 1.0, grid_re=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_rejects_non_finite(self, bad, field):
        bounds = [-1.0, 1.0, 0.0, 1.0]
        bounds[field] = bad
        with pytest.raises(InvalidRange, match="finite"):
            SearchRectangle(*bounds)

    @pytest.mark.parametrize("grid", [(61.5, 241), (61, 241.0), (61, "241"), (61, None)])
    def test_rejects_non_integral_grid(self, grid):
        with pytest.raises(InvalidRange, match="integer"):
            SearchRectangle(-3.0, 2.0, 0.0, 30.0, *grid)

    def test_fractional_grid_refused_before_searching(self):
        # the grid reached np.linspace, which raised TypeError
        with pytest.raises(InvalidRange):
            find_zeros(3, SearchRectangle(-3.0, 2.0, 0.0, 30.0, 2.5, 3))

    def test_numpy_integer_grid(self):
        rect = SearchRectangle(-3.0, 2.0, 0.0, 30.0, np.int64(61), np.int32(241))
        assert rect == default_rectangle()
        assert type(rect.grid_re) is int and type(rect.grid_im) is int

    def test_grid_over_budget(self, monkeypatch):
        monkeypatch.setattr(expsums, "_MAX_SCAN_POINTS", 100)
        with pytest.raises(GridBudgetExceeded, match="11 x 10"):
            scan_modulus(2, SearchRectangle(-1.0, 1.0, 0.0, 20.0, 11, 10))
        assert scan_modulus(2, SearchRectangle(-1.0, 1.0, 0.0, 20.0, 10, 10))[2].shape == (10, 10)

    def test_reseed_grid_over_budget(self, monkeypatch):
        # the first grid is exactly the budget and finds 43 of the 44 zeros;
        # the 121 x 481 re-seed grid is over it, so the first pass is kept
        monkeypatch.setattr(expsums, "_MAX_SCAN_POINTS", 61 * 241)
        with pytest.warns(IncompleteSearch, match="winding count 44 != 43") as caught:
            zeros = find_zeros(100, SearchRectangle(-3.0, 2.0, 0.0, 60.0))
        assert len(zeros) == 43
        assert len(caught) == 1


class TestFindZeros:
    def test_n2_closed_form(self):
        # all zeros of 1 + 2^z lie at i pi (2j+1) / ln 2
        zeros = find_zeros(2, SearchRectangle(-1.0, 1.0, 0.0, 20.0))
        assert len(zeros) == 2
        for zero, j in zip(zeros, (0, 1)):
            assert zero.z.real == pytest.approx(0.0, abs=1e-12)
            assert zero.z.imag == pytest.approx(pi * (2 * j + 1) / LN2, abs=1e-12)
            assert zero.modulus_residual <= 1e-10

    def test_empty_rectangle(self):
        rect = SearchRectangle(1.0, 2.0, 1.0, 2.0, grid_re=21, grid_im=21)
        assert find_zeros(3, rect) == []
        assert winding_count(3, rect) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_winding_matches_count(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IncompleteSearch)
            zeros = find_zeros(n)
        assert winding_count(n, default_rectangle()) == len(zeros)
        assert all(z.modulus_residual <= 1e-10 for z in zeros)

    def test_sorted_by_imaginary_part(self):
        zeros = find_zeros(3)
        ims = [z.z.imag for z in zeros]
        assert ims == sorted(ims)

    def test_conjugate_symmetry(self):
        upper = find_zeros(3)
        lower = find_zeros(3, SearchRectangle(-3.0, 2.0, -30.0, 0.0))
        assert len(upper) == len(lower)
        for u, l in zip(upper, reversed(lower)):
            assert u.z.conjugate() == pytest.approx(l.z, abs=1e-12)
            assert abs(u.modulus_residual - l.modulus_residual) <= 1e-12

    def test_n2_spacing(self):
        zeros = find_zeros(2)
        gaps = np.diff([z.z.imag for z in zeros])
        np.testing.assert_allclose(gaps, 2 * pi / LN2, atol=1e-9)

    def test_newton_monotone_tail(self):
        re, im, mod = scan_modulus(3, default_rectangle())
        accepted = 0
        for i, j in np.argwhere(mod < 1.0):
            refined = newton_refine(3, complex(re[j], im[i]))
            if refined is None:
                continue
            z, history = refined
            if abs(power_sum(3, z)) > 1e-10:
                continue
            accepted += 1
            tail = history[-3:]
            assert all(b <= a for a, b in zip(tail, tail[1:]))
        assert accepted > 0

    def test_refused_before_any_newton_start(self, monkeypatch):
        # the winding count refuses the 1e300-wide boundary before any seeding
        calls = []
        monkeypatch.setattr(expsums, "_newton", lambda n, starts: calls.append(starts))
        for name in ("scan_modulus", "_grid_minima", "_grid_modulus"):
            monkeypatch.setattr(expsums, name, lambda *args: calls.append(args))
        with pytest.raises(BoundaryZero, match="samples on the boundary"):
            find_zeros(3, SearchRectangle(-1e300, 2.0, 0.0, 30.0))
        assert calls == []

    def test_grid_budget_checked_before_the_winding_count(self, monkeypatch):
        monkeypatch.setattr(expsums, "_MAX_SCAN_POINTS", 100)
        monkeypatch.setattr(expsums, "winding_count", lambda n, rect: pytest.fail("counted"))
        with pytest.raises(GridBudgetExceeded, match="11 x 10"):
            find_zeros(3, SearchRectangle(-3.0, 2.0, 0.0, 30.0, 11, 10))

    def test_boundary_zero_raises(self):
        # bottom edge passes within 1e-6 of the lowest zero of 1 + 2^z
        rect = SearchRectangle(-1.0, 1.0, 4.53236, 20.0)
        with pytest.raises(BoundaryZero):
            find_zeros(2, rect)

    def test_winding_split_consistency(self):
        for n in (2, 3, 4):
            lower = winding_count(n, SearchRectangle(-3.0, 2.0, 0.0, 15.0))
            upper = winding_count(n, SearchRectangle(-3.0, 2.0, 15.0, 30.0))
            assert lower + upper == winding_count(n, default_rectangle())


class TestComplexZero:
    def test_rejects_large_residual(self):
        with pytest.raises(InvalidInput):
            ComplexZero(z=1j, modulus_residual=1.0, n=2)

    def test_rejects_real_axis(self):
        with pytest.raises(InvalidInput):
            ComplexZero(z=0.5 + 0j, modulus_residual=0.0, n=2)

    def test_rejects_nan_residual(self):
        with pytest.raises(InvalidInput, match="residual nan"):
            ComplexZero(z=1j, modulus_residual=math.nan, n=2)

    def test_rejects_nan_imaginary_part(self):
        with pytest.raises(InvalidInput, match="real axis"):
            ComplexZero(z=complex(0.0, math.nan), modulus_residual=0.0, n=2)


class TestPowerSolution:
    def zero2(self):
        return ComplexZero(z=1j * pi / LN2, modulus_residual=abs(power_sum(2, 1j * pi / LN2)), n=2)

    def test_unit_argument(self):
        f = solution_from_zero(self.zero2())
        assert f(-1.0) == 1.0

    def test_minus_two(self):
        # |x|^0 * cos(b ln 2) with b = pi / ln 2
        f = solution_from_zero(self.zero2())
        assert f(-2.0) == pytest.approx(-1.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_rejects_non_finite_points(self, bad):
        # NaN fails x < 0 and read 0.0; -inf read nan with a RuntimeWarning
        f = solution_from_zero(find_zeros(2)[0])
        with pytest.raises(InvalidInput, match="finite"):
            f(bad)
        with pytest.raises(InvalidInput, match="finite"):
            f(np.array([-1.0, bad]))

    def test_vanishes_on_nonnegatives(self):
        f = solution_from_zero(self.zero2())
        assert f(5.0) == 0.0
        assert f(0.0) == 0.0

    def test_continuity_flag(self):
        assert not solution_from_zero(self.zero2()).continuous_at_zero
        zeros4 = find_zeros(4)
        flags = {z.z.real > 0: solution_from_zero(z).continuous_at_zero for z in zeros4}
        assert flags == {True: True, False: False}

    def test_equation_residual_n2(self):
        f = solution_from_zero(self.zero2())
        grid = np.linspace(-5.0, 5.0, 1001)
        assert residual_integer_equation(f, 2, grid) <= 1e-10

    def test_equation_residual_refined_zeros(self):
        for n in (3, 4):
            grid = np.linspace(-5.0, -0.01, 1000)
            for zero in find_zeros(n):
                f = solution_from_zero(zero)
                assert residual_integer_equation(f, n, grid) <= 1e-8

    def test_trivial_zero_function(self):
        assert residual_integer_equation(lambda x: 0.0 * np.asarray(x), 4, np.linspace(-2, 2, 50)) == 0.0

    def test_overflowing_multiple_refused_before_reading(self):
        # 3 x overflows at x = -1e308: refused before f reads any point
        with pytest.raises(InvalidInput, match=r"point 3 x overflows a float at \|x\| = 1e\+308"):
            residual_integer_equation(lambda x: pytest.fail("read"), 3, [-1.0, -1e308])
        # a point already infinite is f's to refuse
        f = solution_from_zero(self.zero2())
        with pytest.raises(InvalidInput, match="points must be finite"):
            residual_integer_equation(f, 2, [-1.0, -math.inf])

    @pytest.mark.parametrize("n", [1, 0])
    def test_requires_two_terms(self, n):
        # like power_sum: the equation needs at least f(x) + f(2x)
        with pytest.raises(InvalidInput):
            residual_integer_equation(lambda x: np.asarray(x), n, np.linspace(-2, 2, 5))


RECTANGLES = {
    "default": (-3.0, 2.0, 0.0, 30.0),
    "tall": (-3.0, 2.0, 0.0, 45.0, 61, 361),
    "fine": (-3.0, 2.0, 0.0, 30.0, 121, 481),
    "wide": (-40.0, 5.0, 0.0, 30.0),
}

#: "rectangle/n" -> sha256 of the scan, sha256 of the first seeding pass's
#: zeros, sha256 of the returned zeros, zeros returned, winding count.  The
#: zero digests hash (re, im, residual) rows of float64.  Captured from the
#: one-pass search with a scalar winding recursion and a per-point scan; there
#: the wide n = 30, 100 and 200 searches stopped at the first pass (13, 16
#: and 15 zeros) with an IncompleteSearch warning.
BITWISE_SEARCHES = {
    "default/2": ("35bfae24b503cbe58a52b81eba1113bb3b393c2b743db92fa9699e4dd7024d6a", "9d87b5e7fc0912d91a279e450482228c227dc051aacc143b744656dcdcbf1841", None, 3, 3),
    "default/10": ("ab7f1a31820bbb3ac88a9ff23c0fa1e4b491d0942928d154ee2b1b0fd9399acb", "505190f6e672eac02f625b3e15410e7424be9010129b149252f5042059e0d98c", None, 10, 10),
    "default/30": ("f656d878b17062a490ca1f832f6a57c8f5d2b12c4231ab1df0dd3164fea20ba3", "0bc7e9ef4af4e433af67927ddbb6d972ff60bedfcf12fd2e940a7d404432a982", None, 16, 16),
    "default/100": ("9b6e3140ea2efe03e325ce9dee2f8f59fdeb37d4814dc2c112432cd8b05ae62b", "0e3a64eb531dfe10d6578ea860177663066f44bce7cf3f6cb2bb26d638fcb128", None, 21, 21),
    "default/200": ("51a1f508a964113f21753027b457b7839174f3d836e44009780947da6637fb08", "9e47d158a06a9f3ccf3332b56bea45e08503f6a75b917772adebb6a66c62ab6c", None, 25, 25),
    "tall/2": ("8e2711e9369928e2150f031cb5636f93af9645865fe085bf94d8a7ee5f7712d3", "dd54413890783c6d95474324fb61481604a49822b8b9cbb1e7be763c88b45d85", None, 5, 5),
    "tall/10": ("9ea63b15823de78e88282ed92bf1777e5142b126e21146c6c3da3dee3bdb3461", "95d7fa7f1c4d1e9e79978bbc0b60240944f1e8549150968903c947144a56a82d", None, 16, 16),
    "tall/30": ("921cf471c61610027bdc0232f5c90af43c150089d5412c0ea20d5a43fb5f062f", "addd284036c0991cdd0c1b89ebdbcc17ac14b80edc29a6e423f56e36717866ab", None, 24, 24),
    "tall/100": ("6c6d932f1499849df0ab9345f1bf4f9c93ab51a023caee695501312683d11eda", "ec73252e4ceedcd2604fa98fdf0d5b09d65b1083d6835b3578c39ceb040c6935", None, 33, 33),
    "tall/200": ("fb394e9d8e5f3b5e0f57705cd3dd6f03a50eb7bcf79df2bb02d23e867fc3522b", "3439053fa065aaf002e66d622fe7e12f38d9190b81f9bcad3e1fc25838c60f79", None, 38, 38),
    "fine/2": ("5cb7e106ab4bf4438aec824a763aae9d39ad34c5cc84356609ea055938b0b342", "e9ad952a9ea4122411fdb5bc7c06a36de5f02168c65122a0d64314981a7684b4", None, 3, 3),
    "fine/10": ("3a33fb1900c0ac5cf46e46e9962da1e02928b188b21296364b11a759bf1eef11", "bdba7a8571e20840d9f770cfb07e8b2a4f895758ab9cf09b88d3d51de43416d4", None, 10, 10),
    "fine/30": ("aab6193243038b9e0c5fc4bc6b101020a034bb6d5f54fb7831ad5abead31fcdf", "62aa0bd8cde795a67fb4758acacaa54c2a5267f9e9465334c1d02a5bfad03425", None, 16, 16),
    "fine/100": ("e9b74e2c26f4cd82cd711066d733528a73397d44129815608d4abb904cb317b3", "9362bf42321cce422895c0a8c917770b6ee6f0c2fda16a7aa94962838f3f368f", None, 21, 21),
    "fine/200": ("99c88ae367332699c925f913c88442a041f2db064a779b1cd9c457bd451e6d0e", "7316e7fc1d197e53f82e6355b264aa0c48a36189bdf87886b2202d31d18ba488", None, 25, 25),
    "wide/2": ("539fac22c273a78c70bf9af9e33eb3084f7aa1cf86f233cf5460799ae17f95df", "101c8ec301d7473de15e692ab028acf24535f297c5f253f1b11124b62f81362f", None, 3, 3),
    "wide/10": ("f512f6e9eacbd5b611007ff887b982b0815eb13c4debc4314047928b88b69465", "b20d345abc2a460e907d81bda48f332ea83949b79d63ad314ee554771bf86f91", None, 10, 10),
    "wide/30": ("18429ea7b1d34171eda93b9d068a8704c41761fa43c95f995b398fa8f98c0501", "b542e0d756d7cc610b9facbbf931608be02adb37d49885bb4969f8368a269b8f", "9fdf00ee93ba6a3b556988bf357f87a6ee163070c31f87f6bb88c6211706ba7d", 16, 16),
    "wide/100": ("9c3f98cdcc5f705ec1429ca39ae37d0e949ee2087876c57d920c25ecaf3a7126", "e5cd1373a9b6ae5a3f06b0dd54867690e18d20cd4467bc3d6f392c2c76a7858a", "1cce69a8a34a306a64dba51119f98181a89405ec31ff6d0cf78dacc3710010fb", 21, 21),
    "wide/200": ("d506bc1ba1fbab58a31a732d97d9ac448b76224f1241eec5f7a23a437be359a2", "9a7d716507e2b168c05452d90f4438c36ed79f6eff86b9e88ffb3588fe0ff47d", "3ecf9b78e3f599125b43d53975b90e3c3940f4b2b139d1c6f160040767bd4b30", 25, 25),
}


def _zeros_digest(zeros) -> str:
    rows = np.array([(z.z.real, z.z.imag, z.modulus_residual) for z in zeros], dtype=float)
    return hashlib.sha256(rows.tobytes()).hexdigest()


def _case(name):
    family, n = name.split("/")
    return int(n), SearchRectangle(*RECTANGLES[family])


class TestBitwise:
    @pytest.mark.parametrize("name", list(BITWISE_SEARCHES))
    def test_search_is_bitwise_stable(self, name):
        n, rect = _case(name)
        scan, first, final, count, turns = BITWISE_SEARCHES[name]
        _, _, mod = scan_modulus(n, rect)
        assert hashlib.sha256(mod.tobytes()).hexdigest() == scan
        first_pass = expsums._verified(n, rect, expsums._seed(n, rect, {}))
        assert _zeros_digest(first_pass) == first
        with warnings.catch_warnings():
            warnings.simplefilter("error", IncompleteSearch)
            zeros = find_zeros(n, rect)
        assert len(zeros) == count
        assert _zeros_digest(zeros) == (final or first)
        # the re-seed keeps every zero of the first pass, bit for bit
        assert {z.z for z in first_pass} <= {z.z for z in zeros}
        assert winding_count(n, rect) == turns


def _boundary_position(rect, z):
    """Distance from the lower left corner counterclockwise along the boundary."""
    width, height = rect.re_max - rect.re_min, rect.im_max - rect.im_min
    if z.imag == rect.im_min:
        return z.real - rect.re_min
    if z.real == rect.re_max:
        return width + z.imag - rect.im_min
    if z.imag == rect.im_max:
        return width + height + rect.re_max - z.real
    assert z.real == rect.re_min
    return 2 * width + height + rect.im_max - z.imag


def _n2_zeros_between(lo, hi):
    """Number of zeros (2m + 1) pi / ln 2 of 1 + 2^z with lo < Im < hi."""
    return max(0, math.floor((hi * LN2 / pi - 1) / 2) - math.ceil((lo * LN2 / pi - 1) / 2) + 1)


class TestWinding:
    @pytest.mark.parametrize(
        "n, rect",
        [
            (2, (-1.0, 1.0, 4.5323, 20.0)),
            (3, (-3.0, 2.0, 0.0, 30.0)),
            (30, (-3.0, 2.0, -10.0, 25.0)),
            (200, (-3.0, 2.0, 0.0, 30.0)),
        ],
    )
    def test_every_step_is_certified(self, n, rect, monkeypatch):
        # neighbouring samples around the boundary pass the Ying-Katz test
        # with the bound on |G'| recomputed here, so no step hides a turn
        rect = SearchRectangle(*rect)
        seen = []
        orig = expsums.power_sum
        block = expsums._sample_block
        monkeypatch.setattr(
            expsums, "_sample_block", lambda n, z, *a: seen.extend(z) or block(n, z, *a)
        )
        winding_count(n, rect)
        z = np.array(sorted(set(seen), key=lambda w: _boundary_position(rect, w)))
        assert len(z) == len(seen)
        z_next = np.roll(z, -1)
        g, g_next = orig(n, z), orig(n, z_next)
        k = np.arange(2, n + 1)
        x = np.maximum(z.real, z_next.real)
        slope = (np.log(k) * k ** x[:, None]).sum(axis=1)
        assert np.all(np.abs(z_next - z) * slope < np.abs(g) + np.abs(g_next))

    def test_one_array_call_per_level(self, monkeypatch):
        calls = []
        block = expsums._sample_block
        monkeypatch.setattr(
            expsums, "_sample_block", lambda n, z, *a: calls.append(z) or block(n, z, *a)
        )
        winding_count(200, SearchRectangle(-3.0, 2.0, 0.0, 30.0, 121, 481))
        # the initial samples of all four sides in one call, then one call
        # per pass for the midpoints of every rejected step, none evaluated twice
        assert 2 < len(calls) <= 12
        assert len(set(np.concatenate(calls).tolist())) == sum(map(len, calls))
        assert all(len(later) < len(calls[0]) for later in calls[1:])

    def test_non_finite_integrand_raises_at_once(self):
        # exp(200 ln 200) overflows on the right edge
        t0 = time.perf_counter()
        with pytest.raises(BoundaryZero, match="not finite"):
            find_zeros(200, SearchRectangle(-3.0, 200.0, 0.0, 30.0))
        assert time.perf_counter() - t0 < 1.0

    def test_overflowing_slope_raises_at_once(self):
        # |G| stays finite at Re z = 133.8, but the bound on |G'| overflows
        assert math.isfinite(abs(power_sum(200, 133.8)))
        t0 = time.perf_counter()
        with pytest.raises(BoundaryZero, match="slope is not finite"):
            winding_count(200, SearchRectangle(-3.0, 133.8, 0.0, 30.0))
        assert time.perf_counter() - t0 < 1.0

    def test_unsplittable_step_raises_at_once(self):
        # 1e15 up the floats lie 0.125 apart, and a step of one ulp has no
        # midpoint: splitting it at every pass would add five copies of the
        # corner 1 + 1e15 i a pass, about 52,000 passes before the budget
        t0 = time.perf_counter()
        with pytest.raises(BoundaryZero, match="has no midpoint between its ends"):
            winding_count(3, SearchRectangle(-1.0, 1.0, 1e15, 1e15 + 100.0))
        assert time.perf_counter() - t0 < 1.0

    def test_sample_on_a_zero_raises(self):
        # the bottom edge's samples include 0 + i pi / ln 2, a zero of 1 + 2^z
        with pytest.raises(BoundaryZero, match="modulus"):
            winding_count(2, SearchRectangle(-1.0, 1.0, pi / LN2, 20.0))

    def test_angle_sum_off_an_integer_raises(self, monkeypatch):
        # the principal angles around a closed boundary sum to a multiple of
        # 2 pi, so only a broken sum reaches the check: read 2 pi as 6 here,
        # and the five turns of n = 3 sum to 5.24
        monkeypatch.setattr(math, "pi", 3.0)
        with pytest.raises(BoundaryZero, match="winding sum 5.23599 is not close to an integer"):
            winding_count(3, default_rectangle())

    def test_segment_budget(self, monkeypatch):
        # the edge passes 1e-5 below the lowest zero of 1 + 2^z: 48 initial
        # samples, then six passes that each split the two steps next to it
        rect = SearchRectangle(-1.0, 1.0, pi / LN2 - 1e-5, 20.0)
        assert winding_count(2, rect) == 2
        monkeypatch.setattr(expsums, "_WINDING_MAX_SAMPLES", 60)
        assert winding_count(2, rect) == 2
        monkeypatch.setattr(expsums, "_WINDING_MAX_SAMPLES", 59)
        with pytest.raises(BoundaryZero, match="more than 59 samples near"):
            winding_count(2, rect)

    def test_long_side_refused_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(expsums, "_sample_block", lambda n, z, *a: calls.append(z))
        # the width of the last one overflows to inf
        for rect in [(-3.0, 2.0, 0.0, 1e300), (-1e300, 1e300, 0.0, 1.0), (-1e308, 1e308, 0.0, 1.0)]:
            with pytest.raises(BoundaryZero, match="samples on the boundary"):
                winding_count(3, SearchRectangle(*rect))
        assert calls == []

    def test_blocks_give_the_same_count(self, monkeypatch):
        rect = SearchRectangle(-3.0, 2.0, 0.0, 45.0)
        expected = winding_count(30, rect)
        calls = []
        block = expsums._sample_block
        monkeypatch.setattr(
            expsums, "_sample_block", lambda n, z, *a: calls.append(z.size) or block(n, z, *a)
        )
        monkeypatch.setattr(expsums, "_CHUNK_BYTES", 16 * 30 * 7)
        assert winding_count(30, rect) == expected
        assert max(calls) == 7

    def test_tall_n2_rectangle(self):
        # every zero of 1 + 2^z lies on Re z = 0, 2 pi / ln 2 apart
        t0 = time.perf_counter()
        count = winding_count(2, SearchRectangle(-3.0, 2.0, 0.0, 1e5))
        assert count == 11032 == round(1e5 * LN2 / (2 * pi))
        assert time.perf_counter() - t0 < 1.0

    @settings(max_examples=80, deadline=None)
    @given(
        re_min=st.floats(-20.0, 20.0),
        re_width=st.floats(1e-3, 20.0),
        im_min=st.floats(-300.0, 300.0),
        height=st.floats(1e-3, 300.0),
    )
    def test_n2_matches_closed_form(self, re_min, re_width, im_min, height):
        rect = SearchRectangle(re_min, re_min + re_width, im_min, im_min + height)
        # keep every edge 1e-3 away from the zeros
        assume(min(abs(rect.re_min), abs(rect.re_max)) >= 1e-3)
        for y in (rect.im_min, rect.im_max):
            nearest = (2 * round((y * LN2 / pi - 1) / 2) + 1) * pi / LN2
            assume(abs(y - nearest) >= 1e-3)
        inside = rect.re_min < 0.0 < rect.re_max
        expected = _n2_zeros_between(rect.im_min, rect.im_max) if inside else 0
        assert winding_count(2, rect) == expected


def _reference_winding(n, rect):
    """The winding count evaluating every sample exp by exp with ``power_sum``."""
    expsums._check_n(n)
    corners = rect.corners
    sides = list(zip(corners, corners[1:] + corners[:1]))
    lengths = [abs(b - a) * max(1.0, math.log(n)) for a, b in sides]
    if sum(max(8.0, length) for length in lengths) > expsums._WINDING_MAX_SAMPLES:
        raise BoundaryZero("samples on the boundary")
    counts = [max(8, math.ceil(length)) for length in lengths]
    expsums._check_terms(n, sum(counts))

    def samples(z):
        logs = expsums._log_table(n)[1:]
        g = power_sum(n, z)
        with np.errstate(over="ignore"):
            bound = (logs * np.exp(np.multiply.outer(z.real, logs))).sum(axis=-1)
        if not (np.isfinite(g) & np.isfinite(bound)).all():
            raise BoundaryZero("not finite")
        if (np.abs(g) < 1e-9).any():
            raise BoundaryZero("modulus")
        return g, bound

    z = np.concatenate(
        [np.linspace(a, b, count, endpoint=False) for (a, b), count in zip(sides, counts)]
    )
    g, bound = samples(z)
    reach = 160.0 * max(abs(a) + abs(b - a) for a, b in sides)
    while True:
        z_next, g_next = np.roll(z, -1), np.roll(g, -1)
        slope = np.maximum(bound, np.roll(bound, -1))
        with np.errstate(over="ignore"):
            # each |G| less what rounding may have moved it by, as winding_count takes it
            low = np.abs(g) - 2.0**-53 * (reach * bound + (2100.0 + 7.0 * n) * (1.0 + 1.5 * bound))
            split = np.abs(z_next - z) * slope >= low + np.roll(low, -1)
        if not split.any():
            break
        if z.size + int(np.count_nonzero(split)) > expsums._WINDING_MAX_SAMPLES:
            raise BoundaryZero("samples near")
        expsums._check_terms(n, z.size + int(np.count_nonzero(split)))
        mid = 0.5 * (z[split] + z_next[split])
        g_mid, bound_mid = samples(mid)
        at = np.flatnonzero(split) + 1
        z, g, bound = np.insert(z, at, mid), np.insert(g, at, g_mid), np.insert(bound, at, bound_mid)
    turns = float(np.angle(np.roll(g, -1) / g).sum()) / (2.0 * math.pi)
    if abs(turns - round(turns)) > 0.2:
        raise BoundaryZero("not close to an integer")
    return int(round(turns))


def _outcome(count, n, rect):
    try:
        return count(n, rect)
    except (BoundaryZero, GridBudgetExceeded) as exc:
        return type(exc).__name__


class TestWindingFromLineTables:
    """The winding count's samples come from a few exact rows per side."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        re_min=st.floats(-10.0, 5.0),
        re_width=st.floats(1e-3, 10.0),
        im_min=st.floats(-300.0, 300.0),
        height=st.floats(1e-3, 100.0),
    )
    # a sample on a zero, a slope that overflows, a side over the budget, a
    # zero 1e-5 below the edge (six bisection passes) and a far-up rectangle
    @example(n=2, re_min=-1.0, re_width=2.0, im_min=pi / LN2, height=20.0)
    @example(n=200, re_min=-3.0, re_width=136.8, im_min=0.0, height=30.0)
    @example(n=3, re_min=-3.0, re_width=5.0, im_min=0.0, height=1e300)
    @example(n=2, re_min=-1.0, re_width=2.0, im_min=pi / LN2 - 1e-5, height=20.0)
    @example(n=30, re_min=-3.0, re_width=5.0, im_min=1e6, height=50.0)
    def test_same_count_as_exp_by_exp(self, n, re_min, re_width, im_min, height):
        rect = SearchRectangle(re_min, re_min + re_width, im_min, im_min + height)
        assert _outcome(winding_count, n, rect) == _outcome(_reference_winding, n, rect)

    @pytest.mark.parametrize(
        "n, rect",
        [
            (2, (-1.0, 1.0, pi / LN2 - 1e-5, 20.0)),
            (30, (-3.0, 2.0, -10.0, 25.0)),
            (200, (-3.0, 2.0, 0.0, 30.0)),
            (10, (-20.0, 4.0, 900.0, 950.0)),
        ],
    )
    def test_samples_within_the_stated_tolerance(self, n, rect, monkeypatch):
        # G at a sample placed at level L lies within B_L of power_sum there
        rect = SearchRectangle(*rect)
        seen = []
        block = expsums._sample_block

        def spy(n, z, lines, halves, side, index, mask, level):
            g, bound = block(n, z, lines, halves, side, index, mask, level)
            seen.append((z, g, [lines[s]._line for s in side], level))
            return g, bound

        monkeypatch.setattr(expsums, "_sample_block", spy)
        winding_count(n, rect)
        u, kappa, logs = 2.0**-53, 12.0, expsums._log_table(n)
        gamma = 2 * n * u / (1 - 2 * n * u)
        assert max(level for *_, level in seen) >= 1
        for z, g, sides, level in seen:
            for w, value, (z0, h, count, _) in zip(z, g, sides):
                reach = abs(z0) + count * abs(h)
                x = max(z0.real, z0.real + count * h.real)
                e = 2.1 * np.expm1((8 + level) * u * reach * logs + (level + 2) * (kappa + 3) * u)
                tolerance = np.exp(x * logs) @ (e + 3 * gamma * (1 + e))
                assert abs(value - power_sum(n, w)) <= tolerance

    def test_deep_levels_are_summed_exp_by_exp(self, monkeypatch):
        # masks of one bit: the second and later passes use power_sum
        rect = SearchRectangle(-1.0, 1.0, pi / LN2 - 1e-5, 20.0)
        calls = []
        orig = expsums.power_sum
        monkeypatch.setattr(expsums, "power_sum", lambda n, z: calls.append(z.size) or orig(n, z))
        assert winding_count(2, rect) == 2 and calls == []
        monkeypatch.setattr(expsums, "_MASK_BITS", 1)
        assert winding_count(2, rect) == 2
        assert len(calls) == 5

    def test_no_terms_kept_per_sample(self):
        # what a sample keeps: its side, first-pass index and half-step mask
        rect = default_rectangle()
        seen = []
        block = expsums._sample_block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                expsums,
                "_sample_block",
                lambda n, z, lines, halves, *a: seen.append((list(halves), *a))
                or block(n, z, lines, halves, *a),
            )
            winding_count(30, rect)
        assert len(seen) > 1
        for halves, side, index, mask, level in seen:
            assert side.dtype.kind == "i" and index.dtype.kind == "i" and mask.dtype == np.uint64
            assert len(halves) == level and all(row.shape == (4, 30) for row in halves)
            if level:
                assert np.all(mask >> np.uint64(level - 1) == 1)


class TestWindingTermBudget:
    """``winding_count`` refuses n-heavy work before evaluating a sample."""

    def test_reproducer_refused_at_once(self, monkeypatch):
        monkeypatch.setattr(expsums, "_log_table", lambda n: pytest.fail("evaluated"))
        t0 = time.perf_counter()
        with pytest.raises(GridBudgetExceeded, match="x 10000000 terms exceed"):
            winding_count(10**7, SearchRectangle(-3.0, 2.0, 0.0, 1.0))
        assert time.perf_counter() - t0 < 1.0

    def test_n_over_the_table_budget(self, monkeypatch):
        monkeypatch.setattr(expsums, "_MAX_TABLE_TERMS", 3)
        assert winding_count(3, default_rectangle()) == 5
        monkeypatch.setattr(expsums, "_log_table", lambda n: pytest.fail("evaluated"))
        with pytest.raises(GridBudgetExceeded, match="n exceeds 3"):
            winding_count(4, default_rectangle())

    def test_checked_before_each_bisection_pass(self, monkeypatch):
        # 48 first samples of n = 2, then passes that split the steps near a zero
        rect = SearchRectangle(-1.0, 1.0, pi / LN2 - 1e-5, 20.0)
        calls = []
        orig = expsums._boundary_samples
        monkeypatch.setattr(
            expsums, "_boundary_samples", lambda n, z, *a: calls.append(z.size) or orig(n, z, *a)
        )
        monkeypatch.setattr(expsums, "_MAX_TERMS", 2 * 48)
        with pytest.raises(GridBudgetExceeded, match="samples x 2 terms exceed the budget of 96"):
            winding_count(2, rect)
        assert calls == [48]
        monkeypatch.setattr(expsums, "_MAX_TERMS", 2 * 47)
        calls.clear()
        with pytest.raises(GridBudgetExceeded, match="48 samples x 2 terms"):
            winding_count(2, rect)
        assert calls == []


class TestPowerSumBudget:
    """The power-sum family refuses an n over the table budget before its log table."""

    @pytest.mark.parametrize(
        "call", [power_sum, power_sum_deriv, zeta_partial_sum, newton_refine],
        ids=lambda f: f.__name__,
    )
    def test_n_refused_before_the_log_table(self, monkeypatch, call):
        monkeypatch.setattr(expsums, "_MAX_TABLE_TERMS", 64)
        call(64, 0.5j)
        monkeypatch.setattr(expsums, "_log_table", lambda n: pytest.fail("allocated"))
        with pytest.raises(GridBudgetExceeded, match="or n exceeds 64$"):
            call(65, 0.5j)

    def test_points_times_n_refused(self, monkeypatch):
        monkeypatch.setattr(expsums, "_MAX_TERMS", 1000)
        z = np.linspace(0.0, 1.0, 100) * 1j
        assert power_sum(10, z).shape == (100,)
        monkeypatch.setattr(expsums, "_log_table", lambda n: pytest.fail("allocated"))
        with pytest.raises(GridBudgetExceeded, match="^100 samples x 11 terms exceed"):
            power_sum(11, z)


class TestScanEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        re_lo=st.floats(-1.0, 1.0),
        re_width=st.floats(1e-3, 2.0),
        im_lo=st.floats(-200.0, 200.0),
        im_height=st.floats(1e-3, 100.0),
        grid=st.tuples(st.integers(2, 25), st.integers(2, 25)),
    )
    def test_equals_power_sum_below_overflow(self, n, re_lo, re_width, im_lo, im_height, grid):
        # scale the real range so that max|Re| ln n <= 700
        scale = 700.0 / log(n) / max(abs(re_lo), abs(re_lo + re_width))
        lo, hi = re_lo * min(scale, 1.0), (re_lo + re_width) * min(scale, 1.0)
        if not lo < hi:
            return
        rect = SearchRectangle(lo, hi, im_lo, im_lo + im_height, *grid)
        re, im, mod = scan_modulus(n, rect)
        direct = np.abs(power_sum(n, re[None, :] + 1j * im[:, None]))
        assert np.array_equal(mod, direct)

    @pytest.mark.parametrize("n, rect", [(10, default_rectangle()), (200, SearchRectangle(-3.0, 2.0, 0.0, 30.0, 121, 481))])
    def test_blocks_do_not_change_bits(self, n, rect, monkeypatch):
        expected = scan_modulus(n, rect)[2]
        monkeypatch.setattr(expsums, "_CHUNK_BYTES", 1)
        assert np.array_equal(scan_modulus(n, rect)[2], expected)

    # odd row counts; at 1 MiB no block holds a whole number of rows, and the last is partial
    @pytest.mark.parametrize(
        "n, rect",
        [
            (200, SearchRectangle(-3.0, 2.0, 0.0, 30.0, 121, 481)),
            (30, SearchRectangle(-3.0, 2.0, -5.0, 40.0, 37, 211)),
            (50, SearchRectangle(-1.0, 1.0, 0.0, 12.0, 9, 23)),
        ],
    )
    def test_same_bytes_for_any_block_size(self, n, rect, monkeypatch):
        points = max(1, expsums._CHUNK_BYTES // (32 * n))
        assert rect.grid_im % 2 == 1 and points % rect.grid_re != 0
        assert (rect.grid_re * rect.grid_im) % points != 0
        re = np.linspace(rect.re_min, rect.re_max, rect.grid_re)
        im = np.linspace(rect.im_min, rect.im_max, rect.grid_im)
        # bit for bit against power_sum, so a block no row fills shows
        direct = np.abs(power_sum(n, re[None, :] + 1j * im[:, None])).tobytes()
        # 1 MiB, the former 8 MiB, and one point per block
        for chunk in (1 << 20, 8 << 20, 1):
            monkeypatch.setattr(expsums, "_CHUNK_BYTES", chunk)
            assert scan_modulus(n, rect)[2].tobytes() == direct, chunk

    def test_overflow_cells(self):
        # 200^200 overflows: every cell, finite or not, is abs(power_sum)
        # byte for byte, past e^709 as well
        rect = SearchRectangle(-3.0, 200.0, 0.0, 30.0, 40, 50)
        re, im, mod = scan_modulus(200, rect)
        direct = np.abs(power_sum(200, re[None, :] + 1j * im[:, None]))
        assert not np.isfinite(mod).all()
        assert mod.tobytes() == direct.tobytes()

    def test_rescaled_cells(self):
        # re ln 2 up to 709.5: the complex exponential rescales its argument
        # and rounds twice more, yet every cell is finite and abs(power_sum)
        re, im, mod = scan_modulus(2, SearchRectangle(1000.0, 709.5 / LN2, 0.0, 30.0, 5, 7))
        direct = np.abs(power_sum(2, re[None, :] + 1j * im[:, None]))
        assert np.isfinite(mod).all() and (re * LN2 > 709.0).any()
        assert mod.tobytes() == direct.tobytes()


def _spy_exact(monkeypatch) -> list:
    """Record ``(rows, cols, values)`` of every exact evaluation of the seeding."""
    seen = []
    exact = expsums._grid_modulus

    def spy(n, re, im, rows, cols):
        values = exact(n, re, im, rows, cols)
        seen.append((rows, cols, values))
        return values

    monkeypatch.setattr(expsums, "_grid_modulus", spy)
    return seen


class TestPrunedSeeding:
    """The seeds come from an estimate of |G|, summed exactly only where a
    minimum can be, and equal the minima of the full scan."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.just(2), st.integers(2, 300)),
        re_lo=st.floats(-500.0, 1100.0),
        re_width=st.floats(1e-3, 400.0),
        im_lo=st.floats(-200.0, 200.0),
        height=st.floats(1e-3, 300.0),
        grid=st.tuples(st.integers(2, 25), st.integers(2, 25)),
    )
    # |1 + 2^z| ties exactly between rows y and -y
    @example(n=2, re_lo=-1.0, re_width=2.0, im_lo=-5.0, height=10.0, grid=(2, 2))
    # terms past re * ln 200 = 709 overflow: non-finite estimates and bounds
    @example(n=200, re_lo=-3.0, re_width=203.0, im_lo=0.0, height=30.0, grid=(40, 50))
    # far to the left every cell reads 1.0
    @example(n=30, re_lo=-500.0, re_width=100.0, im_lo=0.0, height=30.0, grid=(9, 11))
    # |G| near 2^50, where the estimate's rounding alone reorders neighbours
    @example(n=2, re_lo=50.0, re_width=5.0, im_lo=0.0, height=30.0, grid=(25, 25))
    def test_same_minima_as_the_scan(self, n, re_lo, re_width, im_lo, height, grid):
        rect = SearchRectangle(re_lo, re_lo + re_width, im_lo, im_lo + height, *grid)
        re, im, mod = scan_modulus(n, rect)
        seed_re, seed_im, minima = expsums._grid_minima(n, rect)
        assert minima == expsums._local_minima(mod)
        assert seed_re.tobytes() == re.tobytes() and seed_im.tobytes() == im.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 5),
        y0=st.floats(1e4, 1e6),
        height=st.floats(1e-10, 1e-6),
        width=st.floats(1e-10, 1e-2),
        x0=st.floats(-1.0, 1.0),
        grid=st.tuples(st.integers(2, 25), st.integers(2, 25)),
    )
    @example(n=3, y0=950959.059362676, height=3e-10, width=3.9e-3, x0=-0.375, grid=(14, 22))
    def test_same_minima_far_up_the_axis(self, n, y0, height, width, x0, grid):
        # cells 1e-10 apart 1e6 up: the phase table's own error, far above
        # the sums' rounding, decides which neighbours may be compared
        rect = SearchRectangle(x0 * width, (x0 + 1.0) * width, y0, y0 + height, *grid)
        minima = expsums._grid_minima(n, rect)[2]
        assert minima == expsums._local_minima(scan_modulus(n, rect)[2])

    @pytest.mark.parametrize(
        "n, rect",
        [
            (200, (-3.0, 2.0, 0.0, 30.0, 121, 481)),
            (200, (-3.0, 200.0, 0.0, 30.0, 40, 50)),
            (2, (-400.0, -300.0, 0.0, 30.0, 5, 7)),
            (2, (-1.0, 1.0, -5.0, 5.0, 2, 2)),
        ],
    )
    def test_exact_values_are_the_scan_cells(self, n, rect, monkeypatch):
        rect = SearchRectangle(*rect)
        seen = _spy_exact(monkeypatch)
        expsums._grid_minima(n, rect)
        rows, cols, values = (np.concatenate(part) for part in zip(*seen))
        monkeypatch.undo()
        assert values.tobytes() == scan_modulus(n, rect)[2][rows, cols].tobytes()

    def test_find_zeros_never_scans(self, monkeypatch):
        monkeypatch.setattr(expsums, "scan_modulus", lambda n, rect: pytest.fail("scanned"))
        assert len(find_zeros(200, SearchRectangle(-3.0, 2.0, 0.0, 30.0, 121, 481))) == 25
        # the re-seed on the halved grid as well
        assert len(find_zeros(100, SearchRectangle(-3.0, 2.0, 0.0, 60.0))) == 44

    @pytest.mark.parametrize(
        "rect",
        [
            (-3.0, 2.0, 0.0, 30.0, 61, 241),
            (-3.0, 2.0, 0.0, 45.0, 61, 361),
            (-3.0, 2.0, 0.0, 30.0, 121, 481),
            (-3.0, 2.0, 0.0, 60.0, 61, 241),
            (-3.0, 2.0, 0.0, 60.0, 121, 481),
        ],
    )
    def test_exact_cells_per_minimum(self, rect, monkeypatch):
        # the benchmark's rectangles and the probe's re-seed grid: each minimum
        # costs at most itself and its four neighbours
        rect = SearchRectangle(*rect)
        seen = _spy_exact(monkeypatch)
        for n in (2, 3, 10, 30, 45, 100, 150, 200):
            seen.clear()
            minima = expsums._grid_minima(n, rect)[2]
            assert 0 < sum(rows.size for rows, _, _ in seen) <= 5 * len(minima)

    def test_undercut(self):
        nan, inf = math.nan, math.inf
        est = np.array([[1.0, 1.5, 1.0, nan], [1.0, 3.0, inf, 2.0], [1.15, 1.0, 1.9, 1.5]])
        # one bound per column
        bound = np.array([0.1, 0.1, inf, 0.1])
        # ties and gaps within both bounds prune nothing, and neither do a NaN
        # estimate and an infinite bound; the edges have no neighbour outside
        assert _linetable._undercut(est, bound).tolist() == [
            [False, True, False, False],
            [False, True, False, True],
            [False, False, False, False],
        ]

    # one row a block, and seven, which do not divide the 481 rows
    @pytest.mark.parametrize("chunk", [1, 8 * (2 * 200 + 8 * 121) * 7])
    def test_blocks_give_the_same_minima(self, chunk, monkeypatch):
        rect = SearchRectangle(-3.0, 2.0, 0.0, 30.0, 121, 481)
        expected = expsums._local_minima(scan_modulus(200, rect)[2])
        monkeypatch.setattr(expsums, "_CHUNK_BYTES", chunk)
        assert expsums._grid_minima(200, rect)[2] == expected


def _two_pass_newton(n, z0):
    """Newton with one ``power_sum`` and one ``power_sum_deriv`` pass per step."""
    z = complex(z0)
    g = power_sum(n, z)
    history = []
    for _ in range(expsums._NEWTON_MAX_ITER):
        gp = power_sum_deriv(n, z)
        if gp == 0 or not (math.isfinite(gp.real) and math.isfinite(gp.imag)):
            return None
        dz = g / gp
        z_next = z - dz
        if not (math.isfinite(z_next.real) and math.isfinite(z_next.imag)):
            return None
        g_next = power_sum(n, z_next)
        # abs() of a NaN sum raises OverflowError when errno is left at ERANGE
        res_next = expsums._modulus(g_next)
        if history and history[-1] <= 1e-12 and res_next >= history[-1]:
            return z, history
        z, g = z_next, g_next
        history.append(res_next)
        if abs(dz) <= 1e-13 * (1.0 + abs(z)):
            return z, history
    return None


def _bits(refined):
    """Hex of every float in a Newton result, so -0.0 and 0.0 differ."""
    if refined is None:
        return None
    z, history = refined
    return z.real.hex(), z.imag.hex(), [h.hex() for h in history]


class TestNewtonOnePass:
    def test_one_term_table_per_iterate(self, monkeypatch):
        zeros = find_zeros(10)
        starts = np.array([zeros[3].z + 0.05 - 0.05j, zeros[5].z - 0.1j, zeros[1].z + 0.02])
        tables = []
        terms = expsums._terms
        monkeypatch.setattr(expsums, "_terms", lambda n, zz: tables.append(zz) or terms(n, zz))
        for name in ("power_sum", "power_sum_deriv"):
            monkeypatch.setattr(expsums, name, lambda n, z: pytest.fail("a second pass"))
        results = expsums._newton(10, starts)
        monkeypatch.undo()
        steps = max(len(history) for _, history in results)
        assert all(abs(power_sum(10, z)) <= 1e-10 for z, _ in results)
        # the starts, then one table per pass for the seeds still live; the
        # last pass may reject every iterate at rounding level without a
        # history entry
        assert tables[0].tobytes() == starts.tobytes()
        assert len(tables) in (steps + 1, steps + 2)
        assert [t.size for t in tables] == sorted((t.size for t in tables), reverse=True)

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(2, 200),
        re=st.floats(-5.0, 4.0),
        im=st.one_of(st.floats(-10.0, 80.0), st.sampled_from([0.0, -0.0])),
    )
    def test_equals_two_pass_newton(self, n, re, im):
        z0 = complex(re, im)
        assert _bits(newton_refine(n, z0)) == _bits(_two_pass_newton(n, z0))

    def test_equals_two_pass_newton_on_grid_minima(self):
        # the seeds a search really starts from, converging or not
        for n in (2, 10, 30, 200):
            re, im, mod = scan_modulus(n, default_rectangle())
            for i, j in expsums._local_minima(mod):
                z0 = complex(re[j], im[i])
                assert _bits(newton_refine(n, z0)) == _bits(_two_pass_newton(n, z0))


class TestNewtonLockstep:
    """``_newton`` runs every seed at once and gives each the bits it gets alone."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 300),
        starts=st.lists(
            st.tuples(
                st.one_of(st.floats(-5.0, 4.0), st.floats(-320.0, 10.0)),
                st.one_of(st.floats(-10.0, 80.0), st.sampled_from([0.0, -0.0])),
            ),
            min_size=1,
            max_size=40,
        ),
        chunk=st.sampled_from([1 << 20, 1, 16 * 300 * 7]),
        steps=st.sampled_from([60, 12]),
    )
    # alone each returns None; together, one row's underflow leaves errno at
    # ERANGE and abs() of another row's NaN sum raised OverflowError
    @example(
        n=200,
        starts=[(-58.400000000000006, 6.75), (-300.0, 6.875), (-294.96666666666664, 6.875)],
        chunk=1 << 20,
        steps=60,
    )
    # alone it returns None after a NaN sum, whose abs() raised OverflowError
    # in the oracle when an earlier libm call had left errno at ERANGE
    @example(n=234, starts=[(-0.9480917608551387, 8.276184395173066)], chunk=1 << 20, steps=60)
    def test_each_seed_as_alone(self, n, starts, chunk, steps):
        z0 = [complex(*start) for start in starts]
        # one seed a block, a few, or all in one; and few steps, so that
        # many seeds run out of them
        with mock.patch.multiple(expsums, _CHUNK_BYTES=chunk, _NEWTON_MAX_ITER=steps):
            together = expsums._newton(n, np.array(z0))
            alone = [_two_pass_newton(n, z) for z in z0]
        assert [_bits(r) for r in together] == [_bits(r) for r in alone]

    def test_wide_search(self):
        # far left every cell reads 1.0 and is a grid minimum: 11,881 Newton
        # starts, then 47,345 on the re-seed grid, run in blocks
        sizes = []
        newton = expsums._newton
        spy = lambda n, starts: sizes.append(starts.size) or newton(n, starts)
        tracemalloc.start()
        try:
            with mock.patch.object(expsums, "_newton", spy):
                with pytest.warns(IncompleteSearch, match="^winding count 25 != 16 zeros"):
                    zeros = find_zeros(200, SearchRectangle(-300.0, 2.0, 0.0, 30.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [11881, 47345]
        digest = "0fdcf9d3a3f8a9122e3c6d145bbaf10f163a8bbd6ed2a736883edb7c1c4864a2"
        assert _zeros_digest(zeros) == digest
        assert peak <= 9 << 20


class TestModulus:
    def test_overflow_and_nan(self):
        inf, nan = math.inf, math.nan
        with pytest.raises(OverflowError):
            abs(complex(1.5e308, 1.5e308))
        assert expsums._modulus(complex(1.5e308, 1.5e308)) == inf
        assert math.isnan(expsums._modulus(complex(nan, 1.0)))
        # an infinite part wins over a NaN one, as in abs()
        assert expsums._modulus(complex(inf, nan)) == inf == expsums._modulus(complex(nan, -inf))

    @settings(max_examples=300, deadline=None)
    @given(z=st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300))
    def test_equals_abs(self, z):
        assert expsums._modulus(z).hex() == abs(z).hex()


class TestScanBudget:
    """The scan, the search and the equation residual are budgeted in n too."""

    def test_tables_refused_before_allocating(self, monkeypatch):
        rect = default_rectangle()
        monkeypatch.setattr(expsums, "_MAX_TABLE_TERMS", (61 + 241) * 10)
        assert scan_modulus(10, rect)[2].shape == (241, 61)
        monkeypatch.setattr(expsums, "_log_table", lambda n: pytest.fail("allocated"))
        for call in (scan_modulus, find_zeros):
            with pytest.raises(GridBudgetExceeded, match=r"radial table and phase rows of \(61 \+ 241\) x 11"):
                call(11, rect)

    def test_terms_refused_before_allocating(self, monkeypatch):
        rect = default_rectangle()
        monkeypatch.setattr(expsums, "_MAX_TERMS", 61 * 241 * 10)
        assert scan_modulus(10, rect)[2].shape == (241, 61)
        monkeypatch.setattr(expsums, "_log_table", lambda n: pytest.fail("allocated"))
        monkeypatch.setattr(expsums, "winding_count", lambda n, r: pytest.fail("counted"))
        for call in (scan_modulus, find_zeros):
            with pytest.raises(GridBudgetExceeded, match="14701 points x 11 terms"):
                call(11, rect)

    def test_reseed_skipped_over_the_terms_budget(self, monkeypatch):
        # the first pass finds 43 of 44 zeros; the halved grid is over budget
        rect = SearchRectangle(-3.0, 2.0, 0.0, 60.0)
        monkeypatch.setattr(expsums, "_MAX_TERMS", 61 * 241 * 100)
        with pytest.warns(IncompleteSearch, match="44 != 43"):
            assert len(find_zeros(100, rect)) == 43

    def test_residual_refused_before_evaluating(self, monkeypatch):
        monkeypatch.setattr(expsums, "_MAX_TERMS", 30)
        grid = np.linspace(-2.0, -1.0, 10)
        assert residual_integer_equation(lambda x: 0.0 * x, 3, grid) == 0.0
        with pytest.raises(GridBudgetExceeded, match="10 samples x 4 terms"):
            residual_integer_equation(lambda x: pytest.fail("evaluated"), 4, grid)


class TestReseed:
    def test_winding_probe_finds_all(self):
        rect = SearchRectangle(-3.0, 2.0, 0.0, 60.0)
        first = expsums._seed(100, rect, {})
        assert len(first) == 43
        with warnings.catch_warnings():
            warnings.simplefilter("error", IncompleteSearch)
            zeros = find_zeros(100, rect)
        assert len(zeros) == 44 == winding_count(100, rect)
        assert set(first) <= {z.z for z in zeros}
        (new,) = {z.z for z in zeros} - set(first)
        assert new == pytest.approx(0.1825 + 56.1197j, abs=1e-4)

    def test_still_incomplete_warns(self):
        # a 2 x 2 grid refines to 3 x 3, too coarse for 21 zeros
        rect = SearchRectangle(-3.0, 2.0, 0.0, 30.0, 2, 2)
        with pytest.warns(IncompleteSearch):
            zeros = find_zeros(100, rect)
        assert len(zeros) < winding_count(100, rect)
