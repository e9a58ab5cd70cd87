import math
from math import gcd, pi

import numpy as np
import pytest

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


class TestFourierMatrix:
    def test_vanishes_at_certified_frequency(self):
        mat = fourier_matrix(1, 2 * pi / 3, (1.0, 2.0))
        assert max(abs(v) for row in mat.entries for v in row) <= 1e-8
        assert mat.det == pytest.approx(0.0, abs=1e-16)

    def test_full_turn(self):
        mat = fourier_matrix(1, 2 * pi, (1.0, 2.0))
        np.testing.assert_allclose(mat.entries, [[3.0, 0.0], [0.0, 3.0]], atol=1e-14)

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
