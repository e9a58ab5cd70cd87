import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dilateq import normalize, regularity_index, to_additive
from dilateq.coefficients import CoefficientVector, ShiftVector
from dilateq.errors import DuplicateEntry, EmptyInput, InvalidInput, UnitEntry
from tests.test_package import src_env


class TestNormalize:
    def test_already_normalized(self):
        assert normalize([2, 3]).entries == (2.0, 3.0)

    def test_smallest_below_one(self):
        # substitute y = a1*x by hand: factors become {3/(1/2), 1/(1/2)} = {6, 2}
        assert normalize([0.5, 3]).entries == (2.0, 6.0)

    def test_all_below_one(self):
        # same substitution with a1 = 1/3: {(1/2)/(1/3), 1/(1/3)} = {3/2, 3}
        assert normalize([1 / 3, 1 / 2]).entries == (1.5, 3.0)

    def test_sorts_input(self):
        assert normalize([5, 2, 3]).entries == (2.0, 3.0, 5.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            normalize([])

    def test_unit_entry(self):
        with pytest.raises(UnitEntry):
            normalize([1.0, 2.0])

    def test_duplicate(self):
        with pytest.raises(DuplicateEntry):
            normalize([2.0, 2.0])

    def test_nonpositive(self):
        with pytest.raises(InvalidInput):
            normalize([-2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite(self, bad):
        with pytest.raises(InvalidInput, match="finite"):
            normalize([bad])
        with pytest.raises(InvalidInput, match="finite"):
            normalize([2.0, bad])

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=30.0).filter(lambda v: abs(v - 1) > 1e-6),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    def test_idempotent(self, raw):
        once = normalize(raw)
        assert normalize(once.entries).entries == once.entries

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=30.0).filter(lambda v: abs(v - 1) > 1e-6),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    def test_result_strictly_above_one(self, raw):
        entries = normalize(raw).entries
        assert entries[0] > 1.0
        assert all(b > a for a, b in zip(entries, entries[1:]))

    def test_quotients_rounding_to_one_float_stay_distinct(self):
        # 30 and the float below it, divided by 0.34375, round to one float
        assert 30.0 / 0.34375 == 29.999999999999996 / 0.34375
        entries = normalize([30.0, 29.999999999999996, 0.34375]).entries
        assert entries == (2.909090909090909, 87.27272727272727, 87.27272727272728)
        assert normalize(entries).entries == entries


class TestToAdditive:
    def test_basic(self):
        shifts = to_additive(normalize([2, 3]))
        assert shifts.entries == pytest.approx((math.log(2), math.log(3)), abs=0)

    def test_exponentials(self):
        shifts = to_additive(normalize([math.e, math.e**2]))
        assert shifts.entries == pytest.approx((1.0, 2.0), abs=1e-15)

    def test_single(self):
        assert to_additive(normalize([2])).entries == (math.log(2),)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            raw = np.sort(rng.uniform(1.001, 20.0, n))
            vec = normalize(raw)
            shifts = to_additive(vec)
            back = np.exp(shifts.entries)
            assert np.max(np.abs(back - np.asarray(vec.entries)) / back) <= 1e-12
            assert shifts.entries[0] > 0
            assert all(b > a for a, b in zip(shifts.entries, shifts.entries[1:]))


class TestRegularityIndex:
    def test_single_factor_two(self):
        ri = regularity_index(normalize([2]))
        assert ri.m == 1
        assert ri.contraction == 0.5

    def test_two_three(self):
        # m=1 gives 1/3 + 2/3 = 1 (not a contraction); m=2 gives 5/9 < 1
        ri = regularity_index(normalize([2, 3]))
        assert ri.m == 2
        assert ri.contraction == pytest.approx(5 / 9, rel=1e-15)

    def test_equidistributed_example(self):
        ri = regularity_index(normalize([1.5, 2.0, 2.5, 3.0]))
        assert ri.m == 4
        assert ri.lower_bound == pytest.approx(2.0, abs=1e-12)
        assert ri.upper_bound == pytest.approx(6.0, abs=1e-12)
        assert 1 <= ri.m <= 4

    @pytest.mark.parametrize("d", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equidistributed_bounds_formula(self, d, n):
        # for a_k = 1 + k*d the gaps all equal d, so the dissection bounds
        # reduce to (1 + n*d)/(2d) - 1 and (1 + n*d)/d, approaching n/2 - 1
        # and n only as d grows
        ri = regularity_index(normalize([1 + k * d for k in range(1, n + 1)]))
        assert ri.lower_bound == pytest.approx((1 + n * d) / (2 * d) - 1, rel=1e-12)
        assert ri.upper_bound == pytest.approx((1 + n * d) / d, rel=1e-12)
        if n >= 2 or d >= 1.0:
            # the lower bound's Riemann-sum argument needs the widest cell of
            # the dissection {0, 1, a1, ..., aN}/aN to be an interior gap;
            # (1+d,) with d < 1 is the one tested case outside that regime
            assert ri.lower_bound <= ri.m <= ri.upper_bound

    def test_random_vectors_bracket(self):
        rng = np.random.default_rng(20240809)
        for _ in range(200):
            entries = _sample_vector(rng)
            ri = regularity_index(normalize(entries))
            points = np.concatenate([[1.0], entries])
            ratios = points[:-1] / points[-1]
            assert ri.contraction < 1.0
            # minimality: one exponent lower the sum is no contraction
            # (at m = 1 the m-1 sum is simply the count N >= 1)
            assert np.sum(ratios ** (ri.m - 1)) >= 1.0
            assert np.sum(ratios**ri.m) == pytest.approx(ri.contraction, rel=1e-14)
            assert ri.lower_bound <= ri.m <= ri.upper_bound


def _sample_vector(rng) -> np.ndarray:
    """Random normalized-form vector with N <= 10 and entries in (1, 20).

    Vectors whose widest dissection gap is below 1 are resampled: there the
    lower Riemann-sum bound is not valid (its proof compares the leading
    [0, 1/aN] cell against the widest interior gap; (1.1,) is a
    counterexample with m = 1 far below the bound 4.5).
    """
    while True:
        n = int(rng.integers(1, 11))
        entries = np.sort(rng.uniform(1.0001, 20.0, n))
        if len(set(entries.tolist())) < n:
            continue
        if np.diff(np.concatenate([[1.0], entries])).max() < 1.0:
            continue
        return entries


def _stepped_index(entries, cap):
    """(m, ratio sum) stepping m upward from 1, or None past ``cap``."""
    a_n = entries[-1]
    ratios = [1.0 / a_n] + [v / a_n for v in entries[:-1]]
    for m in range(1, cap + 1):
        total = sum(r**m for r in ratios)
        if total < 1.0:
            return m, total
    return None


def _ratio_sum(entries, m):
    a_n = entries[-1]
    return sum(r**m for r in [1.0 / a_n] + [v / a_n for v in entries[:-1]])


#: normalized vectors: factors spread to 50, or crowded just above 1
FACTORS = st.one_of(
    st.lists(st.floats(1.0001, 50.0), min_size=1, max_size=8, unique=True),
    st.lists(st.floats(1.0, 1.01, exclude_min=True), min_size=1, max_size=8, unique=True),
).map(sorted)


class TestBisectedIndex:
    @settings(max_examples=300, deadline=None)
    @given(FACTORS)
    def test_equals_stepping_upward(self, entries):
        stepped = _stepped_index(entries, 10**4)
        assume(stepped is not None)
        ri = regularity_index(CoefficientVector(tuple(entries)))
        assert (ri.m, ri.contraction.hex()) == (stepped[0], stepped[1].hex())

    @settings(max_examples=300, deadline=None)
    @given(FACTORS)
    def test_least_contracting_exponent(self, entries):
        ri = regularity_index(CoefficientVector(tuple(entries)))
        assert _ratio_sum(entries, ri.m) == ri.contraction < 1.0
        # the ratio sum at m = 0 is the count N >= 1
        assert _ratio_sum(entries, ri.m - 1) >= 1.0

    def test_factors_near_one_end_at_once(self):
        # stepping m upward would take years: m is about 2.2e15 here
        argv = [sys.executable, "-m", "dilateq", "regularity",
                "[1.0000000000000002, 1.0000000000000004]"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=src_env(), capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - t0 < 5.0
        assert proc.returncode == 0, proc.stderr
        m = int(proc.stdout.split('"m": ')[1].split(",")[0])
        entries = [1.0000000000000002, 1.0000000000000004]
        assert _ratio_sum(entries, m - 1) >= 1.0 > _ratio_sum(entries, m)

    def test_overflowing_bound_refused(self):
        # aN / min_gap is 1e300 / 2.2e-16: past the largest float
        with pytest.raises(InvalidInput, match="overflows"):
            regularity_index(normalize([1.0000000000000002, 1e300]))


class TestTypes:
    def test_coefficient_vector_rejects_unsorted(self):
        with pytest.raises(InvalidInput):
            CoefficientVector((3.0, 2.0))

    def test_coefficient_vector_rejects_below_one(self):
        with pytest.raises(InvalidInput):
            CoefficientVector((0.5, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_coefficient_vector_rejects_nonfinite(self, bad):
        # inf passed every check, and NaN was refused as "not strictly increasing"
        with pytest.raises(InvalidInput, match="^coefficients must be finite$"):
            CoefficientVector((bad,))
        with pytest.raises(InvalidInput, match="^coefficients must be finite$"):
            CoefficientVector((2.0, bad))

    def test_coefficient_vector_rejects_empty(self):
        with pytest.raises(EmptyInput):
            CoefficientVector(())

    def test_shift_vector_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            ShiftVector((0.0, 1.0))

    def test_shift_vector_rejects_ties(self):
        with pytest.raises(InvalidInput):
            ShiftVector((1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_shift_vector_rejects_nonfinite(self, bad):
        with pytest.raises(InvalidInput, match="finite"):
            ShiftVector((bad,))
        with pytest.raises(InvalidInput, match="finite"):
            ShiftVector((1.0, bad))
