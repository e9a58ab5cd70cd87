import copy
import hashlib
import math
import pickle
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dilateq import (
    PiecewiseLinear,
    ShiftVector,
    check_interpolation,
    extend,
    normalize,
    periodic_reference,
    popoviciu_determinant,
    residual_additive,
    residual_multiplicative,
    tent_boundary,
    to_additive,
)
from dilateq import extension
from tests.test_package import src_env
from dilateq.errors import (
    CoverageBudgetExceeded,
    DomainMismatch,
    InternalInconsistency,
    InterpolationViolated,
    InvalidInput,
    InvalidRange,
    NonPositiveSample,
    OutOfCoverage,
)

B12 = ShiftVector((1.0, 2.0))


def tent_solution(target=(-3.0, 6.0)):
    return extend(tent_boundary(B12), B12, target)


CLONES = [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy]


class TestPiecewiseLinear:
    def test_interpolates(self):
        f = PiecewiseLinear([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert f(0.5) == 1.0
        assert f(1.0) == 2.0

    def test_vectorized(self):
        f = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        np.testing.assert_allclose(f(np.array([0.0, 0.25, 1.0])), [0.0, 0.25, 1.0])

    def test_out_of_domain(self):
        f = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(OutOfCoverage):
            f(1.5)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInput):
            PiecewiseLinear([1.0, 0.0], [0.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInput):
            PiecewiseLinear([0.0, 1.0], [0.0])

    @pytest.mark.parametrize("w", [math.nan, np.array([0.25, math.nan, 0.5])])
    def test_rejects_nan(self, w):
        f = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(InvalidInput):
            f(w)

    def test_empty_array(self):
        f = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        assert f(np.array([])).size == 0

    def test_input_arrays_are_copied(self):
        x, y = np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0])
        f = PiecewiseLinear(x, y)
        x[1], y[1] = 1.5, 99.0
        assert f(1.0) == 2.0

    def test_solution_pieces_are_read_only(self):
        sol = extend(tent_boundary(B12), B12, (-4.0, 6.0))
        lo = sol.covered[0]
        before = sol(lo)
        for arr in (sol.pieces.values, sol.pieces.breakpoints):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        assert sol(lo) == before

    @pytest.mark.parametrize("clone", CLONES, ids=["pickle", "deepcopy"])
    def test_copies_stay_read_only(self, clone):
        g = clone(PiecewiseLinear([0.0, 1.0, 2.0], [1.0, 1.0, -2.0]))
        for arr in (g.breakpoints, g.values):
            with pytest.raises(ValueError):
                arr[2] = 100.0
        assert g(1.5) == -0.5
        with pytest.raises(OutOfCoverage):
            g(50.0)

    @pytest.mark.parametrize("clone", CLONES, ids=["pickle", "deepcopy"])
    def test_copied_solution_pieces_stay_read_only(self, clone):
        sol = tent_solution()
        twin = clone(sol)
        assert twin.covered == sol.covered
        np.testing.assert_array_equal(twin.pieces.values, sol.pieces.values)
        for arr in (twin.pieces.breakpoints, twin.pieces.values):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        assert twin(0.0) == sol(0.0)

    def test_scalar_read_does_not_copy(self):
        # np.interp copies read-only inputs: 200 reads of 1e6 breakpoints
        # would take seconds instead of milliseconds
        x = np.linspace(0.0, 1.0, 1_000_000)
        f = PiecewiseLinear(x, x)
        t0 = time.perf_counter()
        for w in np.linspace(0.0, 1.0, 200).tolist():
            f(w)
        assert time.perf_counter() - t0 < 0.5


# -- reference: the read as two range scans, a clamped copy and one interpolation --


def _clip_read(f: PiecewiseLinear, w):
    """``f(w)`` by scanning the range, clamping a copy into the domain, interpolating."""
    arr = np.asarray(w, dtype=float)
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if arr.size and not (arr.min() >= lo - slack and arr.max() <= hi + slack):
        if np.isnan(arr).any():
            raise InvalidInput("evaluation point is NaN")
        bad = arr[(arr < lo - slack) | (arr > hi + slack)]
        raise OutOfCoverage(
            f"point {float(np.ravel(bad)[0]):.17g} outside [{lo:.17g}, {hi:.17g}]"
        )
    out = np.interp(np.clip(arr, lo, hi), f.breakpoints.copy(), f.values.copy())
    return float(out) if np.isscalar(w) or arr.ndim == 0 else out


def _outcome(read, f, w):
    """What a read gives: type, shape and bytes, or exception type and message."""
    try:
        out = read(f, w)
    except Exception as exc:
        return type(exc), str(exc)
    return type(out), np.shape(out), np.asarray(out).dtype, np.asarray(out).tobytes()


#: functions whose slopes overflow to inf, so interpolation itself gives inf;
#: their breakpoint and value differences are finite
EXTREME = [
    ([-1e-300, 1e-300], [-8e307, 8e307]),
    ([0.0, 1e-300, 1.0], [-8e307, 8e307, 0.0]),
    ([-1e300, 0.0, 1e-300], [1.0, -0.0, 1e300]),
]

#: breakpoint or value differences past the largest float, refused
OVERFLOWING_SPANS = [
    ([-1.5e308, 1.5e308], [-1.5e308, 1.5e308]),
    ([0.0, 1e-300, 1.0], [-1e308, 1e308, 0.0]),
    ([0.0, 1.0], [-1e308, 1e308]),
]


@st.composite
def _function(draw):
    if draw(st.integers(0, 5)) == 0:
        return PiecewiseLinear(*draw(st.sampled_from(EXTREME)))
    xs = sorted(draw(st.lists(
        st.floats(-1e6, 1e6, allow_subnormal=True), min_size=2, max_size=6, unique=True
    )))
    assume(all(b > a for a, b in zip(xs, xs[1:])))
    ys = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(xs), max_size=len(xs)))
    return PiecewiseLinear(xs, ys)


@st.composite
def _point(draw, f: PiecewiseLinear):
    """Inside, at the ends, within the slack, just past it, far out, or NaN."""
    lo, hi = f.domain
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    edges = [lo, hi, lo - slack, hi + slack, lo - 0.5 * slack, hi + 0.5 * slack]
    edges += [np.nextafter(lo - slack, -math.inf), np.nextafter(hi + slack, math.inf)]
    return draw(st.one_of(
        st.floats(lo, hi),
        st.sampled_from(edges).map(float),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300]),
        st.floats(allow_nan=False),
    ))


@st.composite
def _read_input(draw):
    """A function and an input in any of the forms a caller may pass."""
    f = draw(_function())
    point = _point(f)
    form = draw(st.sampled_from(
        ["float", "float64", "float32", "int", "list", "0-d", "array", "empty"]
    ))
    if form == "float":
        w = draw(point)
    elif form == "float64":
        w = np.float64(draw(point))
    elif form == "float32":
        w = np.float32(draw(point.filter(lambda v: not abs(v) > 3e38)))
    elif form == "int":
        w = draw(st.integers(-(10**6), 10**6))
    elif form == "list":
        w = draw(st.lists(st.one_of(point, st.integers(-3, 3)), max_size=5))
    elif form == "0-d":
        w = np.array(draw(point))
    elif form == "array":
        shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
        w = draw(hnp.arrays(np.float64, shape, elements=point))
    else:
        w = np.empty(draw(st.sampled_from([(0,), (2, 0), (0, 3, 1)])))
    return f, w


class TestOnePassRead:
    """One interpolation pass gives what scanning, clamping and interpolating gave."""

    @settings(max_examples=400, deadline=None)
    @given(_read_input())
    def test_same_as_clamped_read(self, data):
        f, w = data
        assert _outcome(PiecewiseLinear.__call__, f, w) == _outcome(_clip_read, f, w)

    @pytest.mark.parametrize("xs, ys", EXTREME)
    def test_overflowing_slopes(self, xs, ys):
        f = PiecewiseLinear(xs, ys)
        # the breakpoints, the midpoints and the quarter points of each piece
        t = np.linspace(0.0, 1.0, 5)[:, None]
        w = np.sort(((1.0 - t) * xs[:-1] + t * xs[1:]).ravel())
        out = f(w)
        assert not np.isfinite(out).all()
        assert _outcome(PiecewiseLinear.__call__, f, w) == _outcome(_clip_read, f, w)
        for x in w.tolist():
            assert _outcome(PiecewiseLinear.__call__, f, x) == _outcome(_clip_read, f, x)

    @pytest.mark.parametrize("xs, ys", OVERFLOWING_SPANS)
    def test_overflowing_spans_refused(self, xs, ys):
        # such a function read NaN inside its domain, after an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="differences overflow"):
                PiecewiseLinear(xs, ys)

    @pytest.mark.parametrize("scalar", [float, np.float64, np.array])
    @pytest.mark.parametrize("domain", [(0.0, 2.0), (-3e5, -2.5e5), (-1.0, 7e8)])
    def test_points_at_the_edges(self, scalar, domain):
        lo, hi = domain
        f = PiecewiseLinear([lo, 0.5 * (lo + hi), hi], [1.0, -3.0, 2.0])
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        for end, out in ((lo, -math.inf), (hi, math.inf)):
            past = np.nextafter(end + math.copysign(slack, out), out)
            for x in (end, end + 0.5 * math.copysign(slack, out), past, np.nextafter(past, out)):
                w = scalar(x)
                assert _outcome(PiecewiseLinear.__call__, f, w) == _outcome(_clip_read, f, w)

    @pytest.mark.parametrize("w", [[0.0, -1e-12], np.array([2.0 + 2e-12, 1.0, math.nan])])
    def test_slack_and_nan_in_one_array(self, w):
        f = PiecewiseLinear([0.0, 1.0, 2.0], [1.0, 1.0, -2.0])
        assert _outcome(PiecewiseLinear.__call__, f, w) == _outcome(_clip_read, f, w)

    def test_read_allocates_one_output_array(self):
        f = PiecewiseLinear(np.linspace(0.0, 1.0, 1000), np.linspace(0.0, 1.0, 1000) ** 2)
        w = np.linspace(0.0, 1.0, 1_000_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = f(w)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.nbytes == w.nbytes == 8_000_000
        # the output, and no clamped copy of the input beside it
        assert peak < 1.25 * w.nbytes


class TestCheckInterpolation:
    def test_tent_is_compatible(self):
        assert check_interpolation(tent_boundary(B12), B12) == pytest.approx(0.0, abs=1e-15)

    def test_constant_one(self):
        g = PiecewiseLinear([0.0, 2.0], [1.0, 1.0])
        assert check_interpolation(g, B12) == pytest.approx(3.0)

    def test_cosine_nodes(self):
        # piecewise-linear sampling of cos(pi x) on [0, 1]: endpoints are
        # exact, and only g(0) + g(1) enters the residual
        x = np.linspace(0.0, 1.0, 21)
        g = PiecewiseLinear(x, np.cos(math.pi * x))
        assert check_interpolation(g, ShiftVector((1.0,))) == pytest.approx(0.0, abs=1e-15)

    def test_domain_mismatch(self):
        g = PiecewiseLinear([0.0, 1.5], [1.0, -1.0])
        with pytest.raises(DomainMismatch):
            check_interpolation(g, B12)


class TestTentBoundary:
    def test_two_shifts(self):
        g = tent_boundary(B12)
        np.testing.assert_array_equal(g.breakpoints, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(g.values, [1.0, 1.0, -2.0])

    def test_three_shifts(self):
        g = tent_boundary(ShiftVector((1.0, 2.0, 3.0)))
        np.testing.assert_allclose(g(np.array([0.0, 1.0, 2.0, 3.0])), [1.0, 1.0, 1.0, -3.0])

    def test_log_shifts_endpoint(self):
        g = tent_boundary(to_additive(normalize([2, 3])))
        assert g(math.log(3)) == pytest.approx(-2.0, abs=1e-15)

    def test_single_shift_degenerates(self):
        g = tent_boundary(ShiftVector((0.7,)))
        assert g(0.0) == 1.0
        assert g(0.7) == -1.0
        assert check_interpolation(g, ShiftVector((0.7,))) == 0.0


class TestExtend:
    def test_forward_strip_closed_form(self):
        # one recursion step by hand: on (2, 3], g(y) = -[1 + (4 - 3(y-1))] = 3y - 8
        sol = tent_solution()
        assert sol(2.5) == pytest.approx(-0.5, abs=1e-12)
        w = np.linspace(2.0, 3.0, 11)
        np.testing.assert_allclose(sol(w), 3 * w - 8, atol=1e-12)

    def test_backward_strip_by_hand(self):
        sol = extend(tent_boundary(B12), B12, (-1.0, 2.0))
        # -[g(0.5) + g(1.5)] = -[1 + (-0.5)]
        assert sol(-0.5) == pytest.approx(-0.5, abs=1e-12)

    def test_three_shift_backward_value(self):
        b = ShiftVector((1.0, 2.0, 3.0))
        sol = extend(tent_boundary(b), b, (-1.0, 8.0))
        # -[g(0.75) + g(1.75) + g(2.75)] = -[1 + 1 - 2] = 0
        assert sol(-0.25) == pytest.approx(0.0, abs=1e-12)

    def test_zero_boundary_extends_to_zero(self):
        g = PiecewiseLinear([0.0, 2.0], [0.0, 0.0])
        sol = extend(g, B12, (-4.0, 9.0))
        w = np.linspace(-4.0, 9.0, 500)
        assert np.max(np.abs(sol(w))) == 0.0

    def test_restriction_is_identity(self):
        sol = tent_solution()
        w = np.linspace(0.0, 2.0, 400)
        np.testing.assert_allclose(sol(w), tent_boundary(B12)(w), atol=1e-12)

    def test_deterministic(self):
        a = tent_solution()
        b = tent_solution()
        np.testing.assert_array_equal(a.pieces.breakpoints, b.pieces.breakpoints)
        np.testing.assert_array_equal(a.pieces.values, b.pieces.values)

    def test_coverage_contains_target(self):
        sol = tent_solution((-3.3, 6.7))
        lo, hi = sol.covered
        assert lo <= -3.3 and hi >= 6.7

    def test_breakpoints_strictly_increasing(self):
        sol = tent_solution((-10.0, 20.0))
        assert np.all(np.diff(sol.pieces.breakpoints) > 0)

    def test_strip_seams_agree_with_defining_relations(self):
        # at every strip boundary the stored value must match the relation
        # that defined the neighbouring strip (seam agreement <= 1e-10)
        b = to_additive(normalize([2, 3]))
        b1, b2 = b.entries
        sol = extend(tent_boundary(b), b, (-4.0, 8.0))
        lo_cov, hi_cov = sol.covered
        step = b2 - b1
        c = b2
        while c <= hi_cov - step + 1e-12:
            assert abs(sol(c) + sol(c - b2) + sol(c - (b2 - b1))) <= 1e-10
            c = c + step
        c = 0.0
        while c >= lo_cov + b1 - 1e-12:
            assert abs(sol(c) + sol(c + b1) + sol(c + b2)) <= 1e-10
            c = c - b1

    def test_interpolation_violated(self):
        g = PiecewiseLinear([0.0, 1.0, 2.0], [1.0, 1.0, -1.9])
        with pytest.raises(InterpolationViolated):
            extend(g, B12, (-1.0, 3.0))

    def test_tolerance_override(self):
        g = PiecewiseLinear([0.0, 1.0, 2.0], [1.0, 1.0, -1.9])
        sol = extend(g, B12, (0.0, 2.0), tol=0.2)
        assert sol(1.0) == 1.0

    def test_target_must_contain_base(self):
        with pytest.raises(InvalidRange):
            extend(tent_boundary(B12), B12, (0.5, 3.0))

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(extension, "MAX_BREAKPOINTS", 10)
        with pytest.raises(CoverageBudgetExceeded):
            extend(tent_boundary(B12), B12, (-20.0, 20.0))

    @pytest.mark.parametrize(
        "target, breakpoints", [((0.0, 12.0), 458), ((-6.0, math.log(5.0)), 91)]
    )
    def test_budget_checked_strip_by_strip(self, monkeypatch, target, breakpoints):
        # the up-front estimate passes; the last strip on one side goes over
        shifts = [math.log(2.0), math.log(3.0), math.log(5.0)]
        boundary = tent_boundary(shifts)
        assert extend(boundary, shifts, target).pieces.breakpoints.size == breakpoints
        monkeypatch.setattr(extension, "MAX_BREAKPOINTS", breakpoints - 1)
        with pytest.raises(CoverageBudgetExceeded, match=f"{breakpoints} breakpoints exceed"):
            extend(boundary, shifts, target)

    def test_budget_checked_before_building(self):
        for target in [(0.0, 2.5e6), (0.0, math.inf), (-math.inf, 2.0)]:
            start = time.perf_counter()
            with pytest.raises(CoverageBudgetExceeded):
                extend(tent_boundary(B12), B12, target)
            assert time.perf_counter() - start < 0.5

    def test_evaluate_endpoint_and_out_of_coverage(self):
        sol = tent_solution()
        assert sol(0.0) == tent_boundary(B12)(0.0)
        with pytest.raises(OutOfCoverage):
            sol(100.0)


#: shifts and target of builds whose strips are narrower than the merge range:
#: hi + step rounds back to hi (never ends), or every strip merges into one
#: node (ends short of the target)
NARROW = {
    "never_ends": "b = (2 - 2**-52, 2.0); target = (0.0, 2 + 3e-12)",
    "ends_short": "b = (1.0, 1 + 2**-52); target = (0.0, b[1] + 2e-12)",
}


class TestNarrowStrips:
    """A side whose strips vanish in the merge range is refused before any is built."""

    @pytest.mark.parametrize("name", sorted(NARROW))
    def test_refused_in_bounded_time(self, name):
        # in a subprocess, so that a build that never ends fails the test
        code = (
            "from dilateq import extend, tent_boundary\n"
            "from dilateq.errors import CoverageBudgetExceeded\n"
            f"{NARROW[name]}\n"
            "try:\n"
            "    print(extend(tent_boundary(b), b, target).covered)\n"
            "except CoverageBudgetExceeded as exc:\n"
            "    print('refused:', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.stdout.startswith("refused: right strips of width 2.22045e-16")

    def test_left_side(self):
        b = ShiftVector((1e-13, 2.0))
        with pytest.raises(CoverageBudgetExceeded, match="left strips"):
            extend(tent_boundary(b), b, (-1e-11, 2.0))

    def test_side_without_strips_is_not_refused(self):
        b = ShiftVector((1.0, 1.0 + 2.0**-52))
        assert extend(tent_boundary(b), b, (-3.0, b.largest)).covered[1] == b.largest

    @pytest.mark.parametrize("step", [1e-10, 3e-12, 2.5e-12])
    def test_steps_past_twice_the_merge_range_reach_the_target(self, step):
        right = ShiftVector((1.0, 1.0 + step))
        target = (0.0, right.largest + 7 * step)
        assert extend(tent_boundary(right), right, target).covered[1] >= target[1] - 1e-12
        left = ShiftVector((step, 2.0))
        assert extend(tent_boundary(left), left, (-7 * step, 2.0)).covered[0] <= -7 * step + 2e-12


B_OVERFLOW = ShiftVector((1.0, 1.5))


def _count_strips(monkeypatch) -> list:
    """Count the strips built, by either body."""
    built = []
    for name in ("_float_strip", "_array_strip"):
        body = getattr(extension, name)

        def counted(*args, body=body):
            built.append(args[3])
            return body(*args)

        monkeypatch.setattr(extension, name, counted)
    return built


class TestOverflowRefused:
    """Values that overflow a float are refused where they overflow, at exit 3.

    Tent data on (1, 1.5) grows past the largest float, or its differences
    do, at w = 929.5 on the right and at w = -1856 on the left.
    """

    def test_reproducer_refused_at_once(self):
        # it built every strip, warned twice and raised InvalidInput after 10 s
        g = tent_boundary(B_OVERFLOW)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoverageBudgetExceeded, match=r"overflow a float at w = 929\.5$"):
                extend(g, B_OVERFLOW, (-200000.0, 200000.0))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "last, first, w",
        [((0.0, 929.0), (0.0, 929.5), "929.5"), ((-1855.0, 1.5), (-1856.0, 1.5), "-1856")],
    )
    def test_named_where_it_overflows(self, last, first, w):
        g = tent_boundary(B_OVERFLOW)
        values = extend(g, B_OVERFLOW, last).pieces.values
        assert np.isfinite(np.diff(values)).all()
        with pytest.raises(CoverageBudgetExceeded, match=rf"at w = {w}$"):
            extend(g, B_OVERFLOW, first)

    @pytest.mark.parametrize("far, first", [((0.0, 200000.0), 1856), ((-200000.0, 1.5), 1856)])
    def test_no_later_than_the_next_doubling(self, monkeypatch, far, first):
        # ``first`` strips reach the first overflow; the buffer at most doubles after it
        built = _count_strips(monkeypatch)
        with pytest.raises(CoverageBudgetExceeded, match="overflow a float"):
            extend(tent_boundary(B_OVERFLOW), B_OVERFLOW, far)
        assert first <= len(built) <= 2 * first

    def test_pieces_own_their_data(self):
        # the constructor copies the live part of the extension's buffer
        pieces = tent_solution().pieces
        assert pieces._xp.flags.owndata and pieces._fp.flags.owndata


class TestSeamTolerance:
    """The seam check scales with the values and with position rounding."""

    def test_mismatch_still_refused(self):
        # residual 0.1 let through by tol: the first strip cannot join
        g = PiecewiseLinear([0.0, 1.0, 2.0], [1.0, 1.0, -1.9])
        with pytest.raises(InternalInconsistency):
            extend(g, B12, (0.0, 3.0), tol=0.2)

    def test_steep_lattice_data_past_1024(self):
        # a slope of about 1.6e4 next to w = -1024, where the float spacing
        # doubles: an absolute 1e-9 seam check refused this build
        d = 1.5139675249445483
        b = ShiftVector(tuple(d * k for k in range(1, 7)))
        xs = np.array([
            0.0, 0.6312537231659452, 0.9285657159816115, 1.5139675249445483,
            3.0279350498890967, 4.541853606108534, 4.541902574833645, 6.055870099778193,
            7.569837624722742, 8.179267449666211, 8.534120503046235, 9.08380514966729,
        ])
        ys = np.array([
            0.27702372491045946, 0.8807057653966217, -0.2743839100013914,
            0.1502663749286448, 0.012547354998434734, 0.2675528655348316,
            -0.49963095014133274, -0.17228089520791134, 0.271089201155325,
            0.5068436814832613, 0.6655033434745663, -0.03901481064361989,
        ])
        sol = extend(PiecewiseLinear(xs, ys), b, (-1030.0, b.largest))
        assert sol.covered[0] <= -1030.0
        assert _relative_residual(sol, b) <= 1e-8

    def test_growing_values_on_real_coefficients(self):
        # values pass 1e10 within a few dozen strips, where rounding alone
        # exceeds an absolute 1e-9
        b = to_additive(normalize([2.5, 6.5]))
        span = math.sqrt(3000.0 * 2 * b.entries[0] * b.entries[1])
        sol = extend(tent_boundary(b), b, (-0.25 * span, 0.75 * span + b.largest))
        assert sol.pieces.breakpoints.size > 1500
        assert np.max(np.abs(sol.pieces.values)) > 1e10
        assert _relative_residual(sol, b) <= 1e-8


def _relative_residual(sol, b: ShiftVector) -> float:
    """Additive residual on the covered range relative to max|g|."""
    lo, hi = sol.covered
    grid = np.linspace(lo, hi - b.largest, 5000)
    scale = max(1.0, float(np.max(np.abs(sol.pieces.values))))
    return residual_additive(sol, b, grid) / scale


def _lattice_data(d: float, n: int, seed: int) -> tuple[ShiftVector, PiecewiseLinear]:
    """Compatible random data on d*(1..n): n random kinks at least d/10 apart.

    The shift points are breakpoints, so g(0) = -sum g(b_k) makes the
    compatibility residual exactly zero.
    """
    shifts = tuple(d * k for k in range(1, n + 1))
    rng = np.random.default_rng(seed)
    while True:
        inner = rng.uniform(0.02 * shifts[-1], 0.98 * shifts[-1], n)
        xs = np.unique(np.concatenate(([0.0], shifts, inner)))
        if xs.size == 2 * n + 1 and np.min(np.diff(xs)) >= 0.1 * d:
            break
    ys = rng.uniform(-1.0, 1.0, xs.size)
    ys[0] = -ys[np.searchsorted(xs, shifts)].sum()
    return ShiftVector(shifts), PiecewiseLinear(xs, ys)


def _tent_data(*shifts: float) -> tuple[ShiftVector, PiecewiseLinear]:
    b = ShiftVector(shifts)
    return b, tent_boundary(b)


def _log_tent_data(*coefficients: int) -> tuple[ShiftVector, PiecewiseLinear]:
    b = to_additive(normalize(coefficients))
    return b, tent_boundary(b)


#: name -> (shifts and boundary data, target, sha256 of breakpoints then values)
#: captured from the strip-by-strip construction that filtered all breakpoints
#: for every strip; the windowed construction must reproduce them bit for bit
BITWISE_BUILDS = {
    "int2": (lambda: _tent_data(1.0, 2.0), (-400.0, 800.0),
             "71a54e5bdd8f2c3048851e1105689a0e373c0e52480b54c58511ab0d1571cc6e"),
    "int5": (lambda: _tent_data(1.0, 2.0, 3.0, 4.0, 5.0), (-200.0, 400.0),
             "9fd9a8b589fe995839a6ea8bd3fa33253566ae92ca9f25e6b39b77eba4bb77f2"),
    "frac3": (lambda: _tent_data(0.7, 1.4, 2.1), (-100.0, 200.0),
              "99af160e8da34a9d283e0c06f570ffd145edfeafa6e30de2dced78486f98a3d2"),
    "zero2": (lambda: (B12, PiecewiseLinear([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])), (-50.0, 100.0),
              "cb5c80dad26f2d92c3847f6b2b733cd8164c9ed5dfd3d5019be6710df668ad95"),
    "ln23": (lambda: _log_tent_data(2, 3), (-25.0, 50.0),
             "38c528b99c2edeabe7d27a28418efb07654b82f4cdd0644c869ee1dd58ef3557"),
    "ln235": (lambda: _log_tent_data(2, 3, 5), (-10.0, 22.0),
              "85acfe9883a4926ea9c6fb5f0ec58dc13859823dc06331a3b9b704e2c4e2c89c"),
    "ln2357": (lambda: _log_tent_data(2, 3, 5, 7), (-6.0, 12.0),
               "a15b4c836a0faf3566e26330de0cf2e12e3599b85badf746b6047cb8b383c155"),
    "ln357": (lambda: _log_tent_data(3, 5, 7), (-10.0, 20.0),
              "a04c38bbf09a43d6f471befb93e3c4652c9b167c122dfd2a1af3901537b80832"),
    "rand4": (lambda: _lattice_data(0.8, 4, 7), (-150.0, 300.0),
              "9296fae9667732f95e533d94910c3bd6a8f173d7747f2f403e0bd99fb8e46fa7"),
    "rand6": (lambda: _lattice_data(1.3, 6, 11), (-150.0, 300.0),
              "ff93cae264e20e26a44748ae1a5a1a1872197ba0fc12d496273e4ae3101d1a74"),
}


class TestBitwise:
    @pytest.mark.parametrize("name", sorted(BITWISE_BUILDS))
    def test_build_is_bitwise_stable(self, name):
        data, target, digest = BITWISE_BUILDS[name]
        b, g = data()
        sol = extend(g, b, target)
        blob = sol.pieces.breakpoints.tobytes() + sol.pieces.values.tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest


_PRIMES = (2, 3, 5, 7, 11)


@st.composite
def _compatible_data(draw):
    """Random compatible data on lattice shifts d*(1..N) or on log shifts ln p."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        d = draw(st.floats(0.3, 2.0))
        shifts = tuple(d * k for k in range(1, n + 1))
    else:
        primes = draw(st.lists(st.sampled_from(_PRIMES), min_size=2, max_size=3, unique=True))
        shifts = to_additive(normalize(primes)).entries
    b = ShiftVector(shifts)
    b_n = b.largest
    kinks = draw(st.lists(st.floats(0.02, 0.98), max_size=4))
    xs = np.unique(np.concatenate(([0.0], shifts, b_n * np.array(kinks))))
    if np.min(np.diff(xs)) < 0.05 * shifts[0]:
        xs = np.unique(np.concatenate(([0.0], shifts)))
    ys = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=xs.size, max_size=xs.size)))
    ys[0] = -ys[np.searchsorted(xs, shifts)].sum()
    step = b_n - (shifts[-2] if len(shifts) >= 2 else 0.0)
    strips_right = draw(st.integers(0, 60))
    strips_left = draw(st.integers(0, 60))
    target = (-strips_left * shifts[0], b_n + strips_right * step)
    return b, PiecewiseLinear(xs, ys), target


class TestExtensionProperty:
    @settings(max_examples=40, deadline=None)
    @given(_compatible_data())
    def test_solves_equation_and_keeps_boundary(self, data):
        b, g, target = data
        sol = extend(g, b, target)
        lo, hi = sol.covered
        assert lo <= target[0] + 1e-9 and hi >= target[1] - 1e-9
        assert _relative_residual(sol, b) <= 1e-8
        np.testing.assert_array_equal(sol(g.breakpoints), g.values)
        w = np.linspace(0.0, b.largest, 257)
        np.testing.assert_array_equal(sol(w), g(w))


# -- reference: the strip construction as two loops, one per side ------------------


def _window(xs, ys, lo, hi):
    """Views of the breakpoints in [lo, hi] plus two on either side."""
    i, j = xs.searchsorted((lo, hi))
    i, j = max(int(i) - 2, 0), min(int(j) + 2, xs.size)
    return xs[i:j], ys[i:j]


def _dedupe(nodes):
    """Sort ``nodes`` in place; drop each node within merge range of the one before."""
    nodes.sort()
    keep = np.empty(nodes.size, dtype=bool)
    keep[0] = True
    eps = 1e-12 * np.maximum(1.0, np.abs(nodes[1:]))
    np.greater(nodes[1:] - nodes[:-1], eps, out=keep[1:])
    return nodes[keep]


def _strip(xs, ys, reads, lo, hi):
    """The strip g(y) = -sum_j g(y + reads[j]) on [lo, hi], g given by (xs, ys)."""
    kinks = xs - reads
    nodes = _dedupe(np.concatenate(([lo, hi], kinks[(kinks > lo) & (kinks < hi)])))
    nodes[0], nodes[-1] = lo, hi
    points = nodes + reads
    terms = np.interp(points, xs, ys)
    return nodes, -np.add.reduce(terms, axis=0, initial=0.0), points, terms


def _reference_build(g: PiecewiseLinear, b: ShiftVector, target) -> bytes:
    """Breakpoint then value bytes of the extension, one loop per side."""
    shifts, b_n = b.entries, b.largest
    w_lo, w_hi = target
    step_right = b_n - (shifts[-2] if len(shifts) >= 2 else 0.0)
    eps = 1e-12 * max(1.0, abs(w_lo), abs(w_hi))
    back = np.array([-b_n] + [s - b_n for s in shifts[:-1]])[:, None]
    fwd = np.array(shifts)[:, None]
    xs, ys = g.breakpoints.copy(), g.values.copy()
    lo, hi = g.domain
    while hi < w_hi - eps:
        lo_s, hi_s = hi, hi + step_right
        wx, wy = _window(xs, ys, lo_s - b_n, lo_s)
        nodes, vals, points, terms = _strip(wx, wy, back, lo_s, hi_s)
        extension._seam_check(
            float(wy[-1]), float(vals[0]), lo_s, points[:, 0], terms[:, 0], wx, wy
        )
        xs, ys = np.concatenate((xs, nodes[1:])), np.concatenate((ys, vals[1:]))
        hi = hi_s
    while lo > w_lo + eps:
        lo_s, hi_s = lo - shifts[0], lo
        wx, wy = _window(xs, ys, hi_s, hi_s + b_n)
        nodes, vals, points, terms = _strip(wx, wy, fwd, lo_s, hi_s)
        extension._seam_check(
            float(wy[0]), float(vals[-1]), hi_s, points[:, -1], terms[:, -1], wx, wy
        )
        xs, ys = np.concatenate((nodes[:-1], xs)), np.concatenate((vals[:-1], ys))
        lo = lo_s
    return xs.tobytes() + ys.tobytes()


def _build_bytes(g: PiecewiseLinear, b: ShiftVector, target) -> bytes:
    sol = extend(g, b, target)
    return sol.pieces.breakpoints.tobytes() + sol.pieces.values.tobytes()


#: breakpoints and values of steep data on d*(1..6), d = 1.5139675249445483,
#: whose left strips pass w = -1024
STEEP_LATTICE = (
    [0.0, 0.6312537231659452, 0.9285657159816115, 1.5139675249445483,
     3.0279350498890967, 4.541853606108534, 4.541902574833645, 6.055870099778193,
     7.569837624722742, 8.179267449666211, 8.534120503046235, 9.08380514966729],
    [0.27702372491045946, 0.8807057653966217, -0.2743839100013914,
     0.1502663749286448, 0.012547354998434734, 0.2675528655348316,
     -0.49963095014133274, -0.17228089520791134, 0.271089201155325,
     0.5068436814832613, 0.6655033434745663, -0.03901481064361989],
)


def _steep_lattice_data() -> tuple[ShiftVector, PiecewiseLinear]:
    d = STEEP_LATTICE[0][3]
    return ShiftVector(tuple(d * k for k in range(1, 7))), PiecewiseLinear(*STEEP_LATTICE)


def _near_pair_data() -> tuple[ShiftVector, PiecewiseLinear]:
    """Breakpoint pairs 0.7e-12 and 0.99e-12 apart, which reach strips with |w| < 1.

    There 1e-12 * max(1, |w|) merges each pair and 1e-12 * |w| would keep
    some: kinks 0.27 + 0.7 and 0.3 - 0.95 land in the strips starting at
    0.95 and ending at -0.5.
    """
    b = ShiftVector((0.25, 0.95))
    xs = np.array([0.0, 0.1, 0.1 + 7e-13, 0.25, 0.27, 0.27 + 9.9e-13, 0.3, 0.3 + 9.9e-13,
                   0.6, 0.6 + 7e-13, 0.95])
    ys = np.array([0.0, 0.3, -0.2, 0.5, 0.1, -0.4, 0.7, -0.6, 0.2, 0.9, 0.6])
    ys[0] = -(ys[3] + ys[-1])
    return b, PiecewiseLinear(xs, ys)


#: stored values that make slopes overflow, or interpolation NaN and retried
_EXTREME_VALUES = [math.inf, -math.inf, 1.5e308, -1.5e308, 8e307, -8e307, 0.0, -0.0]


@st.composite
def _strip_input(draw):
    """A window, 1-4 reads and strip ends: points at breakpoints, between them,
    at and past both ends, with values that overflow slopes or are infinite.

    Breakpoints, reads and ends are mostly eighths, so a read point often
    lands exactly on a breakpoint or an end; the rest are arbitrary floats.
    """
    eighths = st.integers(-96, 96).map(lambda k: k / 8.0)
    anywhere = st.one_of(eighths, eighths, st.floats(-20.0, 20.0))
    if draw(st.integers(0, 7)) == 0:
        xs = draw(st.sampled_from([[-1e308, 0.0, 1e308], [-1e-300, 1e-300], [0.0, 1e-300, 1.0]]))
    else:
        xs = sorted(draw(st.lists(anywhere, min_size=2, max_size=12, unique=True)))
    assume(all(b > a for a, b in zip(xs, xs[1:])))
    value = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(_EXTREME_VALUES))
    ys = draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    reads = draw(st.lists(anywhere, min_size=1, max_size=4))
    lo, hi = sorted(draw(st.lists(anywhere, min_size=2, max_size=2, unique=True)))
    assume(lo < hi)
    return np.array(xs), np.array(ys), reads, lo, hi, draw(st.booleans())


def _kink_at_bisect_start(lo, hi, r, x):
    """A one-read strip input whose kink x - r lies in (lo, hi) with x <= fl(lo + r)."""
    assert lo < x - r < hi and x <= lo + r
    return np.array([x - 1.0, x, x + 1.0]), np.array([0.5, -1.0, 2.0]), [r], lo, hi, True


#: strip body -> the size rule's limit that builds every strip in it
ONE_BODY = {"array": 0, "float": math.inf}


#: name -> (shifts and boundary data, target): strips whose ends cross |w| = 1,
#: where the merge tolerance changes formula, seams past w = -1024, and a
#: wide window of about 43k breakpoints
REFERENCE_BUILDS = {
    "near_pairs": (_near_pair_data, (-3.0, 4.0)),
    "quarter": (lambda: _tent_data(0.25, 0.5), (-3.0, 3.5)),
    "lattice0.3": (lambda: _lattice_data(0.3, 3, 5), (-4.0, 4.0)),
    "lattice0.1": (lambda: _lattice_data(0.1, 4, 3), (-2.5, 2.5)),
    "ln23": (lambda: _log_tent_data(2, 3), (-4.0, 4.0)),
    "steep": (_steep_lattice_data, (-1030.0, 9.08380514966729)),
    "ln2357": (lambda: _log_tent_data(2, 3, 5, 7), (-14.0, 28.0)),
}


class TestReferenceLoop:
    """One strip loop for both sides gives the bytes of the two-loop construction."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_BUILDS))
    def test_pinned_build(self, name):
        data, target = REFERENCE_BUILDS[name]
        b, g = data()
        assert _build_bytes(g, b, target) == _reference_build(g, b, target)

    @settings(max_examples=60, deadline=None)
    @given(_compatible_data())
    def test_same_bytes_as_reference(self, data):
        b, g, target = data
        assert _build_bytes(g, b, target) == _reference_build(g, b, target)

    @pytest.mark.parametrize("body", sorted(ONE_BODY))
    @pytest.mark.parametrize("name", sorted(REFERENCE_BUILDS))
    def test_pinned_build_in_one_body(self, monkeypatch, body, name):
        monkeypatch.setattr(extension, "_FLOAT_STRIP_READS", ONE_BODY[body])
        data, target = REFERENCE_BUILDS[name]
        b, g = data()
        assert _build_bytes(g, b, target) == _reference_build(g, b, target)

    @pytest.mark.parametrize("body", sorted(ONE_BODY))
    @settings(max_examples=60, deadline=None)
    @given(data=_compatible_data())
    def test_same_bytes_in_one_body(self, body, data):
        b, g, target = data
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extension, "_FLOAT_STRIP_READS", ONE_BODY[body])
            assert _build_bytes(g, b, target) == _reference_build(g, b, target)


def _counted_bodies(monkeypatch) -> dict[str, int]:
    """Count the strips each body builds, by wrapping both in the module."""
    calls = {"_float_strip": 0, "_array_strip": 0}
    for name in calls:
        def counted(*args, _body=getattr(extension, name), _name=name):
            calls[_name] += 1
            return _body(*args)
        monkeypatch.setattr(extension, name, counted)
    return calls


class TestStripBodies:
    """The size rule picks a body per strip; the float body reads as np.interp does."""

    def test_tent_on_one_two_is_built_in_floats(self, monkeypatch):
        calls = _counted_bodies(monkeypatch)
        tent_solution((-300.0, 600.0))
        assert calls["_float_strip"] > 0 and calls["_array_strip"] == 0

    def test_log_shifts_use_both_bodies(self, monkeypatch):
        calls = _counted_bodies(monkeypatch)
        b, g = _log_tent_data(2, 3, 5, 7)
        extend(g, b, (-14.0, 28.0))
        assert calls["_float_strip"] > 0 and calls["_array_strip"] > 0

    def test_seam_checked_after_a_float_strip(self, monkeypatch):
        calls = _counted_bodies(monkeypatch)
        seams = []
        check = extension._seam_check
        monkeypatch.setattr(extension, "_seam_check", lambda *a: seams.append(a) or check(*a))
        b, g = _tent_data(0.7, 1.4, 2.1)
        extend(g, b, (-100.0, 200.0))
        assert seams and calls["_array_strip"] == 0

    @pytest.mark.parametrize(
        "ys, lo, hi, expected",
        [
            # -inf slope from an infinite value: NaN, retried from the right end
            ([1.0, math.inf, 2.0, 0.0], 1.5, 2.5, [-math.inf, -2.0, -1.0]),
            # inf - inf slope on an infinite plateau: NaN both ways, the stored value
            ([1.0, math.inf, math.inf, 0.0], 1.5, 2.5, [-math.inf, -math.inf, -math.inf]),
        ],
    )
    def test_nan_retry(self, ys, lo, hi, expected):
        xs = [0.0, 1.0, 2.0, 3.0]
        nodes, values = extension._float_strip(xs, ys, [0.0], lo, hi, True)
        assert nodes == [lo, 2.0, hi]
        assert values == expected
        with np.errstate(invalid="ignore", over="ignore"):
            terms = np.interp(np.array(nodes), np.array(xs), np.array(ys))
        assert np.array(values).tobytes() == (-(0.0 + terms)).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(_strip_input())
    def test_one_read_is_np_interp(self, data):
        xs, ys, reads, lo, hi, right = data
        r = reads[0]
        nodes, values = extension._float_strip(xs.tolist(), ys.tolist(), [r], lo, hi, right)
        with np.errstate(invalid="ignore", over="ignore"):
            terms = np.interp(np.array(nodes) + r, xs, ys)
        assert np.array(values).tobytes() == (-(0.0 + terms)).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(_strip_input())
    # x = fl(lo + r), where the bisect starts, yet its kink fl(x - r) exceeds lo;
    # on the second strip, so thin that hi merges into that kink but not into
    # lo, only the kink decides that hi is the one node
    @example(_kink_at_bisect_start(8.53013247571732, 9.53013247571732,
                                   67.51559513251458, 76.0457276082319))
    @example(_kink_at_bisect_start(314.16816438270223, 314.1681643830164,
                                   -7391.5440782971455, -7077.375913914443))
    def test_same_bits_as_array_body(self, data):
        xs, ys, reads, lo, hi, right = data
        nodes, values = extension._float_strip(xs.tolist(), ys.tolist(), reads, lo, hi, right)
        with np.errstate(invalid="ignore", over="ignore"):
            a_nodes, a_values = extension._array_strip(
                xs, ys, np.array(reads)[:, None], lo, hi, right
            )
        assert np.array(nodes).tobytes() == a_nodes.tobytes()
        assert np.array(values).tobytes() == a_values.tobytes()


class TestPeriodicReference:
    def test_n2(self):
        ref = periodic_reference(2)
        np.testing.assert_array_equal(ref.breakpoints, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ref.values, [1.0, 1.0, -2.0, 1.0])

    def test_minimum_value(self):
        assert periodic_reference(3)(3.0) == -3.0

    def test_period_endpoint(self):
        assert periodic_reference(5)(6.0) == 1.0

    def test_rejects_n1(self):
        with pytest.raises(InvalidInput):
            periodic_reference(1)


class TestGoldenMatch:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_integer_shifts_are_periodic(self, n):
        b = ShiftVector(tuple(float(k) for k in range(1, n + 1)))
        period = float(n + 1)
        sol = extend(tent_boundary(b), b, (-3 * period, n + 3 * period))
        ref = periodic_reference(n)
        for lo, hi in [(-3 * period, 0.0), (float(n), n + 3 * period)]:
            w = np.linspace(lo, hi, 1000 * 3)
            np.testing.assert_allclose(sol(w), ref(np.mod(w, period)), atol=1e-10)


class TestResiduals:
    def test_extended_tent_additive(self):
        sol = extend(tent_boundary(B12), B12, (-3.0, 7.0))
        grid = np.linspace(-3.0, 5.0, 1000)
        assert residual_additive(sol, B12, grid) <= 1e-12

    def test_cosine_antiperiodic(self):
        grid = np.linspace(-10.0, 10.0, 777)
        res = residual_additive(lambda w: math.cos(math.pi * w), (1.0,), grid)
        assert res <= 1e-14

    def test_constant_additive(self):
        assert residual_additive(lambda w: 1.0, B12, np.linspace(0, 1, 10)) == 3.0

    def test_multiplicative_from_log_bridge(self):
        a = normalize([2, 3])
        b = to_additive(a)
        sol = extend(tent_boundary(b), b, (math.log(0.05), math.log(11) + b.largest))
        f = lambda x: sol(np.log(x))
        grid = np.geomspace(0.1, 10.0, 500)
        assert residual_multiplicative(f, a, grid) <= 1e-9

    def test_multiplicative_trivial(self):
        grid = np.geomspace(0.1, 10.0, 50)
        assert residual_multiplicative(lambda x: 0.0 * np.asarray(x), [2.0, 3.0], grid) == 0.0
        assert residual_multiplicative(lambda x: 1.0, [2.0, 3.0], grid) == pytest.approx(3.0)

    @pytest.mark.parametrize("where", [0, -1])
    def test_refusal_ends_the_read(self, where):
        # a NaN refused by the vector read is not retried point by point
        sol = tent_solution()
        grid = np.linspace(-3.0, 4.0, 1000)
        grid[where] = math.nan
        calls = []

        def counted(w):
            calls.append(np.shape(w))
            return sol(w)

        with pytest.raises(InvalidInput, match="NaN"):
            residual_additive(counted, B12, grid)
        assert calls == [(1000,)]

    def test_multiplicative_rejects_nonpositive(self):
        with pytest.raises(NonPositiveSample):
            residual_multiplicative(lambda x: 0.0, [2.0, 3.0], [-1.0, 1.0])

    def test_random_projected_boundaries(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            while True:
                shifts = np.sort(rng.uniform(0.3, 3.0, n))
                if n == 1 or np.min(np.diff(shifts)) > 0.05:
                    break
            b = ShiftVector(tuple(shifts))
            g = _random_compatible_boundary(rng, b)
            step = shifts[-1] - (shifts[-2] if n >= 2 else 0.0)
            lo, hi = -5 * shifts[0], shifts[-1] + 5 * step
            sol = extend(g, b, (lo, hi))
            grid = np.linspace(lo, hi - shifts[-1], 2000)
            assert residual_additive(sol, b, grid) <= 1e-9


def _random_compatible_boundary(rng, b: ShiftVector) -> PiecewiseLinear:
    """Random PL data on [0, bN], constant-shifted onto the compatible plane."""
    bn = b.largest
    inner = np.sort(rng.uniform(0.02 * bn, 0.98 * bn, int(rng.integers(3, 9))))
    x = np.unique(np.concatenate([[0.0], inner, [bn]]))
    y = rng.uniform(-1.0, 1.0, x.size)
    g = PiecewiseLinear(x, y)
    r = check_interpolation(g, b)
    return PiecewiseLinear(x, y - r / (len(b) + 1))


class TestPopoviciu:
    def test_affine_order_two_vanishes(self):
        for x, h in [(0.0, 1.0), (-2.5, 0.3), (4.0, -0.7)]:
            assert abs(popoviciu_determinant(lambda t: t, x, h, 2)) <= 1e-12

    def test_affine_order_one_by_hand(self):
        # det [[x, x+1], [x+1, x+2]] = x(x+2) - (x+1)^2 = -1
        for x in (-3.0, 0.0, 2.5):
            assert popoviciu_determinant(lambda t: t, x, 1.0, 1) == pytest.approx(-1.0)

    def test_tent_extension_nonzero(self):
        sol = tent_solution((0.0, 3.0))
        det = popoviciu_determinant(sol, 0.5, 0.3, 3)
        assert abs(det) > 1e-8
        # frozen exact value from rational cofactor expansion of the
        # 4x4 Hankel sample matrix
        assert det == pytest.approx(float(Fraction(-1539, 5000)), abs=1e-12)
        assert det == pytest.approx(_cofactor_det(_hankel_samples(sol, 0.5, 0.3, 3)), abs=1e-12)

    def test_rejects_zero_step(self):
        with pytest.raises(InvalidInput):
            popoviciu_determinant(lambda t: t, 0.0, 0.0, 2)

    def test_propagates_coverage(self):
        sol = tent_solution((0.0, 3.0))
        with pytest.raises(OutOfCoverage):
            popoviciu_determinant(sol, 2.0, 1.0, 3)


def _hankel_samples(f, x, h, n):
    return [[f(x + (i + j) * h) for j in range(n + 1)] for i in range(n + 1)]


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )
