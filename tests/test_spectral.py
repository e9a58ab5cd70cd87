"""``dilateq._spectral``, the command line's engines for ``zeros`` and
``periodicity`` in Python floats, against the library's numpy engines.

Every result is compared bit for bit: the zeros, residuals, warnings and
scan grids of ``expsums``, the minima and certificates of ``periodicity``,
and the class and words of every refusal.  The engines rely on the platform
agreements pinned in ``TestPlatform``.
"""

import cmath
import contextlib
import hashlib
import math
import re
import subprocess
import sys
from fractions import Fraction
from math import pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dilateq import _spectral, expsums, periodicity
from dilateq.cli import _library_zeros
from dilateq.errors import DilateqError, GridBudgetExceeded
from dilateq.expsums import SearchRectangle
from tests.test_expsums import BITWISE_SEARCHES, _case
from tests.test_package import src_env
from tests.test_periodicity import SCAN_DIGESTS, SCAN_FIXTURES

LN2 = math.log(2.0)

#: the library constants each engine keeps a copy of
SHARED = [
    (expsums, "ZERO_RESIDUAL_TOL"), (expsums, "_DEDUPE_DIST"), (expsums, "_EDGE_MARGIN"),
    (expsums, "_NEWTON_MAX_ITER"), (expsums, "_MAX_SCAN_POINTS"), (expsums, "_MAX_TABLE_TERMS"),
    (expsums, "_MAX_TERMS"), (expsums, "_WINDING_MAX_SAMPLES"),
    (periodicity, "CERTIFICATE_TOL"), (periodicity, "MAX_GRID_POINTS"),
    (periodicity, "_MAX_TERMS"), (periodicity, "_REFINE_WIDTH"),
    (periodicity, "_GOLDEN_MAX_ITER"), (periodicity, "_INV_GOLDEN"),
    (periodicity, "_UNIT_ROUNDOFF"),
]


@pytest.mark.parametrize("module, name", SHARED)
def test_constants_are_the_library_ones(module, name):
    assert getattr(_spectral, name) == getattr(module, name)


def test_import_loads_no_numpy():
    code = (
        "import sys, dilateq._spectral\n"
        "print(sorted({'numpy', 'dilateq.expsums', 'dilateq.periodicity',"
        " 'dilateq._linetable', 'dilateq._floats'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "[]\n"


@contextlib.contextmanager
def _no_size_rule():
    """The float engines on every size they can take."""
    with mock.patch.multiple(_spectral, _FLOAT_TERMS=1 << 62, _FLOAT_PHASES=1 << 62):
        yield


def _outcome(call, *args, **kwargs):
    """repr of a result, or the class and words of a refusal."""
    try:
        return repr(call(*args, **kwargs))
    except DilateqError as exc:
        return type(exc).__name__, str(exc)


def _zeros_outcome(call, *args, **kwargs):
    """``_outcome``, less the modulus that a refusal of a boundary sample
    quotes: the float engine sums each winding sample exactly, the library
    from line tables, and on a zero that figure is rounding noise."""
    out = _outcome(call, *args, **kwargs)
    if isinstance(out, tuple):
        return out[0], re.sub(r"^modulus \S+ on the boundary", "modulus _ on the boundary", out[1])
    return out


def _library_certificates(shifts, alpha_max, grid_step, tol):
    found = periodicity.find_periodic_alphas(shifts, alpha_max, grid_step=grid_step, tol=tol)
    return [(c.alpha, c.period, c.system_residual) for c in found]


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _chex(values) -> list:
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestPlatform:
    """The agreements between libm, Python and numpy that the engines rely on."""

    @staticmethod
    def _phases(seed: int, size: int) -> np.ndarray:
        # magnitudes from subnormal to 2^1000, as the periodicity engine takes them
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size) * 2.0 ** rng.uniform(-1070.0, 1000.0, size)
        return np.concatenate([values, rng.uniform(-2e4, 2e4, size)])

    def test_cos_and_sin(self):
        phases = self._phases(1, 20000)
        assert _hex(map(math.cos, phases.tolist())) == _hex(np.cos(phases))
        assert _hex(map(math.sin, phases.tolist())) == _hex(np.sin(phases))

    def test_log_table(self):
        # every log table of n <= _MAX_LOG_N; on glibc k = 9170 is the first
        # whose math.log differs from np.log
        k = np.arange(1, _spectral._MAX_LOG_N + 1, dtype=float)
        assert _hex(math.log(v) for v in range(1, k.size + 1)) == _hex(np.log(k))

    def test_cmath_exp_is_numpy_exp(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(-745.0, _spectral._CMATH_REAL, 20000) + 1j * rng.uniform(-1e4, 1e4, 20000)
        assert _chex(map(cmath.exp, w.tolist())) == _chex(np.exp(w))

    def test_cexp_everywhere(self):
        rng = np.random.default_rng(3)
        re = np.concatenate([rng.uniform(700.0, 712.0, 4000), rng.uniform(709.0, 2200.0, 2000)])
        im = rng.uniform(-50.0, 50.0, re.size) * 10.0 ** rng.integers(-3, 3, re.size)
        special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -1e-310, 1e308, 3.0]
        w = np.concatenate([re + 1j * im, [complex(a, b) for a in special for b in special]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _chex(map(_spectral._cexp, w.tolist())) == _chex(np.exp(w))

    def test_float_power(self):
        # squares of sums of at most N + 1 in size, which cannot overflow
        rng = np.random.default_rng(4)
        x = rng.standard_normal(50000) * 10.0 ** rng.integers(-160, 150, 50000)
        assert _hex(v**2.0 for v in x.tolist()) == _hex(np.float_power(x, 2.0))

    def test_complex_abs(self):
        rng = np.random.default_rng(5)
        size = 50000
        g = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        g = g + 1j * rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e308, -3.0]
        g = np.concatenate([g, [complex(a, b) for a in special for b in special]])
        assert _hex(map(_spectral._cabs, g.tolist())) == _hex(np.abs(g))

    def test_fused_square(self):
        rng = np.random.default_rng(6)
        r = np.concatenate([rng.random(20000), rng.random(20000) * 2.0 ** -rng.integers(0, 40, 20000)])
        r = r.tolist() + [0.0, 1.0, 0.5, 2.0**-26, 2.0**-27, 2.0**-26.5, 0.70710678118654757]
        assert [_spectral._fma_square(v) for v in r] == [float(Fraction(v) ** 2 + 1) for v in r]

    @pytest.mark.parametrize("size", [1, 3, 4, 5, 63, 64, 65, 127, 128, 129, 300, 1000, 4097])
    def test_complex_row_sum(self, size):
        rng = np.random.default_rng(size)
        rows = rng.standard_normal((4, size)) * 10.0 ** rng.integers(-5, 5, (4, size))
        rows = rows + 1j * rng.standard_normal((4, size))
        sums = rows.sum(axis=-1)
        assert _chex(_spectral._csum(row) for row in rows.tolist()) == _chex(sums)

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.floats(-1e6, 1e6), width=st.floats(1e-300, 1e6), num=st.integers(2, 500),
    )
    @example(lo=0.0, width=5e-324, num=7)
    def test_linspace(self, lo, width, num):
        hi = lo + width
        if hi > lo:
            assert _hex(_spectral._linspace(lo, hi, num)) == _hex(np.linspace(lo, hi, num))

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
        b=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
        num=st.integers(1, 300),
    )
    def test_boundary_side(self, a, b, num):
        a, b = complex(*a), complex(*b)
        want = np.linspace(a, b, num, endpoint=False)
        assert _chex(_spectral._side(a, b, num)) == _chex(want)


class TestKernels:
    """Each step of the zero search and the scan against the numpy step it mirrors."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 300),
        z=st.tuples(
            st.one_of(st.floats(-400.0, 3.0), st.floats(-2.0, 1500.0)),
            st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0])),
        ),
    )
    def test_terms(self, n, z):
        z = complex(*z)
        logs = [math.log(k) for k in range(1, n + 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            want = expsums._terms(n, np.array([z]))[0]
        assert _chex(_spectral._terms(logs, z)) == _chex(want)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 200),
        z=st.tuples(
            st.one_of(st.floats(-5.0, 4.0), st.floats(-320.0, 10.0)),
            st.one_of(st.floats(-10.0, 80.0), st.sampled_from([0.0, -0.0])),
        ),
    )
    @example(n=234, z=(-0.9480917608551387, 8.276184395173066))
    @example(n=200, z=(-300.0, 6.875))
    def test_newton(self, n, z):
        z = complex(*z)
        logs = [math.log(k) for k in range(1, n + 1)]
        want = expsums._newton(n, np.array([z]))[0]
        got = _spectral._newton(logs, z)
        assert repr(got) == repr(want)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.lists(
                st.sampled_from(
                    [1.0, -1.0, 1j, 2.0, 0.5 + 0.5j, 3e-320, 1e308 + 1e308j, complex(math.inf, 0.0),
                     complex(math.nan, 1.0), 0.0, 0.70710678118654757 + 0.7071067811865476j]
                ),
                min_size=3, max_size=3,
            ),
            min_size=1, max_size=5,
        ),
        cols=st.integers(1, 3),
    )
    def test_minima(self, cells, cols):
        # ties, overflowing moduli, infinities and NaN, as the dense reference reads them
        rows = [row[:cols] for row in cells]
        want = expsums._local_minima(np.abs(np.array(rows, dtype=complex)))
        assert _spectral._minima(rows) == list(zip(*(part.tolist() for part in want)))

    @settings(max_examples=300, deadline=None)
    @given(
        near=st.lists(
            st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, math.inf, math.nan, 1e-300])),
            min_size=3, max_size=3,
        ),
        lo=st.floats(1e-3, 100.0),
        widths=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        shifts=st.lists(
            st.one_of(st.floats(1e-3, 10.0), st.floats(1e-3, 1e300)), min_size=1, max_size=5
        ),
        tol=st.sampled_from([1e-16, 1e-300, 0.5, math.inf]),
    )
    # a NaN right half with a finite left one: np.minimum keeps the NaN
    @example(near=[4.0, 4.0, math.nan], lo=1.0, widths=(0.1, 0.1), shifts=[1.0], tol=1e-16)
    def test_cannot_certify(self, near, lo, widths, shifts, tol):
        mid = lo + widths[0]
        hi = mid + widths[1]
        want = periodicity._cannot_certify(
            np.array([near]), np.array([lo]), np.array([mid]), np.array([hi]),
            np.array(shifts), tol,
        )
        got = _spectral._cannot_certify(tuple(near), lo, mid, hi, shifts, tol)
        assert got == bool(want[0])

    @settings(max_examples=100, deadline=None)
    @given(
        shifts=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=140),
        alphas=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=20),
    )
    def test_residuals(self, shifts, alphas):
        # the grid's x * x and the refinement's libm pow
        a, b = np.array(alphas), np.array(shifts)
        assert _hex(_spectral._residuals(alphas, shifts, _spectral._grid_square)) == _hex(
            periodicity._residuals(a, b, np.square)
        )
        assert _hex(_spectral._residuals(alphas, shifts, _spectral._pow_square)) == _hex(
            periodicity._row_residuals(a, b)
        )


def _within_rule(n: int, bounds: tuple) -> bool:
    """Whether the zero search's size rule takes n on this rectangle and grid."""
    first = sum(count for *_, count in _spectral._first_samples(n, bounds[:4]))
    return n <= _spectral._MAX_LOG_N and (bounds[4] * bounds[5] + first) * n <= _spectral._FLOAT_TERMS


def _digest(rows) -> str:
    return hashlib.sha256(np.array(rows, dtype=float).tobytes()).hexdigest()


def _bounds(name: str) -> tuple:
    n, rect = _case(name)
    return n, (rect.re_min, rect.re_max, rect.im_min, rect.im_max, rect.grid_re, rect.grid_im)


#: the ``TestBitwise`` searches the float engine takes
INSIDE = [name for name in BITWISE_SEARCHES if _within_rule(*_bounds(name))]


class TestBitwise:
    def test_inside_the_rule(self):
        assert INSIDE == [
            "default/2", "default/10", "tall/2", "tall/10", "fine/2", "wide/2", "wide/10"
        ]

    @pytest.mark.parametrize("name", INSIDE)
    def test_search_digests(self, name):
        n, bounds = _bounds(name)
        scan, first, final, count, _ = BITWISE_SEARCHES[name]
        zeros, warned, (re, im, grid) = _spectral.find_zeros(n, *bounds, scan=True)
        assert _digest(grid) == scan
        assert re == np.linspace(*bounds[:2], bounds[4]).tolist()
        assert im == np.linspace(*bounds[2:4], bounds[5]).tolist()
        rect = bounds[:4]
        logs = [math.log(k) for k in range(1, n + 1)]
        found = _spectral._seed(logs, rect, _spectral._scan(logs, rect, *bounds[4:]), {})
        assert _digest([(z.real, z.imag, r) for z, r in _spectral._verified(rect, found)]) == first
        assert warned == [] and len(zeros) == count
        assert _digest([(z.real, z.imag, r) for z, r in zeros]) == (final or first)

    @pytest.mark.parametrize("name", [name for name in BITWISE_SEARCHES if name not in INSIDE])
    def test_outside_handed_over(self, name, monkeypatch):
        monkeypatch.setattr(_spectral, "_winding", lambda *a: pytest.fail("counted"))
        n, bounds = _bounds(name)
        assert _spectral.find_zeros(n, *bounds) is None

    @pytest.mark.parametrize("name", list(SCAN_FIXTURES))
    def test_scan_digests(self, name):
        b, alpha_max, grid_step = SCAN_FIXTURES[name]
        with _no_size_rule():
            out = _spectral._refined_minima(b, alpha_max, grid_step, math.inf)
        assert hashlib.sha256(repr(out).encode()).hexdigest() == SCAN_DIGESTS[name]

    @pytest.mark.parametrize(
        "b, alpha_max, grid_step",
        [
            # ties: two grid minima refine to alphas 7.9e-9 apart and merge
            ((3.0, 3.0, 3.0), 7.349019775830515, 0.19039955476301776),
            # alpha_max appended to the grid, next to the minimum near 8 pi / 3
            ((1.0, 2.0), 8 * pi / 3 + 0.05, 0.1),
            # a grid of two points, which falls back to four
            ((1.0, 2.0), 3.0, 2.0),
            # a flat grid: every residual reads 4.0
            ((1e-9,), 5.0, 0.5),
            # phases near 1e19
            ((1.0, 2.0), 1e19, 1e17),
        ],
    )
    def test_scan_minima_examples(self, b, alpha_max, grid_step):
        out = _spectral._refined_minima(b, alpha_max, grid_step, math.inf)
        assert repr(out) == repr(periodicity.scan_minima(b, alpha_max, grid_step))

    def test_scans_inside_the_rule(self):
        inside = [
            name for name, (b, alpha_max, step) in SCAN_FIXTURES.items()
            if _spectral._refined_minima(b, alpha_max, step, math.inf) is not None
        ]
        assert inside == [
            "cli-periodicity-0", "cli-periodicity-1", "two-shift-alpha-70", "rational-5-4",
            "generic-6", "generic-2", "generic-4", "repeated-1-1", "single-shift", "log-2-3-5",
        ]


#: a rectangle bound: ordinary, or one of the values every parser meets
BOUND = st.one_of(
    st.floats(-12.0, 45.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 5e-324]),
)


def _near_edge(z: complex, edge: int, offset: float) -> tuple:
    bounds = [z.real - 1.0, z.real + 1.3, z.imag - 1.1, z.imag + 0.9]
    bounds[edge] = (z.real, z.real, z.imag, z.imag)[edge] + offset
    return tuple(bounds)


#: the third zero of 1 + 2^z + 3^z, about 0.4 + 16.1 i
ZERO_3 = expsums.find_zeros(3, SearchRectangle(-3.0, 2.0, 0.1, 30.0))[2].z


class TestSameAsLibrary:
    """Hypothesis: each engine's output, warnings and refusals are the library's."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([2, 3, 10]), st.integers(2, 60)),
        corner=st.tuples(BOUND, BOUND),
        size=st.tuples(BOUND, BOUND),
        grid=st.tuples(st.integers(2, 30), st.integers(2, 40)),
        scan=st.booleans(),
    )
    # the README's two calls, and a zero of 1 + 2^z on the top edge
    @example(n=2, corner=(-3.0, 0.0), size=(5.0, 30.0), grid=(61, 241), scan=True)
    @example(n=10, corner=(-3.0, 0.0), size=(5.0, 30.0), grid=(61, 241), scan=False)
    @example(n=2, corner=(-1.0, 0.0), size=(2.0, pi / LN2), grid=(5, 5), scan=False)
    # an incomplete search that seeds twice and still warns
    @example(n=10, corner=(-3.0, 0.0), size=(5.0, 30.0), grid=(2, 2), scan=True)
    # zeros within the edge margin and just past it
    @example(n=3, corner=(ZERO_3.real - 5e-7, 15.0), size=(1.3, 2.0), grid=(9, 11), scan=False)
    @example(n=3, corner=(ZERO_3.real - 2e-6, 15.0), size=(1.3, 2.0), grid=(9, 11), scan=False)
    def test_zeros(self, n, corner, size, grid, scan):
        bounds = (corner[0], corner[0] + size[0], corner[1], corner[1] + size[1], *grid)
        got = _zeros_outcome(_spectral.find_zeros, n, *bounds, scan=scan)
        if got != "None":
            assert got == _zeros_outcome(_library_zeros, n, bounds, scan)

    @pytest.mark.parametrize("edge", range(4))
    @pytest.mark.parametrize("offset", [0.0, 1e-15, -1e-12, 1e-9, -1e-9, 1e-7, 3e-6])
    def test_zero_near_an_edge(self, edge, offset):
        # refusals that read the boundary samples: a sample on or near a zero
        bounds = (*_near_edge(ZERO_3, edge, offset), 9, 11)
        got = _zeros_outcome(_spectral.find_zeros, 3, *bounds)
        assert got == _zeros_outcome(_library_zeros, 3, bounds, False)

    def test_zeros_fixed_cases(self):
        cases = [
            (1, (-3.0, 2.0, 0.0, 30.0, 61, 241)),
            (2, (2.0, -3.0, 0.0, 30.0, 61, 241)),
            (2, (-3.0, 2.0, 0.0, math.inf, 61, 241)),
            (2, (-3.0, 2.0, 0.0, 30.0, 1, 241)),
            (2, (-3.0, 2.0, 0.0, 30.0, 100000, 100000)),
            (10**7, (-3.0, 2.0, 0.0, 30.0, 2, 2)),
            (2, (-3.0, 2.0, 0.0, 1e300, 2, 2)),
            (2, (-3.0, 2.0, 1e15, 1e15 + 30.0, 2, 2)),
            # terms past 708 / ln n are handed over; below, the sums can still overflow
            (1000, (100.0, 102.4, 0.0, 1.0, 2, 2)),
            # winding steps whose angle underflows, where cmath.phase raised
            (5, (-0.09035892804675427, 6.324252007925114, 5e-324, 4.089086324401929, 22, 3)),
        ]
        for n, bounds in cases:
            assert _outcome(_spectral.find_zeros, n, *bounds) == _outcome(
                _library_zeros, n, bounds, False
            ), (n, bounds)

    @settings(max_examples=100, deadline=None)
    @given(
        shifts=st.one_of(
            st.lists(st.floats(0.01, 5.0), min_size=1, max_size=8),
            st.tuples(st.floats(0.1, 2.0), st.lists(st.integers(1, 7), min_size=1, max_size=6)).map(
                lambda t: [t[0] * m for m in t[1]]
            ),
            st.lists(BOUND, min_size=0, max_size=3),
        ),
        alpha_max=st.one_of(st.floats(0.5, 80.0), BOUND),
        grid_step=st.one_of(st.none(), st.floats(0.005, 1.0), BOUND),
        tol=st.sampled_from([1e-16, 1e-8, 1.0, math.inf, 0.0, -1.0, math.nan]),
    )
    @example(shifts=[1.0, 2.0], alpha_max=10.0, grid_step=None, tol=1e-16)
    @example(shifts=[0.5, 1.0, 1.5], alpha_max=20.0, grid_step=0.01, tol=1e-16)
    @example(shifts=[1.0, 2.0], alpha_max=3.0, grid_step=2.0, tol=1e-16)
    @example(shifts=[3.0, 3.0, 3.0], alpha_max=7.349019775830515, grid_step=0.19039955476301776, tol=1.0)
    @example(shifts=[1.0, 2.0], alpha_max=1e-310, grid_step=None, tol=math.inf)
    @example(shifts=[1.0, 2.0], alpha_max=1e19, grid_step=1e17, tol=1e-16)
    def test_periodicity(self, shifts, alpha_max, grid_step, tol):
        got = _outcome(_spectral.find_periodic_alphas, shifts, alpha_max, grid_step, tol)
        if got != "None":
            assert got == _outcome(_library_certificates, shifts, alpha_max, grid_step, tol)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        re_min=st.floats(-10.0, 5.0),
        re_width=st.floats(1e-3, 10.0),
        im_min=st.floats(-300.0, 300.0),
        height=st.floats(1e-3, 100.0),
    )
    @example(n=2, re_min=-1.0, re_width=2.0, im_min=pi / LN2 - 1e-5, height=20.0)
    @example(n=30, re_min=-3.0, re_width=5.0, im_min=1e6, height=50.0)
    def test_winding_count(self, n, re_min, re_width, im_min, height):
        # both counts are certified: where both end, they agree
        rect = (re_min, re_min + re_width, im_min, im_min + height)
        logs = [math.log(k) for k in range(1, n + 1)]

        def count():
            return _spectral._winding(logs, _spectral._first_samples(n, rect))

        with _no_size_rule():
            got = _zeros_outcome(count)
        assert got == _zeros_outcome(expsums.winding_count, n, SearchRectangle(*rect))


class TestSizeRule:
    def test_large_n_handed_over_before_any_work(self, monkeypatch):
        monkeypatch.setattr(_spectral, "_FLOAT_TERMS", 1 << 62)
        monkeypatch.setattr(_spectral, "_winding", lambda *a: pytest.fail("counted"))
        bounds = (-3.0, -2.9, 0.0, 0.1, 2, 2)
        assert _spectral.find_zeros(_spectral._MAX_LOG_N + 1, *bounds) is None
        monkeypatch.setattr(_spectral, "_winding", lambda *a: 0)
        assert _spectral.find_zeros(_spectral._MAX_LOG_N, *bounds) == ([], [], None)

    def test_terms_past_the_rule(self, monkeypatch):
        monkeypatch.setattr(_spectral, "_winding", lambda *a: pytest.fail("counted"))
        # 61 x 241 cells and 164 first samples, times n = 10
        monkeypatch.setattr(_spectral, "_FLOAT_TERMS", (61 * 241 + 164) * 10 - 1)
        assert _spectral.find_zeros(10, -3.0, 2.0, 0.0, 30.0, 61, 241) is None

    def test_overflowing_terms_handed_over(self, monkeypatch):
        monkeypatch.setattr(_spectral, "_winding", lambda *a: pytest.fail("counted"))
        assert _spectral.find_zeros(2, 0.0, 1022.0, 0.0, 1.0, 2, 2) is None

    def test_deep_bisection_handed_over(self, monkeypatch):
        # a zero 1e-5 inside the edge: 58 first samples and 4 cells, times
        # n = 2, are within the rule, and the third bisection pass outgrows it
        bounds = (-1.0, 1.0, pi / LN2 - 1e-5, pi / LN2 + 20.0, 2, 2)
        monkeypatch.setattr(_spectral, "_FLOAT_TERMS", (58 + 4) * 2)
        monkeypatch.setattr(_spectral, "_scan", lambda *a: pytest.fail("scanned"))
        assert _spectral.find_zeros(2, *bounds) is None

    def test_phases_past_the_rule(self, monkeypatch):
        monkeypatch.setattr(_spectral, "_residuals", lambda *a: pytest.fail("summed"))
        # 10000 points x 2 shifts
        monkeypatch.setattr(_spectral, "_FLOAT_PHASES", 19999)
        assert _spectral.find_periodic_alphas([1.0, 2.0], 10.0, None, 1e-16) is None

    def test_budgets_refused_before_the_rule(self, monkeypatch):
        monkeypatch.setattr(_spectral, "_FLOAT_PHASES", 0)
        with pytest.raises(GridBudgetExceeded, match="10000000"):
            _spectral.find_periodic_alphas([1.0, 2.0], 10.0, 1e-12, 1e-16)
