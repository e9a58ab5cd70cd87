"""The strip loop in floats and the float engine give the numpy engine's numbers bit for bit.

``dilateq._floats`` holds the one strip loop of the extension; built with no
array body it makes every strip in Python floats, as the command line does
for small ``extend`` and ``residual --shifts`` calls.  Its seam check decides
as the numpy one does, its reads are ``np.interp``'s and its grids
``np.linspace``'s.  Where the float engine returns None the numpy engine
runs instead, so a hand-over must give what that engine gives, result or
refusal.
"""

import itertools
import json
import math
import subprocess
import sys
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dilateq import _floats, extension, extend
from dilateq.cli import main
from dilateq.errors import InternalInconsistency
from tests.test_extension import (
    REFERENCE_BUILDS,
    STEEP_LATTICE,
    _compatible_data,
    _numpy_bound,
    _numpy_seam_check,
    _strip_input,
)
from tests.test_package import src_env


def _recorded(monkeypatch) -> list:
    """Record (existing, incoming, where) of every seam check made."""
    seams = []
    check = _floats._seam_check
    monkeypatch.setattr(_floats, "_seam_check", lambda *a: seams.append(a[:3]) or check(*a))
    return seams


def _float_build(g, b, target):
    """Breakpoint then value bytes of the extension built with no array body."""
    _, sides = _floats._plan(b.entries, *g.domain, g.breakpoints.size, *target)
    built = _floats._Breakpoints(g.breakpoints.tolist(), g.values.tolist())
    for side in sides:
        assert _floats._grow(built, *side, extension.MAX_BREAKPOINTS) == 0
    live = slice(built.head, built.tail)
    return built.bx[live].tobytes() + built.by[live].tobytes()


def _numpy_build(g, b, target):
    sol = extend(g, b, target)
    return sol.pieces.breakpoints.tobytes() + sol.pieces.values.tobytes()


class TestBuild:
    """Every strip in floats gives the bytes and the seam checks of the mixed build."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_BUILDS))
    def test_reference_builds(self, monkeypatch, name):
        data, target = REFERENCE_BUILDS[name]
        b, g = data()
        seams = _recorded(monkeypatch)
        want = _numpy_build(g, b, target)
        mixed = list(seams)
        seams.clear()
        assert _float_build(g, b, target) == want
        assert seams == mixed

    @settings(max_examples=60, deadline=None)
    @given(_compatible_data())
    def test_compatible_data(self, data):
        b, g, target = data
        with pytest.MonkeyPatch.context() as mp:
            seams = _recorded(mp)
            want = _numpy_build(g, b, target)
            mixed = list(seams)
            seams.clear()
            assert _float_build(g, b, target) == want
            assert seams == mixed


#: a seam past w = -1024 of the STEEP_LATTICE build: its gap is past 1e-9
#: relative and within the rounding of its read positions times the slopes
STEEP_SEAM = (
    0.012547355332942517, 0.012547353551833035, -1024.956014387454,
    [-1023.4420468625094, -1021.9280793375648, -1020.4141118126203, -1018.9001442876757,
     -1017.3861767627312, -1015.8722092377866],
    [-0.4996308630897262, -0.17228091657038236, 0.2710892229705003, -0.03901483235280706,
     0.2770236610167882, 0.15026637447379412],
    [-1024.956014387454, -1024.3465845625296, -1024.3247606643072, -1024.0274486714916,
     -1023.9917315091496, -1023.4420958312536, -1023.4420468625093, -1022.832617037585,
     -1022.8107931393625, -1022.513481146547, -1022.477763984205, -1021.9281283063091,
     -1021.9280793375648, -1021.3186495126405, -1021.296825614418, -1020.9995136216023,
     -1020.9637964592605, -1020.4141607813644, -1020.4141118126203, -1019.8046819876959,
     -1019.7828580894734, -1019.4855460966578, -1019.4498289343159, -1018.9001932564199,
     -1018.9001442876757, -1018.2907144627513, -1018.2688905645289, -1017.9715785717132,
     -1017.9358614093713, -1017.3862257314753, -1017.3861767627312, -1016.7767469378067,
     -1016.7549230395842, -1016.4576110467686, -1016.4218938844267, -1015.8722582065308,
     -1015.8722092377867, -1015.2627794128622, -1015.2409555146397],
    [0.012547355332942517, 0.11520014500417818, 0.11887617782980818, 0.1689556198282273,
     0.1749718438655039, 0.2675528654205814, -0.49963086487083574, -0.36786003472810846,
     -0.3631412715024273, -0.298856473072435, -0.2911337083026808, -0.17229148327834573,
     -0.17228091657038236, 0.006192523650034365, 0.012583720091754791, 0.09965246146351792,
     0.11011234351312849, 0.2710748606187633, 0.2710892229705003, 0.5068436814736064,
     0.5166014453763369, 0.6495337108417318, 0.6655033434650999, -0.03895204854431783,
     -0.03901483235280706, -1.2150406021218996, -1.2584698152330849, -0.4107002124195136,
     -0.473528899562763, -0.4901668566483227, 0.2770236610167882, 0.8598350838789813,
     0.8807057653925561, -0.2743839099652009, -0.24847469186800797, 0.15023085302208306,
     0.15026637447380448, 0.09482920284326402, 0.09284397804511246],
)

#: the first seam of tent data with -1.9 for -2 on (1, 2), let through by --tol 0.2
TOL_SEAM = (-1.9, -2.0, 2.0, [0.0, 1.0], [1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, -1.9])

_ODD_VALUES = [math.inf, -math.inf, math.nan, 1e300, -1e300, 0.0, -0.0]


@st.composite
def _seam_input(draw):
    """Arguments of a seam check: a window, N read positions in it and their
    terms, and the seam with its two values.

    N runs past 8, where numpy sums pairwise.  Read positions fall between
    breakpoints or on them, windows lie past |w| = 1024 with slopes up to
    1e10, and now and then one value of the window or one term is infinite,
    NaN or near the largest float.  The two values at the seam differ by
    just more or less than 1e-9 relative, by a few ulps more or less than
    numpy's bound, or by anything.
    """
    base = draw(st.sampled_from([0.0, -5.0, -1030.0, 1020.0]))
    gaps = draw(st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=40))
    xs = list(itertools.accumulate(gaps, initial=base))
    value = st.floats(-1e4, 1e4)
    ys = draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    n = draw(st.integers(1, 24) | st.integers(120, 140))
    points = draw(st.lists(st.floats(xs[0], xs[-1]) | st.sampled_from(xs), min_size=n, max_size=n))
    if draw(st.booleans()):
        terms = _floats._read(xs, ys, points)
    else:
        terms = draw(st.lists(value, min_size=n, max_size=n))
    for seq in (ys, terms):
        if draw(st.integers(0, 3)) == 0:
            seq[draw(st.integers(0, len(seq) - 1))] = draw(st.sampled_from(_ODD_VALUES))
    where = draw(st.floats(-2000.0, 2000.0) | st.sampled_from([-1024.0, 1024.0]))
    existing = draw(value | st.sampled_from(_ODD_VALUES))
    gap = draw(st.sampled_from(["relative", "bound", "any"]))
    if gap == "relative":
        near = st.sampled_from([0.5e-9, 0.999e-9, 1e-9, 1.001e-9, 2e-9, 1e-8])
        rel = draw(near | st.floats(0.0, 1e-3))
        incoming = existing + draw(st.sampled_from([rel, -rel])) * max(1.0, abs(existing))
        return existing, incoming, where, points, terms, xs, ys
    with np.errstate(all="ignore"):
        bound = _numpy_bound(where, *map(np.array, (points, terms, xs, ys)))
    if gap == "bound" and math.isfinite(bound):
        # from 0 the gap is the incoming value, exactly
        incoming = bound
        for _ in range(draw(st.integers(0, 3))):
            incoming = math.nextafter(incoming, draw(st.sampled_from([0.0, math.inf])))
        return 0.0, incoming, where, points, terms, xs, ys
    return existing, draw(value | st.sampled_from(_ODD_VALUES)), where, points, terms, xs, ys


def _decision(check, case):
    try:
        check(*case)
    except InternalInconsistency as exc:
        return str(exc)
    return None


class TestSeamCheck:
    @settings(max_examples=600, deadline=None)
    @given(_seam_input())
    @example(STEEP_SEAM)
    @example(TOL_SEAM)
    # a NaN slope right of a read only: np.maximum keeps it, so no gap exceeds the bound
    @example((1.0, 2.0, 0.0, [0.5], [0.5], [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, math.nan, 3.0]))
    # the largest float as |w| plus the largest term: np.spacing is inf there
    @example((1e308, -1e308, 0.0, [0.5, 1.5], [sys.float_info.max, 1.0],
              [0.0, 1.0, 2.0], [0.0, 1.0, 3.0]))
    def test_same_decision_as_numpy(self, case):
        existing, incoming, where, *arrays = case
        with np.errstate(all="ignore"):
            want = _decision(_numpy_seam_check, (existing, incoming, where, *map(np.array, arrays)))
        assert _decision(_floats._seam_check, case) == want

    def test_pinned_decisions(self):
        assert _decision(_floats._seam_check, STEEP_SEAM) is None
        assert _decision(_floats._seam_check, TOL_SEAM) == (
            "strip value -2 disagrees with -1.8999999999999999 at w = 2"
        )


#: (lo, hi, num) with num = 1, steps that underflow to zero or are subnormal,
#: negative ranges and ranges whose grid overshoots hi before it is written
LINSPACE = [
    (0.0, 1.0, 1),
    (-3.0, 6.0, 1),
    (0.0, 5e-324, 3),
    (0.0, 5e-324, 1001),
    (-5e-324, 5e-324, 7),
    (0.0, 1e-310, 7),
    (1.0, 1.0 + 2.0**-52, 5),
    (-7.5, -2.25, 11),
    (-1e300, -1e299, 13),
    (-3.0, 6.0, 901),
    (0.1, 0.7, 3),
]


class TestLinspace:
    @pytest.mark.parametrize("lo, hi, num", LINSPACE)
    def test_pinned(self, lo, hi, num):
        want = np.linspace(lo, hi, num)
        assert np.array(_floats.linspace(lo, hi, num)).tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(
        st.floats(-1e6, 1e6) | st.floats(-1e-300, 1e-300) | st.sampled_from([0.0, -0.0]),
        st.floats(-1e6, 1e6) | st.floats(-1e-300, 1e-300),
        st.integers(1, 3000),
    )
    def test_any_range(self, lo, hi, num):
        want = np.linspace(lo, hi, num)
        assert np.array(_floats.linspace(lo, hi, num)).tobytes() == want.tobytes()


class TestRead:
    @settings(max_examples=400, deadline=None)
    @given(_strip_input())
    def test_is_np_interp(self, data):
        xs, ys, reads, lo, hi, _ = data
        # every breakpoint, both ends and past them, midpoints, and shifted ends
        points = np.concatenate((
            xs, [xs[0] - 1.0, xs[-1] + 1.0, lo, hi], 0.5 * (xs[:-1] + xs[1:]),
            lo + np.array(reads), hi + np.array(reads),
        ))
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.interp(points, xs, ys)
        got = _floats._read(xs.tolist(), ys.tolist(), points.tolist())
        assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "ys, p, expected",
        [
            # -inf slope from an infinite value: NaN, retried from the right end
            ([1.0, math.inf, 2.0, 0.0], 1.5, math.inf),
            # inf - inf on an infinite plateau: NaN both ways, the stored value
            ([1.0, math.inf, math.inf, 0.0], 1.5, math.inf),
        ],
    )
    def test_nan_retry(self, ys, p, expected):
        xs = [0.0, 1.0, 2.0, 3.0]
        assert _floats._read(xs, ys, [p]) == [expected]
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.interp(p, xs, ys) == expected


@pytest.mark.parametrize("value, huge", [
    (0.0, False), (-0.0, False), (5e-324, False), (1.0, False), (-1e300, False),
    (2.0**1009 * (1 - 2.0**-53), False), (2.0**1009, True), (-(2.0**1009), True),
    (sys.float_info.max, True), (math.inf, True), (-math.inf, True), (math.nan, True),
    (-math.nan, True),
])
def test_huge(value, huge):
    # below 2^1009 in size no difference of two floats overflows
    values = memoryview(array("d", [1.0, value, -2.0]))
    assert _floats._huge(values) == huge
    assert not _floats._huge(values[2:])


TENT = {"breakpoints": [0, 1, 2], "values": [1, 1, -2]}

#: primes -> tent data on their logarithms, whose compatibility residual is
#: exactly 0, and the ``--shifts`` argument; their seams' two values differ
LOG_TENTS = {
    primes: (
        {"breakpoints": [0.0, math.log(primes[-2]), math.log(primes[-1])],
         "values": [1.0, 1.0, -float(len(primes))]},
        json.dumps([math.log(p) for p in primes]),
    )
    for primes in [(2, 3, 5), (3, 5, 7), (2, 3, 5, 7)]
}

#: name -> (boundary, arguments after the boundary): calls the float engine
#: takes, calls it refuses, then calls it hands over, each for its own reason
CALLS = {
    "tent": (TENT, ["--shifts", "[1,2]", "--range", "-3", "6", "--samples", "901"]),
    "tent_ln": (
        {"breakpoints": [0.0, math.log(2.0), math.log(3.0)], "values": [1.0, 1.0, -2.0]},
        ["--shifts", "[0.69314718055994529,1.0986122886681098]", "--range", "-4", "8"],
    ),
    **{
        "ln" + "".join(map(str, primes)): (boundary, ["--shifts", shifts, "--range", "-6", "9"])
        for primes, (boundary, shifts) in LOG_TENTS.items()
    },
    "left_of_boundary": (TENT, ["--shifts", "[1,2]", "--range", "-5", "-3", "--samples", "5"]),
    "one_sample": (TENT, ["--shifts", "[1,2]", "--range", "-1e-300", "0", "--samples", "1"]),
    "seam": ({"breakpoints": STEEP_LATTICE[0], "values": STEEP_LATTICE[1]},
             ["--shifts", json.dumps([STEEP_LATTICE[0][3] * k for k in range(1, 7)]),
              "--range", "-1030", "0", "--samples", "41"]),
    "incompatible": ({"breakpoints": [0, 1, 2], "values": [1, 1, 0]},
                     ["--shifts", "[1,2]", "--range", "-3", "6"]),
    # slopes of -inf and +inf next to 0: a sum is -inf + inf
    "nan_residual": ({"breakpoints": [0, 1e-300, 2e-300], "values": [1e10, -2e10, 1e10]},
                     ["--shifts", "[1e-300,2e-300]", "--range", "0", "1e-301", "--samples", "5"]),
    "seam_past_tol": ({"breakpoints": [0, 1, 2], "values": [1, 1, -1.9]},
                      ["--shifts", "[1,2]", "--range", "-3", "6", "--tol", "0.2"]),
    "overflow": ({"breakpoints": [0, 1, 1.5], "values": [1, 1, -2]},
                 ["--shifts", "[1,1.5]", "--range", "-10", "940"]),
    # right strips of one ulp vanish in the merge range
    "narrow": ({"breakpoints": [0, 1, 1.0000000000000002], "values": [1, 1, -2]},
               ["--shifts", "[1,1.0000000000000002]", "--range", "0", "1e-11"]),
    "non_finite_value": ({"breakpoints": [0, 1, 2], "values": [1, math.inf, -2]},
                         ["--shifts", "[1,2]", "--range", "-3", "6"]),
    "infinite_range": (TENT, ["--shifts", "[1,2]", "--range", "-inf", "6"]),
    "wide_range": (TENT, ["--shifts", "[1,2]", "--range", "-1e308", "1e308"]),
    "domain_mismatch": ({"breakpoints": [0, 1, 3], "values": [1, 1, -2]},
                        ["--shifts", "[1,2]", "--range", "-3", "6"]),
    "domain_in_slack": ({"breakpoints": [0, 1, 2 + 1e-13], "values": [1, 1, -2]},
                        ["--shifts", "[1,2]", "--range", "-3", "6"]),
    "unsorted": ({"breakpoints": [0, 2, 1, 2], "values": [1, 1, 1, -2]},
                 ["--shifts", "[1,2]", "--range", "-3", "6"]),
    "past_node_cap": (TENT, ["--shifts", "[1,2]", "--range", "-3", "40000"]),
}

#: the calls the float engine answers itself, and those it refuses itself
TAKEN = {"tent", "tent_ln", "ln235", "ln357", "ln2357", "left_of_boundary", "one_sample", "seam"}
REFUSED = {"incompatible", "nan_residual", "seam_past_tol", "overflow", "narrow"}


def _outcomes(tmp_path, capsys, argv_tail, boundary):
    """(exit code, stdout, stderr) of ``extend`` and of ``residual --shifts``."""
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(boundary))
    out = []
    for head in (["extend", str(path)], ["residual", "--boundary", str(path)]):
        code = main(head + argv_tail)
        out.append((code, *capsys.readouterr()))
    return out


class TestHandOver:
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_same_output_as_the_numpy_engine(self, tmp_path, capsys, monkeypatch, name):
        boundary, tail = CALLS[name]
        answers = []
        sampled = _floats.sampled
        monkeypatch.setattr(
            _floats, "sampled", lambda *a: answers.append(sampled(*a)) or answers[-1]
        )
        floats = _outcomes(tmp_path, capsys, tail, boundary)
        if name in REFUSED:
            # refused in floats, before any answer, on one line
            assert answers == [] and floats[0][0] in (3, 4)
            assert floats[0][1] == "" and floats[0][2].count("\n") == 1
        else:
            assert [answer is not None for answer in answers] == [name in TAKEN] * 2
        monkeypatch.setattr(_floats, "_FLOAT_READS", 0)
        assert _outcomes(tmp_path, capsys, tail, boundary) == floats

    def test_node_cap_mid_build(self, tmp_path, capsys, monkeypatch):
        # at least 27 breakpoints pass the cap; the build outgrows it at 118
        boundary, tail = CALLS["tent_ln"]
        want = _outcomes(tmp_path, capsys, tail, boundary)
        monkeypatch.setattr(_floats, "_FLOAT_NODES", 60)
        grown = []
        grow = _floats._grow
        monkeypatch.setattr(_floats, "_grow", lambda *a: grown.append(grow(*a)) or grown[-1])
        answers = []
        sampled = _floats.sampled
        monkeypatch.setattr(
            _floats, "sampled", lambda *a: answers.append(sampled(*a)) or answers[-1]
        )
        assert _outcomes(tmp_path, capsys, tail, boundary) == want
        assert answers == [None, None] and grown[-1] > 60

    @pytest.mark.parametrize("lo, hi", [(-0.5, 1e-13), (0.0, 0.5)])
    def test_read_outside_coverage(self, lo, hi):
        # the boundary alone covers reads from w in [-slack, slack] only
        args = ([0.0, 1.0, 2.0], [1.0, 1.0, -2.0], (1.0, 2.0), (0.0, 2.0), 1e-9)
        assert _floats.sampled(*args, 0.0, 1e-13, 3) is not None
        assert _floats.sampled(*args, lo, hi, 3) is None


def test_import_loads_no_numpy():
    # the strip loop and its buffer hold the command line's path off numpy
    code = (
        "import sys, dilateq._floats\n"
        "print(sorted({'numpy', 'dilateq.extension'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "[]\n"
