"""The float engine gives the numpy engine's numbers bit for bit, or hands over.

``dilateq._floats`` builds an extension on Python lists, reads it by
numpy's interpolation formula and forms grids by ``np.linspace``'s; the
command line runs it for small ``extend`` and ``residual --shifts`` calls.
Where it returns None the numpy engine runs instead, so a hand-over must
give what that engine gives, result or refusal.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilateq import _floats, extension, extend
from dilateq.cli import main
from tests.test_extension import (
    REFERENCE_BUILDS,
    STEEP_LATTICE,
    _compatible_data,
    _strip_input,
)


def _float_build(g, b, target):
    return _floats._extend(
        g.breakpoints.tolist(), g.values.tolist(), b.entries, target, _floats.INTERPOLATION_TOL
    )


def _array_bytes(xs, ys) -> bytes:
    return np.array(xs).tobytes() + np.array(ys).tobytes()


def _numpy_build(g, b, target):
    """Bytes of ``extend`` and whether it met a seam whose two values differ."""
    seams = []
    check = extension._seam_check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extension, "_seam_check", lambda *a: seams.append(a) or check(*a))
        sol = extend(g, b, target)
    return _array_bytes(sol.pieces.breakpoints, sol.pieces.values), bool(seams)


def _seamless(monkeypatch):
    """Strips whose node at the seam reads the stored value there.

    That value is never stored, so the build keeps the same bytes and goes
    on where the float engine would hand over at a seam mismatch.
    """
    strip = _floats._float_strip

    def seamless(xs, ys, reads, lo, hi, right):
        nodes, values = strip(xs, ys, reads, lo, hi, right)
        if right:
            values[0] = ys[-1]
        else:
            values[-1] = ys[0]
        return nodes, values

    monkeypatch.setattr(_floats, "_float_strip", seamless)


@pytest.fixture
def uncapped(monkeypatch):
    monkeypatch.setattr(_floats, "_FLOAT_NODES", extension.MAX_BREAKPOINTS)


class TestBuild:
    @pytest.mark.parametrize("name", sorted(REFERENCE_BUILDS))
    def test_reference_builds(self, monkeypatch, uncapped, name):
        data, target = REFERENCE_BUILDS[name]
        b, g = data()
        want, mismatched = _numpy_build(g, b, target)
        built = _float_build(g, b, target)
        # a hand-over exactly where the numpy engine meets a seam mismatch
        assert (built is None) == mismatched
        _seamless(monkeypatch)
        residual, xs, ys = _float_build(g, b, target)
        assert _array_bytes(xs, ys) == want
        assert residual == extension.check_interpolation(g, b)

    @settings(max_examples=60, deadline=None)
    @given(_compatible_data())
    def test_compatible_data(self, data):
        b, g, target = data
        want, mismatched = _numpy_build(g, b, target)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_floats, "_FLOAT_NODES", extension.MAX_BREAKPOINTS)
            assert (_float_build(g, b, target) is None) == mismatched
            _seamless(mp)
            _, xs, ys = _float_build(g, b, target)
        assert _array_bytes(xs, ys) == want


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


TENT = {"breakpoints": [0, 1, 2], "values": [1, 1, -2]}

#: name -> (boundary, arguments after the boundary): calls the float engine
#: takes, then calls it hands over, each for its own reason
CALLS = {
    "tent": (TENT, ["--shifts", "[1,2]", "--range", "-3", "6", "--samples", "901"]),
    "tent_ln": (
        {"breakpoints": [0.0, math.log(2.0), math.log(3.0)], "values": [1.0, 1.0, -2.0]},
        ["--shifts", "[0.69314718055994529,1.0986122886681098]", "--range", "-4", "8"],
    ),
    "left_of_boundary": (TENT, ["--shifts", "[1,2]", "--range", "-5", "-3", "--samples", "5"]),
    "one_sample": (TENT, ["--shifts", "[1,2]", "--range", "-1e-300", "0", "--samples", "1"]),
    "incompatible": ({"breakpoints": [0, 1, 2], "values": [1, 1, 0]},
                     ["--shifts", "[1,2]", "--range", "-3", "6"]),
    # slopes of -inf and +inf next to 0: a sum is -inf + inf, which numpy warns of
    "nan_residual": ({"breakpoints": [0, 1e-300, 2e-300], "values": [1e10, -2e10, 1e10]},
                     ["--shifts", "[1e-300,2e-300]", "--range", "0", "1e-301", "--samples", "5"]),
    "seam": ({"breakpoints": STEEP_LATTICE[0], "values": STEEP_LATTICE[1]},
             ["--shifts", json.dumps([STEEP_LATTICE[0][3] * k for k in range(1, 7)]),
              "--range", "-1030", "0", "--samples", "41"]),
    "seam_past_tol": ({"breakpoints": [0, 1, 2], "values": [1, 1, -1.9]},
                      ["--shifts", "[1,2]", "--range", "-3", "6", "--tol", "0.2"]),
    "overflow": ({"breakpoints": [0, 1, 1.5], "values": [1, 1, -2]},
                 ["--shifts", "[1,1.5]", "--range", "-10", "940"]),
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

#: the calls the float engine answers itself
TAKEN = {"tent", "tent_ln", "left_of_boundary", "one_sample", "incompatible"}


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
        monkeypatch.setattr(_floats, "sampled", lambda *a: answers.append(sampled(*a)) or answers[-1])
        floats = _outcomes(tmp_path, capsys, tail, boundary)
        if name == "incompatible":
            # refused in floats, before any answer
            assert answers == [] and floats[0][0] == 3
        else:
            assert [answer is not None for answer in answers] == [name in TAKEN] * 2
        monkeypatch.setattr(_floats, "_FLOAT_READS", 0)
        assert _outcomes(tmp_path, capsys, tail, boundary) == floats

    def test_node_cap_mid_build(self, tmp_path, capsys, monkeypatch):
        # at least 27 breakpoints pass the cap; the build outgrows it at 118
        boundary, tail = CALLS["tent_ln"]
        want = _outcomes(tmp_path, capsys, tail, boundary)
        monkeypatch.setattr(_floats, "_FLOAT_NODES", 60)
        built = []
        extend_ = _floats._extend
        monkeypatch.setattr(_floats, "_extend", lambda *a: built.append(extend_(*a)) or built[-1])
        assert _outcomes(tmp_path, capsys, tail, boundary) == want
        assert built == [None, None]

    @pytest.mark.parametrize("lo, hi", [(-0.5, 1e-13), (0.0, 0.5)])
    def test_read_outside_coverage(self, monkeypatch, lo, hi):
        # an extension short of the grid's reads, which PiecewiseLinear refuses
        tent = ([0.0, 1.0, 2.0], [1.0, 1.0, -2.0])
        monkeypatch.setattr(_floats, "_extend", lambda *a: (0.0, *tent))
        args = (*tent, (1.0, 2.0), (-1.0, 3.0), 1e-9)
        assert _floats.sampled(*args, 0.0, 1e-13, 3) is not None
        assert _floats.sampled(*args, lo, hi, 3) is None
