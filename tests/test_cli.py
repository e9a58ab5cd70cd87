import contextlib
import hashlib
import json
import math
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilateq import power_sum
from dilateq.cli import main, to_json
from tests.test_package import src_env

TENT = '{"breakpoints": [0, 1, 2], "values": [1, 1, -2]}'
TENT_LN = json.dumps(
    {"breakpoints": [0.0, math.log(2.0), math.log(3.0)], "values": [1.0, 1.0, -2.0]}
)
BAD = '{"breakpoints": [0, 1, 2], "values": [1, 1, 0]}'


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def tent_file(tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(TENT)
    return str(path)


class TestSerializer:
    def test_seventeen_digits(self):
        assert to_json(5 / 9) == "0.55555555555555558"

    def test_fixed_key_order(self):
        assert to_json({"b": 1, "a": 2}) == '{"b": 1, "a": 2}'

    def test_null_and_bool(self):
        assert to_json({"x": None, "y": True}) == '{"x": null, "y": true}'

    def test_numpy_scalars(self):
        assert to_json(np.float64(0.1)) == "0.10000000000000001"
        assert to_json(np.float32(0.5)) == "0.5"
        assert to_json(np.int64(3)) == "3"
        assert to_json(True) == "true"


class TestRegularity:
    def test_inline(self, capsys):
        code, out, _ = run(capsys, "regularity", "[2,3]")
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 2
        assert data["contraction"] == pytest.approx(5 / 9, rel=1e-15)
        assert list(data) == ["m", "contraction", "lower_bound", "upper_bound"]

    def test_single(self, capsys):
        code, out, _ = run(capsys, "regularity", "[2]")
        assert code == 0
        assert json.loads(out)["m"] == 1

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text("[2, 3]")
        code, out, _ = run(capsys, "regularity", str(path))
        assert code == 0 and json.loads(out)["m"] == 2

    def test_unit_entry_exits_2(self, capsys):
        code, _, err = run(capsys, "regularity", "[1,2]")
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "regularity", "no_such_file.json")
        assert code == 2

    def test_nan_exits_2(self, capsys):
        code, out, err = run(capsys, "regularity", "[NaN]")
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("coeffs", ["[5e-324]", "[1e-310, 2]", "[1e-10, 1e300]"])
    def test_overflowing_normalization_exits_2(self, capsys, coeffs):
        code, out, err = run(capsys, "regularity", coeffs)
        assert (code, out) == (2, "")
        assert "overflow" in err


class TestMalformedInput:
    """Vectors and boundary files that do not parse, or parse to the wrong shape."""

    def test_invalid_json_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[2, 3")
        code, out, err = run(capsys, "regularity", path)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path} is not valid JSON: Expecting ',' delimiter: line 1 column 6 (char 5)\n"
        )

    def test_invalid_inline_json_exits_2(self, capsys):
        code, out, err = run(capsys, "regularity", "[2,")
        assert (code, out) == (2, "")
        assert err == (
            "error: inline coefficients is not valid JSON: "
            "Expecting value: line 1 column 4 (char 3)\n"
        )

    @pytest.mark.parametrize("coeffs", ['["a"]', "[2, null]", '[[2, 3]]'])
    def test_non_number_array_exits_2(self, capsys, coeffs):
        code, out, err = run(capsys, "regularity", coeffs)
        assert (code, out, err) == (
            2, "", "error: coefficients must be a JSON array of numbers\n"
        )

    @pytest.mark.parametrize("name", ["normalize", "regularity"])
    @pytest.mark.parametrize("coeffs", ["[true, 3]", "[2, false]"])
    def test_boolean_coefficient_exits_2(self, capsys, name, coeffs):
        code, out, err = run(capsys, name, coeffs)
        assert (code, out, err) == (
            2, "", "error: coefficients must be a JSON array of numbers\n"
        )

    @pytest.mark.parametrize("argv", [
        ["periodicity", "--shifts", "[true, 2]", "--alpha-max", 10],
        ["fourier-matrix", "--shifts", "[1, false]", "--k", 1, "--theta", 0.5],
    ])
    def test_boolean_shift_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: shifts must be a JSON array of numbers\n")

    @pytest.mark.parametrize("key", ["breakpoints", "values"])
    def test_boolean_in_boundary_file_exits_2(self, capsys, tmp_path, key):
        boundary = {"breakpoints": [0, 1, 2], "values": [-2, 1, 1]}
        boundary[key][1] = True
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(boundary))
        code, out, err = run(capsys, "extend", path, "--shifts", "[1,2]", "--range", -3, 6)
        assert (code, out, err) == (2, "", f"error: {key} must be a JSON array of numbers\n")

    @pytest.mark.parametrize(
        "text", ["[0, 1, 2]", '{"breakpoints": [0, 1, 2]}', '{"values": [1, 1, -2]}']
    )
    @pytest.mark.parametrize("name", ["extend", "residual", "popoviciu"])
    def test_boundary_not_an_object_exits_2(self, capsys, tmp_path, name, text):
        path = tmp_path / "boundary.json"
        path.write_text(text)
        argv = {
            "extend": ["extend", path, "--shifts", "[1,2]", "--range", -3, 6],
            "residual": ["residual", "--boundary", path, "--shifts", "[1,2]", "--range", -3, 3],
            "popoviciu": ["popoviciu", "--boundary", path, "--shifts", "[1,2]",
                          "--x", 0.5, "--h", 0.3, "--order", 3],
        }[name]
        out_file = tmp_path / "out.txt"
        code, out, err = run(capsys, *argv, "--out", out_file)
        assert (code, out) == (2, "")
        assert err == f"error: {path} must be an object with 'breakpoints' and 'values'\n"
        assert not out_file.exists()


class TestNormalize:
    def test_below_one(self, capsys):
        code, out, _ = run(capsys, "normalize", "[0.5,3]")
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [2, 6]
        assert data["shifts"] == pytest.approx([math.log(2), math.log(6)])

    def test_infinity_exits_2(self, capsys):
        code, out, _ = run(capsys, "normalize", "[Infinity,2]")
        assert code == 2 and out == ""


class TestExtend:
    def test_sample_values(self, capsys, tent_file):
        code, out, err = run(
            capsys, "extend", tent_file, "--shifts", "[1,2]",
            "--range", -3, 6, "--samples", 901,
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "w,value"
        table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
        assert table[2.5] == pytest.approx(-0.5, abs=1e-12)
        assert table[-0.5] == pytest.approx(-0.5, abs=1e-12)
        report = json.loads(err)
        assert abs(report["interpolation_residual"]) <= 1e-12
        assert report["max_additive_residual"] <= 1e-9

    def test_incompatible_boundary_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"breakpoints": [0, 1, 2], "values": [1, 1, -1.9]}')
        code, _, err = run(
            capsys, "extend", str(path), "--shifts", "[1,2]", "--range", -1, 3
        )
        assert code == 3
        assert "residual" in err

    def test_seam_mismatch_exits_4(self, capsys, tmp_path):
        # --tol lets the incompatible data through; the first left strip
        # then disagrees with the boundary where they join
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": [0, 1, 2], "values": [1, 1, -1.9]}')
        out_path = tmp_path / "dump.csv"
        code, out, err = run(
            capsys, "extend", str(bad), "--shifts", "[1,2]", "--range", -3, 6,
            "--tol", 0.2, "--out", str(out_path),
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: strip value -2 disagrees")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_zero_boundary(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"breakpoints": [0, 2], "values": [0, 0]}')
        code, out, _ = run(
            capsys, "extend", str(path), "--shifts", "[1,2]",
            "--range", -2, 4, "--samples", 11,
        )
        assert code == 0
        values = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert values == [0.0] * 11

    def test_no_partial_output_on_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": [0, 1, 2], "values": [1, 1, -1.9]}')
        out_path = tmp_path / "dump.csv"
        code, _, _ = run(
            capsys, "extend", str(bad), "--shifts", "[1,2]",
            "--range", -1, 3, "--out", str(out_path),
        )
        assert code == 3
        assert not out_path.exists()

    def test_range_left_of_the_boundary(self, capsys, tent_file):
        # the extension still covers [0, bN], which the boundary data lives on
        code, out, err = run(
            capsys, "extend", tent_file, "--shifts", "[1,2]", "--range", -5, -3, "--samples", 5,
        )
        assert (code, out) == (0, "w,value\n-5,1\n-4.5,-0.5\n-4,-2\n-3.5,-0.5\n-3,1\n")
        assert err == '{"interpolation_residual": 0, "max_additive_residual": 0}\n'
        code, out, _ = run(
            capsys, "residual", "--boundary", tent_file, "--shifts", "[1,2]",
            "--range", -5, -3, "--samples", 5,
        )
        assert (code, out) == (0, '{"max_residual": 0, "interpolation_residual": 0}\n')

    def test_overflowing_values_exit_3(self, capsys, tmp_path):
        # it exited 2 after two RuntimeWarnings from the seam check
        path = tmp_path / "tent.json"
        path.write_text('{"breakpoints": [0, 1, 1.5], "values": [1, 1, -2]}')
        out_path = tmp_path / "dump.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "extend", path, "--shifts", "[1,1.5]", "--range", -3000, 3000,
                "--out", out_path,
            )
        assert (code, out) == (3, "")
        assert err == "error: extension values or their differences overflow a float at w = 929.5\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("engine", ["floats", "numpy"])
    @pytest.mark.parametrize("name", ["extend", "residual"])
    def test_non_finite_residual_exits_3(self, capsys, monkeypatch, tmp_path, engine, name):
        # slopes of -inf and +inf next to 0 make a sum -inf + inf: it printed
        # a RuntimeWarning and "max_residual": nan, and exited 0
        from dilateq import _floats

        if engine == "numpy":
            monkeypatch.setattr(_floats, "_FLOAT_READS", 0)
        path = tmp_path / "steep.json"
        path.write_text('{"breakpoints": [0, 1e-300, 2e-300], "values": [1e10, -2e10, 1e10]}')
        out_path = tmp_path / "out.txt"
        argv = {"extend": ["extend", path], "residual": ["residual", "--boundary", path]}[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, *argv, "--shifts", "[1e-300,2e-300]", "--range", 0, 1e-301,
                "--samples", 5, "--out", out_path,
            )
        assert (code, out) == (3, "")
        assert err == (
            "error: the residual sum at w = 2.5000000000000002e-302 is nan, not a finite number\n"
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("name", ["extend", "residual"])
    def test_reversed_range_exits_2(self, capsys, tent_file, name):
        argv = {
            "extend": ["extend", tent_file],
            "residual": ["residual", "--boundary", tent_file],
        }[name]
        code, out, err = run(capsys, *argv, "--shifts", "[1,2]", "--range", 6, -3)
        assert (code, out, err) == (2, "", "error: range must satisfy lo < hi\n")

    def test_report_follows_payload(self, capsys, tent_file, tmp_path):
        # a payload that cannot be written stops the report too
        dump = tmp_path / "no" / "dump.csv"
        code, out, err = run(
            capsys, "extend", tent_file, "--shifts", "[1,2]", "--range", -3, 6, "--out", dump,
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {dump}: No such file or directory\n"

    def test_out_file(self, capsys, tent_file, tmp_path):
        out_path = tmp_path / "dump.csv"
        code, out, _ = run(
            capsys, "extend", tent_file, "--shifts", "[1,2]",
            "--range", 0, 2, "--samples", 5, "--out", str(out_path),
        )
        assert code == 0 and out == ""
        assert out_path.read_text().splitlines()[0] == "w,value"


class TestResidual:
    def test_additive(self, capsys, tent_file):
        code, out, _ = run(
            capsys, "residual", "--boundary", tent_file, "--shifts", "[1,2]",
            "--range", -3, 3, "--samples", 2001,
        )
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-9

    def test_multiplicative(self, capsys, tmp_path):
        # boundary lives on [0, ln 3] for coefficients (2, 3)
        path = tmp_path / "log_tent.json"
        path.write_text(
            json.dumps(
                {
                    "breakpoints": [0.0, math.log(2), math.log(3)],
                    "values": [1.0, 1.0, -2.0],
                }
            )
        )
        code, out, _ = run(
            capsys, "residual", "--boundary", str(path),
            "--coeffs", "[2,3]", "--range", 0.1, 10, "--samples", 500,
        )
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-9

    def test_requires_one_mode(self, capsys, tent_file):
        code, _, _ = run(
            capsys, "residual", "--boundary", tent_file, "--range", 0, 1
        )
        assert code == 2


class TestPeriodicity:
    def test_three_certificates(self, capsys):
        code, out, _ = run(capsys, "periodicity", "--shifts", "[1,2]", "--alpha-max", 10)
        assert code == 0
        certs = json.loads(out)
        assert [c["alpha"] for c in certs] == pytest.approx(
            [2 * math.pi / 3, 4 * math.pi / 3, 8 * math.pi / 3], abs=1e-10
        )
        assert all(list(c) == ["alpha", "period", "residual"] for c in certs)

    def test_infinite_alpha_max_exits_2(self, capsys):
        code, out, _ = run(capsys, "periodicity", "--shifts", "[1,2]", "--alpha-max", "inf")
        assert code == 2 and out == ""

    def test_nan_shift_exits_2(self, capsys):
        code, out, _ = run(capsys, "periodicity", "--shifts", "[1,NaN]", "--alpha-max", 10)
        assert code == 2 and out == ""

    def test_grid_over_budget_exits_3(self, capsys, tmp_path):
        out_file = tmp_path / "certs.json"
        code, out, err = run(
            capsys, "periodicity", "--shifts", "[1,2]", "--alpha-max", 10,
            "--grid-step", 1e-12, "--out", out_file,
        )
        assert code == 3 and out == "" and not out_file.exists()
        assert "10000000" in err

    def test_repeated_shifts_empty(self, capsys):
        code, out, _ = run(capsys, "periodicity", "--shifts", "[1,1]", "--alpha-max", 20)
        assert code == 0
        assert json.loads(out) == []

    def test_equispaced(self, capsys):
        code, out, _ = run(capsys, "equispaced", "--n", 2, "--d", 1, "--m-max", 4)
        assert code == 0
        assert json.loads(out) == pytest.approx([2 * math.pi / 3, 4 * math.pi / 3, 8 * math.pi / 3])

    def test_fourier_matrix(self, capsys):
        code, out, _ = run(
            capsys, "fourier-matrix", "--k", 1, "--theta", 2 * math.pi, "--shifts", "[1,2]"
        )
        assert code == 0
        data = json.loads(out)
        np.testing.assert_allclose(data["entries"], [[3, 0], [0, 3]], atol=1e-12)


class TestTwoTerm:
    def test_impossible(self, capsys):
        code, out, _ = run(capsys, "two-term", 1, 1)
        assert code == 0
        assert out.strip() == '{"exists": false, "witness": null}'

    def test_exists(self, capsys):
        code, out, _ = run(capsys, "two-term", 5, 4)
        assert code == 0
        assert json.loads(out) == {"exists": True, "witness": [1, 1]}

    def test_not_reduced_exits_2(self, capsys):
        code, _, _ = run(capsys, "two-term", 2, 2)
        assert code == 2


class TestZeros:
    def test_default_rectangle(self, capsys):
        code, out, _ = run(capsys, "zeros", "--n", 2)
        assert code == 0
        zeros = json.loads(out)
        assert [z["im"] for z in zeros] == pytest.approx(
            [math.pi / math.log(2), 3 * math.pi / math.log(2), 5 * math.pi / math.log(2)],
            abs=1e-10,
        )
        assert all(z["N"] == 2 and z["residual"] <= 1e-10 for z in zeros)

    def test_scan_csv(self, capsys, tmp_path):
        scan = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "zeros", "--n", 2, "--re-min", 0.5, "--re-max", 1.5,
            "--im-min", 1, "--im-max", 2, "--grid-re", 4, "--grid-im", 4,
            "--scan-csv", str(scan),
        )
        assert code == 0
        lines = scan.read_text().strip().splitlines()
        assert lines[0] == "re,im,abs" and len(lines) == 17

    def test_incomplete_search_warns(self, capsys):
        code, out, err = run(capsys, "zeros", "--n", 10, "--grid-re", 2, "--grid-im", 2)
        assert code == 0 and len(json.loads(out)) == 1
        assert err == (
            "warning: winding count 10 != 1 zeros found; "
            "refine the grid or shrink the rectangle\n"
        )

    def test_scan_csv_written_after_payload(self, capsys, tmp_path):
        # the same path for both: the scan, written second, is what remains
        both = tmp_path / "both.csv"
        code, out, _ = run(capsys, "zeros", "--n", 2, "--scan-csv", both, "--out", both)
        assert (code, out) == (0, "")
        assert both.read_text().startswith("re,im,abs\n")
        # a payload that cannot be written stops the scan too
        scan = tmp_path / "scan.csv"
        code, out, err = run(
            capsys, "zeros", "--n", 2, "--scan-csv", scan, "--out", tmp_path / "no" / "z.json"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write ")
        assert not scan.exists()

    def test_scan_csv_scans_once(self, capsys, tmp_path, monkeypatch):
        from dilateq import expsums

        calls = []
        scan = expsums.scan_modulus

        def counted(n, rect):
            calls.append((n, rect.grid_re, rect.grid_im))
            return scan(n, rect)

        monkeypatch.setattr(expsums, "scan_modulus", counted)
        code, _, _ = run(capsys, "zeros", "--n", 2, "--scan-csv", tmp_path / "scan.csv")
        assert code == 0
        assert calls == [(2, 61, 241)]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # the default rectangle
            (["--n", 2], "755daf909fcc70d1db634694e02de33918795a2c7546e11df3c6575d507282ce"),
            # a search that seeds twice: the CSV holds the first, 9 x 31 grid
            (
                ["--n", 30, "--grid-re", 9, "--grid-im", 31],
                "0c8673439da989f043dbe77bef0430714c7bdc7d3962e9e41f4d3d6f4e88970c",
            ),
        ],
    )
    def test_scan_csv_bytes(self, capsys, tmp_path, argv, digest):
        scan = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "zeros", *argv, "--scan-csv", scan)
        assert code == 0
        assert hashlib.sha256(scan.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "bound", ["--im-max=inf", "--re-min=-inf", "--im-min=-inf", "--re-max=nan"]
    )
    def test_non_finite_bound_exits_2(self, capsys, bound):
        code, out, err = run(capsys, "zeros", "--n", 3, bound)
        assert (code, out) == (2, "")
        assert err == "error: rectangle bounds must be finite\n"

    @pytest.mark.parametrize("bound", ["--im-max=1e300", "--re-max=1e300", "--re-min=-1e300"])
    def test_huge_bound_exits_3(self, capsys, bound):
        # the winding count refuses a boundary too long to sample before sampling it
        t0 = time.perf_counter()
        code, out, err = run(capsys, "zeros", "--n", 3, bound)
        assert (code, out) == (3, "")
        assert "samples on the boundary" in err
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("width", [["--re-min", -1, "--re-max", 1], []])
    def test_unsplittable_step_exits_3(self, capsys, width):
        # sides 1e15 up, where floats lie 0.125 apart: a step of one ulp has
        # no midpoint, and splitting it at every pass would not end in time
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "zeros", "--n", 3, *width, "--im-min", 1e15, "--im-max", 1.0000000000001e15
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: winding step at ")
        assert err.endswith(" has no midpoint between its ends\n")
        assert err.count("\n") == 1
        assert time.perf_counter() - t0 < 1.0

    def test_grid_over_budget_exits_3(self, capsys, tmp_path):
        out_file = tmp_path / "zeros.json"
        code, out, err = run(
            capsys, "zeros", "--n", 2, "--grid-re", 100000, "--grid-im", 100000,
            "--out", out_file,
        )
        assert (code, out) == (3, "")
        assert "exceeds the budget" in err
        assert not out_file.exists()


ADVERSARIAL = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308]
    ),
    st.floats(-40.0, 40.0),
)


class TestZerosFuzz:
    @settings(max_examples=60, deadline=5000)
    @given(
        n=st.integers(2, 30),
        bounds=st.tuples(ADVERSARIAL, ADVERSARIAL, ADVERSARIAL, ADVERSARIAL),
        grid=st.tuples(st.integers(2, 8), st.integers(2, 8)),
    )
    def test_exit_code_and_no_partial_files(self, n, bounds, grid):
        names = ("--re-min", "--re-max", "--im-min", "--im-max")
        argv = ["zeros", "--n", str(n), "--grid-re", str(grid[0]), "--grid-im", str(grid[1])]
        argv += [f"{name}={value!r}" for name, value in zip(names, bounds)]
        with tempfile.TemporaryDirectory() as tmp:
            out, scan = Path(tmp, "zeros.json"), Path(tmp, "scan.csv")
            code = main(argv + ["--out", str(out), "--scan-csv", str(scan)])
            assert code in (0, 2, 3, 4)
            if code == 0:
                assert json.loads(out.read_text()) is not None
                assert len(scan.read_text().splitlines()) == 1 + grid[0] * grid[1]
            else:
                assert not out.exists() and not scan.exists()


def _arg(value: float) -> str:
    """``value`` as a command-line token, a negative finite number in plain decimal.

    400 decimals give back every finite double; ``TestNegativeRange`` checks
    that the exponent forms read the same.
    """
    return f"{value:.400f}" if math.isfinite(value) and value < 0.0 else repr(value)


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses the arguments
        return exc.code


#: an integer argument: small, huge, or not an integer at all
INTEGER = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(
        ["0", "-0", str(10**30), str(-(10**30)), str(10**400), "1e3", "nan", "-inf", "2.5"]
    ),
)

#: a --range pair: adversarial, or ordinary around the origin
RANGE = st.one_of(
    st.tuples(ADVERSARIAL, ADVERSARIAL).map(sorted),
    st.tuples(st.floats(-40.0, -0.5), st.floats(0.5, 40.0)),
)


class TestExtensionFuzz:
    """extend, residual and popoviciu on adversarial numbers: a contract exit, no stray file.

    Ranges stay within a few hundred strips, or the breakpoint budget refuses
    them before any strip is built.
    """

    @staticmethod
    def _check(argv, boundary) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "boundary.json"), Path(tmp, "out.txt")
            path.write_text(json.dumps(boundary))
            argv = [str(path) if a == "{boundary}" else a for a in argv]
            code = _exit_code(argv + ["--out", str(out)])
            assert code in (0, 2, 3, 4)
            assert out.exists() == (code == 0)

    @settings(max_examples=60, deadline=5000)
    @given(
        ends=RANGE, samples=st.integers(-1, 40),
        tol=st.one_of(st.none(), ADVERSARIAL), last=st.one_of(st.just(-2.0), ADVERSARIAL),
    )
    def test_extend(self, ends, samples, tol, last):
        argv = ["extend", "{boundary}", "--shifts", "[1,2]", "--range", *map(_arg, ends),
                "--samples", str(samples)]
        argv += [] if tol is None else [f"--tol={tol!r}"]
        self._check(argv, {"breakpoints": [0.0, 1.0, 2.0], "values": [1.0, 1.0, last]})

    @settings(max_examples=60, deadline=5000)
    @given(
        ends=RANGE, samples=st.integers(-1, 40),
        multiplicative=st.booleans(), last=st.one_of(st.just(-2.0), ADVERSARIAL),
    )
    def test_residual(self, ends, samples, multiplicative, last):
        # the coefficients (2, 4) have the lattice shifts (ln 2, ln 4)
        mode = ["--coeffs", "[2,4]"] if multiplicative else ["--shifts", "[1,2]"]
        knots = (math.log(2.0), math.log(4.0)) if multiplicative else (1.0, 2.0)
        argv = ["residual", "--boundary", "{boundary}", *mode, "--range", *map(_arg, ends),
                "--samples", str(samples)]
        self._check(argv, {"breakpoints": [0.0, *knots], "values": [1.0, 1.0, last]})

    @settings(max_examples=60, deadline=5000)
    @given(x=ADVERSARIAL, h=ADVERSARIAL, order=INTEGER)
    def test_popoviciu(self, x, h, order):
        argv = ["popoviciu", "--boundary", "{boundary}", "--shifts", "[1,2]",
                f"--x={x!r}", f"--h={h!r}", "--order", order]
        self._check(argv, {"breakpoints": [0.0, 1.0, 2.0], "values": [1.0, 1.0, -2.0]})


#: subcommands with ``--range LO HI``, each followed by the range
RANGED = {
    "extend": ["extend", "{tent}", "--shifts", "[1,2]", "--samples", "7"],
    "residual": ["residual", "--boundary", "{tent}", "--shifts", "[1,2]", "--samples", "7"],
    "mora-solution": [
        "mora-solution", "--n", "2", "--re", "0", "--im", repr(math.pi / math.log(2)),
        "--samples", "7",
    ],
}


class TestNegativeRange:
    """``--range`` reads a negative number in any float syntax as a value."""

    @pytest.mark.parametrize("name", sorted(RANGED))
    @pytest.mark.parametrize("lo", ["-1e1", "-1E+1", "-1.0e1", "-.1e2"])
    def test_exponent_form_reads_like_decimal(self, capsys, tent_file, name, lo):
        argv = [tent_file if a == "{tent}" else a for a in RANGED[name]]
        plain = run(capsys, *argv, "--range", "-10", "5")
        assert plain[0] == 0
        assert run(capsys, *argv, "--range", lo, "5") == plain

    @pytest.mark.parametrize(
        "name, code, message",
        [
            ("extend", 3, "an infinite target needs unboundedly many breakpoints"),
            ("residual", 3, "an infinite target needs unboundedly many breakpoints"),
            ("mora-solution", 2, "--range must be finite"),
        ],
    )
    def test_minus_inf_reaches_validation(self, capsys, tent_file, name, code, message):
        argv = [tent_file if a == "{tent}" else a for a in RANGED[name]]
        assert run(capsys, *argv, "--range", "-inf", "5") == (code, "", f"error: {message}\n")


class _Overtime(BaseException):
    """Raised by the alarm; ``main`` catches only ``Exception``, so this gets through."""


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail a call still running after ``seconds`` instead of waiting on it."""

    def ring(signum, frame):
        raise _Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: a JSON array of adversarial numbers; Python's json reads NaN and Infinity
VECTOR = st.lists(ADVERSARIAL, max_size=4).map(json.dumps)


class TestSubcommandFuzz:
    """The other seven subcommands on adversarial numbers: a contract exit, no stray file.

    Grids stay small: the frequency scan's step is at least 0.01 or a step
    its budget refuses, and ``--m-max`` lists at most a dozen frequencies.
    """

    @staticmethod
    def _check(argv) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out.txt")
            with _deadline(10.0):
                code = _exit_code(argv + ["--out", str(out)])
            assert code in (0, 2, 3, 4)
            assert out.exists() == (code == 0)

    @settings(max_examples=60, deadline=5000)
    @given(
        shifts=VECTOR, alpha_max=ADVERSARIAL,
        step=st.one_of(st.none(), ADVERSARIAL.filter(lambda v: not 0.0 < v < 0.01)),
        tol=st.one_of(st.none(), ADVERSARIAL),
    )
    def test_periodicity(self, shifts, alpha_max, step, tol):
        argv = ["periodicity", "--shifts", shifts, f"--alpha-max={alpha_max!r}"]
        argv += [] if step is None else [f"--grid-step={step!r}"]
        argv += [] if tol is None else [f"--tol={tol!r}"]
        self._check(argv)

    @settings(max_examples=60, deadline=5000)
    @given(
        n=st.integers(-1, 12),
        z=st.one_of(st.tuples(ADVERSARIAL, ADVERSARIAL), st.just((0.0, math.pi / math.log(2)))),
        ends=RANGE, samples=st.integers(-1, 40),
    )
    def test_mora_solution(self, n, z, ends, samples):
        argv = ["mora-solution", "--n", str(n), f"--re={z[0]!r}", f"--im={z[1]!r}",
                "--range", *map(repr, ends), "--samples", str(samples)]
        self._check(argv)

    @settings(max_examples=60, deadline=5000)
    @given(k=INTEGER, theta=ADVERSARIAL, shifts=VECTOR)
    def test_fourier_matrix(self, k, theta, shifts):
        self._check(["fourier-matrix", "--k", k, f"--theta={theta!r}", "--shifts", shifts])

    @settings(max_examples=60, deadline=5000)
    @given(n=INTEGER, d=ADVERSARIAL, m_max=INTEGER.filter(lambda v: len(v) < 4))
    def test_equispaced(self, n, d, m_max):
        # the frequency list is m_max long
        self._check(["equispaced", "--n", n, f"--d={d!r}", "--m-max", m_max])

    @settings(max_examples=60, deadline=5000)
    @given(name=st.sampled_from(["regularity", "normalize"]), coeffs=VECTOR)
    def test_coefficients(self, name, coeffs):
        self._check([name, coeffs])

    @settings(max_examples=60, deadline=5000)
    @given(p=INTEGER, q=INTEGER)
    def test_two_term(self, p, q):
        self._check(["two-term", p, q])


@pytest.mark.parametrize(
    "argv, code",
    [
        (["mora-solution", "--n", "2", "--re", "0", "--im", "4.532360141827194",
          "--range", "-1e308", "-1"], 2),
        (["residual", "--boundary", "tent_ln.json", "--coeffs", "[2,3]",
          "--range", "1e300", "1e308", "--samples", "3"], 3),
    ],
)
def test_overflowing_multiples_exit_with_one_line(tmp_path, argv, code):
    # k x and a_k x overflow for the largest points: refused before they are
    # read, with no numpy warning on stderr
    (tmp_path / "tent_ln.json").write_text(
        json.dumps({"breakpoints": [0.0, math.log(2), math.log(3)], "values": [1.0, 1.0, -2.0]})
    )
    proc = subprocess.run(
        [sys.executable, "-m", "dilateq", *argv],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("error: the point ") and proc.stderr.count("\n") == 1
    assert "x overflows a float at " in proc.stderr


class TestMoraSolution:
    def test_known_zero(self, capsys):
        code, out, err = run(
            capsys, "mora-solution", "--n", 2,
            "--re", 0.0, "--im", math.pi / math.log(2),
            "--range", -4, 4, "--samples", 9,
        )
        assert code == 0
        rows = dict(
            (float(r.split(",")[0]), float(r.split(",")[1]))
            for r in out.strip().splitlines()[1:]
        )
        assert rows[-1.0] == 1.0
        assert rows[-2.0] == pytest.approx(-1.0, rel=1e-12)
        assert rows[3.0] == 0.0
        assert json.loads(err)["equation_residual"] <= 1e-10

    def test_not_a_zero_exits_3(self, capsys):
        code, _, _ = run(capsys, "mora-solution", "--n", 2, "--re", 0.0, "--im", 1.0)
        assert code == 3

    def test_overflowing_modulus_exits_3(self, capsys):
        # the sum's parts are finite, but its modulus is past the float range
        g = power_sum(3, complex(646.2, 0.7149))
        assert math.isfinite(g.real) and math.isfinite(g.imag)
        code, out, err = run(
            capsys, "mora-solution", "--n", 3, "--re", 646.2, "--im", 0.7149, "--range", -5, 5
        )
        assert (code, out) == (3, "")
        assert err == "error: (646.2+0.7149j) is not a zero: |sum| = inf exceeds 1e-10\n"


    def test_reversed_range_exits_2(self, capsys):
        code, out, err = run(
            capsys, "mora-solution", "--n", 2, "--re", 0, "--im", 4.532360141827194,
            "--range", 5, -5,
        )
        assert (code, out, err) == (2, "", "error: range must satisfy lo < hi\n")

    def test_overflowing_width_exits_2_with_one_line(self, tmp_path):
        # hi - lo overflows: refused before sampling, with no numpy warning
        argv = ["mora-solution", "--n", "2", "--re", "0", "--im", "4.532360141827194",
                "--range", "-1e308", "1e308"]
        proc = subprocess.run(
            [sys.executable, "-m", "dilateq", *argv],
            cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: --range -1e+308 1e+308 is wider than a float holds\n"

    def test_report_follows_payload(self, capsys, tmp_path):
        # a payload that cannot be written stops the report too
        dump = tmp_path / "no" / "m.csv"
        code, out, err = run(
            capsys, "mora-solution", "--n", 2, "--re", 0, "--im", 4.532360141827194,
            "--out", dump,
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {dump}: No such file or directory\n"


class TestPopoviciu:
    def test_tent_determinant(self, capsys, tent_file):
        code, out, _ = run(
            capsys, "popoviciu", "--boundary", tent_file, "--shifts", "[1,2]",
            "--x", 0.5, "--h", 0.3, "--order", 3,
        )
        assert code == 0
        assert json.loads(out)["det"] == pytest.approx(-0.3078, abs=1e-12)

    def test_samples_inside_the_boundary(self, capsys, tent_file):
        # the samples span [0.2, 0.6]; the extension still covers [0, bN]
        code, out, _ = run(
            capsys, "popoviciu", "--boundary", tent_file, "--shifts", "[1,2]",
            "--x", 0.2, "--h", 0.1, "--order", 2,
        )
        assert (code, out) == (0, '{"det": 0}\n')

    def test_huge_step_refused_by_budget(self, capsys, tent_file):
        # the samples span 6e300: extension refuses before building any strip
        code, out, _ = run(
            capsys, "popoviciu", "--boundary", tent_file, "--shifts", "[1,2]",
            "--x", 0.5, "--h", 1e300, "--order", 3,
        )
        assert code == 3
        assert out == ""


class TestHugeIntegers:
    """Integers no float holds end in a contract exit, with no traceback and no file."""

    @pytest.mark.parametrize(
        "argv, exit_code, message",
        [
            (["fourier-matrix", "--k", str(10**400), "--theta", "0.5", "--shifts", "[1,2]"],
             2, "too large for a float"),
            (["popoviciu", "--boundary", "{tent}", "--shifts", "[1,2]", "--x", "0.5",
              "--h", "0.3", "--order", str(10**400)], 3, "Hankel matrix"),
        ],
    )
    def test_refused(self, capsys, tent_file, tmp_path, argv, exit_code, message):
        out = tmp_path / "out.txt"
        argv = [tent_file if a == "{tent}" else a for a in argv]
        code, stdout, err = run(capsys, *argv, "--out", out)
        assert code == exit_code
        assert message in err and "internal" not in err
        assert stdout == "" and not out.exists()

    def test_order_budget(self, capsys, tent_file):
        # 1024^2 entries is the budget; one order more is refused before sampling
        common = ["popoviciu", "--boundary", tent_file, "--shifts", "[1,2]",
                  "--x", 0.5, "--h", 1e-3]
        assert run(capsys, *common, "--order", 1024)[0] == 3
        assert run(capsys, *common, "--order", 1023)[0] == 0


class TestGlobalFlags:
    def test_seed_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["regularity", "[2,3]", "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tol_must_be_positive(self, capsys, tol):
        code, out, err = run(
            capsys, "periodicity", "--shifts", "[1,2]", "--alpha-max", "10", "--tol", tol
        )
        assert (code, out, err) == (2, "", "error: --tol must be positive\n")

    def test_tol_is_refused_where_it_is_not_read(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["regularity", "[2,3]", "--tol", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestUnwritableOutput:
    """A target that cannot be written exits 2 before anything is written:
    one stderr line, nothing on stdout, no file changed."""

    @pytest.mark.parametrize("argv", [
        ["regularity", "[2,3]"],
        ["extend", "{tent}", "--shifts", "[1,2]", "--range", "-3", "6"],
        ["zeros", "--n", "2", "--scan-csv", "{kept}"],
    ])
    @pytest.mark.parametrize("target, reason", [
        ("no/out.txt", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_out(self, capsys, tmp_path, tent_file, argv, target, reason):
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        path = tmp_path / target
        argv = [{"{tent}": tent_file, "{kept}": str(kept)}.get(a, a) for a in argv]
        code, out, err = run(capsys, *argv, "--out", path)
        assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")
        assert kept.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "tent.json"]

    @pytest.mark.parametrize("target, reason", [
        ("no/scan.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_scan_csv(self, capsys, tmp_path, target, reason):
        # it printed the zeros, then exited 1 with FileNotFoundError
        path = tmp_path / target
        code, out, err = run(capsys, "zeros", "--n", 2, "--scan-csv", path)
        assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")
        assert list(tmp_path.iterdir()) == []

    def test_opened_targets_are_left_as_they_were(self, capsys, tmp_path):
        # --out opens first: an existing file keeps its text, a new one is removed
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text("old\n")
        for out in (old, new):
            code, _, err = run(
                capsys, "zeros", "--n", 2, "--out", out, "--scan-csv", tmp_path / "no" / "s.csv"
            )
            assert code == 2 and err.startswith("error: cannot write ")
        assert old.read_text() == "old\n" and not new.exists()


class TestInternalError:
    """Any exception outside the contract's three exits 1 with one stderr line."""

    @pytest.mark.parametrize(
        "exc, line",
        [
            (
                RuntimeError("engine broke\n  on two lines"),
                "error: internal: RuntimeError: engine broke on two lines\n",
            ),
            (MemoryError(), "error: internal: MemoryError: \n"),
        ],
    )
    def test_exits_1_without_traceback(self, capsys, monkeypatch, tmp_path, exc, line):
        from dilateq import cli

        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_regularity", broken)
        out_file = tmp_path / "out.json"
        code, out, err = run(capsys, "regularity", "[2,3]", "--out", out_file)
        assert (code, out, err) == (1, "", line)
        assert not out_file.exists()

    def test_interrupt_is_not_caught(self, monkeypatch):
        from dilateq import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_regularity", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["regularity", "[2,3]"])


class TestReproducibility:
    def test_byte_identical_runs(self, capsys):
        first = run(capsys, "periodicity", "--shifts", "[1,2]", "--alpha-max", 10)
        second = run(capsys, "periodicity", "--shifts", "[1,2]", "--alpha-max", 10)
        assert first == second

    def test_module_entry_point(self):
        cmd = [sys.executable, "-m", "dilateq", "zeros", "--n", "2"]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout


class TestRefusedBeforeWork:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mora-solution", "--n", 2, "--re", "nan", "--im", 1],
            ["mora-solution", "--n", 2, "--re", 0, "--im", "inf"],
            ["fourier-matrix", "--k", 1, "--theta", "nan", "--shifts", "[1,2]"],
            ["fourier-matrix", "--k", 1, "--theta", "inf", "--shifts", "[1,2]"],
            ["equispaced", "--n", 2, "--d", "inf", "--m-max", 2],
            ["equispaced", "--n", 2, "--d", "nan", "--m-max", 2],
        ],
    )
    def test_non_finite_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("samples", [-1, 0])
    @pytest.mark.parametrize(
        "argv",
        [
            ["extend", "{tent}", "--shifts", "[1,2]", "--range", -3, 6],
            ["residual", "--boundary", "{tent}", "--shifts", "[1,2]", "--range", -3, 3],
            ["mora-solution", "--n", 2, "--re", 0, "--im", math.pi / math.log(2)],
        ],
    )
    def test_samples_below_one_exits_2(self, capsys, tent_file, argv, samples):
        argv = [tent_file if a == "{tent}" else a for a in argv]
        code, out, err = run(capsys, *argv, "--samples", samples)
        assert code == 2 and out == ""
        assert "--samples" in err


class TestEquispacedRefusals:
    @pytest.mark.parametrize(
        "n, d",
        [
            # the frequencies overflow: it printed [inf, inf] with exit 0
            (2, 5e-324),
            # (n + 1) * d overflows, so every frequency read 0: it printed [0]
            (1, 1e308),
            # n + 1 is no float: an internal OverflowError, exit 1
            (10**400, 1.0),
        ],
    )
    def test_exits_2(self, capsys, tmp_path, n, d):
        out_file = tmp_path / "out.json"
        code, out, err = run(
            capsys, "equispaced", "--n", n, "--d", repr(d), "--m-max", 2, "--out", out_file
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "internal" not in err
        assert not out_file.exists()

    def test_reproducer_ends_at_once(self):
        argv = [sys.executable, "-m", "dilateq", "equispaced", "--n", "2", "--d", "5e-324",
                "--m-max", "2"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=src_env(), capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - t0 < 5.0
        assert (proc.returncode, proc.stdout) == (2, "")

    def test_m_max_budget(self, capsys, monkeypatch):
        from dilateq import closedforms

        code, out, err = run(capsys, "equispaced", "--n", 2, "--d", 1, "--m-max", 10**6 + 1)
        assert (code, out) == (3, "")
        assert "budget of 1000000" in err
        monkeypatch.setattr(closedforms, "MAX_FREQUENCIES", 4)
        assert run(capsys, "equispaced", "--n", 2, "--d", 1, "--m-max", 4)[0] == 0
        # refused before the list is built: range() is never asked for 10**30 items
        code, out, _ = run(capsys, "equispaced", "--n", 2, "--d", 1, "--m-max", 10**30)
        assert (code, out) == (3, "")


class TestTermBudget:
    """``zeros`` and ``mora-solution`` check budgets that grow with n before any work."""

    def test_zeros(self, capsys, monkeypatch):
        from dilateq import expsums

        monkeypatch.setattr(expsums, "_MAX_TABLE_TERMS", (61 + 241) * 10)
        assert run(capsys, "zeros", "--n", 10)[0] == 0
        monkeypatch.setattr(expsums, "_log_table", lambda n: pytest.fail("allocated"))
        code, out, err = run(capsys, "zeros", "--n", 11)
        assert (code, out) == (3, "")
        assert "radial table and phase rows of (61 + 241) x 11 terms exceed" in err

    @pytest.mark.parametrize("budget", ["_MAX_TABLE_TERMS", "_MAX_TERMS"])
    def test_mora_solution(self, capsys, monkeypatch, budget):
        from dilateq import expsums

        argv = ["mora-solution", "--re", 0, "--im", math.pi / math.log(2), "--samples", 10]
        # 1 + 2^z vanishes at i pi / ln 2; 1 + 2^z + 3^z does not, but is refused first
        monkeypatch.setattr(expsums, budget, 20 if budget == "_MAX_TERMS" else 2)
        assert run(capsys, *argv, "--n", 2)[0] == 0
        monkeypatch.setattr(expsums, "power_sum", lambda n, z: pytest.fail("summed"))
        code, out, err = run(capsys, *argv, "--n", 3)
        assert (code, out) == (3, "")
        assert "exceed the budget" in err


class TestSamplesBudget:
    """``extend`` and ``residual`` check --samples times N + 1 reads before any work."""

    ARGV = {
        "extend": ["extend", "{tent}", "--shifts", "[1,2]", "--range", -3, 6],
        "residual": ["residual", "--boundary", "{tent}", "--shifts", "[1,2]", "--range", -3, 6],
        "residual-coeffs": ["residual", "--boundary", "{log_tent}", "--coeffs", "[2,4]",
                            "--range", 0.5, 6],
    }

    @staticmethod
    def _argv(argv, tent_file, tmp_path):
        # the tent on the shifts ln 2 and ln 4 of the factors (2, 4)
        log_tent = tmp_path / "log_tent.json"
        log_tent.write_text(json.dumps(
            {"breakpoints": [0.0, math.log(2.0), math.log(4.0)], "values": [1.0, 1.0, -2.0]}
        ))
        paths = {"{tent}": tent_file, "{log_tent}": str(log_tent)}
        return [paths.get(a, a) for a in argv]

    @pytest.mark.parametrize("name", sorted(ARGV))
    def test_reproducer_exits_3(self, capsys, tmp_path, tent_file, name):
        # it exited 1 with "MemoryError: Unable to allocate 72.8 TiB"
        out_file = tmp_path / "out.csv"
        argv = self._argv(self.ARGV[name], tent_file, tmp_path)
        code, out, err = run(capsys, *argv, "--samples", 10_000_000_000_000, "--out", out_file)
        assert (code, out) == (3, "")
        assert "10000000000000 samples x 3 reads exceed the budget" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("name", sorted(ARGV))
    def test_refused_before_extending(self, capsys, monkeypatch, tmp_path, tent_file, name):
        from dilateq import _floats, extension

        argv = self._argv(self.ARGV[name], tent_file, tmp_path)
        monkeypatch.setattr(_floats, "_MAX_READS", 30)
        assert run(capsys, *argv, "--samples", 10)[0] == 0
        # neither engine extends
        monkeypatch.setattr(extension, "extend", lambda *a, **k: pytest.fail("extended"))
        monkeypatch.setattr(_floats, "_grow", lambda *a, **k: pytest.fail("extended"))
        code, out, err = run(capsys, *argv, "--samples", 11)
        assert (code, out) == (3, "")
        assert "11 samples x 3 reads exceed the budget of 30 reads" in err

    @pytest.mark.parametrize("residual", ["residual_additive", "residual_multiplicative"])
    def test_library_residuals(self, monkeypatch, residual):
        from dilateq import _floats, extension
        from dilateq.errors import GridBudgetExceeded

        monkeypatch.setattr(_floats, "_MAX_READS", 30)
        grid = np.linspace(1.0, 2.0, 11)
        with pytest.raises(GridBudgetExceeded, match="11 samples x 3 reads"):
            getattr(extension, residual)(lambda x: pytest.fail("read"), [1.0, 2.0], grid)
        assert getattr(extension, residual)(lambda x: 0.0 * x, [1.0, 2.0], grid[:10]) == 0.0


ENGINES = {"numpy", "dilateq.extension", "dilateq.periodicity", "dilateq.expsums"}


def _imports(argv, cwd):
    """Exit code and imported module names of ``python -X importtime -m dilateq argv``.

    Runs in a subprocess: this process has numpy and every engine loaded.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dilateq", *argv],
        cwd=cwd, env=src_env(), capture_output=True, text=True, timeout=60,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, names


class TestImportWeight:
    """Each subcommand imports only what it runs: a new module-level numpy or
    engine import on the light path fails here."""

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["regularity", "[2,3]"], 0),
            (["normalize", "[0.5,3]"], 0),
            (["equispaced", "--n", "2", "--d", "1", "--m-max", "4"], 0),
            (["two-term", "5", "4"], 0),
            (["two-term", "3", "6"], 2),
            (["regularity", "[NaN]"], 2),
            (["fourier-matrix", "--k", "1", "--theta", "2", "--shifts", "[1,2]"], 0),
        ],
    )
    def test_light_subcommand_imports_no_numpy(self, tmp_path, argv, exit_code):
        code, names = _imports(argv, tmp_path)
        assert code == exit_code
        assert "dilateq.cli" in names
        assert not names & ENGINES
        assert not names & {"dataclasses", "inspect"}

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["extend", "tent.json", "--shifts", "[1,2]", "--range", "-3", "6", "--samples", "901",
              "--out", "samples.csv"], 0),
            (["extend", "tent_ln.json", "--shifts", "[0.69314718055994529,1.0986122886681098]",
              "--range", "-4", "8", "--samples", "2001"], 0),
            (["residual", "--boundary", "tent.json", "--shifts", "[1,2]", "--range", "-3", "3"], 0),
            (["extend", "bad.json", "--shifts", "[1,2]", "--range", "-3", "6"], 3),
            # tent data on three and four log shifts, whose seams' two values differ
            *(
                (argv + ["--shifts", json.dumps([math.log(p) for p in primes]),
                         "--range", "-6", "9"], 0)
                for primes in [(2, 3, 5), (3, 5, 7), (2, 3, 5, 7)]
                for argv in (["extend", f"ln{len(primes)}{primes[0]}.json"],
                             ["residual", "--boundary", f"ln{len(primes)}{primes[0]}.json"])
            ),
        ],
    )
    def test_float_engine_imports_no_numpy(self, tmp_path, argv, exit_code):
        for name, text in (("tent.json", TENT), ("tent_ln.json", TENT_LN), ("bad.json", BAD)):
            (tmp_path / name).write_text(text)
        for primes in [(2, 3, 5), (3, 5, 7), (2, 3, 5, 7)]:
            tent = {"breakpoints": [0.0, math.log(primes[-2]), math.log(primes[-1])],
                    "values": [1.0, 1.0, -float(len(primes))]}
            (tmp_path / f"ln{len(primes)}{primes[0]}.json").write_text(json.dumps(tent))
        code, names = _imports(argv, tmp_path)
        assert code == exit_code
        assert "dilateq._floats" in names
        assert not names & ENGINES

    @pytest.mark.parametrize(
        "argv, engine",
        [
            (["residual", "--boundary", "tent_ln.json", "--coeffs", "[2,3]", "--range", "0.1", "10"],
             "dilateq.extension"),
            # past the float engine's read limit
            (["extend", "tent.json", "--shifts", "[1,2]", "--range", "-3", "6",
              "--samples", "30000"], "dilateq.extension"),
            (["popoviciu", "--boundary", "tent.json", "--shifts", "[1,2]",
              "--x", "0.5", "--h", "0.3", "--order", "3"], "dilateq.extension"),
            (["periodicity", "--shifts", "[1,2]", "--alpha-max", "10"], "dilateq.periodicity"),
            (["periodicity", "--shifts", "[1,2,3]", "--alpha-max", "10", "--out", "certs.json"],
             "dilateq.periodicity"),
            (["zeros", "--n", "2"], "dilateq.expsums"),
            (["mora-solution", "--n", "2", "--re", "0", "--im", "4.532360141827194"],
             "dilateq.expsums"),
        ],
    )
    def test_heavy_subcommand_imports_its_engine_only(self, tmp_path, argv, engine):
        (tmp_path / "tent.json").write_text(TENT)
        (tmp_path / "tent_ln.json").write_text(TENT_LN)
        code, names = _imports(argv, tmp_path)
        assert code == 0
        assert names & ENGINES == {"numpy", engine}
        # every record is a Frozen subclass; numpy itself brings inspect
        assert "dataclasses" not in names
