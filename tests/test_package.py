"""The package namespace: lazy public names, what a bare import loads, and
the integer arguments every module refuses alike."""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dilateq
from dilateq import closedforms, periodicity
from dilateq.errors import InvalidInput
from dilateq.expsums import SearchRectangle

#: the public names of ``dilateq``, in ``__all__`` order
EXPORTS = [
    "CoefficientVector",
    "RegularityIndex",
    "ShiftVector",
    "normalize",
    "regularity_index",
    "to_additive",
    "ExtendedSolution",
    "PiecewiseLinear",
    "check_interpolation",
    "extend",
    "periodic_reference",
    "popoviciu_determinant",
    "residual_additive",
    "residual_multiplicative",
    "tent_boundary",
    "ComplexZero",
    "PowerSolution",
    "SearchRectangle",
    "default_rectangle",
    "find_zeros",
    "power_sum",
    "residual_integer_equation",
    "solution_from_zero",
    "winding_count",
    "zeta_partial_sum",
    "FourierMatrix",
    "PeriodicityCertificate",
    "TwoTermVerdict",
    "equispaced_alphas",
    "find_periodic_alphas",
    "fourier_matrix",
    "scale_shifts",
    "scan_minima",
    "system_residual",
    "two_term_periodic_exists",
]


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(dilateq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_bare_import_loads_no_engine():
    # in a subprocess: this process has numpy and every engine loaded
    code = "import sys, dilateq; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
        check=True, timeout=60,
    )
    loaded = set(proc.stdout.split())
    assert "dilateq" in loaded
    assert not loaded & {"numpy", "dilateq.extension", "dilateq.periodicity", "dilateq.expsums"}


def test_light_modules_load_no_dataclasses():
    # what the numpy-free subcommands import; dataclasses would bring inspect
    code = (
        "import sys, dilateq.cli, dilateq.coefficients, dilateq.closedforms; "
        "print(' '.join(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
        check=True, timeout=60,
    )
    loaded = set(proc.stdout.split())
    assert "dilateq.closedforms" in loaded
    assert not loaded & {"numpy", "dataclasses", "inspect"}


def test_all_is_pinned():
    assert dilateq.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_submodule_attribute(name):
    value = getattr(dilateq, name)
    assert getattr(importlib.import_module(value.__module__), name) is value


@pytest.mark.parametrize("name", closedforms.__all__)
def test_periodicity_reexports_closed_forms(name):
    assert getattr(periodicity, name) is getattr(closedforms, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dilateq.no_such_name
    assert not hasattr(dilateq, "no_such_name")


def test_dir_lists_exports():
    assert set(EXPORTS) <= set(dir(dilateq))


def test_star_import():
    namespace = {}
    exec("from dilateq import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert namespace["extend"] is dilateq.extend


def test_submodule_import_from_package():
    from dilateq import extension

    assert extension.extend is dilateq.extend


#: (module, function, argument, arguments) where the named argument must be an
#: integer and is not: a float is never rounded, and NaN is no integer either
RECT = SearchRectangle(-3.0, 2.0, 0.0, 5.0, 5, 5)
NON_INTEGERS = [
    ("expsums", "power_sum", "n", (2.5, 1j)),
    ("expsums", "power_sum", "n", (math.nan, 1j)),
    ("expsums", "zeta_partial_sum", "n", (3.7, 2)),
    ("expsums", "power_sum_deriv", "n", (2.5, 1j)),
    ("expsums", "newton_refine", "n", (2.5, 1 + 1j)),
    ("expsums", "find_zeros", "n", (2.5,)),
    ("expsums", "scan_modulus", "n", (2.5, RECT)),
    ("expsums", "winding_count", "n", (2.5, RECT)),
    ("expsums", "residual_integer_equation", "n", (abs, 2.5, [-1.0])),
    ("closedforms", "equispaced_alphas", "n", (2.5, 1.0, 3)),
    ("closedforms", "equispaced_alphas", "m_max", (2, 1.0, 2.5)),
    ("closedforms", "two_term_periodic_exists", "p", (2.5, 1)),
    ("closedforms", "two_term_periodic_exists", "q", (1, 2.0)),
    ("closedforms", "fourier_matrix", "k", (1.5, 1.0, (1.0,))),
    ("extension", "popoviciu_determinant", "order n", (math.cos, 0.0, 0.1, 2.5)),
    ("extension", "periodic_reference", "n", (2.5,)),
]


@pytest.mark.parametrize(
    "module, name, arg, args", NON_INTEGERS, ids=[f"{c[1]}-{c[2]}" for c in NON_INTEGERS]
)
def test_non_integer_argument_is_invalid_input(module, name, arg, args):
    func = getattr(importlib.import_module(f"dilateq.{module}"), name)
    with pytest.raises(InvalidInput, match=f"{arg} must be an integer"):
        func(*args)


def test_readme_library_example_runs(capsys):
    """README's "Library example" block runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert printed[0].startswith("RegularityIndex(m=2, ")
