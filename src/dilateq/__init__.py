"""Toolkit for the dilation equation f(x) + f(a1 x) + ... + f(aN x) = 0.

Submodules: ``coefficients`` (normalization, additive bridge, regularity
index), ``extension`` (piecewise-linear global extension of boundary data),
``periodicity`` (trigonometric-system certificates), ``closedforms`` (the
equispaced and two-shift closed forms and the Fourier matrix, numpy-free),
``expsums`` (zeros of
1 + 2^z + ... + N^z and the solutions they induce), ``cli`` (command line).

The public names below are resolved on first use (PEP 562), so
``import dilateq`` loads no submodule and no numpy; ``dilateq.extend``
imports ``extension`` when it is first read.
"""

import importlib

#: public name -> submodule that defines it
_EXPORTS = {
    "CoefficientVector": "coefficients",
    "RegularityIndex": "coefficients",
    "ShiftVector": "coefficients",
    "normalize": "coefficients",
    "regularity_index": "coefficients",
    "to_additive": "coefficients",
    "ExtendedSolution": "extension",
    "PiecewiseLinear": "extension",
    "check_interpolation": "extension",
    "extend": "extension",
    "periodic_reference": "extension",
    "popoviciu_determinant": "extension",
    "residual_additive": "extension",
    "residual_multiplicative": "extension",
    "tent_boundary": "extension",
    "ComplexZero": "expsums",
    "PowerSolution": "expsums",
    "SearchRectangle": "expsums",
    "default_rectangle": "expsums",
    "find_zeros": "expsums",
    "power_sum": "expsums",
    "residual_integer_equation": "expsums",
    "solution_from_zero": "expsums",
    "winding_count": "expsums",
    "zeta_partial_sum": "expsums",
    "FourierMatrix": "closedforms",
    "PeriodicityCertificate": "periodicity",
    "TwoTermVerdict": "closedforms",
    "equispaced_alphas": "closedforms",
    "find_periodic_alphas": "periodicity",
    "fourier_matrix": "closedforms",
    "scale_shifts": "periodicity",
    "scan_minima": "periodicity",
    "system_residual": "periodicity",
    "two_term_periodic_exists": "closedforms",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
