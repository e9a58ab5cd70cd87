"""Toolkit for the dilation equation f(x) + f(a1 x) + ... + f(aN x) = 0.

Submodules: ``coefficients`` (normalization, additive bridge, regularity
index), ``extension`` (piecewise-linear global extension of boundary data),
``periodicity`` (trigonometric-system certificates), ``expsums`` (zeros of
1 + 2^z + ... + N^z and the solutions they induce), ``cli`` (command line).
"""

from .coefficients import (
    CoefficientVector,
    RegularityIndex,
    ShiftVector,
    normalize,
    regularity_index,
    to_additive,
)
from .extension import (
    ExtendedSolution,
    PiecewiseLinear,
    check_interpolation,
    extend,
    periodic_reference,
    popoviciu_determinant,
    residual_additive,
    residual_multiplicative,
    tent_boundary,
)
from .expsums import (
    ComplexZero,
    PowerSolution,
    SearchRectangle,
    default_rectangle,
    find_zeros,
    power_sum,
    residual_integer_equation,
    solution_from_zero,
    winding_count,
    zeta_partial_sum,
)
from .periodicity import (
    FourierMatrix,
    PeriodicityCertificate,
    TwoTermVerdict,
    equispaced_alphas,
    find_periodic_alphas,
    fourier_matrix,
    scale_shifts,
    scan_minima,
    system_residual,
    two_term_periodic_exists,
)

__version__ = "0.1.0"
