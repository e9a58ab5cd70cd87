"""Exception hierarchy shared by all dilateq modules.

Three bases drive the CLI exit codes: ``InvalidInput`` (exit 2),
``DomainViolation`` (exit 3) and ``Nonconvergence`` (exit 4).  Integer
arguments are taken through ``_integer``, which raises the first.
"""

import operator


class DilateqError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(DilateqError, ValueError):
    """Arguments or input data fail validation before any computation."""


class DomainViolation(DilateqError, RuntimeError):
    """A mathematically required condition does not hold for the given data."""


class Nonconvergence(DilateqError, RuntimeError):
    """A numerical procedure exceeded its iteration or consistency budget."""


# -- input validation ---------------------------------------------------------

class EmptyInput(InvalidInput):
    """A coefficient or shift vector was empty."""


class UnitEntry(InvalidInput):
    """A dilation factor equal to 1 was supplied."""


class DuplicateEntry(InvalidInput):
    """Two dilation factors compare exactly equal."""


class InvalidRange(InvalidInput):
    """A scan or target range is empty, reversed or nonpositive."""


class NotCoprime(InvalidInput):
    """The rational ratio p/q was not given in lowest terms."""


class ZeroDenominator(InvalidInput):
    """The rational ratio p/q had q = 0."""


class NonPositiveScale(InvalidInput):
    """A scale factor that must be positive was not."""


class NonPositiveSample(InvalidInput):
    """A sample point that must be positive was not."""


class DomainMismatch(InvalidInput):
    """Boundary data does not live on the interval the shifts require."""


def _integer(value, name: str) -> int:
    """``operator.index(value)``: a Python or numpy integer as an int.  A float,
    even an integral one, or any other type raises InvalidInput naming the
    argument, where it would otherwise be rounded or fail deep inside."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, not {value!r}") from None


# -- domain violations --------------------------------------------------------

class InterpolationViolated(DomainViolation):
    """Boundary data fails the sum-at-the-shifts compatibility condition."""


class OutOfCoverage(DomainViolation):
    """Evaluation requested outside the constructed coverage interval."""


class CoverageBudgetExceeded(DomainViolation):
    """Extension would exceed the breakpoint budget, or its values overflow a float."""


class GridBudgetExceeded(DomainViolation):
    """A scan grid, the term tables or work of a zero search or a winding
    count, the reads of a residual grid, or a frequency list would exceed
    its budget."""


class BoundaryZero(DomainViolation):
    """The winding count cannot be certified: the power sum is not finite or
    nearly zero on the rectangle edge, or the boundary needs more samples than
    the budget allows."""


# -- nonconvergence -----------------------------------------------------------

class InternalInconsistency(Nonconvergence):
    """Merged breakpoints disagreed beyond rounding; the construction is
    numerically inconsistent."""


class IncompleteSearch(UserWarning):
    """Zero search returned fewer (or more) zeros than the winding count."""
