"""Every dilateq record behaves as the frozen dataclass it replaced."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from dilateq.closedforms import TwoTermVerdict, two_term_periodic_exists
from dilateq.coefficients import (
    CoefficientVector,
    RegularityIndex,
    ShiftVector,
    normalize,
    regularity_index,
)
from dilateq.errors import EmptyInput, InvalidInput
from dilateq.expsums import (
    ComplexZero,
    PowerSolution,
    SearchRectangle,
    default_rectangle,
    find_zeros,
    solution_from_zero,
)
from dilateq.extension import ExtendedSolution, extend, tent_boundary
from dilateq.periodicity import (
    FourierMatrix,
    PeriodicityCertificate,
    find_periodic_alphas,
    fourier_matrix,
)

B12 = ShiftVector((1.0, 2.0))
ZERO, ZERO_2 = find_zeros(2)[:2]
CERT, CERT_2 = find_periodic_alphas([1, 2], 10)[:2]
MATRIX = fourier_matrix(1, 2 * math.pi / 3, [1, 2])
SOLUTION = extend(tent_boundary(B12), B12, (-3.0, 6.0))

#: record, an equal copy built apart, a record of the same class that differs
CASES = {
    "CoefficientVector": (
        normalize([2, 3]),
        CoefficientVector((2.0, 3.0)),
        CoefficientVector((2.0, 5.0)),
    ),
    "ShiftVector": (ShiftVector((0.5, 1.0)), ShiftVector((0.5, 1.0)), ShiftVector((0.5,))),
    "RegularityIndex": (
        regularity_index(normalize([2, 3])),
        RegularityIndex(m=2, contraction=5 / 9, lower_bound=0.5, upper_bound=3.0),
        RegularityIndex(2, 5 / 9, 0.5, 4.0),
    ),
    "TwoTermVerdict": (
        two_term_periodic_exists(5, 4),
        TwoTermVerdict(True, (1, 1), "p = 2+3k, q = 1+3m"),
        two_term_periodic_exists(3, 5),
    ),
    "SearchRectangle": (
        default_rectangle(),
        SearchRectangle(-3.0, 2.0, 0.0, 30.0, 61, 241),
        SearchRectangle(-3.0, 2.0, 0.0, 30.0, grid_im=121),
    ),
    "ComplexZero": (
        ZERO,
        ComplexZero(z=ZERO.z, modulus_residual=ZERO.modulus_residual, n=2),
        ZERO_2,
    ),
    "PowerSolution": (
        solution_from_zero(ZERO),
        PowerSolution(alpha=ZERO.z, n=2),
        solution_from_zero(ZERO_2),
    ),
    "PeriodicityCertificate": (
        CERT,
        PeriodicityCertificate(CERT.alpha, CERT.period, CERT.system_residual),
        CERT_2,
    ),
    "FourierMatrix": (
        MATRIX,
        FourierMatrix(entries=MATRIX.entries),
        fourier_matrix(1, 0.5, [1, 2]),
    ),
    # PiecewiseLinear compares by identity: the equal copy shares the pieces
    "ExtendedSolution": (
        SOLUTION,
        ExtendedSolution(SOLUTION.shifts, SOLUTION.boundary, SOLUTION.covered, SOLUTION.pieces),
        extend(tent_boundary(B12), B12, (-3.0, 6.0)),
    ),
}


def _dataclass_twin(record):
    """A frozen dataclass of the same name and fields holding the same values."""
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    return twin(*(getattr(record, name) for name in cls.__slots__))


@pytest.mark.parametrize("name", list(CASES))
class TestFrozenRecord:
    def test_equality(self, name):
        record, same, other = CASES[name]
        assert record == same and not record != same
        assert record != other
        # like a dataclass: never equal to a plain tuple of its fields
        assert record != record._fields()

    def test_hash(self, name):
        record, same, _ = CASES[name]
        assert hash(record) == hash(same)
        assert len({record, same}) == 1

    def test_matches_a_frozen_dataclass(self, name):
        record = CASES[name][0]
        twin = _dataclass_twin(record)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)

    def test_fields_cannot_change(self, name):
        record, same, _ = CASES[name]
        for field in type(record).__slots__:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(record, field, None)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == same

    def test_pickle_and_copy(self, name):
        record = CASES[name][0]
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record)
            if name == "ExtendedSolution":
                # a cloned PiecewiseLinear is a new object: compare what it computes
                w = np.linspace(-3.0, 6.0, 91)
                np.testing.assert_array_equal(clone(w), record(w))
                assert (clone.shifts, clone.covered) == (record.shifts, record.covered)
            else:
                assert clone == record


def test_class_mismatch_is_not_equal():
    # same field values, different record types
    assert CoefficientVector((2.0, 3.0)) != ShiftVector((2.0, 3.0))


def test_validation_still_runs_on_construction():
    with pytest.raises(InvalidInput, match="increasing"):
        CoefficientVector((3.0, 2.0))
    with pytest.raises(EmptyInput):
        ShiftVector(())


def test_exact_repr():
    assert repr(normalize([2, 3])) == "CoefficientVector(entries=(2.0, 3.0))"
    assert repr(two_term_periodic_exists(5, 4)) == (
        "TwoTermVerdict(exists=True, witness=(1, 1), reason='p = 2+3k, q = 1+3m')"
    )
    assert repr(default_rectangle()) == (
        "SearchRectangle(re_min=-3.0, re_max=2.0, im_min=0.0, im_max=30.0, "
        "grid_re=61, grid_im=241)"
    )
    # continuous_at_zero is derived from alpha, so it is not printed
    assert repr(PowerSolution(alpha=1 + 2j, n=2)) == "PowerSolution(alpha=(1+2j), n=2)"


@pytest.mark.parametrize("alpha, continuous", [(1 + 2j, True), (2j, False), (-1 + 2j, False)])
def test_continuity_at_zero_is_derived(alpha, continuous):
    solution = PowerSolution(alpha, 2)
    assert solution.continuous_at_zero is continuous
    assert pickle.loads(pickle.dumps(solution)).continuous_at_zero is continuous
    with pytest.raises(AttributeError):
        solution.continuous_at_zero = not continuous


def test_fields_by_position_or_name():
    assert RegularityIndex(2, 0.5, lower_bound=0.25, upper_bound=3.0) == RegularityIndex(
        upper_bound=3.0, lower_bound=0.25, contraction=0.5, m=2
    )


@pytest.mark.parametrize(
    "args, named",
    [
        ((True, None), {}),  # a field missing
        ((True, None, "r", "extra"), {}),  # a value too many
        ((True, None, "r"), {"exists": False}),  # a field given twice
        ((True, None, "r"), {"note": ""}),  # an unknown field
    ],
)
def test_wrong_fields_raise_type_error(args, named):
    with pytest.raises(TypeError, match="takes the fields exists, witness, reason"):
        TwoTermVerdict(*args, **named)


@pytest.mark.parametrize("n", [2.5, 2.0, "x", None, 1, True, -3])
def test_order_is_an_integer_of_at_least_two(n):
    # both records took any n
    with pytest.raises(InvalidInput, match="n"):
        PowerSolution(alpha=1 + 1j, n=n)
    with pytest.raises(InvalidInput, match="n"):
        ComplexZero(z=0.5 + 3j, modulus_residual=0.0, n=n)


@pytest.mark.parametrize("n", [np.int64(3), np.uint8(2), 5])
def test_numpy_integer_orders_are_accepted(n):
    records = [PowerSolution(alpha=1 + 1j, n=n), ComplexZero(z=0.5 + 3j, modulus_residual=0.0, n=n)]
    for record in records:
        assert record.n == n
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert clone == record
