import math

import numpy as np
import pytest

from beurling import (BeurlingError, GridMismatchError, LogGrid, Measure,
                      ParameterError, RangeError)


def test_grid_validation():
    with pytest.raises(ValueError):
        LogGrid(0.0, 10)
    with pytest.raises(ValueError):
        LogGrid(-0.1, 10)
    with pytest.raises(ValueError):
        LogGrid(float("nan"), 10)
    with pytest.raises(ValueError):
        LogGrid(0.1, 0)
    with pytest.raises(ValueError):
        LogGrid(0.1, 2.5)


def test_grid_validation_raises_typed_error():
    for h, n in ((-1.0, 10), (0.1, 0)):
        with pytest.raises(ParameterError) as exc:
            LogGrid(h, n)
        assert isinstance(exc.value, BeurlingError)


def test_log_end():
    assert LogGrid(0.5, 21).log_end == pytest.approx(10.5)


def test_index_of_log_is_floor_with_roundoff_forgiveness():
    g = LogGrid(0.1, 100)
    assert g.index_of_log(0.0) == 0
    assert g.index_of_log(0.1) == 1
    assert g.index_of_log(0.1499) == 1
    # a point that lands a few ulps below k*h still maps to k
    assert g.index_of_log(0.3 * (1.0 - 1e-12)) == 3
    assert g.index_of_log(7 * 0.1) == 7


def test_index_of_matches_log_form():
    g = LogGrid(0.05, 300)
    for x in (1.0, 2.0, math.e, 10.0, 1234.5):
        assert g.index_of(x) == g.index_of_log(math.log(x))


def test_index_range_errors():
    g = LogGrid(0.1, 10)
    with pytest.raises(RangeError):
        g.index_of_log(-0.01)
    with pytest.raises(RangeError):
        g.index_of_log(1.0)  # == log_end, first point beyond the lattice
    with pytest.raises(RangeError):
        g.index_of(0.5)
    assert g.index_of_log(0.999) == 9


def test_nearest_index_rounds():
    g = LogGrid(0.1, 100)
    assert g.nearest_index_of_log(0.26) == 3
    assert g.nearest_index_of_log(0.24) == 2
    with pytest.raises(RangeError):
        g.nearest_index_of_log(9.96)


def test_require_same():
    a = LogGrid(0.1, 10)
    b = LogGrid(0.1, 10)
    a.require_same(b)  # no raise
    with pytest.raises(GridMismatchError):
        a.require_same(LogGrid(0.1, 11))
    with pytest.raises(GridMismatchError):
        a.require_same(LogGrid(0.2, 10))


def test_measure_validates_shape_and_finiteness():
    g = LogGrid(0.1, 4)
    Measure(g, np.zeros(4))  # ok
    with pytest.raises(ValueError):
        Measure(g, np.zeros(5))
    with pytest.raises(ValueError):
        Measure(g, np.array([1.0, np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Measure(g, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Measure(g, np.zeros((2, 2)))
