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


def test_grid_end_stays_a_double():
    # then every kh is a double too
    assert LogGrid(1e300, 4096).log_end == 4.096e303
    with pytest.raises(ParameterError, match="double range"):
        LogGrid(1e308, 2)


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


def test_index_range_errors():
    g = LogGrid(0.1, 10)
    with pytest.raises(RangeError):
        g.index_of_log(-0.01)
    with pytest.raises(RangeError):
        g.index_of_log(1.0)  # == log_end, first point beyond the lattice
    assert g.index_of_log(0.999) == 9
    # t / h past the doubles is beyond the lattice, unwarned
    with pytest.raises(RangeError):
        LogGrid(5e-324, 10).index_of_log(np.float64(5.0))


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
