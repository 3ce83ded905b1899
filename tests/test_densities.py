"""Discretization of densities onto the lattice.

Closed forms: du/u has log-coordinate integrand 1, so midpoint cells carry
exactly h (half of it in cell 0); the u^{-1}-weighted slow tail has
log-coordinate integrand 1/(t log t) with primitive loglog t, giving the
split cell at the cutoff an exact analytic target.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from beurling import (DensitySpec, LogGrid, discretize, kahane_tail,
                      primitive, tilt)
from beurling.density import quad
from beurling.errors import ParameterError
from beurling.systems import (TAIL_CUT, _li_density_log, _tail_density_log,
                              build_li_pi)
from conftest import u_density


def test_harmonic_density_cells_are_exact():
    g = LogGrid(1e-3, 2000)
    m = discretize(u_density(lambda u: 1.0 / u), g)
    assert np.allclose(m.coeffs[1:], g.h, rtol=1e-13, atol=0)
    assert m.coeffs[0] == pytest.approx(g.h / 2.0, rel=1e-13)


def test_li_density_limit_and_smoothness():
    assert _li_density_log(0.0) == 1.0
    # series and direct branches meet smoothly at t = 1e-4
    below = _li_density_log(1e-4 * (1 - 1e-9))
    above = _li_density_log(1e-4 * (1 + 1e-9))
    assert abs(below - above) <= 1e-12
    # closed form at a generic point
    u = 7.5
    assert _li_density_log(math.log(u)) == pytest.approx(
        (1 - 1 / u) / math.log(u), rel=1e-14)


def test_li_cell_zero_carries_half_cell():
    g = LogGrid(1e-3, 100)
    m = build_li_pi(g)
    assert m.coeffs[0] == pytest.approx(g.h / 2.0, rel=1e-3)


def test_kahane_density_at_e_to_e_squared():
    u = math.exp(math.e ** 2)
    li = _li_density_log(math.e ** 2)
    tail = _tail_density_log(math.e ** 2)
    assert li == pytest.approx((1 - 1 / u) / math.e ** 2, rel=1e-12)
    assert tail == pytest.approx(1.0 / (2.0 * math.e ** 2), rel=1e-12)
    assert li + tail == pytest.approx(0.20294, abs=5e-5)


def test_tail_density_vanishes_below_cutoff():
    assert _tail_density_log(math.log(2.0)) == 0.0
    assert _tail_density_log(math.e + math.log(0.999)) == 0.0
    assert _tail_density_log(math.e + math.log(1.001)) > 0.0


def test_tail_cutoff_cell_gets_exact_partial_mass():
    g = LogGrid(0.1, 100)
    m = kahane_tail(g, weight_sigma=1.0)
    # cutoff log u = e lands in cell 27 = [2.65, 2.75); the weighted
    # integrand in t = log u is 1/(t log t), so the partial integral from e
    # to 2.75 is loglog(2.75) - loglog(e) = loglog(2.75)
    assert np.all(m.coeffs[:27] == 0.0)
    assert m.coeffs[27] == pytest.approx(math.log(math.log(2.75)), abs=1e-9)
    # the next cell is plain midpoint
    assert m.coeffs[28] == pytest.approx(0.1 / (2.8 * math.log(2.8)), rel=1e-13)
    # the raw measure shares the support but carries the extra e^t
    raw = kahane_tail(g)
    assert np.all(raw.coeffs[:27] == 0.0)
    assert raw.coeffs[28] == pytest.approx(
        0.1 * math.exp(2.8) / (2.8 * math.log(2.8)), rel=1e-13)


def test_long_grids_work_in_weighted_form():
    # log u up to 2000: raw cell masses ~ h e^t are unrepresentable and must
    # be refused loudly, while the u^{-1}-weighted coefficients h * density
    # stay O(1) thanks to the log-coordinate densities never forming u
    g = LogGrid(5.0, 400)
    tail = kahane_tail(g, weight_sigma=1.0)
    li = build_li_pi(g, weight_sigma=1.0)
    assert np.all(np.isfinite(tail.coeffs))
    assert np.all(np.isfinite(li.coeffs))
    t = 150 * 5.0
    assert tail.coeffs[150] == pytest.approx(5.0 / (t * math.log(t)), rel=1e-12)
    assert li.coeffs[150] == pytest.approx(5.0 / t, rel=1e-6)
    with pytest.raises(ValueError, match="cell"):
        kahane_tail(g)  # raw masses overflow past log u ~ 709


def test_weighted_discretize_matches_tilt():
    g = LogGrid(0.01, 2000)
    li = DensitySpec(log_density=_li_density_log)
    direct = discretize(li, g, weight_sigma=1.0)
    tilted = tilt(discretize(li, g), 1.0)
    # midpoint cells evaluate at the lattice point kh, so folding the weight
    # into the integrand and tilting afterwards agree to rounding; cell 0
    # integrates at t = h/4 while the tilt weight sits at the lattice t = 0
    assert np.allclose(direct.coeffs[1:], tilted.coeffs[1:], rtol=1e-13, atol=0)
    assert direct.coeffs[0] == pytest.approx(
        tilted.coeffs[0] * math.exp(-0.25 * g.h), rel=1e-13)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_midpoint_blocks_equal_one_evaluation(sigma):
    # the midpoint cells are evaluated in blocks; across the block seams
    # every cell keeps the bits of h g(kh) evaluated over all cells at once
    g = LogGrid(0.002, 3 * (1 << 16) + 7)
    ts = np.arange(1, g.n) * g.h
    want = g.h * (_li_density_log(ts) * np.exp((1.0 - sigma) * ts))
    got = discretize(DensitySpec(log_density=_li_density_log), g,
                     weight_sigma=sigma)
    assert np.array_equal(got.coeffs[1:], want)


def test_breakpoints_outside_grid_are_ignored():
    g = LogGrid(0.1, 30)
    plain = discretize(u_density(lambda u: 1.0 / u), g)
    # 0.5 sits below u = 1, 1e300 far past the last cell; neither may
    # perturb the midpoint masses
    cut = discretize(u_density(lambda u: 1.0 / u, breakpoints=(0.5, 1e300)), g)
    assert np.array_equal(plain.coeffs, cut.coeffs)


def test_non_finite_density_is_reported_with_cell():
    g = LogGrid(0.1, 16)
    bad = u_density(lambda u: np.where(u > 2.0, np.nan, 1.0))
    with pytest.raises(ValueError, match="cell"):
        discretize(bad, g)


def test_overflowing_cell_is_reported_without_a_warning():
    # 1e300 e^t leaves the double range at t = 20 on a grid numpy accepts
    spec = DensitySpec(log_density=lambda t: 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError, match=r"cell 20 \(log u ~ 20\)"):
            discretize(spec, LogGrid(1.0, 40))


def test_overflowing_grid_is_refused_before_evaluation():
    # raw cell masses carry e^t, which a double cannot hold past t ~ 709.8;
    # the grid is refused up front, without evaluating the density or
    # letting np.exp overflow
    seen = []

    def log_density(t):
        seen.append(t)
        return 1.0 / np.maximum(t, 1e-12)

    spec = DensitySpec(log_density=log_density)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cell 142 .*weight_sigma > 0.6455"):
            discretize(spec, LogGrid(5.0, 400))
    assert seen == []
    inside = discretize(spec, LogGrid(5.0, 141))
    assert np.all(np.isfinite(inside.coeffs))


def test_discretization_error_is_second_order():
    # primitive of u^{-2} is 1 - 1/x; halving h must cut the defect by ~4,
    # asserted conservatively as at least 4/3
    errs = []
    for h in (0.02, 0.01, 0.005):
        g = LogGrid(h, int(3.0 / h) + 1)
        m = discretize(u_density(lambda u: u ** -2.0), g)
        k = g.index_of_log(2.0)
        t_eff = (k + 0.5) * h
        errs.append(abs(primitive(m, math.exp(2.0)) - (1.0 - math.exp(-t_eff))))
    assert errs[0] / errs[1] >= 4.0 / 3.0
    assert errs[1] / errs[2] >= 4.0 / 3.0


# ------------------------------------------------- quad, QUADPACK's dqk21

QUAD_TOL = {"epsabs": 1e-14, "epsrel": 1e-11, "limit": 200}


def _scipy_quad(f, a, b):
    # scipy.integrate.quad with discretize's tolerances: (value, error)
    return scipy.integrate.quad(f, a, b, **QUAD_TOL)


def _cell_integrand(log_density, weight_sigma):
    # discretize's integrand g(t) = f(e^t) e^{(1 - sigma) t}, in numpy ufuncs,
    # which round the same on a scalar and on an array
    return lambda t: log_density(t) * np.exp((1.0 - weight_sigma) * np.asarray(t))


@pytest.mark.parametrize("h", [1e-4, 0.05, 0.25])
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_quad_equals_scipy_on_the_tail_cut_cell(h, sigma):
    # the cell holding log u = e is split there and each piece integrated;
    # one dqk21 pass meets the tolerance, so value and estimate are scipy's
    g = LogGrid(h, int(4.0 / h))
    k = int(round(math.e / h))
    f = _cell_integrand(_tail_density_log, sigma)
    total = 0.0
    for a, b in (((k - 0.5) * h, math.log(TAIL_CUT)), (math.log(TAIL_CUT), (k + 0.5) * h)):
        got = quad(f, a, b, **QUAD_TOL)
        assert got == _scipy_quad(f, a, b)
        total += got[0]
    assert kahane_tail(g, weight_sigma=sigma).coeffs[k] == total


@pytest.mark.parametrize("log_density, h, n", [(_li_density_log, 0.05, 400),
                                               (lambda t: np.exp(-t), 4e-3, 600)],
                         ids=["li", "inverse_u"])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_quad_rule_grids_equal_scipy_cell_by_cell(log_density, h, n, sigma):
    # quad, which discretize runs on the pieces of a cell holding a
    # breakpoint, against scipy on every cell of a grid
    f = _cell_integrand(log_density, sigma)
    for k in range(n):
        lo, hi = 0.0 if k == 0 else (k - 0.5) * h, (k + 0.5) * h
        assert quad(f, lo, hi, **QUAD_TOL)[0] == _scipy_quad(f, lo, hi)[0], k


@pytest.mark.parametrize("h", [1e-3, 0.25])
def test_quad_bisects_until_the_tolerance_is_met(h):
    # sqrt has an infinite slope at 0, so one 21-point pass misses 1e-11
    # relative; the worst piece is bisected until the estimate meets it
    calls = []

    def f(t):
        calls.append(len(t))
        return np.sqrt(t)

    value, err = quad(f, 0.0, h, **QUAD_TOL)
    exact = 2.0 / 3.0 * h ** 1.5
    tol = max(QUAD_TOL["epsabs"], QUAD_TOL["epsrel"] * exact)
    assert len(calls) > 1 and set(calls) == {21}
    assert err <= tol
    assert abs(value - exact) <= tol


def test_cell_missing_the_tolerance_is_refused_with_its_cell():
    # no 200 pieces resolve sin(1e9 t), so the cut cell 5 is refused where
    # scipy.integrate.quad only warned and returned its estimate
    spec = DensitySpec(breakpoints=(math.exp(0.52),),
                       log_density=lambda t: np.sin(1e9 * np.asarray(t)))
    with pytest.raises(ParameterError, match=r"density cell 5 .*200 pieces"):
        discretize(spec, LogGrid(0.1, 20), weight_sigma=1.0)
