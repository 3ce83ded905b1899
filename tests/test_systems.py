"""Stock systems: closed forms, exact decompositions, and the perturbation
harness.

Reference values used below (quadrature / exact rational oracles, frozen):

  S(e^5)            = 1 - loglog 5                 = 0.524115004673
  S(e^10)           = 1 - T1 + T2/2 - T3/6         = 0.338932828822
  int dB+/u (e^10)  = 1 + T1 + T2/2 + T3/6         = 2.014508932930
  B-(e^10)/e^10     =                              -1.204436028928e-02
  Pi0(10^6)         = 78597.11168...  (exact rational, classical primes)
  li(10^6)          = 78627.549159   (exponential integral)

with T1 = loglog 10, T2/T3 the two- and three-fold simplex integrals of
1/(t log t) over {t_i >= e, sum <= 10}; the four-fold region is empty, so
the alternating series for S(e^10) terminates exactly.
"""

import math

import numpy as np
import pytest
import scipy.special

from beurling import (ConstructionError, DensitySpec, LogGrid, Measure,
                      RangeError, SystemSpec, add, assemble_pi,
                      build_classical_pi, build_kahane_pi, build_li_pi,
                      build_system, check_decay, convolve, delta_one,
                      checkpoint_sums, discretize, exp_star,
                      hypothesis_report, kahane_tail, negate,
                      prime_power_mass, primitive, relative_gap, tilt, zero)
from beurling.kernels import exp_recurrence
from beurling.systems import NOISE_FLOOR, TAIL_CUT, _tail_density_log
from conftest import u_density

H = 1e-3
GRID = LogGrid(H, 12_001)

S_E5 = 0.524115004673
S_E10 = 0.338932828822
BPLUS_E10 = 2.014508932930
BMINUS_OVER_X_E10 = -1.204436028928e-02
PI0_1E6 = 78597.111684


def tail_spec():
    return DensitySpec(breakpoints=(TAIL_CUT,), log_density=_tail_density_log)


# ------------------------------------------------------------ li system

def test_li_system_closed_forms():
    # exp*(dPi) integrates to x and exp*(-dPi) to 1 - log x for the li base
    pi = build_li_pi(GRID)
    n_meas = Measure(GRID, exp_recurrence(pi.coeffs))
    m_meas = Measure(GRID, exp_recurrence(-pi.coeffs))
    for t in (2.0, 5.0, 8.0, 11.0):
        k = GRID.index_of_log(t)
        t_eff = (k + 0.5) * H
        n_got = primitive(n_meas, math.exp(t))
        assert abs(n_got - math.exp(t_eff)) <= 1e-4 * math.exp(t_eff)
        m_got = primitive(m_meas, math.exp(t))
        m_want = 1.0 - t_eff
        assert abs(m_got - m_want) <= 1e-4 * max(abs(m_want), 1e-2)


def test_build_system_li():
    sys = build_system(SystemSpec(base="li", grid=LogGrid(H, 8001)))
    assert abs(sys.pi.coeffs[0]) <= 10 * H
    assert abs(sys.n.coeffs[0] - 1.0) <= 10 * H
    assert sys.provenance.base == "li"
    # the N*M = delta probe is part of construction; re-run it here rawly
    probe = convolve(sys.n, sys.m)
    assert relative_gap(probe, delta_one(sys.pi.grid)) <= 1e-8


def test_build_system_rejects_broken_pi():
    # an atom at 1 shifts Pi(1) beyond the half-cell tolerance
    bad = SystemSpec(base="custom", grid=LogGrid(0.01, 64),
                     custom=DensitySpec(atoms=[(1.0, 1.0)]))
    with pytest.raises(ConstructionError):
        build_system(bad)


# ------------------------------------------- builds on either exp path

BUILD_H = 4e-3


def indicator_e_power(amp, power):
    # indicator(e) * amp / log(u)^power, in t = log u, with the jump at u = e
    return DensitySpec(
        log_density=lambda t: np.where(t >= 1.0, amp / np.maximum(t, 1.0) ** power, 0.0),
        breakpoints=(math.e,))


def perturbed_spec(base, n):
    extra = {"classical": {"sieve_limit": 10 ** 6},
             "custom": {"custom": DensitySpec(log_density=lambda t: 1.0 / (1.0 + t))}}
    return SystemSpec(base=base, grid=LogGrid(BUILD_H, n),
                      e_part=indicator_e_power(0.3, 2.0),
                      r_part=indicator_e_power(-0.2, 1.7), **extra.get(base, {}))


@pytest.mark.parametrize("base", ["li", "kahane", "custom", "classical"])
def test_fft_build_matches_recurrence_grid_build(base):
    # raw dPi grows like e^{kh}, and exp* of its negation cancels to 1 -
    # log x; the n = 32,768 grid reaches log x = 131, where a raw Newton exp
    # leaves the double range.  A lattice build does not depend on where the
    # grid ends, so dN from the recurrence on the u^{-1}-weighted dPi of the
    # n = 16,383 grid is the reference of the Newton build to t = 50
    fft = build_system(perturbed_spec(base, 32_768))
    pi = assemble_pi(perturbed_spec(base, 16_383))
    n_ref = tilt(Measure(pi.grid, exp_recurrence(tilt(pi, 1.0).coeffs)), -1.0)
    for t in range(5, 55, 5):
        x = math.exp(t)
        for got, want in ((fft.pi, pi), (fft.n, n_ref)):
            assert abs(primitive(got, x) - primitive(want, x)) \
                <= 1e-12 * abs(primitive(want, x))
    law = convolve(tilt(fft.n, 1.0), tilt(fft.m, 1.0))
    assert np.max(np.abs(law.coeffs - delta_one(fft.pi.grid).coeffs)) <= 1e-14


# -------------------------------------------------- decompositions, exact

def test_kahane_pi_is_li_plus_tail():
    g = LogGrid(H, 6001)
    kah = build_kahane_pi(g)
    li = build_li_pi(g)
    tail = kahane_tail(g)
    assert np.array_equal(kah.coeffs, add(li, tail).coeffs)
    got = np.asarray(kah.coeffs) - np.asarray(li.coeffs)
    assert np.allclose(got, tail.coeffs, rtol=1e-12, atol=1e-300)


def test_perturbation_assembly_is_componentwise():
    g = LogGrid(H, 6001)
    e_spec = tail_spec()
    r_spec = u_density(lambda u: u ** -2.0)
    spec = SystemSpec(base="li", grid=g, e_part=e_spec, r_part=r_spec)
    got = assemble_pi(spec)
    want = add(add(build_li_pi(g), discretize(e_spec, g)),
               discretize(r_spec, g))
    assert np.array_equal(got.coeffs, want.coeffs)


def test_zero_perturbations_match_either_slot():
    g = LogGrid(H, 3001)
    none_spec = SystemSpec(base="li", grid=g)
    empty = u_density(np.zeros_like)
    as_e = SystemSpec(base="li", grid=g, e_part=empty)
    as_r = SystemSpec(base="li", grid=g, r_part=empty)
    base = assemble_pi(none_spec)
    assert np.array_equal(assemble_pi(as_e).coeffs, base.coeffs)
    assert np.array_equal(assemble_pi(as_r).coeffs, base.coeffs)


def test_spec_validation():
    g = LogGrid(0.01, 64)
    with pytest.raises(ValueError):
        SystemSpec(base="euler", grid=g)
    with pytest.raises(ValueError):
        SystemSpec(base="classical", grid=g)
    with pytest.raises(ValueError):
        SystemSpec(base="custom", grid=g)


def test_tail_needs_room():
    with pytest.raises(RangeError):
        kahane_tail(LogGrid(0.1, 20))
    with pytest.raises(RangeError):
        build_kahane_pi(LogGrid(0.1, 30))


# -------------------------------------------- tail exponentials (dB+, dB-)

def tail_exp(grid, sign, weight_sigma=0.0):
    """exp*(sign * tail) at weight u^{-weight_sigma}: exp_star runs on the
    u^{-1}-weighted copy, and the result is weighted back."""
    a = kahane_tail(grid, weight_sigma)
    rest = 1.0 - weight_sigma
    return tilt(exp_star(tilt(a if sign == 1 else negate(a), rest)), -rest)


def test_tail_exponentials_invert_each_other():
    bp = tail_exp(GRID, sign=+1)
    bm = tail_exp(GRID, sign=-1)
    probe = convolve(bp, bm)
    assert relative_gap(probe, delta_one(GRID)) <= 1e-8


def tail_exp_recurrence(grid, sign, weight_sigma=0.0):
    """tail_exp with the reference recurrence in place of exp_star."""
    rest = 1.0 - weight_sigma
    a_w = tilt(kahane_tail(grid, weight_sigma), rest).coeffs
    return tilt(Measure(grid, exp_recurrence(sign * a_w)), -rest)


@pytest.mark.parametrize("weight_sigma", [0.0, 0.5])
@pytest.mark.parametrize("sign", [1, -1])
def test_tail_exp_fft_tracks_recurrence(sign, weight_sigma):
    # exp*(+tail) at the same weight is the envelope of both signs; below
    # the cutoff cell the exact values are 0 and the Newton exp, which
    # tail_exp runs at this size, leaves rounding noise relative to
    # the unit mass at u = 1
    g = LogGrid(BUILD_H, 1 << 15)
    env = tail_exp_recurrence(g, 1, weight_sigma).coeffs
    rec = tail_exp_recurrence(g, sign, weight_sigma).coeffs
    fft = tail_exp(g, sign, weight_sigma).coeffs
    assert np.all(np.abs(fft - rec) <= 1e-12 * env + 1e-15)


def test_tail_cosh_combination_is_nonnegative():
    # exp*(dA) + exp*(-dA) = 2 cosh*(dA) has nonnegative coefficients; the
    # recurrence path preserves this exactly
    bp = tail_exp_recurrence(GRID, +1)
    bm = tail_exp_recurrence(GRID, -1)
    assert np.all(add(bp, bm).coeffs >= 0.0)


def test_weighted_s_values_match_quadrature():
    # S(x) = int_1^x dB-/u; weighted coefficients of exp*(-dA) sum to it
    g = LogGrid(H, 11_001)
    a_w = kahane_tail(g, weight_sigma=1.0)
    bm_w = exp_recurrence(-a_w.coeffs)
    cs = np.cumsum(bm_w)
    s5 = cs[g.index_of_log(5.0)]
    s10 = cs[g.index_of_log(10.0)]
    assert s5 == pytest.approx(S_E5, abs=5e-4)
    assert s10 == pytest.approx(S_E10, abs=5e-4)

    bp_w = exp_recurrence(a_w.coeffs)
    bp10 = float(np.cumsum(bp_w)[g.index_of_log(10.0)])
    assert bp10 == pytest.approx(BPLUS_E10, abs=5e-4)

    k = g.index_of_log(10.0)
    w_cell = np.exp(np.arange(k + 1) * H - k * H)
    b_over_x = float(np.dot(bm_w[: k + 1], w_cell)) * math.exp(-H / 2 - (10.0 - k * H))
    assert b_over_x == pytest.approx(BMINUS_OVER_X_E10, rel=1e-3)


def test_s_converges_under_grid_refinement():
    vals = {}
    for h, n in ((2e-3, 5501), (1e-3, 11_001)):
        g = LogGrid(h, n)
        bm_w = exp_recurrence(-kahane_tail(g, weight_sigma=1.0).coeffs)
        vals[h] = float(np.cumsum(bm_w)[g.index_of_log(10.0)])
    assert abs(vals[1e-3] - S_E10) < abs(vals[2e-3] - S_E10)


# ------------------------------------------------------ perturbation harness

def test_hypothesis_report_accepts_kahane_decomposition():
    g = LogGrid(H, 50_001)
    spec = SystemSpec(base="li", grid=g, e_part=tail_spec())
    rep = hypothesis_report(spec)
    assert rep.flags["i"] is True
    assert rep.flags["ii"] is True
    assert rep.flags["iii"] is True
    assert rep.passed is True


def test_hypothesis_report_rejects_fat_perturbation():
    # dE = du/log u has A_E(x) log x / x -> 1, far from decaying
    g = LogGrid(H, 50_001)
    fat = DensitySpec(log_density=lambda t: 1.0 / np.maximum(t, 1e-12))
    spec = SystemSpec(base="li", grid=g, e_part=fat)
    rep = hypothesis_report(spec)
    assert rep.flags["i"] is False
    assert rep.passed is False


def test_hypothesis_report_r_part_converges():
    g = LogGrid(H, 50_001)
    spec = SystemSpec(base="li", grid=g,
                      r_part=u_density(lambda u: u ** -2.0))
    rep = hypothesis_report(spec, sigma0=0.5)
    assert rep.flags["ii"] is True
    assert rep.flags["ii_sigma0"] is True
    assert "r_sigma0_partial" in rep.series


def test_hypothesis_report_conclusion_matches_unweighted_route():
    # m_ratio sums the weighted dM with factors e^{kh - t}; the unweighted
    # route sums raw coefficients and divides by x, as criterion 10 does
    g = LogGrid(H, 50_001)
    spec = SystemSpec(base="li", grid=g, e_part=tail_spec())
    rep = hypothesis_report(spec)
    m_w = exp_star(negate(assemble_pi(spec, weight_sigma=1.0)))
    ts = rep.series["m_ratio"].log_points
    raw = checkpoint_sums(tilt(m_w, -1.0), ts) * np.exp(-ts)
    got = rep.series["m_ratio"].values
    assert float(np.max(np.abs(got - raw) / np.abs(raw))) <= 1e-12
    decay = check_decay(rep.series["m_ratio"])
    assert rep.conclusion.values == {"final": abs(float(got[-1])),
                                     "floor": NOISE_FLOOR, **decay.values}
    assert rep.conclusion.passed


@pytest.mark.parametrize("sigma0", [0.5, 3.0])
def test_hypothesis_report_sigma0_partial_on_long_grid(sigma0):
    # checkpoints to 450 on a 1600-long grid: u^{1 - sigma0} overflows past
    # the last checkpoint for sigma0 = 0.5, e^{(1 - sigma0)(t - kh)} within
    # the checkpoints for sigma0 = 3; neither may reach the sums
    g = LogGrid(0.1, 16_001)
    r_part = DensitySpec(log_density=lambda t: np.exp(-2.0 * t))
    ts = (100.0, 200.0, 300.0, 400.0, 450.0)
    rep = hypothesis_report(SystemSpec(base="li", grid=g, r_part=r_part),
                            checkpoints=ts, sigma0=sigma0)
    rvar = np.abs(discretize(r_part, g, 1.0).coeffs).astype(np.longdouble)
    weights = np.exp(np.longdouble(1.0 - sigma0) * g.h * np.arange(g.n))
    ref = np.array([np.sum((rvar * weights)[: g.index_of_log(t) + 1]) for t in ts])
    got = rep.series["r_sigma0_partial"].values
    assert np.all(np.isfinite(got))
    assert float(np.max(np.abs((got - ref) / ref))) <= 1e-14
    assert rep.flags["ii_sigma0"]


# ------------------------------------------------------------- classical

def test_classical_mass_tracks_li_at_million():
    exact = float(prime_power_mass(10 ** 6))
    assert exact == pytest.approx(PI0_1E6, abs=2e-3)
    li_value = float(scipy.special.expi(math.log(10 ** 6)))
    assert abs(exact - li_value) / li_value <= 0.005


def test_classical_ratio_trends_to_one():
    xs = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    ratios = [float(prime_power_mass(x)) * math.log(x) / x for x in xs]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) <= 0.10


def test_classical_system_on_lattice():
    g = LogGrid(H, 12_001)
    sys = build_system(SystemSpec(base="classical", grid=g, sieve_limit=10 ** 4))
    total = float(np.sum(sys.pi.coeffs))
    assert total == pytest.approx(float(prime_power_mass(10 ** 4)), rel=1e-12)
    # N counts 1 at u = 1 and the first few integers in order
    assert primitive(sys.n, 1.5) == pytest.approx(1.0, abs=1e-9)
    assert primitive(sys.n, 2.5) == pytest.approx(2.0, abs=1e-9)
    assert primitive(sys.n, 4.5) == pytest.approx(4.0, abs=1e-6)
