"""Checkpoint series, decay/growth proxies, and the two model fits."""

import functools
import math

import numpy as np
import pytest

from beurling import (CheckpointSeries, EULER_GAMMA, FitError, LogGrid,
                      check_decay, check_growth, exp_star, fit_de_haan,
                      fit_loglog_model, fit_mellin_expansion, kahane_tail,
                      negate, zero)
from beurling import asymptotics
from beurling.measure import add

LADDER = np.arange(5.0, 55.0, 5.0)


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)


def test_checkpoint_series_validation():
    CheckpointSeries(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    with pytest.raises(ValueError):
        CheckpointSeries(np.array([2.0, 1.0]), np.array([3.0, 4.0]))
    with pytest.raises(ValueError):
        CheckpointSeries(np.array([1.0, 1.0]), np.array([3.0, 4.0]))
    with pytest.raises(ValueError):
        CheckpointSeries(np.array([1.0, 2.0]), np.array([3.0]))


# ------------------------------------------------------- decay and growth

def test_check_decay_passes_on_reciprocal():
    ts = np.arange(1.0, 11.0)
    rep = check_decay(CheckpointSeries(ts, 1.0 / ts))
    assert rep.passed
    assert rep.values["tail_decreasing"]
    assert rep.values["final_over_max"] == pytest.approx(0.1)


def test_check_decay_fails_on_constant():
    ts = np.arange(1.0, 11.0)
    rep = check_decay(CheckpointSeries(ts, np.ones(10)))
    assert not rep.passed
    assert not rep.values["tail_decreasing"]
    assert rep.values["final_over_max"] == 1.0


def test_check_decay_uses_absolute_values():
    ts = np.arange(1.0, 11.0)
    rep = check_decay(CheckpointSeries(ts, -1.0 / ts))
    assert rep.passed


def test_check_decay_tail_k_validation():
    ts = np.arange(1.0, 11.0)
    s = CheckpointSeries(ts, 1.0 / ts)
    with pytest.raises(ValueError):
        check_decay(s, tail_k=2)
    with pytest.raises(ValueError):
        check_decay(s, tail_k=11)


def test_check_growth():
    ts = np.arange(1.0, 6.0)
    rep = check_growth(CheckpointSeries(ts, ts.copy()))
    assert rep.passed and rep.values["strictly_increasing"]
    assert rep.values["gain"] == pytest.approx(5.0)
    rep_base = check_growth(CheckpointSeries(ts, ts.copy()), baseline_t=3.0)
    assert rep_base.values["gain"] == pytest.approx(5.0 / 3.0)
    flat = check_growth(CheckpointSeries(ts, np.ones(5)))
    assert not flat.passed


# ------------------------------------------------------------- mellin fit

def synthetic_loglog(sigmas, alpha=1.0, c1=0.3, c2=-0.1):
    ell = np.log(1.0 / (np.asarray(sigmas) - 1.0))
    return alpha * np.log(ell) + c1 + c2 / ell


def test_fit_loglog_model_recovers_exactly():
    sigmas = 1.0 + np.logspace(-4, -1, 12)
    rep = fit_loglog_model(sigmas, synthetic_loglog(sigmas), alpha_tol=0.02)
    assert rep.passed
    assert rep.constants["alpha"] == pytest.approx(1.0, abs=1e-9)
    assert rep.constants["c1"] == pytest.approx(0.3, abs=1e-9)
    assert rep.constants["c2"] == pytest.approx(-0.1, abs=1e-9)
    assert rep.residual_rms <= 1e-12


def test_fit_loglog_model_tolerates_small_noise():
    sigmas = 1.0 + np.logspace(-4, -1, 25)
    rng = np.random.default_rng(31)
    values = synthetic_loglog(sigmas) + 1e-8 * rng.standard_normal(len(sigmas))
    rep = fit_loglog_model(sigmas, values)
    assert rep.constants["alpha"] == pytest.approx(1.0, abs=1e-3)
    assert rep.constants["c1"] == pytest.approx(0.3, abs=1e-3)
    assert rep.constants["c2"] == pytest.approx(-0.1, abs=1e-3)


def test_fit_loglog_model_validation():
    with pytest.raises(FitError):
        fit_loglog_model([0.9, 1.2, 1.5, 1.8], np.zeros(4))
    with pytest.raises(FitError):
        fit_loglog_model([1.5, 1.5, 1.5, 1.5], np.zeros(4))


def test_fit_mellin_expansion_sigma_window():
    g = LogGrid(0.01, 3001)
    a = kahane_tail(g, weight_sigma=1.0)
    with pytest.raises(FitError):
        fit_mellin_expansion(a, [1.0, 1.5, 1.8, 1.9], weight_sigma=1.0)
    with pytest.raises(FitError):
        fit_mellin_expansion(a, [1.5, 1.8, 2.1], weight_sigma=1.0)
    # sigma = 2 passes the range gate but the model is singular there
    # (log(1/(sigma-1)) = 0), so the fit itself must refuse it
    with pytest.raises(FitError, match="strictly below"):
        fit_mellin_expansion(a, [1.5, 1.6, 1.7, 1.8, 2.0], weight_sigma=1.0)


def test_fit_mellin_expansion_clips_short_grids():
    # log-length 30 admits sigma - 1 >= 14/30 only
    g = LogGrid(0.01, 3001)
    a = kahane_tail(g, weight_sigma=1.0)
    rep = fit_mellin_expansion(a, [1.1, 1.2, 1.5, 1.6, 1.7, 1.8, 1.9],
                               weight_sigma=1.0)
    assert sorted(rep.details["sigma_clipped"]) == pytest.approx([1.1, 1.2])
    assert rep.passed  # no alpha_tol: the solve itself is the criterion
    with pytest.raises(FitError, match="usable"):
        fit_mellin_expansion(a, [1.05, 1.1, 1.2, 1.3, 1.4],
                             weight_sigma=1.0)


def test_fit_mellin_expansion_of_zero_measure():
    g = LogGrid(0.01, 3001)
    rep = fit_mellin_expansion(zero(g), [1.5, 1.6, 1.7, 1.8, 1.9])
    assert rep.constants["alpha"] == pytest.approx(0.0, abs=1e-12)
    assert rep.residual_rms <= 1e-12


def _tail_estimate_per_term(coeffs, h, decay):
    # the estimate with each weighted term formed outright
    n = len(coeffs)
    lo = max(1, int(0.9 * n))
    k = np.arange(lo, n)
    terms = np.abs(coeffs[lo:]) * np.exp(-decay * h * k)
    half = len(terms) // 2
    if half < 1:
        return 0.0
    m1, m2 = float(terms[:half].max()), float(terms[half:].max())
    if m1 <= 0.0 or m2 <= 0.0:
        return 0.0
    step = (m2 / m1) ** (1.0 / half)
    if step >= 1.0:
        return math.inf
    return float(terms[-1]) * step / (1.0 - step)


@pytest.mark.parametrize("seed", range(4))
def test_tail_estimates_match_the_per_term_formula(seed):
    # random signed coefficients under a decaying envelope, a few zeros in
    # the decade; decays from below the envelope's rate (growing terms,
    # infinite estimate) to well above it.  Going through log t_k costs
    # about |log t_k| eps ~ 1e-14 relative (measured worst 1.1e-14)
    rng = np.random.default_rng(seed)
    n, h = 5000, 0.01
    k = np.arange(n)
    coeffs = rng.standard_normal(n) * np.exp(-0.3 * h * k) * (1 + k) ** -0.5
    coeffs[rng.integers(4500, n, 20)] = 0.0
    decays = [-0.5, 0.0, 0.2, 0.31, 0.5, 1.0, 3.0]
    got = asymptotics._tail_estimates(coeffs, h, decays)
    for d, g in zip(decays, got):
        want = _tail_estimate_per_term(coeffs, h, d)
        if math.isinf(want):
            assert g == want
        else:
            assert g == pytest.approx(want, rel=1e-12, abs=0.0)
    assert asymptotics._tail_estimates(np.zeros(n), h, decays) == [0.0] * 7
    assert asymptotics._tail_estimates(coeffs[:3], h, decays) == [0.0] * 7


# ------------------------------------------------------------ de Haan fit

def test_fit_de_haan_checkpoint_only():
    ts = np.exp(np.linspace(1.0, 3.0, 10))
    vals = 2.0 * np.log(ts) + 1.0
    rep = fit_de_haan(CheckpointSeries(ts, vals))
    assert rep.passed
    assert rep.criterion == "checkpoint fit only"
    assert rep.constants["b1_checkpoint"] == pytest.approx(2.0, abs=1e-10)
    assert rep.constants["beta"] == pytest.approx(1.0, abs=1e-10)


def test_fit_de_haan_consistent_mellin_side():
    ts = np.exp(np.linspace(1.0, 3.0, 10))
    vals = 2.0 * np.log(ts) + 1.0
    sigmas = 1.0 + np.logspace(-3, -1, 10)
    ell = np.log(1.0 / (sigmas - 1.0))
    mv = 2.0 * ell + (1.0 - 2.0 * EULER_GAMMA)
    rep = fit_de_haan(CheckpointSeries(ts, vals), sigmas, mv)
    assert rep.passed
    assert rep.constants["b1_mellin"] == pytest.approx(2.0, abs=1e-10)
    assert rep.constants["intercept_gap"] == pytest.approx(
        rep.constants["intercept_gap_predicted"], rel=1e-9)
    assert rep.details["b1_deviation"] <= 1e-10
    assert rep.details["gamma_deviation"] <= 1e-9


def test_fit_de_haan_flags_inconsistent_slopes():
    ts = np.exp(np.linspace(1.0, 3.0, 10))
    vals = 2.0 * np.log(ts) + 1.0
    sigmas = 1.0 + np.logspace(-3, -1, 10)
    ell = np.log(1.0 / (sigmas - 1.0))
    rep = fit_de_haan(CheckpointSeries(ts, vals), sigmas, 3.0 * ell + 1.0)
    assert not rep.passed
    assert rep.details["b1_deviation"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_fit_de_haan_validation():
    ts = np.exp(np.linspace(1.0, 3.0, 10))
    vals = 2.0 * np.log(ts) + 1.0
    with pytest.raises(FitError):
        fit_de_haan(CheckpointSeries(ts, vals), [0.5, 1.5], [1.0, 2.0])
    with pytest.raises(FitError):
        fit_de_haan(CheckpointSeries(ts, vals), [1.5, 1.5, 1.5],
                    [1.0, 1.0, 1.0])


# ---------------------------------------- alternating series of the example

@functools.lru_cache(maxsize=1)
def _weighted_tail_exponentials():
    g = LogGrid(1e-3, 50_001)
    a_w = kahane_tail(g, weight_sigma=1.0)
    bp_w = exp_star(a_w)
    bm_w = exp_star(negate(a_w))
    return g, bp_w, bm_w


def test_difference_series_reproduces_s_in_weighted_form():
    # S(x) = int dB-/u where dB- = dB - dB+; computed both ways the weighted
    # partial sums must agree to rounding
    g, bp_w, bm_w = _weighted_tail_exponentials()
    cs_direct = np.cumsum(bm_w.coeffs)
    cs_diff = np.cumsum(add(bp_w, bm_w).coeffs) - np.cumsum(bp_w.coeffs)
    ks = [g.index_of_log(t) for t in LADDER]
    direct = cs_direct[ks]
    diff = cs_diff[ks]
    assert np.max(np.abs(diff - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_s_decays_over_the_full_ladder():
    g, _, bm_w = _weighted_tail_exponentials()
    cs = np.cumsum(bm_w.coeffs)
    vals = cs[[g.index_of_log(t) for t in LADDER]]
    rep = check_decay(CheckpointSeries(LADDER, vals, "S(x)"))
    assert rep.passed
    assert 0.4 < rep.values["final_over_max"] < 0.5


def test_s_halves_between_t10_and_t50(tail_s_reference):
    # S ~ 1/loglog x halves from t = 10 only near t = 300, so past t = 10
    # the series is checked for strict decrease and against the exact
    # alternating series at the cell-end abscissa (K + 1/2) h, which gives
    # S(e^50)/S(e^10) = 0.692.  The tolerance is the lattice's h vs 2h gap
    # at these checkpoints (9.6e-6 at h = 1e-3).
    g, _, bm_w = _weighted_tail_exponentials()
    cs = np.cumsum(bm_w.coeffs)
    from_ten = LADDER[1:]
    ks = [g.index_of_log(t) for t in from_ten]
    vals = cs[ks]
    rep = check_decay(CheckpointSeries(from_ten, vals, "S(x), t >= 10"))
    assert rep.values["tail_decreasing"]
    ref = tail_s_reference((np.array(ks) + 0.5) * g.h)
    assert np.max(np.abs(vals / ref - 1.0)) <= 2e-5, (vals, ref)
    ratio, ref_ratio = vals[-1] / vals[0], ref[-1] / ref[0]
    assert abs(ratio / ref_ratio - 1.0) <= 2e-5, (ratio, ref_ratio)

