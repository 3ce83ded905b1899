"""End-to-end experiment pipelines for the stock number systems.

Everything here runs in the u^{-1}-weighted coefficient representation:
weighting commutes exactly with convolution and exp-star, the weighted
coefficients of all quantities of interest stay of order one out to
arbitrary grid lengths, and every reported ratio becomes a plain dot
product with factors bounded by 1.  Raw coefficients of dN at log u = 700
would overflow double precision; the weighted route has no such cliff.

Identity comparisons between a summed primitive and a ratio-normalized
primitive use the cell-end abscissa x_eff = e^{(K+1/2)h}: the lattice cell
at index K carries the measure's mass through that point, so dividing by
e^{Kh} instead would leave a spurious relative gap of h/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (CheckpointSeries, FitReport, GrowthReport,
                          check_decay, check_growth, fit_de_haan,
                          fit_mellin_expansion)
from .errors import RangeError
from .grid import LogGrid
from .measure import Measure, exp_star, exp_star_pair, mellin, tilt
from .systems import DEFAULT_CHECKPOINTS, build_kahane_pi, kahane_tail

KAHANE_GRID = LogGrid(1e-4, 500_001)
DE_HAAN_GRID = LogGrid(0.05, 2_800_001)
MELLIN_GRID = LogGrid(0.25, 5_600_001)


@dataclass(frozen=True)
class KahaneReport:
    grid: LogGrid
    series: dict
    decay: dict
    growth: GrowthReport
    identity_max_rel: float
    identity_passed: bool
    g_final: float
    g_passed: bool
    mk_route_gap: float
    passed: bool


@dataclass(frozen=True)
class GrowthDiagnostics:
    series: dict
    bounded: dict


def _checkpoint_indices(grid: LogGrid, ts) -> np.ndarray:
    return np.array([grid.index_of_log(t) for t in ts])


def kahane_pipeline(grid: LogGrid | None = None, checkpoints=DEFAULT_CHECKPOINTS,
                    method: str = "auto", identity_tol: float = 1e-6) -> KahaneReport:
    """Reproduce the Kahane-system experiment suite on one grid.

    Two independent routes to the same identity: m_K(x) as the summed
    harmonic primitive of dM_K = exp*(-dPi_K), and B-(x)/x from
    dB- = exp*(-dA) where dA is the tail part alone.  The report carries
    every checkpoint series plus decay/growth flags.
    """
    if grid is None:
        grid = KAHANE_GRID
    ts = np.asarray(sorted(checkpoints), dtype=float)
    if ts[-1] > grid.log_end:
        raise RangeError(f"checkpoint t={ts[-1]} beyond grid end {grid.log_end}")
    h = grid.h

    pi_w = build_kahane_pi(grid, weight_sigma=1.0)
    a_w = kahane_tail(grid, weight_sigma=1.0)
    n_w, m_w = exp_star_pair(pi_w, method=method)
    bp_w, bm_w = exp_star_pair(a_w, method=method)

    cs_m = np.cumsum(m_w.coeffs)
    cs_bm = np.cumsum(bm_w.coeffs)
    cs_bp = np.cumsum(bp_w.coeffs)
    ks = _checkpoint_indices(grid, ts)

    m_harm = cs_m[ks]
    s_vals = cs_bm[ks]
    bp_harm = cs_bp[ks]

    b_over_xeff = np.empty(len(ts))
    n_over_x = np.empty(len(ts))
    m_over_x = np.empty(len(ts))
    blog_over_x = np.empty(len(ts))
    g_over_x = np.empty(len(ts))
    mk_abel = np.empty(len(ts))
    for j, (t, K) in enumerate(zip(ts, ks)):
        logu = np.arange(K + 1) * h
        w_x = np.exp(logu - t)
        w_cell = np.exp(logu - K * h)
        b_over_xeff[j] = np.dot(bm_w.coeffs[: K + 1], w_cell) * math.exp(-h / 2)
        n_over_x[j] = np.dot(n_w.coeffs[: K + 1], w_x)
        m_over_x[j] = np.dot(m_w.coeffs[: K + 1], w_x)
        blog_over_x[j] = np.dot(logu * bm_w.coeffs[: K + 1], w_x)
        g_over_x[j] = np.dot(logu * a_w.coeffs[: K + 1], w_x)
        # partial summation M(x) = x m(x) - sum m(u_k) (u_{k+1} - u_k), exact
        # on the lattice; cross-checks the direct dot through a second route
        steps = w_cell[1:] - w_cell[:-1]
        mk_abel[j] = (cs_m[K] - np.dot(cs_m[:K], steps)) * math.exp(K * h - t)

    mk_route_gap = float(np.max(np.abs(mk_abel - m_over_x)
                                / (np.abs(m_over_x) + 1e-12)))

    resid = np.abs(m_harm - b_over_xeff)
    rel_resid = resid / (np.abs(b_over_xeff) + 1e-12)
    identity_max_rel = float(rel_resid.max())
    identity_passed = bool(np.all(resid <= identity_tol * (np.abs(b_over_xeff) + 1e-12)))

    series = {
        "m_harmonic": CheckpointSeries(ts, m_harm, "m_K(x) = int dM_K/u"),
        "bminus_over_x": CheckpointSeries(ts, b_over_xeff, "B-(x)/x at cell end"),
        "identity_residual": CheckpointSeries(ts, rel_resid, "|m_K - B-/x| relative"),
        "s_of_x": CheckpointSeries(ts, s_vals, "S(x) = int dB-/u"),
        "bplus_harmonic": CheckpointSeries(ts, bp_harm, "int dB+/u"),
        "mk_ratio": CheckpointSeries(ts, m_over_x * ts, "M_K(x) log x / x"),
        "mk_over_x": CheckpointSeries(ts, m_over_x, "M_K(x)/x"),
        "nk_ratio": CheckpointSeries(ts, n_over_x, "N_K(x)/x"),
        "bminus_ratio": CheckpointSeries(ts, b_over_xeff * ts, "B-(x) log x / x"),
        "blog_over_x": CheckpointSeries(ts, blog_over_x, "int log u dB- / x"),
        "g_ratio": CheckpointSeries(ts, g_over_x * np.log(ts), "G(x) loglog x / x"),
    }

    decay = {name: check_decay(series[name])
             for name in ("mk_ratio", "bminus_ratio", "s_of_x", "mk_over_x",
                          "blog_over_x")}
    growth = check_growth(series["nk_ratio"], min_gain=1.5, baseline_t=10.0)
    g_final = float(series["g_ratio"].values[-1])
    g_passed = abs(g_final - 1.0) <= 0.10

    passed = (identity_passed and growth.passed and g_passed
              and mk_route_gap <= identity_tol
              and all(r.passed for r in decay.values()))
    return KahaneReport(grid, series, decay, growth, identity_max_rel,
                        identity_passed, g_final, g_passed, mk_route_gap, passed)


def growth_diagnostics(e: Measure, checkpoints=DEFAULT_CHECKPOINTS,
                       eps=(0.1, 0.5), weight_sigma: float = 0.0,
                       method: str = "auto") -> GrowthDiagnostics:
    """Exponentiate a nonnegative perturbation and track its growth.

    For dF+ = exp*(dE) and dH+ = L dF+, reports int dF+/u / log^eps x and
    H+(x) / (x log^eps x) at the checkpoints.  A series is flagged
    unbounded when its last five values strictly increase and the final
    value exceeds 1.5x the first; this is a finite-checkpoint trend call,
    not a proof either way.
    """
    if np.any(e.coeffs < 0):
        raise ValueError("perturbation must be nonnegative coefficient-wise")
    ts = np.asarray(sorted(checkpoints), dtype=float)
    grid = e.grid
    e_w = tilt(e, 1.0 - weight_sigma)
    f_w = exp_star(e_w, method=method, tilt=0.0)
    cs_f = np.cumsum(f_w.coeffs)
    ks = _checkpoint_indices(grid, ts)
    h_over_x = np.empty(len(ts))
    for j, (t, K) in enumerate(zip(ts, ks)):
        logu = np.arange(K + 1) * grid.h
        h_over_x[j] = np.dot(logu * f_w.coeffs[: K + 1],
                             np.exp(logu - t))
    series, bounded = {}, {}
    for ep in eps:
        f_name, h_name = f"f_harmonic_eps{ep:g}", f"h_over_x_eps{ep:g}"
        series[f_name] = CheckpointSeries(ts, cs_f[ks] / ts ** ep,
                                          f"int dF+/u / log^{ep:g} x")
        series[h_name] = CheckpointSeries(ts, h_over_x / ts ** ep,
                                          f"H+(x) / (x log^{ep:g} x)")
        for name in (f_name, h_name):
            vals = series[name].values
            tail = vals[-min(5, len(vals)):]
            rising = bool(np.all(np.diff(tail) > 0)) and vals[-1] > 1.5 * vals[0]
            bounded[name] = not rising
    return GrowthDiagnostics(series, bounded)


def mellin_alpha_experiment(grid: LogGrid | None = None, sigma_grid=None,
                            alpha_tol: float = 0.02) -> FitReport:
    """Fit the loglog expansion of the Mellin transform of the Kahane tail.

    The default sigma window reaches 1e-5 above 1, which forces a grid of
    log-length 1.4e6 through the truncation rule; the tail measure is
    discretized directly in weighted form, no exponential needed.

    On that window L = log(1/(sigma-1)) runs from 4.6 to 11.5, where the
    terms the model omits, -(gamma^2/2 + pi^2/12)/L^2 - ..., are not yet
    small: the exact transform fits alpha = 0.970 there, so the default
    verdict |alpha - 1| <= alpha_tol is False by design.  The exact fit
    reaches 0.992 on sigma - 1 in [1e-12, 1e-6], out of the lattice's reach.
    """
    if grid is None:
        grid = MELLIN_GRID
    if sigma_grid is None:
        sigma_grid = 1.0 + np.logspace(-5, -2, 25)
    a_w = kahane_tail(grid, weight_sigma=1.0)
    return fit_mellin_expansion(a_w, sigma_grid, weight_sigma=1.0,
                                alpha_tol=alpha_tol)


def de_haan_experiment(grid: LogGrid | None = None, checkpoints=None,
                       sigma_grid=None, method: str = "auto",
                       b1_tol: float = 0.05,
                       intercept_tol: float = 0.10) -> FitReport:
    """Cross-check the slow-variation law for dB+ = exp*(dA) on both sides.

    Checkpoint side fits int dB+/u against b1 loglog x + beta; Mellin side
    fits b1 log(1/(sigma-1)) + b2; the intercepts must differ by b1 times
    Euler's constant.  Both windows need a long grid: convergence of the
    o(1) terms is logarithmic, so checkpoints reach e^133000 by default.
    """
    if grid is None:
        grid = DE_HAAN_GRID
    if checkpoints is None:
        checkpoints = np.exp(np.linspace(4.0, math.log(0.95 * grid.log_end), 25))
    if sigma_grid is None:
        sigma_grid = 1.0 + np.logspace(-4, -2, 25)
    sigma_grid = np.asarray(sigma_grid, dtype=float)

    a_w = kahane_tail(grid, weight_sigma=1.0)
    bp_w = exp_star(a_w, method=method, tilt=0.0)
    cs = np.cumsum(bp_w.coeffs)
    ts = np.asarray(sorted(checkpoints), dtype=float)
    ks = _checkpoint_indices(grid, ts)
    series = CheckpointSeries(ts, cs[ks], "int dB+/u")
    mell = mellin(bp_w, sigma_grid - 1.0)
    return fit_de_haan(series, sigma_grid, mell,
                       b1_tol=b1_tol, intercept_tol=intercept_tol)
