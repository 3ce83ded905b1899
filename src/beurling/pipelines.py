"""End-to-end experiment pipelines for the stock number systems.

Everything here runs in the u^{-1}-weighted coefficient representation:
weighting commutes exactly with convolution and exp-star, the weighted
coefficients of all quantities of interest stay of order one out to
arbitrary grid lengths, and every reported ratio becomes a checkpoint_sums
call whose factors are bounded by 1.  Raw coefficients of dN at log u = 700
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

from .asymptotics import (Checked, CheckpointSeries, FitReport, Verdict,
                          check_decay, check_growth, check_ladder, fit_de_haan,
                          fit_mellin_expansion)
from .grid import LogGrid
from .measure import (Measure, apply_log, checkpoint_sums, exp_star,
                      exp_star_pairs, mellin)
from .systems import DEFAULT_CHECKPOINTS, build_kahane_pi, kahane_tail

KAHANE_GRID = LogGrid(1e-4, 500_001)
DE_HAAN_GRID = LogGrid(0.05, 2_800_001)
MELLIN_GRID = LogGrid(0.25, 5_600_001)


@dataclass(frozen=True)
class KahaneReport(Checked):
    grid: LogGrid
    series: dict
    decay: dict
    growth: Verdict
    identity_max_rel: float
    identity_passed: bool
    g_final: float
    g_passed: bool
    mk_route_gap: float
    verdicts: tuple


def kahane_pipeline(grid: LogGrid | None = None, checkpoints=DEFAULT_CHECKPOINTS,
                    identity_tol: float = 1e-6) -> KahaneReport:
    """Reproduce the Kahane-system experiment suite on one grid.

    Two independent routes to the same identity: m_K(x) as the summed
    harmonic primitive of dM_K = exp*(-dPi_K), and B-(x)/x from
    dB- = exp*(-dA) where dA is the tail part alone; the two exp* pairs
    run in lockstep (measure.exp_star_pairs).  The report carries every
    checkpoint series and one verdict per check.
    """
    if grid is None:
        grid = KAHANE_GRID
    ts = check_ladder(checkpoints)
    ks = grid.indices_of_log(ts)  # refuses a checkpoint past the lattice
    h = grid.h

    a_w = kahane_tail(grid, weight_sigma=1.0)
    pi_w = build_kahane_pi(grid, weight_sigma=1.0, tail=a_w)
    (n_w, m_w), (bp_w, bm_w) = exp_star_pairs([pi_w, a_w])

    m_harm = checkpoint_sums(m_w, ts)
    s_vals = checkpoint_sums(bm_w, ts)
    bp_harm = checkpoint_sums(bp_w, ts)
    n_over_x = checkpoint_sums(n_w, ts, 1.0)
    m_over_x = checkpoint_sums(m_w, ts, 1.0)
    blog_over_x = checkpoint_sums(apply_log(bm_w), ts, 1.0)
    g_over_x = checkpoint_sums(apply_log(a_w), ts, 1.0)
    # e^{t - Kh}: moves a sum over x = e^t to the lattice point e^{Kh}
    to_lattice = np.exp(ts - ks * h)
    b_over_xeff = checkpoint_sums(bm_w, ts, 1.0) * to_lattice * math.exp(-h / 2)
    # partial summation M(x) = x m(x) - sum m(u_k) (u_{k+1} - u_k), exact on
    # the lattice; it reads only the cumulative sums C_k of m_w, never
    # m_over_x, so it cross-checks the direct sum through a second route
    cum_m = np.cumsum(m_w.coeffs)
    mk_abel = (math.exp(h) * cum_m[ks] / to_lattice
               - math.expm1(h) * checkpoint_sums(Measure(grid, cum_m), ts, 1.0))

    mk_route_gap = float(np.max(np.abs(mk_abel - m_over_x)
                                / (np.abs(m_over_x) + 1e-12)))

    rel_resid = np.abs(m_harm - b_over_xeff) / (np.abs(b_over_xeff) + 1e-12)
    identity_max_rel = float(rel_resid.max())
    identity_passed = identity_max_rel <= identity_tol

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

    decay = {name: check_decay(series[name], name=f"decay_{name}")
             for name in ("mk_ratio", "bminus_ratio", "s_of_x", "mk_over_x",
                          "blog_over_x")}
    growth = check_growth(series["nk_ratio"], min_gain=1.5, baseline_t=10.0,
                          name="growth_nk_ratio")
    g_final, g_tol = float(series["g_ratio"].values[-1]), 0.10
    g_passed = abs(g_final - 1.0) <= g_tol

    verdicts = (Verdict("kahane_identity", identity_passed,
                        {"max_rel": identity_max_rel, "tol": identity_tol}),
                Verdict("mk_two_routes", mk_route_gap <= identity_tol,
                        {"gap": mk_route_gap, "tol": identity_tol}),
                *decay.values(), growth,
                Verdict("g_ratio", g_passed, {"final": g_final, "tol": g_tol}))
    return KahaneReport(grid, series, decay, growth, identity_max_rel,
                        identity_passed, g_final, g_passed, mk_route_gap,
                        verdicts)


def mellin_alpha_experiment(grid: LogGrid | None = None,
                            alpha_tol: float = 0.02) -> FitReport:
    """Fit the loglog expansion of the Mellin transform of the Kahane tail.

    The sigma window reaches 1e-5 above 1, which forces a grid of
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
    a_w = kahane_tail(grid, weight_sigma=1.0)
    return fit_mellin_expansion(a_w, 1.0 + np.logspace(-5, -2, 25),
                                weight_sigma=1.0, alpha_tol=alpha_tol)


def de_haan_experiment() -> FitReport:
    """Cross-check the slow-variation law for dB+ = exp*(dA) on both sides.

    Checkpoint side fits int dB+/u against b1 loglog x + beta; Mellin side
    fits b1 log(1/(sigma-1)) + b2; the intercepts must differ by b1 times
    Euler's constant.  Both windows need a long grid: convergence of the
    o(1) terms is logarithmic, so the checkpoints reach e^133000.
    """
    ts = np.exp(np.linspace(4.0, math.log(0.95 * DE_HAAN_GRID.log_end), 25))
    sigma_grid = 1.0 + np.logspace(-4, -2, 25)
    bp_w = exp_star(kahane_tail(DE_HAAN_GRID, weight_sigma=1.0))
    series = CheckpointSeries(ts, checkpoint_sums(bp_w, ts), "int dB+/u")
    return fit_de_haan(series, sigma_grid, mellin(bp_w, sigma_grid - 1.0))
