"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Every criterion computes its sub-results first, prints one summary line
(visible under plain pytest through capsys.disabled), then asserts.  Two
criteria check a Kahane-system number against an exact reference computed
from a closed-form integral (conftest.py), because the asymptotic law they
probe converges too slowly for a fixed threshold at these scales:

  * criterion 04: S(x) = int dB-/u ~ 1/loglog x, so it halves from t = 10
    only near t = 300, not by t = 50 (S(e^50)/S(e^10) = 0.692).  Its values
    at t = 10..50 and that ratio are compared with the alternating series
    of the tail; M_K log x / x and B- log x / x must still halve.
  * criterion 06: the three-term loglog model fitted over sigma - 1 in
    [1e-5, 1e-2] gives alpha = 0.9700 on the lattice and 0.9699 on the
    exact transform: the omitted -(gamma^2/2 + pi^2/12)/L^2 - ... terms
    bias it there.  The lattice fit must match the exact fit on the same
    sigmas, and the exact fit must give |alpha - 1| <= 0.02 on
    sigma - 1 in [1e-12, 1e-6], where those terms are small.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from beurling import (CheckpointSeries, DensitySpec, LogGrid, SystemSpec,
                      assemble_pi, build_classical_pi, build_li_pi,
                      check_decay, checkpoint_sums, exp_star,
                      fit_loglog_model, hypothesis_report, negate,
                      prime_count, prime_power_mass, tilt)
from beurling.kernels import exp_recurrence
from beurling.selfcheck import run_identity_suite
from beurling.systems import TAIL_CUT, _tail_density_log
from conftest import exp_timings


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}")


def tail_spec():
    return DensitySpec(breakpoints=(TAIL_CUT,), log_density=_tail_density_log)


def test_criterion_01_identity_suite(capsys):
    res = run_identity_suite()
    worst = max(res.worst.values())
    ok = res.passed and res.runtime < 10.0
    announce(capsys, 1, ok,
             f"algebra laws worst={worst:.2e} tol={res.tol:.0e} "
             f"({res.runtime:.1f}s)")
    assert res.passed, res.worst
    assert res.runtime < 10.0


def _li_closed_form_errors(h, n, ts):
    grid = LogGrid(h, n)
    pi = build_li_pi(grid)
    nm = exp_recurrence(pi.coeffs)
    mm = exp_recurrence(-pi.coeffs)
    # exp*(-dPi_li) should be delta_1 - du/u cell for cell
    target = np.full(n, -h)
    target[0] = 1.0 - h / 2
    cell = float(np.max(np.abs(mm - target)))
    cs_n = np.cumsum(nm)
    cs_m = np.cumsum(mm)
    err_n = err_m = 0.0
    for t in ts:
        k = grid.index_of_log(t)
        t_eff = (k + 0.5) * h
        x_eff = math.exp(t_eff)
        err_n = max(err_n, abs(cs_n[k] - x_eff) / x_eff)
        m_want = 1.0 - t_eff
        err_m = max(err_m, abs(cs_m[k] - m_want) / max(abs(m_want), 1e-2))
    return err_n, err_m, cell


def test_criterion_02_li_closed_forms(capsys):
    t0 = time.perf_counter()
    n1, m1, cell = _li_closed_form_errors(
        1e-3, 30_001, [float(t) for t in range(1, 26)])
    ts_halving = [float(t) for t in range(1, 12)]
    an, am, _ = _li_closed_form_errors(1e-3, 12_001, ts_halving)
    bn, bm, _ = _li_closed_form_errors(5e-4, 24_001, ts_halving)
    runtime = time.perf_counter() - t0
    within = n1 <= 0.005 and m1 <= 0.005 and cell <= 2e-3
    halves = bn <= 0.75 * an and bm <= 0.75 * am
    ok = within and halves and runtime < 5.0
    announce(capsys, 2, ok,
             f"N err={n1:.1e} M err={m1:.1e} cell={cell:.1e} "
             f"halving x{an / bn:.1f}/x{am / bm:.1f} ({runtime:.1f}s)")
    assert within, (n1, m1, cell)
    assert halves, (an, bn, am, bm)
    assert runtime < 5.0


def test_criterion_03_kahane_identity(capsys, kahane_acceptance):
    rep, secs = kahane_acceptance
    ok = rep.identity_passed and rep.mk_route_gap <= 1e-6 and secs < 120.0
    announce(capsys, 3, ok,
             f"m_K vs B-/x max rel={rep.identity_max_rel:.2e} "
             f"two-route gap={rep.mk_route_gap:.2e} ({secs:.1f}s)")
    assert rep.identity_passed, rep.identity_max_rel
    assert rep.mk_route_gap <= 1e-6
    assert secs < 120.0


def test_criterion_04_decay_checkpoints(capsys, kahane_acceptance,
                                        tail_s_reference):
    rep, _ = kahane_acceptance
    results = {}
    for name in ("mk_ratio", "bminus_ratio", "s_of_x"):
        series = rep.series[name]
        sel = series.log_points >= 10.0
        vals = np.abs(series.values[sel])
        decreasing = bool(np.all(np.diff(vals) < 0))
        ratio = float(vals[-1] / vals[0])
        results[name] = (decreasing, ratio)
    # cell K carries S through the cell-end abscissa (K + 1/2) h; the
    # tolerance is the lattice's h vs 2h gap at these checkpoints (9.6e-7)
    s_series = rep.series["s_of_x"]
    sel = s_series.log_points >= 10.0
    t_eff = np.array([(rep.grid.index_of_log(t) + 0.5) * rep.grid.h
                      for t in s_series.log_points[sel]])
    s_ref = tail_s_reference(t_eff)
    s_gap = float(np.max(np.abs(s_series.values[sel] / s_ref - 1.0)))
    ratio_gap = abs(results["s_of_x"][1] / (s_ref[-1] / s_ref[0]) - 1.0)
    halving = ("mk_ratio", "bminus_ratio")
    ok = (all(d for d, _ in results.values())
          and all(results[name][1] < 0.5 for name in halving)
          and s_gap <= 1e-6 and ratio_gap <= 1e-6)
    detail = " ".join(f"{name}:{'dec' if d else 'NONMONO'},x{r:.3f}"
                      for name, (d, r) in results.items())
    announce(capsys, 4, ok, f"t=10..50 {detail} S vs exact series "
             f"gap={s_gap:.1e} ratio gap={ratio_gap:.1e} (<=1e-6)")
    for name, (decreasing, _) in results.items():
        assert decreasing, f"{name} not strictly decreasing past t=10"
    for name in halving:
        ratio = results[name][1]
        assert ratio < 0.5, (f"{name}: value at t=50 is x{ratio:.4f} of t=10, "
                             "short of the halving threshold")
    assert s_gap <= 1e-6, (s_series.values[sel], s_ref)
    assert ratio_gap <= 1e-6, (results["s_of_x"][1], s_ref[-1] / s_ref[0])


def test_criterion_05_nk_growth(capsys, kahane_acceptance):
    rep, _ = kahane_acceptance
    ok = rep.growth.passed and rep.g_passed
    announce(capsys, 5, ok,
             f"N_K/x increasing gain={rep.growth.values['gain']:.3f} (>1.5) "
             f"g_ratio={rep.g_final:.4f} (within 10% of 1)")
    assert rep.growth.values["strictly_increasing"]
    assert rep.growth.values["gain"] > 1.5
    assert rep.g_passed, rep.g_final


def test_criterion_06_mellin_alpha(capsys, mellin_acceptance, tail_transform):
    mrep, secs = mellin_acceptance
    sigmas = 1.0 + np.logspace(-4, -1, 25)
    ell = np.log(1.0 / (sigmas - 1.0))
    synth = fit_loglog_model(sigmas, 1.0 * np.log(ell) + 0.3 - 0.1 / ell)
    synth_ok = (abs(synth.constants["alpha"] - 1.0) <= 1e-3
                and abs(synth.constants["c1"] - 0.3) <= 1e-3
                and abs(synth.constants["c2"] + 0.1) <= 1e-3)
    sigma_used = np.asarray(mrep.details["sigma_used"])
    exact = fit_loglog_model(sigma_used, tail_transform(sigma_used)).constants
    fit_gap = max(abs(mrep.constants[k] - exact[k]) for k in exact)
    deep = 1.0 + np.logspace(-12, -6, 25)
    deep_alpha = fit_loglog_model(deep, tail_transform(deep)).constants["alpha"]
    alpha = mrep.constants["alpha"]
    ok = synth_ok and fit_gap <= 1e-3 and abs(deep_alpha - 1.0) <= 0.02
    announce(capsys, 6, ok,
             f"synthetic recovery {'ok' if synth_ok else 'FAIL'}; "
             f"tail transform alpha={alpha:.5f} exact={exact['alpha']:.5f} "
             f"max constant gap={fit_gap:.1e} (<=1e-3); exact alpha on "
             f"[1e-12, 1e-6]={deep_alpha:.4f} (want 1+-0.02) ({secs:.1f}s)")
    assert synth_ok, synth.constants
    assert fit_gap <= 1e-3, (mrep.constants, exact)
    assert abs(deep_alpha - 1.0) <= 0.02, deep_alpha


def test_criterion_07_de_haan_consistency(capsys, de_haan_acceptance):
    drep, secs = de_haan_acceptance
    b1_dev = drep.details["b1_deviation"]
    gamma_dev = drep.details["gamma_deviation"]
    ok = drep.passed
    announce(capsys, 7, ok,
             f"b1 dev={b1_dev:.4f} (<=0.05) intercept gap dev={gamma_dev:.4f} "
             f"(<=0.10) ({secs:.1f}s)")
    assert b1_dev <= 0.05
    assert gamma_dev <= 0.10
    assert drep.passed


def _iroot(x: int, k: int) -> int:
    if k == 1:
        return x
    r = int(round(x ** (1.0 / k)))
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def test_criterion_08_exact_prime_power_mass(capsys):
    t0 = time.perf_counter()
    pc = prime_count(10 ** 8)
    sieve_secs = time.perf_counter() - t0
    direct = prime_power_mass(10 ** 6)
    regrouped = Fraction(0)
    j = 1
    while 2 ** j <= 10 ** 6:
        regrouped += Fraction(prime_count(_iroot(10 ** 6, j)), j)
        j += 1
    grid = LogGrid(1e-3, 14_001)
    lattice = float(np.sum(build_classical_pi(grid, 10 ** 6).coeffs))
    mass_ok = direct == regrouped
    lattice_ok = abs(lattice - float(direct)) <= 1e-12 * float(direct)
    ok = (pc == 5_761_455 and sieve_secs < 10.0 and mass_ok and lattice_ok)
    announce(capsys, 8, ok,
             f"Pi0(1e6)={float(direct):.4f} rational identity "
             f"{'exact' if mass_ok else 'BROKEN'}; pi(1e8)={pc} "
             f"({sieve_secs:.1f}s)")
    assert pc == 5_761_455
    assert sieve_secs < 10.0
    assert mass_ok
    assert lattice_ok, (lattice, float(direct))


def test_criterion_09_exp_performance(capsys):
    seconds, gap = exp_timings()
    top = seconds[1 << 20]
    big = [n for n in seconds if n >= 1 << 16]
    # least-squares slope of log time against log n
    exponent = float(np.polyfit(np.log(big), np.log([seconds[n] for n in big]), 1)[0])
    ok = (top < 60.0 and gap <= 1e-8 and exponent < 1.5)
    announce(capsys, 9, ok,
             f"fft 2^20 in {top:.2f}s (<60s) gap@2^12="
             f"{gap:.1e} (<=1e-8) exponent={exponent:.2f} (<1.5)")
    assert top < 60.0
    assert gap <= 1e-8
    assert exponent < 1.5


def test_criterion_10_harness_discriminates(capsys):
    grid = LogGrid(1e-3, 50_001)
    ladder = np.arange(5.0, 55.0, 5.0)

    good = SystemSpec(base="li", grid=grid, e_part=tail_spec())
    good_rep = hypothesis_report(good)

    m_w = exp_star(negate(assemble_pi(good, weight_sigma=1.0)))
    m_raw = tilt(m_w, -1.0)  # exact unweighting; raw coefficients stay finite
    m_over_x = checkpoint_sums(m_raw, ladder) * np.exp(-ladder)
    conclusion = check_decay(CheckpointSeries(ladder, m_over_x))

    fat = DensitySpec(log_density=lambda t: 1.0 / np.maximum(t, 1e-12))
    bad_rep = hypothesis_report(SystemSpec(base="li", grid=grid, e_part=fat))

    accepts = good_rep.passed and conclusion.passed
    rejects = not bad_rep.flags["i"]
    ok = accepts and rejects
    announce(capsys, 10, ok,
             f"hypotheses {good_rep.flags} accepted, M/x final/max="
             f"{conclusion.values['final_over_max']:.1e}; fat perturbation rejected="
             f"{rejects}")
    assert good_rep.passed, good_rep.flags
    assert conclusion.passed, conclusion.values
    assert rejects, bad_rep.flags
