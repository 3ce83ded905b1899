"""Randomized identity suite for the measure algebra.

Runs the ring laws, the derivation identity, the exponential recurrence
against a truncated power-series oracle, the exponential law, and the
inverse law on seeded random measures.  The oracle sums delta_1 + A +
A*A/2! + ... with the term count chosen from the factorial tail bound, so
it shares no code path with the recurrence.  The suite checks the reference
path, so every exp* here is kernels.exp_recurrence, never the Newton path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .grid import LogGrid
from .measure import (Measure, add, apply_log, convolve, delta_one, invert,
                      negate, relative_gap)

_LAWS = ("commutativity", "associativity", "identity", "derivation",
         "chebyshev", "series_oracle", "exponential_law", "inverse_law")

RECURRENCE_CAP = 1 << 14  # O(n^2) beyond this is minutes, not seconds


@dataclass(frozen=True)
class SuiteResult:
    worst: dict
    tol: float
    passed: bool
    count: int
    runtime: float


def exp_series_oracle(a: Measure) -> Measure:
    """exp-star by summing the power series outright.

    The number of terms comes from the tail bound V^(M+1)/(M+1)! < 1e-16
    with V the total variation mass; every term is a fresh truncated
    convolution, so errors here are independent of the recurrence.
    """
    n = a.grid.n
    v = float(np.sum(np.abs(a.coeffs)))
    terms = 1
    if v > 0:
        while (terms + 1) * math.log(v) - math.lgamma(terms + 2) > math.log(1e-16):
            terms += 1
    out = np.zeros(n)
    out[0] = 1.0
    term = out.copy()
    for m in range(1, terms + 1):
        term = kernels.mul_trunc(term, a.coeffs, n) / m
        out += term
    return Measure(a.grid, out)


def _exp_reference(a: Measure) -> Measure:
    return Measure(a.grid, kernels.exp_recurrence(a.coeffs))


def run_identity_suite(seed: int = 2026, count: int = 100, n: int = 256,
                       h: float = 0.01, tol: float = 1e-10) -> SuiteResult:
    """Worst relative deviation per law over seeded random measures."""
    t0 = time.perf_counter()
    grid = LogGrid(h, n)
    rng = np.random.default_rng(seed)
    pool = [Measure(grid, rng.uniform(-1.0, 1.0, n)) for _ in range(count)]
    one = delta_one(grid)
    worst = {law: 0.0 for law in _LAWS}

    def note(law, x, y):
        gap = relative_gap(x, y)
        if gap > worst[law]:
            worst[law] = gap

    for i, a in enumerate(pool):
        b = pool[(i + 1) % count]
        c = pool[(i + 2) % count]
        note("commutativity", convolve(a, b), convolve(b, a))
        note("associativity", convolve(convolve(a, b), c),
             convolve(a, convolve(b, c)))
        note("identity", convolve(a, one), a)
        note("derivation", apply_log(convolve(a, b)),
             add(convolve(apply_log(a), b), convolve(a, apply_log(b))))
        ea = _exp_reference(a)
        note("chebyshev", apply_log(ea), convolve(apply_log(a), ea))
        note("series_oracle", ea, exp_series_oracle(a))
        note("exponential_law", _exp_reference(add(a, b)),
             convolve(ea, _exp_reference(b)))
        note("inverse_law", invert(ea), _exp_reference(negate(a)))

    passed = all(g <= tol for g in worst.values())
    return SuiteResult(worst, tol, passed, count, time.perf_counter() - t0)


def benchmark_exp(sizes=None, h: float = 0.01) -> list:
    """Time the recurrence and FFT exp-star paths on a smooth positive input.

    The input is the li-part prime density in u^{-1}-weighted form, so it
    stays well scaled at every size.  The recurrence is only timed up to
    RECURRENCE_CAP; above that only the FFT path runs.  Returns one row
    per size with timings and, where both ran, their relative gap.
    """
    from .systems import build_li_pi

    if sizes is None:
        sizes = [1 << p for p in range(12, 21)]
    rows = []
    for n in sizes:
        grid = LogGrid(h, int(n))
        a = build_li_pi(grid, weight_sigma=1.0).coeffs
        t0 = time.perf_counter()
        e_fft = kernels.exp_newton(a, grid.h)
        t_fft = time.perf_counter() - t0
        row = {"n": int(n), "fft_s": t_fft, "recurrence_s": None, "gap": None}
        if n <= RECURRENCE_CAP:
            t0 = time.perf_counter()
            e_rec = kernels.exp_recurrence(a)
            row["recurrence_s"] = time.perf_counter() - t0
            row["gap"] = relative_gap(e_fft, e_rec)
        rows.append(row)
    return rows


def fft_scaling_exponent(rows, min_n: int = 1 << 16) -> float:
    """Least-squares slope of log time against log n for the FFT path."""
    pts = [(r["n"], r["fft_s"]) for r in rows if r["n"] >= min_n and r["fft_s"] > 0]
    if len(pts) < 2:
        raise ValueError("need at least two timed sizes above min_n")
    ln = np.log([p[0] for p in pts])
    lt = np.log([p[1] for p in pts])
    return float(np.polyfit(ln, lt, 1)[0])
