"""Randomized identity suite for the measure algebra.

Runs the ring laws, the derivation identity, the exponential recurrence
against a truncated power-series oracle, the exponential law, and the
inverse law on seeded random measures.  The oracle sums
e^{a_0} (delta_1 + A' + A'*A'/2! + ...), A' the measure with its mass at
u = 1 removed, by Horner's rule through truncated products only, so it
shares no code path with the recurrence.  Its term count comes from a
composition bound on each term whose log-concave tail is summed as a
geometric series.  The suite checks the reference path, so every exp* here
is kernels.exp_recurrence, never the Newton path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .asymptotics import Checked, Verdict
from .grid import LogGrid
from .measure import (Measure, add, apply_log, convolve, delta_one, invert,
                      negate, relative_gap)

_LAWS = ("commutativity", "associativity", "identity", "derivation",
         "chebyshev", "series_oracle", "exponential_law", "inverse_law")


@dataclass(frozen=True)
class SuiteResult(Checked):
    worst: dict
    tol: float
    count: int
    runtime: float
    verdicts: tuple


def series_terms(n: int, peak: float) -> int:
    """Terms of the exp-star series of a' that leave a tail below 1e-16.

    a' has n coefficients, a'_0 = 0 and |a'_j| <= peak.  Coefficient k of
    a'^{*m} sums C(k-1, m-1) products of m coefficients, one per
    composition of k into m positive parts, so with k <= n - 1 the term
    a'^{*m}/m! is bounded coefficient-wise by t_m = C(n-2, m-1) peak^m / m!.
    The ratio t_{m+1}/t_m = (n-1-m) peak / (m (m+1)) falls with m, so once
    rho = t_{M+2}/t_{M+1} < 1 the tail past M terms is at most
    t_{M+1}/(1 - rho).  The first M where that is below 1e-16 is returned,
    else n - 1: a'^{*m} vanishes below index m, so n - 1 terms are exact.
    """
    if n < 2 or peak == 0.0:
        return 0

    def log_t(m):
        return (math.lgamma(n - 1) - math.lgamma(m) - math.lgamma(n - m)
                + m * math.log(peak) - math.lgamma(m + 1))

    for terms in range(n - 2):
        head, nxt = log_t(terms + 1), log_t(terms + 2)
        if nxt < head and head - math.log1p(-math.exp(nxt - head)) < math.log(1e-16):
            return terms
    return n - 1


def exp_series_oracle(a: Measure) -> Measure:
    """exp-star by summing the power series outright.

    exp*(a) = e^{a_0} exp*(a') with a' = a less its mass at u = 1, and
    exp*(a') sums series_terms(n, max_j |a_j|) terms by Horner's rule,
    delta_1 + a'*(delta_1 + a'/2*(delta_1 + ...)), one truncated
    convolution per term, so errors here are independent of the recurrence.
    """
    n = a.grid.n
    rest = a.coeffs.copy()
    rest[0] = 0.0
    out = np.zeros(n)
    out[0] = 1.0
    for m in range(series_terms(n, float(np.max(np.abs(rest)))), 0, -1):
        out = kernels.mul_trunc(out, rest, n) / m
        out[0] += 1.0
    return Measure(a.grid, math.exp(a.coeffs[0]) * out)


def _exp_reference(a: Measure) -> Measure:
    return Measure(a.grid, kernels.exp_recurrence(a.coeffs))


def run_identity_suite(seed: int = 2026, count: int = 100, n: int = 256,
                       h: float = 0.01, tol: float = 1e-10) -> SuiteResult:
    """Worst relative deviation per law over seeded random measures, and
    one verdict per law, named by the law."""
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

    exps = [_exp_reference(a) for a in pool]
    for i, a in enumerate(pool):
        b = pool[(i + 1) % count]
        c = pool[(i + 2) % count]
        ea, eb = exps[i], exps[(i + 1) % count]
        note("commutativity", convolve(a, b), convolve(b, a))
        note("associativity", convolve(convolve(a, b), c),
             convolve(a, convolve(b, c)))
        note("identity", convolve(a, one), a)
        note("derivation", apply_log(convolve(a, b)),
             add(convolve(apply_log(a), b), convolve(a, apply_log(b))))
        note("chebyshev", apply_log(ea), convolve(apply_log(a), ea))
        note("series_oracle", ea, exp_series_oracle(a))
        note("exponential_law", _exp_reference(add(a, b)),
             convolve(ea, eb))
        note("inverse_law", invert(ea), _exp_reference(negate(a)))

    verdicts = tuple(Verdict(law, gap <= tol, {"worst": gap, "tol": tol})
                     for law, gap in worst.items())
    return SuiteResult(worst, tol, count, time.perf_counter() - t0, verdicts)

