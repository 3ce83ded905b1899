"""Randomized identity suite for the measure algebra.

Runs the ring laws, the derivation identity, the exponential recurrence
against a truncated power-series oracle, the exponential law, and the
inverse law on seeded random measures.  The oracle sums
e^{a_0} (delta_1 + A' + A'*A'/2! + ...), A' the measure with its mass at
u = 1 removed, by Paterson-Stockmeyer through direct truncated products
only, so it shares no code path with the recurrence.  Its term count comes
from a composition bound on each term whose log-concave tail is summed as
a geometric series.  The suite checks the reference path, so every exp*
here is kernels.exp_recurrence, never the Newton path, run on stacks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .asymptotics import Checked, Verdict
from .grid import LogGrid
from .measure import (Measure, add, apply_log, convolve, delta_one,
                      relative_gap)

SUITE_GRID = LogGrid(0.01, 256)
_LAWS = ("commutativity", "associativity", "identity", "derivation",
         "chebyshev", "series_oracle", "exponential_law", "inverse_law")


@dataclass(frozen=True)
class SuiteResult(Checked):
    worst: dict
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

    head = log_t(1)
    for terms in range(n - 2):
        nxt = log_t(terms + 2)
        if nxt < head and head - math.log1p(-math.exp(nxt - head)) < math.log(1e-16):
            return terms
        head = nxt
    return n - 1


def exp_series_oracle(a: Measure) -> Measure:
    """exp-star by summing the power series outright.

    exp*(a) = e^{a_0} exp*(a'), a' = a less its mass at u = 1, and exp*(a')
    sums M = series_terms(n, max_j |a_j|) terms a'^m / m! by Paterson and
    Stockmeyer: the powers of a' up to k = isqrt(M), then Horner's rule in
    a'^k over blocks of k terms, k - 1 + M // k products (13 at M = 53);
    1/m! is a running product of 1/m, finite past m = 170.  The products
    are direct truncated convolutions (kernels.mul_trunc), independent of
    the recurrence; FFT products round relative to the largest term, far
    above the cancelling sum.
    """
    n = a.grid.n
    rest = np.r_[0.0, a.coeffs[1:]]
    terms = series_terms(n, float(np.max(np.abs(rest))))
    k = max(1, math.isqrt(terms))
    powers = [delta_one(a.grid).coeffs, rest]  # powers[i] = a'^i
    while len(powers) <= k:
        powers.append(kernels.mul_trunc(powers[-1], rest, n))
    coef = np.cumprod(np.r_[1.0, 1.0 / np.arange(1.0, terms + 1)])
    blocks = [sum(c * p for c, p in zip(coef[j:j + k], powers))
              for j in range(0, terms + 1, k)]
    out = blocks.pop()
    while blocks:
        out = kernels.mul_trunc(out, powers[k], n) + blocks.pop()
    return Measure(a.grid, math.exp(a.coeffs[0]) * out)


def run_identity_suite(seed: int = 2026, count: int = 100,
                       tol: float = 1e-10) -> SuiteResult:
    """Worst relative deviation per law over count seeded random measures
    on SUITE_GRID, and one verdict per law, named by the law."""
    t0 = time.perf_counter()
    grid = SUITE_GRID
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, grid.n))
    # the references as stacks: exp* of a, a + b (b the next) and -a, 1/exp*(a)
    exps = kernels.exp_recurrence(draws)
    sums = kernels.exp_recurrence(draws + np.roll(draws, -1, axis=0))
    negs = kernels.exp_recurrence(-draws)
    invs = kernels.invert_recurrence(exps)
    pool, exps = ([Measure(grid, row) for row in x] for x in (draws, exps))
    one = delta_one(grid)
    worst = {law: 0.0 for law in _LAWS}

    def note(law, x, y):
        gap = relative_gap(x, y)
        if gap > worst[law]:
            worst[law] = gap

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
        note("exponential_law", sums[i], convolve(ea, eb))
        note("inverse_law", invs[i], negs[i])

    verdicts = tuple(Verdict(law, gap <= tol, {"worst": gap, "tol": tol})
                     for law, gap in worst.items())
    return SuiteResult(worst, count, time.perf_counter() - t0, verdicts)
