"""Concrete generalized number systems and the perturbation harness.

Three stock prime measures are provided: the logarithmic-integral system
with density (1 - 1/u)/log u, the classical rational primes (sieved prime
powers p^j with mass 1/j), and Kahane's example, which adds to the first
the slowly decaying tail chi_{[e^e, inf)} / (log u log log u) du.  The tail
component is exposed on its own because the decay analysis of the example
runs entirely through exp*(+tail) and exp*(-tail).

A system bundles dPi with dN = exp*(dPi) and dM = exp*(-dPi).  The
perturbation harness takes a declarative description dPi = dPi0 + dE + dR
and reports, at geometric checkpoints, the growth diagnostics that the
density hypotheses require:

  (i)   integral of |dE| up to x, times log x / x, must decay to 0;
  (ii)  integral of |dR(u)|/u up to x must approach a finite limit;
  (iii) |M0(x)| log^a x / x for the unperturbed system must decay.

All three are computed in the u^{-1}-weighted representation so that grids
spanning hundreds of log units stay inside double precision; the weighting
is exact on the lattice, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sieve as sievemod
from .asymptotics import CheckpointSeries, check_decay
from .density import DensitySpec, discretize
from .errors import ConstructionError, RangeError
from .grid import LogGrid
from .measure import (
    Measure,
    add,
    convolve,
    delta_one,
    exp_star,
    negate,
    tilt,
    zero,
)

TAIL_CUT = math.exp(math.e)
DEFAULT_CHECKPOINTS = tuple(float(t) for t in range(5, 55, 5))


def _li_density_log(t):
    # (1 - 1/u)/log u at u = e^t is -expm1(-t)/t, extended by its limit 1
    # at t = 0; series below t = 1e-4 avoids the 0/0.
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < 1e-4
    ts = t[small]
    out[small] = 1.0 - ts / 2.0 + ts * ts / 6.0
    tl = t[~small]
    out[~small] = -np.expm1(-tl) / tl
    return out if out.shape else float(out)


def li_density(u):
    """Density of the logarithmic-integral prime measure."""
    return _li_density_log(np.log(np.asarray(u, dtype=float)))


def _tail_density_log(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = t >= math.e
    tm = t[m]
    out[m] = 1.0 / (tm * np.log(tm))
    return out if out.shape else float(out)


def kahane_tail_density(u):
    """The added slowly-decaying component of Kahane's prime measure."""
    return _tail_density_log(np.log(np.asarray(u, dtype=float)))


def build_li_pi(grid: LogGrid, weight_sigma: float = 0.0) -> Measure:
    spec = DensitySpec(density=li_density, log_density=_li_density_log)
    return discretize(spec, grid, weight_sigma)


def kahane_tail(grid: LogGrid, weight_sigma: float = 0.0) -> Measure:
    """The measure chi_{[e^e, inf)} / (log u log log u) du on the lattice.

    The cell containing the cutoff gets its exact partial mass.
    """
    if grid.log_end <= math.e:
        raise RangeError("grid ends below the tail cutoff e^e")
    spec = DensitySpec(density=kahane_tail_density, breakpoints=(TAIL_CUT,),
                       log_density=_tail_density_log)
    return discretize(spec, grid, weight_sigma)


def build_kahane_pi(grid: LogGrid, weight_sigma: float = 0.0) -> Measure:
    if grid.log_end < math.e + 1.0:
        raise RangeError("grid must cover [1, e^{e+1}] for the Kahane measure")
    return add(build_li_pi(grid, weight_sigma), kahane_tail(grid, weight_sigma))


def kahane_tail_exp(grid: LogGrid, sign: int, weight_sigma: float = 0.0,
                    method: str = "auto") -> Measure:
    """exp*(sign * tail): the positive/negative exponentials of the added
    component.  The harmonic primitive of the sign = -1 case is the
    alternating sum studied by the decay pipeline."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a = kahane_tail(grid, weight_sigma)
    return exp_star(a if sign == 1 else negate(a), method=method)


def build_classical_pi(grid: LogGrid, sieve_limit: int,
                       segment: int = sievemod.DEFAULT_SEGMENT) -> Measure:
    """Prime powers p^j <= sieve_limit with mass 1/j, snapped to the nearest
    lattice point in log scale.  Zero beyond the limit (documented
    truncation of the infinite prime-power measure)."""
    if sieve_limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if math.log(sieve_limit) > (grid.n - 1) * grid.h + 1e-9:
        raise RangeError(f"sieve limit {sieve_limit} beyond the last lattice point")
    h, n = grid.h, grid.n
    coeffs = np.zeros(n)
    for seg in sievemod.iter_primes(sieve_limit, segment):
        ks = np.rint(np.log(seg.astype(float)) / h).astype(np.int64)
        coeffs += np.bincount(ks, minlength=n)[:n]
    for p in sievemod.simple_sieve(math.isqrt(sieve_limit)).tolist():
        pj, j = p * p, 2
        while pj <= sieve_limit:
            coeffs[int(round(math.log(pj) / h))] += 1.0 / j
            j += 1
            pj *= p
    return Measure(grid, coeffs)


@dataclass(frozen=True)
class SystemSpec:
    base: str
    grid: LogGrid
    e_part: Optional[DensitySpec] = None
    r_part: Optional[DensitySpec] = None
    sieve_limit: Optional[int] = None
    custom: Optional[DensitySpec] = None

    def __post_init__(self):
        if self.base not in ("li", "classical", "kahane", "custom"):
            raise ValueError(f"unknown base {self.base!r}")
        if self.base == "classical" and self.sieve_limit is None:
            raise ValueError("classical base needs sieve_limit")
        if self.base == "custom" and self.custom is None:
            raise ValueError("custom base needs a density")


@dataclass(frozen=True)
class NumberSystem:
    pi: Measure
    n: Measure
    m: Measure
    provenance: SystemSpec


def _base_pi(spec: SystemSpec, weight_sigma: float = 0.0) -> Measure:
    if spec.base == "li":
        return build_li_pi(spec.grid, weight_sigma)
    if spec.base == "kahane":
        return build_kahane_pi(spec.grid, weight_sigma)
    if spec.base == "classical":
        raw = build_classical_pi(spec.grid, spec.sieve_limit)
        return tilt(raw, weight_sigma) if weight_sigma else raw
    return discretize(spec.custom, spec.grid, weight_sigma)


def assemble_pi(spec: SystemSpec, weight_sigma: float = 0.0) -> Measure:
    """dPi0 + dE + dR on the lattice; components discretized independently
    so the sum is exact coefficient-wise."""
    pi = _base_pi(spec, weight_sigma)
    if spec.e_part is not None:
        pi = add(pi, discretize(spec.e_part, spec.grid, weight_sigma))
    if spec.r_part is not None:
        pi = add(pi, discretize(spec.r_part, spec.grid, weight_sigma))
    return pi


def build_system(spec: SystemSpec, method: str = "auto") -> NumberSystem:
    """Assemble a system and verify its defining invariants.

    The inverse law convolve(dN, dM) = delta is checked on the u^{-1}-tilted
    copies: tilting is an exact homomorphism fixing delta, and it keeps the
    check well conditioned on grids where raw dN coefficients span many
    orders of magnitude.  Pi(1) = 0 and N(1) = 1 hold up to the half-cell
    mass that the lattice attributes to the point u = 1.
    """
    pi = assemble_pi(spec)
    n_meas = exp_star(pi, method=method)
    m_meas = exp_star(negate(pi), method=method)

    half_cell_tol = max(1e-12, 10.0 * spec.grid.h)
    if abs(float(pi.coeffs[0])) > half_cell_tol:
        raise ConstructionError(f"Pi(1) = {pi.coeffs[0]} exceeds the half-cell tolerance")
    if abs(float(n_meas.coeffs[0]) - 1.0) > half_cell_tol:
        raise ConstructionError(f"N(1) = {n_meas.coeffs[0]} too far from 1")

    probe = convolve(tilt(n_meas, 1.0), tilt(m_meas, 1.0))
    dev = probe.coeffs - delta_one(spec.grid).coeffs
    worst = float(np.max(np.abs(dev)))
    if worst > 1e-8:
        raise ConstructionError(f"dM fails to invert dN: max deviation {worst:.3e}")
    return NumberSystem(pi=pi, n=n_meas, m=m_meas, provenance=spec)


@dataclass(frozen=True)
class HypothesisReport:
    series: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    passed: bool = False


def _weighted_partial(coeffs: np.ndarray, grid: LogGrid, t: float) -> float:
    # sum over k <= K of c_k e^{kh - t} for u^{-1}-weighted coefficients c;
    # this is the raw primitive divided by e^t, with all factors <= 1.
    k = grid.index_of_log(t)
    idx = np.arange(k + 1)
    return float(np.dot(coeffs[: k + 1], np.exp(idx * grid.h - t)))


def hypothesis_report(spec: SystemSpec, a: float = 1.0,
                      checkpoints=DEFAULT_CHECKPOINTS, tail_k: int = 5,
                      sigma0: float | None = None) -> HypothesisReport:
    """Checkpoint diagnostics for the three density hypotheses.

    Item (i) evaluates integral_{1-}^{x} |dE| * log x / x, item (ii) the
    partial integrals of |dR(u)|/u (with an optional u^{-sigma0} variant),
    item (iii) |M0(x)| log^a x / x for the unperturbed base system.  Each
    series is flagged by the monotone-tail decay proxy; item (ii) instead
    requires its nondecreasing partials to have settled (last increment
    below 1% of the total).  Diagnostics are always produced; failures only
    show up in the flags.
    """
    grid = spec.grid
    ts = np.asarray(sorted(checkpoints), dtype=float)
    series: dict[str, CheckpointSeries] = {}
    flags: dict[str, bool] = {}

    e_w = (discretize(spec.e_part, grid, 1.0) if spec.e_part is not None else zero(grid))
    evar = np.abs(e_w.coeffs)
    vals_i = np.array([t * _weighted_partial(evar, grid, t) for t in ts])
    series["e_variation_ratio"] = CheckpointSeries(ts, vals_i, "A_E(x) log x / x")
    flags["i"] = _decays(series["e_variation_ratio"], tail_k)

    r_w = (discretize(spec.r_part, grid, 1.0) if spec.r_part is not None else zero(grid))
    rvar = np.abs(r_w.coeffs)
    partial = np.cumsum(rvar)
    vals_ii = np.array([partial[grid.index_of_log(t)] for t in ts])
    series["r_harmonic_partial"] = CheckpointSeries(ts, vals_ii, "int |dR|/u to x")
    flags["ii"] = _converges(vals_ii)
    if sigma0 is not None:
        vals_s0 = []
        for t in ts:
            k = grid.index_of_log(t)
            w = np.exp((1.0 - sigma0) * grid.h * np.arange(k + 1))
            vals_s0.append(float(np.dot(rvar[: k + 1], w)))
        vals_s0 = np.asarray(vals_s0)
        series["r_sigma0_partial"] = CheckpointSeries(ts, vals_s0, f"int |dR|/u^{sigma0} to x")
        flags["ii_sigma0"] = _converges(vals_s0)

    pi0_w = _base_pi(spec, weight_sigma=1.0)
    m0_w = exp_star(negate(pi0_w), tilt=0.0)
    vals_iii = np.array([abs(_weighted_partial(m0_w.coeffs, grid, t)) * t ** a for t in ts])
    series["m0_ratio"] = CheckpointSeries(ts, vals_iii, f"|M0(x)| log^{a} x / x")
    flags["iii"] = _decays(series["m0_ratio"], tail_k)

    passed = flags["i"] and flags["ii"] and flags["iii"]
    return HypothesisReport(series=series, flags=flags, passed=passed)


def _decays(s: CheckpointSeries, tail_k: int) -> bool:
    # these ratios are O(1)-normalized; once below 1e-12 the lattice dot
    # products are rounding noise and the strict-decrease test is meaningless
    if abs(float(s.values[-1])) <= 1e-12:
        return True
    return check_decay(s, tail_k).passed


def _converges(vals: np.ndarray) -> bool:
    final = float(vals[-1])
    if final <= 1e-12:
        return True
    return (final - float(vals[-2])) <= 0.01 * final
