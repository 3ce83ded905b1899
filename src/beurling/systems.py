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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sieve as sievemod
from .asymptotics import CheckpointSeries, Verdict, check_decay, check_ladder
from .density import LOG_DOUBLE_MAX, DensitySpec, discretize
from .errors import ConstructionError, ParameterError, RangeError
from .grid import LogGrid
from .measure import (
    Measure,
    add,
    checkpoint_sums,
    convolve,
    delta_one,
    exp_star,
    exp_star_pair,
    negate,
    tilt,
    variation,
    zero,
)

TAIL_CUT = math.exp(math.e)
DEFAULT_CHECKPOINTS = tuple(float(t) for t in range(5, 55, 5))


def _li_density_log(t):
    # (1 - 1/u)/log u at u = e^t is -expm1(-t)/t, extended by its limit 1
    # at t = 0; series below t = 1e-4 avoids the 0/0.  No masked copies:
    # -expm1(-t)/t on every point, then the series where t is small
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    with np.errstate(invalid="ignore"):  # the 0/0 at t = 0
        np.negative(t, out=out)
        np.expm1(out, out=out)
        np.negative(out, out=out)
        out /= t
    small = t < 1e-4
    ts = t[small]
    out[small] = 1.0 - ts / 2.0 + ts * ts / 6.0
    return out if out.shape else float(out)


def _tail_density_log(t):
    # 1/(t log t) past the cutoff t = e: on every point, then zeroed below
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):  # at t <= 1
        np.log(t, out=out)
        out *= t
        np.divide(1.0, out, out=out)
    out[t < math.e] = 0.0
    return out if out.shape else float(out)


def build_li_pi(grid: LogGrid, weight_sigma: float = 0.0) -> Measure:
    spec = DensitySpec(log_density=_li_density_log)
    return discretize(spec, grid, weight_sigma)


def kahane_tail(grid: LogGrid, weight_sigma: float = 0.0) -> Measure:
    """The measure chi_{[e^e, inf)} / (log u log log u) du on the lattice.

    The cell containing the cutoff gets its exact partial mass.
    """
    if grid.log_end <= math.e:
        raise RangeError("grid ends below the tail cutoff e^e")
    spec = DensitySpec(breakpoints=(TAIL_CUT,), log_density=_tail_density_log)
    return discretize(spec, grid, weight_sigma)


def build_kahane_pi(grid: LogGrid, weight_sigma: float = 0.0,
                    tail: Measure | None = None) -> Measure:
    """li plus the Kahane tail; tail is kahane_tail(grid, weight_sigma)
    when the caller has it already."""
    if grid.log_end < math.e + 1.0:
        raise RangeError("grid must cover [1, e^{e+1}] for the Kahane measure")
    if tail is None:
        tail = kahane_tail(grid, weight_sigma)
    return add(build_li_pi(grid, weight_sigma), tail)


def _snap(x: np.ndarray, h: float) -> np.ndarray:
    """Lattice index, as a float, of each integer x >= 1 in log scale."""
    return np.rint(np.log(x.astype(float)) / h)


def _cell_edges(ks: np.ndarray, h: float) -> np.ndarray:
    """B_k, the smallest integer p >= 2 with _snap(p) >= k, for each k.

    ceil(e^{(k - 1/2)h}) is B_k unless log p / h falls within rounding of
    k - 1/2; there the snap of the guess and of its predecessor moves it,
    so every integer lands in the cell that _snap names.
    """
    b = np.maximum(np.ceil(np.exp((ks - 0.5) * h)), 2.0).astype(np.int64)
    while True:
        up = _snap(b, h) < ks
        down = (b > 2) & (_snap(b - 1, h) >= ks)
        if not (up.any() or down.any()):
            return b
        b += up.astype(np.int64) - down


def build_classical_pi(grid: LogGrid, sieve_limit: int) -> Measure:
    """Prime powers p^j <= sieve_limit with mass 1/j, snapped to the nearest
    lattice point in log scale.  Zero beyond the limit (documented
    truncation of the infinite prime-power measure).

    The primes are counted per lattice cell [B_k, B_{k+1}) straight from
    the sieve, so no prime list is built."""
    if sieve_limit < 2:
        raise ParameterError(f"sieve limit must be at least 2, got {sieve_limit}")
    if math.log(sieve_limit) > (grid.n - 1) * grid.h + 1e-9:
        raise RangeError(f"sieve limit {sieve_limit} beyond the last lattice point")
    h, n = grid.h, grid.n
    coeffs = np.zeros(n)
    k0, k1 = _snap(np.array([2, sieve_limit]), h).astype(np.int64).tolist()
    k1 = min(k1, n - 1)
    edges = _cell_edges(np.arange(k0, k1 + 2), h)
    coeffs[k0:k1 + 1] = sievemod.count_primes_in_ranges(edges, sieve_limit)
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


def build_system(spec: SystemSpec) -> NumberSystem:
    """Assemble a system and verify its defining invariants.

    dN and dM come from one exp_star_pair of the u^{-1}-weighted dPi,
    weighted back: tilting is an exact homomorphism fixing delta, and the
    weighted coefficients stay of order one where raw ones span many orders
    of magnitude.  The inverse law convolve(dN, dM) = delta is checked on
    the weighted pair for the same reason; a product that overflows a
    double fails it too (ConstructionError).  Pi(1) = 0 and N(1) = 1 hold up
    to the half-cell mass that the lattice attributes to the point u = 1.
    The raw dN carries e^{kh}, so a grid past log u = LOG_DOUBLE_MAX is
    refused (ParameterError) before anything is built, for every base.
    """
    if spec.grid.log_end > LOG_DOUBLE_MAX:
        raise ParameterError(
            f"raw dN on a grid to log u = {spec.grid.log_end:.6g} overflows a "
            f"double past log u ~ {LOG_DOUBLE_MAX:g}; shorten the grid, or use "
            "hypotheses, which stays in the u^{-1}-weighted representation")
    pi = assemble_pi(spec)
    n_w, m_w = exp_star_pair(tilt(pi, 1.0))
    n_meas = tilt(n_w, -1.0)

    half_cell_tol = max(1e-12, 10.0 * spec.grid.h)
    if abs(float(pi.coeffs[0])) > half_cell_tol:
        raise ConstructionError(f"Pi(1) = {pi.coeffs[0]} exceeds the half-cell tolerance")
    if abs(float(n_meas.coeffs[0]) - 1.0) > half_cell_tol:
        raise ConstructionError(f"N(1) = {n_meas.coeffs[0]} too far from 1")

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            product = convolve(n_w, m_w)
        except ParameterError:  # Measure refuses the product's inf or NaN
            raise ConstructionError(
                "dM fails to invert dN: their product overflows a double") from None
    dev = product.coeffs - delta_one(spec.grid).coeffs
    worst = float(np.max(np.abs(dev)))
    if worst > 1e-8:
        raise ConstructionError(f"dM fails to invert dN: max deviation {worst:.3e}")
    return NumberSystem(pi=pi, n=n_meas, m=tilt(m_w, -1.0), provenance=spec)


@dataclass(frozen=True)
class HypothesisReport:
    series: dict
    verdicts: tuple
    conclusion: Verdict

    @property
    def flags(self) -> dict:
        """{item: passed} per hypothesis: i, ii, ii_sigma0 if asked, iii."""
        return {v.name.removeprefix("hypothesis_"): v.passed
                for v in self.verdicts if v.name.startswith("hypothesis_")}

    @property
    def passed(self) -> bool:
        """Hypotheses i-iii, not the sigma0 variant or the conclusion."""
        return all(self.flags[k] for k in ("i", "ii", "iii"))


def hypothesis_report(spec: SystemSpec, a: float = 1.0,
                      checkpoints=DEFAULT_CHECKPOINTS, tail_k: int = 5,
                      sigma0: float | None = None) -> HypothesisReport:
    """Checkpoint diagnostics for the three density hypotheses and the
    conclusion they support.

    Item (i) evaluates integral_{1-}^{x} |dE| * log x / x, item (ii) the
    partial integrals of |dR(u)|/u (with an optional u^{-sigma0} variant),
    item (iii) |M0(x)| log^a x / x for the unperturbed base system.  Each
    series is flagged by the monotone-tail decay proxy; item (ii) instead
    requires its nondecreasing partials to have settled (last increment
    below 1% of the total).  Diagnostics are always produced; failures only
    show up in the verdicts, hypothesis_<item>.  The conclusion series
    m_ratio, M(x)/x of the full assembled system, has its own decay check
    in the verdict `conclusion`, passed below NOISE_FLOOR as items (i) and
    (iii) are; not being a hypothesis, it is left out of `passed`.
    """
    grid = spec.grid
    ts = np.asarray(sorted(checkpoints), dtype=float)
    check_ladder(ts, tail_k)
    series: dict[str, CheckpointSeries] = {}
    verdicts = []

    e_w = (discretize(spec.e_part, grid, 1.0) if spec.e_part is not None else zero(grid))
    vals_i = ts * checkpoint_sums(variation(e_w), ts, 1.0)
    series["e_variation_ratio"] = CheckpointSeries(ts, vals_i, "A_E(x) log x / x")
    verdicts.append(_decays("hypothesis_i", series["e_variation_ratio"], tail_k))

    r_w = (discretize(spec.r_part, grid, 1.0) if spec.r_part is not None else zero(grid))
    rvar = variation(r_w)
    vals_ii = checkpoint_sums(rvar, ts)
    series["r_harmonic_partial"] = CheckpointSeries(ts, vals_ii, "int |dR|/u to x")
    verdicts.append(_converges("hypothesis_ii", vals_ii))
    if sigma0 is not None:
        # sum_{k <= K} |r_k| e^{(1 - sigma0) kh}.  Below sigma0 = 1 that
        # factor grows, so sum at rate 1 - sigma0 and restore e^{(1 - sigma0) t}
        # last; above, tilt, whose factors shrink.  No factor then exceeds the
        # value, on any grid length.  Where that factor or the partial leaves
        # the double range there is nothing to check, and sigma0 is refused.
        rate = 1.0 - sigma0
        if rate > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                vals_s0 = checkpoint_sums(rvar, ts, rate) * np.exp(rate * ts)
            if not np.all(np.isfinite(vals_s0)):
                t = float(ts[~np.isfinite(vals_s0)][0])
                raise ParameterError(
                    f"sigma0={sigma0}: the u^-sigma0-weighted partial of |dR|/u "
                    f"leaves the double range at checkpoint t={t:g}")
        else:
            vals_s0 = checkpoint_sums(tilt(rvar, -rate), ts)
        series["r_sigma0_partial"] = CheckpointSeries(ts, vals_s0, f"int |dR|/u^{sigma0} to x")
        verdicts.append(_converges("hypothesis_ii_sigma0", vals_s0))

    pi0_w = _base_pi(spec, weight_sigma=1.0)
    m0_w = exp_star(negate(pi0_w))
    vals_iii = np.abs(checkpoint_sums(m0_w, ts, 1.0)) * ts ** a
    series["m0_ratio"] = CheckpointSeries(ts, vals_iii, f"|M0(x)| log^{a} x / x")
    verdicts.append(_decays("hypothesis_iii", series["m0_ratio"], tail_k))

    # the assemble_pi sum, in its order, from the measures built above
    m_w = exp_star(negate(add(add(pi0_w, e_w), r_w)))
    series["m_ratio"] = CheckpointSeries(ts, checkpoint_sums(m_w, ts, 1.0), "M(x)/x")

    conclusion = _decays("conclusion_m_ratio", series["m_ratio"], tail_k)
    return HypothesisReport(series, (*verdicts, conclusion), conclusion)


# these ratios are O(1)-normalized; once below NOISE_FLOOR the lattice dot
# products are rounding noise and the decay and convergence tests meaningless
NOISE_FLOOR = 1e-12


def _decays(name: str, s: CheckpointSeries, tail_k: int) -> Verdict:
    final = abs(float(s.values[-1]))
    decay = check_decay(s, tail_k, name)
    return Verdict(name, final <= NOISE_FLOOR or decay.passed,
                   {"final": final, "floor": NOISE_FLOOR, **decay.values})


def _converges(name: str, vals: np.ndarray) -> Verdict:
    final = float(vals[-1])
    step = final - float(vals[-2])
    return Verdict(name, final <= NOISE_FLOOR or step <= 0.01 * final,
                   {"final": final, "floor": NOISE_FLOOR, "last_step": step,
                    "rel_tol": 0.01})
