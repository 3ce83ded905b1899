"""Projection of continuous densities and point atoms onto the lattice.

The mass of cell k is the integral of the density over the half-open slab
[e^{(k-1/2)h}, e^{(k+1/2)h}); cell 0 starts at u = 1.  In log coordinates
the integrand is g(t) = f(e^t) e^t, and the default midpoint rule takes
h * g(kh) per cell, an O(h^2) projection for smooth f.  Cells containing a
declared breakpoint (a density jump such as an indicator cutoff) are
integrated by adaptive quadrature split exactly at the jump, which removes
the O(h) error a jump would otherwise leave at a single cell.

An optional weight u^{-sigma} folds directly into the integrand, producing
the coefficients of the weighted measure u^{-sigma} dA.  For midpoint cells
k >= 1 this equals tilting the unweighted discretization, exactly; cell 0
evaluates at t = h/4, off-lattice, so there the two differ by e^{-sigma h/4}.

A density is given as log_density, a function of t = log u, so grids may
extend far past log u = 709, where u itself overflows a double.  The cell
masses carry e^{(1 - sigma) t}, so a grid on which that factor overflows
is refused before the density is evaluated; weight such grids with sigma
close enough to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import ParameterError
from .grid import LogGrid
from .measure import Measure

# np.exp overflows past log(max double) = 709.78
LOG_DOUBLE_MAX = 709.0
# midpoint cells evaluated per call of the density
_BLOCK = 1 << 16


@dataclass(frozen=True)
class DensitySpec:
    atoms: Sequence[tuple[float, float]] = ()
    rule: str = "midpoint"
    breakpoints: Sequence[float] = ()
    log_density: Callable[[np.ndarray], np.ndarray] | None = None


def discretize(spec: DensitySpec, grid: LogGrid, weight_sigma: float = 0.0) -> Measure:
    if spec.rule not in ("midpoint", "quad"):
        raise ValueError(f"unknown integration rule {spec.rule!r}")
    h, n = grid.h, grid.n
    coeffs = np.zeros(n)

    if spec.log_density is not None:
        growth = 1.0 - weight_sigma
        if growth * grid.log_end > LOG_DOUBLE_MAX:
            first = min(n - 1, int(LOG_DOUBLE_MAX / (growth * h)) + 1)
            raise ParameterError(
                f"cell masses overflow a double from cell {first} (log u ~ "
                f"{first * h:.6g}); discretize with weight_sigma > "
                f"{1.0 - LOG_DOUBLE_MAX / grid.log_end:.6g} instead")
        fl = spec.log_density

        def g(t):
            # a constant density may come back as a scalar
            vals = np.broadcast_to(np.asarray(fl(t), dtype=float), np.shape(t))
            if growth == 0.0:  # the factor e^0 = 1 changes no bit
                return vals
            # an overflowing cell is reported by the non-finite check below
            with np.errstate(over="ignore"):
                return vals * np.exp(growth * t)

        if spec.rule == "midpoint":
            # in blocks, so that no temporary holds all n cells
            for lo in range(1, n, _BLOCK):
                hi = min(n, lo + _BLOCK)
                np.multiply(h, g(np.arange(lo, hi) * h), out=coeffs[lo:hi])
            coeffs[0] = 0.5 * h * float(g(np.array([0.25 * h]))[0])
            quad_cells = set()
        else:
            quad_cells = set(range(n))

        cuts = sorted(float(np.log(b)) for b in spec.breakpoints if b > 1.0)
        cell_cuts: dict[int, list[float]] = {}
        for t_cut in cuts:
            if t_cut >= grid.log_end:
                continue
            k = int(round(t_cut / h))
            if k >= n:
                continue
            cell_cuts.setdefault(k, []).append(t_cut)
            quad_cells.add(k)

        for k in sorted(quad_cells):
            lo = 0.0 if k == 0 else (k - 0.5) * h
            hi = (k + 0.5) * h
            pieces = [lo] + [c for c in cell_cuts.get(k, []) if lo < c < hi] + [hi]
            total = 0.0
            for a, b in zip(pieces[:-1], pieces[1:]):
                if b > a:
                    val, _ = quad(g, a, b, epsabs=1e-14, epsrel=1e-11, limit=200)
                    total += val
            coeffs[k] = total

    for u, mass in spec.atoms:
        k = grid.nearest_index_of_log(float(np.log(u)))
        coeffs[k] += mass * np.exp(-weight_sigma * k * h)

    if not np.all(np.isfinite(coeffs)):
        bad = int(np.flatnonzero(~np.isfinite(coeffs))[0])
        raise ParameterError(f"density produced a non-finite mass in cell {bad} "
                             f"(log u ~ {bad * h:.6g})")
    return Measure(grid, coeffs)
