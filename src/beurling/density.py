"""Projection of continuous densities onto the lattice.

The mass of cell k is the integral of the density over the half-open slab
[e^{(k-1/2)h}, e^{(k+1/2)h}); cell 0 starts at u = 1.  In log coordinates
the integrand is g(t) = f(e^t) e^t, and the midpoint rule takes
h * g(kh) per cell, an O(h^2) projection for smooth f.  Cells containing a
declared breakpoint (a density jump such as an indicator cutoff) are
integrated by adaptive quadrature split exactly at the jump, which removes
the O(h) error a jump would otherwise leave at a single cell.  That
quadrature (quad) is QUADPACK's 21-point Gauss-Kronrod pass, dqk21
(Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, 1983): a
cell whose first pass meets the tolerance gets the value and error
estimate of scipy.integrate.quad to the bit, and any other cell is bisected
at its worst piece until the tolerance is met.

An optional weight u^{-sigma} folds directly into the integrand, producing
the coefficients of the weighted measure u^{-sigma} dA.  For midpoint cells
k >= 1 this equals tilting the unweighted discretization, exactly; cell 0
evaluates at t = h/4, off-lattice, so there the two differ by e^{-sigma h/4}.

A density is given as log_density, a function of t = log u, so grids may
extend far past log u = 709, where u itself overflows a double.  The cell
masses carry e^{(1 - sigma) t}, so a grid on which that factor overflows
is refused before the density is evaluated; weight such grids with sigma
close enough to 1.  The midpoint rule evaluates log_density on blocks of
_BLOCK cells; on a grid of more than one block and a process that may run
on two CPUs, the later half of the blocks runs on kernels' worker thread
(kernels._halves), so log_density must be safe to call from two threads
at once, as a numpy expression is.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .grid import LogGrid
from .kernels import _halves
from .measure import Measure

# np.exp overflows past log(max double) = 709.78
LOG_DOUBLE_MAX = 709.0
# midpoint cells evaluated per call of the density
_BLOCK = 1 << 16
# dqk21's nodes (Kronrod, the odd positions Gauss) and weights on [-1, 1]
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208469765381, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH = 2.0 ** -52
_UFLOW = 2.0 ** -1022


def _dqk21(f, a: float, b: float):
    # (value, error estimate, integral of |f|) of f on [a, b] by dqk21, with
    # its 21 points in one call of f, summed in dqk21's order
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    absc = hlgth * np.array(_XGK[:10])
    x = np.concatenate([[centr], centr - absc, centr + absc])
    fv = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape).tolist()
    fc, fv1, fv2 = fv[0], fv[1:11], fv[11:]
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    for j in (*range(1, 10, 2), *range(0, 10, 2)):  # Gauss nodes first
        fsum = fv1[j] + fv2[j]
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        err = max(50.0 * _EPMACH * resabs, err)
    return resk * hlgth, err, resabs


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(integral of f over [a, b], error estimate), for a vectorised f.

    The first pass is dqk21 on all of [a, b], accepted as QUADPACK's dqagse
    accepts it; its value and estimate then equal scipy.integrate.quad's
    bit for bit.  Otherwise the piece with the largest estimate is bisected
    until the summed estimate is at most max(epsabs, epsrel |value|).  A
    piece count reaching limit first: ParameterError.
    """
    value, err, resabs = _dqk21(f, a, b)
    if (err <= max(epsabs, epsrel * abs(value)) and err != resabs) or err == 0.0:
        return value, err
    heap = [(-err, value, a, b)]  # the worst piece first
    while len(heap) < limit:
        _, _, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for x, y in ((lo, mid), (mid, hi)):
            val, est, _ = _dqk21(f, x, y)
            heapq.heappush(heap, (-est, val, x, y))
        value = math.fsum(piece[1] for piece in heap)
        err = -math.fsum(piece[0] for piece in heap)
        if err <= max(epsabs, epsrel * abs(value)):
            return value, err
    raise ParameterError(f"quadrature on [{a!r}, {b!r}] missed its tolerance "
                         f"(error estimate {err:.3g}) in {limit} pieces")


@dataclass(frozen=True)
class DensitySpec:
    log_density: Callable[[np.ndarray], np.ndarray]
    breakpoints: Sequence[float] = ()


def discretize(spec: DensitySpec, grid: LogGrid, weight_sigma: float = 0.0) -> Measure:
    h, n = grid.h, grid.n
    coeffs = np.zeros(n)

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

    # in blocks, so that no temporary holds all n cells, and in two
    # halves of the blocks where there are more than one
    def cells(lo, hi):
        for k in range(1 + lo, 1 + hi, _BLOCK):
            stop = min(1 + hi, k + _BLOCK)
            np.multiply(h, g(np.arange(k, stop) * h), out=coeffs[k:stop])

    _halves(cells, n - 1, _BLOCK)
    coeffs[0] = 0.5 * h * float(g(np.array([0.25 * h]))[0])

    cuts = sorted(float(np.log(b)) for b in spec.breakpoints if b > 1.0)
    cell_cuts: dict[int, list[float]] = {}
    for t_cut in cuts:
        if t_cut >= grid.log_end:
            continue
        k = int(round(t_cut / h))
        if k >= n:
            continue
        cell_cuts.setdefault(k, []).append(t_cut)

    for k in sorted(cell_cuts):
        lo = 0.0 if k == 0 else (k - 0.5) * h
        hi = (k + 0.5) * h
        pieces = [lo] + [c for c in cell_cuts[k] if lo < c < hi] + [hi]
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            if b > a:
                try:
                    val, _ = quad(g, a, b, epsabs=1e-14, epsrel=1e-11, limit=200)
                except ParameterError as exc:
                    raise ParameterError(f"density cell {k} (log u in [{lo:.6g}, "
                                         f"{hi:.6g}]): {exc}") from None
                total += val
        coeffs[k] = total

    if not np.all(np.isfinite(coeffs)):
        bad = int(np.flatnonzero(~np.isfinite(coeffs))[0])
        raise ParameterError(f"density produced a non-finite mass in cell {bad} "
                             f"(log u ~ {bad * h:.6g})")
    return Measure(grid, coeffs)
