"""Signed measures on [1, e^{nh}) and their convolution algebra.

A Measure stores one coefficient per lattice point u_k = e^{kh}; c_0 is the
exact mass at u = 1, so the Dirac delta at 1 (the convolution identity) is
(1, 0, 0, ...).  Because every support point is a lattice point, the
multiplicative convolution

    (dA * dB){u_k} = sum_{i+j=k} a_i b_j

is an exact truncated Cauchy product: no smearing rule is needed, and the
ring laws (commutativity, associativity, identity) hold to roundoff.  Mass
pushed beyond the last point is dropped, which is exact for any primitive
evaluated below the grid end since convolution only moves mass upward.

The derivation operator L multiplies a measure by log u, i.e. c_k by kh.
It satisfies the product rule over convolution, and exp* obeys
L exp*(dA) = (L dA) * exp*(dA); read as a triangular system this identity
is the O(n^2) reference exponential, beside the FFT Newton iteration that
exp_star runs on large, well-conditioned inputs.

All functions treat measures as immutable values and return new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ParameterError, RangeError
from .grid import LogGrid

FORMAT_TAG = "beurling-measure-v1"
# mellin evaluates sigma in panels of this width (see its docstring)
_MELLIN_PANEL = 8


@dataclass(frozen=True, eq=False)
class Measure:
    grid: LogGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (self.grid.n,):
            raise ParameterError(f"expected {self.grid.n} coefficients, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("measure coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __repr__(self):
        return f"Measure(h={self.grid.h}, n={self.grid.n})"


def delta_one(grid: LogGrid) -> Measure:
    """The Dirac mass at u = 1, the convolution identity."""
    c = np.zeros(grid.n)
    c[0] = 1.0
    return Measure(grid, c)


def zero(grid: LogGrid) -> Measure:
    return Measure(grid, np.zeros(grid.n))


def add(a: Measure, b: Measure) -> Measure:
    a.grid.require_same(b.grid)
    return Measure(a.grid, a.coeffs + b.coeffs)


def scale(a: Measure, factor: float) -> Measure:
    return Measure(a.grid, a.coeffs * factor)


def negate(a: Measure) -> Measure:
    return scale(a, -1.0)


def variation(a: Measure) -> Measure:
    """The total-variation measure |dA|, coefficient-wise absolute value."""
    return Measure(a.grid, np.abs(a.coeffs))


def convolve(a: Measure, b: Measure) -> Measure:
    """Multiplicative convolution, truncated at the grid end.

    Operands are ordered by a fixed byte key before multiplying, so the
    summation order (and hence the floating-point result) is identical for
    convolve(a, b) and convolve(b, a).  The FFT path needs the order too:
    numpy's complex product of two spectra is not commutative to the bit.
    """
    a.grid.require_same(b.grid)
    x, y = a.coeffs, b.coeffs
    if y.tobytes() < x.tobytes():
        x, y = y, x
    return Measure(a.grid, kernels.mul_trunc(x, y, a.grid.n))


def apply_log(a: Measure) -> Measure:
    """The derivation L: multiply the measure by log u (coefficient k by kh)."""
    k = np.arange(a.grid.n)
    return Measure(a.grid, a.coeffs * (k * a.grid.h))


def tilt(a: Measure, sigma: float) -> Measure:
    """Reweight by u^{-sigma}: coefficient k becomes c_k e^{-sigma k h}.

    Tilting is an exact homomorphism of the truncated algebra: it commutes
    with convolve, exp_star, log_star and invert, and fixes delta_one.  It
    is the standard device for keeping rapidly growing systems inside the
    double-precision range; see the pipeline code for usage.
    """
    k = np.arange(a.grid.n)
    return Measure(a.grid, a.coeffs * np.exp(-sigma * a.grid.h * k))


def exp_star(a: Measure) -> Measure:
    """The convolution exponential exp*(dA) = sum dA^{*m} / m!.

    Newton from n = 128 up unless dA cancels strongly, the reference
    recurrence otherwise (kernels.exp_star has the rule and its numbers).
    Neither path reweights: a raw, growing dA is the caller's to weight, by
    exponentiating tilt(dA, s) and tilting the result back by -s.
    """
    return Measure(a.grid, kernels.exp_star(a.coeffs, a.grid.h))


def exp_star_pairs(measures) -> list[tuple[Measure, Measure]]:
    """[(exp*(dA), exp*(-dA)) for each dA of measures], all on one grid.

    Each pair costs about one exp_star: on Newton, chosen per measure as in
    exp_star but for both signs, it finishes the reciprocal the iteration
    tracks, since exp*(-dA) is the convolution inverse of exp*(dA); on the
    recurrence it runs the recurrence on both signs.  The measures that take
    Newton run as one stack in lockstep, each FFT product transforming all
    of them in one batched call, which beats one call per measure even on
    one core (kernels has the numbers); the results equal those of one
    exp_star_pair per measure to the bit.
    """
    measures = list(measures)
    grid = measures[0].grid
    for m in measures[1:]:
        grid.require_same(m.grid)
    pos, neg = kernels.exp_star_pair(np.stack([m.coeffs for m in measures]), grid.h)
    return [(Measure(grid, p), Measure(grid, q)) for p, q in zip(pos, neg)]


def exp_star_pair(a: Measure) -> tuple[Measure, Measure]:
    """(exp*(dA), exp*(-dA)) for the price of about one exp_star: the
    one-measure case of exp_star_pairs."""
    return exp_star_pairs([a])[0]


def log_star(a: Measure) -> Measure:
    """Inverse of exp_star; requires positive mass at u = 1."""
    return Measure(a.grid, kernels.log_recurrence(a.coeffs))


def invert(a: Measure) -> Measure:
    """Convolution inverse: convolve(a, invert(a)) = delta_one."""
    return Measure(a.grid, kernels.invert_recurrence(a.coeffs))


def checkpoint_sums(a: Measure, ts, rate: float = 0.0) -> np.ndarray:
    """sum_{k <= K_j} c_k e^{rate (kh - t_j)} at each ascending log point t_j,
    where K_j = grid.index_of_log(t_j).

    Rate 0 gives the primitives A(e^t); rate 1 on u^{-1}-weighted
    coefficients gives the raw primitive over x, A(x)/x.  One pass covers
    coefficients 0..K_last: segment (K_{j-1}, K_j] is summed pairwise with
    factors e^{rate (k - K_j) h}, and the sum carried from the previous
    checkpoint is rescaled by e^{rate (K_{j-1} - K_j) h}.  For rate >= 0 no
    factor exceeds 1, so the sums stay finite on any grid length.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or np.any(np.diff(ts) < 0):
        raise ValueError(f"checkpoints must be 1-d and ascending, got {ts}")
    step = rate * a.grid.h
    out = np.empty(len(ts))
    carry, start = 0.0, 0
    for j, (t, k) in enumerate(zip(ts, a.grid.indices_of_log(ts))):
        segment = a.coeffs[start: k + 1]
        if step:  # rate 0: every factor is 1, which changes no bit
            segment = segment * np.exp(step * np.arange(start - k, 1))
        carry = carry * math.exp(step * (start - 1 - k)) + segment.sum()
        out[j] = carry * math.exp(rate * (k * a.grid.h - t))
        start = k + 1
    return out


def _log_point(x: float) -> float:
    if x < 1.0:
        raise RangeError(f"evaluation point {x} below 1")
    return math.log(x)


def primitive(a: Measure, x: float) -> float:
    """A(x) = integral over [1, x], i.e. the coefficient sum through index
    floor(log x / h).  The lattice point at index K carries the mass of the
    half-open cell ending at e^{(K+1/2)h}; comparisons against continuum
    formulas should use that cell-end abscissa."""
    return float(checkpoint_sums(a, [_log_point(x)])[0])


def mellin(a: Measure, sigma):
    """Truncated Mellin transform sum_k c_k e^{-sigma k h}, for a scalar
    sigma (returns a float) or a 1-d array of sigma (returns an array).

    All sigma share one pass over the coefficients: with B = isqrt(n),
    e^{-sigma h (Bi+j)} = e^{-sigma h Bi} e^{-sigma h j}, so the (n//B x B)
    coefficient matrix meets the table of inner factors in one matrix
    product, whose rows are weighted by the outer factors and summed; the
    last n mod B terms get their own short product.  The sqrt(n)-term
    partial sums keep the result within ~1e-15 relative of a long-double
    direct sum (one n-term dot drifts to ~1e-13 at n ~ 5e6).  sigma goes
    through in panels of fixed width, so every product has one shape and
    one BLAS kernel, and the array form equals the scalar form to the bit.
    Where the process may use two CPUs, half of the panels run on kernels'
    worker thread (kernels._halves), each into its own part of the result.

    The sum stops at the grid end; callers probing sigma near 1 must pick a
    grid whose log-length makes the dropped tail negligible (the fitting
    code enforces (sigma - 1) * n * h >= 14).
    """
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim > 1:
        raise ValueError(f"sigma must be a scalar or 1-d, got shape {sig.shape}")
    flat = sig.reshape(-1)
    n, h = a.grid.n, a.grid.h
    block = math.isqrt(n)
    rows, ragged = divmod(n, block)
    # transposed, so inner @ body is (panel x rows) and each sigma's row sums
    # run along contiguous memory, which numpy reduces pairwise
    body = a.coeffs[: rows * block].reshape(rows, block).T
    tail = a.coeffs[rows * block:]
    inner_k = np.arange(block)
    outer_k = block * np.arange(rows + 1)
    padded = np.resize(flat, -(-len(flat) // _MELLIN_PANEL) * _MELLIN_PANEL)
    out = np.empty(len(padded))

    def panels(lo, hi):
        for p in range(lo, hi, _MELLIN_PANEL):
            rate = padded[p: p + _MELLIN_PANEL, None] * h
            inner = np.exp(-rate * inner_k)
            outer = np.exp(-rate * outer_k)
            out[p: p + _MELLIN_PANEL] = ((outer[:, :rows] * (inner @ body)).sum(axis=1)
                                         + outer[:, rows] * (inner[:, :ragged] @ tail))

    kernels._halves(panels, len(padded), _MELLIN_PANEL, len(padded) * n)
    out = out[: len(flat)]
    return float(out[0]) if sig.ndim == 0 else out


def save_measure(a: Measure, path) -> None:
    """Versioned plain-text format: tag comment, header h=...,n=..., then one
    coefficient per line with exact float round-trip (repr)."""
    with open(path, "w") as fh:
        fh.write(f"# {FORMAT_TAG}\n")
        fh.write(f"h={a.grid.h!r},n={a.grid.n}\n")
        fh.write("\n".join(map(repr, a.coeffs.tolist())))
        fh.write("\n")


def load_measure(path) -> Measure:
    """Read a save_measure file.  A missing or foreign tag line, a header
    without h and n, or a non-numeric coefficient is a ParameterError."""
    with open(path) as fh:
        tag = fh.readline().strip()
        if tag != f"# {FORMAT_TAG}":
            raise ParameterError(f"{path}: first line {tag!r} is not '# {FORMAT_TAG}'")
        header = fh.readline().strip()
        try:
            fields = dict(part.split("=", 1) for part in header.split(","))
            h, n = float(fields["h"]), int(fields["n"])
        except (KeyError, ValueError):
            raise ParameterError(f"{path}: header {header!r} is not h=<step>,n=<size>") from None
        # one coefficient per line; split() also drops blank lines
        body = fh.read().split()
    try:
        coeffs = np.fromiter(map(float, body), dtype=float, count=len(body))
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    return Measure(LogGrid(h=h, n=n), coeffs)


def relative_gap(a, b) -> float:
    """max |a-b| / max(|a|, |b|) with a floor, the comparison used in tests.

    Accepts measures or plain coefficient arrays.
    """
    x = a.coeffs if isinstance(a, Measure) else np.asarray(a, dtype=float)
    y = b.coeffs if isinstance(b, Measure) else np.asarray(b, dtype=float)
    num = float(np.max(np.abs(x - y)))
    den = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))), 1e-300)
    return num / den
