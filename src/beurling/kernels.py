"""Low-level coefficient kernels for the truncated convolution algebra.

Everything here works on plain float64 arrays indexed by lattice position;
the Measure wrapper and grid bookkeeping live one layer up.  Two exponential
algorithms are provided: the O(n^2) weighted-coefficient recurrence (the
derivation identity L exp* = (L a) * exp* read as a triangular solve) and an
O(n log n) Newton iteration on top of FFT products.

The Newton iteration doubles the precision of e = exp*(a) each round and
carries r = 1/e at half that precision alongside (Brent & Kung 1978).  A
round refines r by one reciprocal step, gets the correction a - log e on
the new half from ((L a) e) r, and multiplies it into e; the products that
touch e share one spectrum, the spectrum of r taken for the correction is
carried into the next round's refine, and each product is taken mod
t^N + 1 for the shortest length N whose wrap-around misses the
coefficients it must deliver (Bernstein, "Removing redundancy in
high-precision Newton iteration", 2004; Hanrot & Zimmermann, "Newton
iteration revisited", 2004).  Since exp*(-a) = 1/exp*(a), one more
reciprocal step at full length, reading the carried spectrum, turns the
tracked r into exp*(-a): exp_newton_pair returns both for about the price
of one exponential.

Products are right-angle (Crandall & Fagin, "Discrete weighted transforms
and large-integer arithmetic", Math. Comp. 62, 1994).  A real row x of at
most N points packs into the complex row z_j = (x_j + i x_{M+j}) w^j of
M = N/2 points, w = e^{i pi/N}; one complex FFT of M points per operand,
the product of the spectra, one inverse FFT and the weights w^-j give the
product mod t^N + 1, coefficient j < M as the real part of point j and
coefficient M + j as its imaginary part.  The product is negacyclic: a
coefficient at j >= N lands at j - N with its sign flipped, in the
positions a cyclic product of length N would wrap it to, which every
caller drops.  N is even and N/2 is 5-smooth (_fast_len), since pocketfft
runs factors 7 and 11 through slow generic passes.

The complex FFT is numpy.fft's pocketfft, run as a four-step transform
(Bailey, "FFTs in external or hierarchical memory", J. Supercomputing 4,
1990), because numpy.fft builds its plan afresh on every call and a plan
for a million points costs about as much as the transform.  The row of
M = A B points is viewed as (A, B), with B the largest divisor of M up to
its root: each row a is weighted by w^(B a), the A-point FFTs run in place
down the columns, one twiddle pass multiplies point (k, b) by
w^(b (1 - 4k)), which is the four-step twiddle e^{-2 pi i b k/M} times the
remaining weight w^b, and the B-point FFTs run in place along the rows.
Spectrum bin k + A l then sits at (k, l), a permuted order that no caller
sees: products multiply spectra of one size point by point, and the
inverse runs the same steps backwards, unnormalised, with 1/M folded into
its twiddles, so no transpose is ever made.  The twiddles of a chunk of
isqrt(A) rows are a table of that many rows times one row per chunk, each
the outer product of two tables of about sqrt(B) exps, so no table is
ever full length: a full table cached per length ran the de Haan exp
(n = 2,800,001) in 1.16-1.21 s warm against 1.24-1.41 s, but it raised
the peak RSS of a process running that exp from 352 to 483 MB.  Below
_FOUR_STEP_MIN points the split is (1, M), the same code reduced to one
1-D FFT.  One forward and one inverse transform of one row, median of 25
(11 at 2.8M) interleaved, on one core of a 2-vCPU Intel Xeon (AVX-512),
against scipy.fft's 1-D pocketfft with its plan cache, which this
replaced, and numpy.fft in one 1-D call:

    N            scipy 1-D    numpy 1-D    this
    1,000        0.038 ms     0.063 ms     0.063 ms (1-D)
    8,000        0.170 ms     0.221 ms     0.221 ms (1-D)
    31,104       0.623 ms     0.699 ms     0.699 ms (1-D; four-step 0.795)
    62,500       1.90 ms      2.12 ms      1.46 ms
    506,250      18.0 ms      21.3 ms      12.1 ms
    2,812,500    149 ms       150 ms       101 ms

Each twiddle is rounded from an exponent reduced mod 2N, and every one
was within 7e-16 of its exact value at N = 2,812,500; the exps of the
Kahane and de Haan workloads stayed within 2e-16 (max-norm relative) of
those taken with scipy.fft.  Below the four-step, the per-call tables and
numpy's plan cost 0.02-0.08 ms more per forward and inverse pair than
scipy.fft's cached plans did.

Independent exps run in lockstep.  exp_newton, exp_newton_pair and
exp_star_pair take a (b, n) stack of rows as well as a single row, which is
the one-row stack of the same ladder, and every FFT product of the ladder
is then one forward and one inverse transform along the last axis of the
stack, whose rows equal the 1-D transforms to the bit.  With scipy.fft,
before the four-step, pocketfft gained nothing from batching complex
rows: one 2-row call took 40-53 ms at 506,250 points, two 1-D calls 35 ms
(same host).  Looping over the rows inside the transforms measured no
faster end to end on kahane_pipeline, in five alternating pairs of
processes, so the stacks stay batched.

Every round runs in lockstep up to precision ceil(n/2).  Steps 2 and 3 of
the last round, whose products have full length, and the pair's closing
reciprocal step at length n run one row at a time, so that no buffer is
larger than a single exp's largest.  Run in lockstep too, they raised the
peak RSS of kahane_pipeline (two pairs at n = 500,001) from 159 to
179-186 MB, and its tracemalloc peak to 1.41 times that of two sequential
pairs instead of 1.12 times, for no gain in time.  What the stack keeps
alive beyond that is the other rows' e and 1/e at precision ceil(n/2).

Conditioning note: the exponential of a signed sequence can be dominated by
cancellation; relative accuracy is only meaningful when the positive
envelope exp*(|a|) stays within a few orders of magnitude of the result.
For the nonnegative inputs arising from prime densities both paths are
stable once the input is weighted.  Nothing here reweights: a caller with
raw, rapidly growing coefficients exponentiates the u^{-s}-weighted copy
c_k e^{-s k h} (measure.tilt, an exact homomorphism that commutes with
exp*) and weights back itself.  Inputs that grow too fast drive the Newton
intermediates out of the double range; the result is then checked against
the a priori envelope bound and refused.

exp_star picks the path by size and by conditioning.  Time of the
recurrence over the Newton time on weighted li (h = 0.01, one core of an
AMD EPYC, one BLAS thread):

    n       16    32    64    128   256   4096  16,383
    ratio   0.37  0.60  0.98  1.6   2.4   9.2   29 (57 ms against 2 ms)

Newton needs a well-conditioned input.  The cancellation excess
S - s, with S = sum |a_j| e^{-jh} and s = sum a_j e^{-jh}, is, untruncated,
the log of the ratio of the weighted masses of exp*(|a|) and exp*(a), since
the weighted mass of exp*(a) is e^s > 0.  The largest Newton-vs-recurrence
gap (measure.relative_gap) over 300 inputs c * uniform(-1, 1) at n = 256,
h = 0.01 (c = 0.006 i, seed i, i = 1..300) grows with it, unevenly:

    excess     <= 8    8-16    16-24   24-32   32-48   48-64   64-100
    max gap    3e-16   2e-15   4e-15   6e-14   1e-12   4e-8    9e-10

So exp_star runs Newton from _NEWTON_MIN_N = 128 on inputs with excess
<= _NEWTON_MAX_EXCESS = 8, and the recurrence otherwise; exp_star_pair
runs Newton only if both signs pass, S + |s| <= 8, as exp*(-a) has excess
S + s.  Weighted prime densities have excess at most 1.52, either sign;
the uniform(-1, 1) inputs of the identity suite 33 to 60.  The excess
comes from the weights pass that the envelope check of Newton makes
anyway.  A badly conditioned input takes the recurrence at every size, at
O(n^2) cost: 57 ms at n = 16,383 (above), four times that per doubling of
n, some 45 s at n = 500,001.  A recurrence result holding an inf or NaN
raises OverflowError, as a Newton result out of the double range does.
invert and log_star run their recurrences on every size.
"""
from __future__ import annotations

import math

import numpy as np

_DIRECT_WORK_LIMIT = 1 << 16
# complex transforms of fewer points run as one 1-D FFT, the rest as a
# four-step (see the docstring).  A forward and inverse pair took, 1-D
# against four-step: 0.53 against 0.68 ms at 16,384 points, 0.68 against
# 0.70 ms at 20,000, 1.18 against 0.76 ms at 22,500
_FOUR_STEP_MIN = 20_000
# exp_star runs Newton from this length up, on inputs whose
# cancellation excess (see _log_envelope) is at most _NEWTON_MAX_EXCESS
_NEWTON_MIN_N = 128
_NEWTON_MAX_EXCESS = 8.0
_LEFT_THE_RANGE = ("exp* result left the double range; keep the computation "
                   "in a weighted (tilted) representation instead")


def _smooth_len(m: int) -> int:
    # the least 5-smooth number >= m >= 1: for each 3^i 5^j below the best
    # so far, the least power of two times it that reaches m
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fast_len(m: int) -> int:
    # the shortest even length N >= m with N/2 5-smooth (see the docstring)
    return 2 * _smooth_len((m + 1) // 2)


def _split(half: int) -> tuple[int, int]:
    # (A, B) with A B = half for the four-step transform: (1, half) below
    # _FOUR_STEP_MIN, else B the largest divisor of half up to its root
    if half < _FOUR_STEP_MIN:
        return 1, half
    cols = math.isqrt(half)
    while half % cols:
        cols -= 1
    return half // cols, cols


def _unit(e: np.ndarray, size: int) -> np.ndarray:
    # w^e for the integers e, w = e^{i pi/size}, each e reduced mod 2 size
    # into [-size, size) before it meets the rounded angle pi/size
    return np.exp((1j * math.pi / size) * ((e + size) % (2 * size) - size))


def _turns(k, count: int, size: int, scale: float = 1.0) -> np.ndarray:
    # scale w^(k j) for j < count along a last axis, w = e^{i pi/size}, for
    # each of the integers k: the outer product of two tables of about
    # sqrt(count) exps, since a complex exp costs some 20 complex multiplies
    k = np.asarray(k)[..., None]
    step = math.isqrt(count - 1) + 1
    reach = -(-count // step)
    outer = scale * _unit(k * step * np.arange(reach), size)
    inner = _unit(k * np.arange(step), size)
    table = outer[..., :, None] * inner[..., None, :]
    return table.reshape(table.shape[:-2] + (reach * step,))[..., :count]


def _twiddle(view: np.ndarray, size: int, sign: int, scale: float = 1.0) -> None:
    # view[..., k, b] *= scale w^(sign b (1 - 4k)) in place, w = e^{i pi/size},
    # over the (A, B) view of the four-step transform, in chunks of
    # s = isqrt(A) rows: a table of s rows, T[r, b] = scale w^(sign b (1 - 4r)),
    # times one row w^(-4 sign c b) for the chunk starting at row c
    rows, cols = view.shape[-2:]
    s = math.isqrt(rows)
    table = _turns(sign * (1 - 4 * np.arange(s)), cols, size, scale)
    view[..., :s, :] *= table
    if rows > s:
        starts = range(s, rows, s)
        shifts = _turns(-4 * sign * np.array(starts), cols, size)
        for c, shift in zip(starts, shifts):
            view[..., c:c + s, :] *= table[:rows - c] * shift


def rfft(x: np.ndarray, size: int) -> np.ndarray:
    """Right-angle spectrum of the real rows x for products mod t^size + 1.

    size is even and x.shape[-1] <= size.  A row x packs into the complex
    row z_j = (x_j + i x_{M+j}) w^j of M = size // 2 points, with
    w = e^{i pi/size}, and its spectrum is the four-step FFT of z along the
    last axis, in the permuted order of the module docstring.  Products of
    spectra taken at one size give, through irfft, the product of the rows
    mod t^size + 1.  An odd size, or a row longer than size, which the
    packing would cut short: ValueError.
    """
    n, half = x.shape[-1], size // 2
    if size % 2 or n > size:
        raise ValueError(f"rows of {n} points have no right-angle spectrum "
                         f"of length {size}")
    z = np.zeros(x.shape[:-1] + (half,), dtype=complex)
    z.real[..., :min(n, half)] = x[..., :half]
    if n > half:
        z.imag[..., :n - half] = x[..., half:]
    rows, cols = _split(half)
    view = z.reshape(z.shape[:-1] + (rows, cols))
    if rows > 1:
        view *= _turns(cols, rows, size)[:, None]
        np.fft.fft(view, axis=-2, out=view)
    _twiddle(view, size, 1)
    np.fft.fft(view, axis=-1, out=view)
    return z


def irfft(f: np.ndarray, size: int, lo: int, hi: int) -> np.ndarray:
    """Coefficients [lo, hi) of the real rows mod t^size + 1 whose
    right-angle spectra (see rfft) are f; f is overwritten.

    The steps of rfft run backwards, unnormalised transforms with the 1/M
    folded into the twiddles.  The unweighted inverse of a row is
    z_j = c_j + i c_{M+j}, M = size // 2: coefficient j < M of the product
    is the real part of z_j, and coefficient M + j its imaginary part.
    """
    half = size // 2
    rows, cols = _split(half)
    view = f.reshape(f.shape[:-1] + (rows, cols))
    np.fft.ifft(view, axis=-1, norm="forward", out=view)
    _twiddle(view, size, -1, 1.0 / half)
    if rows > 1:
        np.fft.ifft(view, axis=-2, norm="forward", out=view)
        view *= _turns(-cols, rows, size)[:, None]
    z = view.reshape(f.shape)
    out = np.empty(z.shape[:-1] + (hi - lo,))
    if lo < half:
        out[..., :min(hi, half) - lo] = z.real[..., lo:min(hi, half)]
    if hi > half:
        top = max(lo, half)
        out[..., top - lo:] = z.imag[..., top - half:hi - half]
    return out


def _product(x: np.ndarray, y: np.ndarray, lo: int, hi: int,
             size: int | None = None, fy: np.ndarray | None = None):
    """Coefficients [lo, hi) of the Cauchy product x*y, and the spectrum of y.

    x and y are single rows or equal stacks of rows, multiplied row by row
    along the last axis.  Products with x.shape[-1] * y.shape[-1] <=
    _DIRECT_WORK_LIMIT are direct, one np.convolve per row.  Larger ones
    are right-angle products mod t^size + 1 (rfft, irfft): one complex
    transform of size // 2 points per operand and one inverse, every row
    in one batched call.  The product is negacyclic: its coefficient
    j >= size lands at j - size with its sign flipped, and the caller
    picks size so that those positions miss [lo, hi).  fy, the spectrum
    rfft(y, size) from an earlier call, is reused when given; the returned
    spectrum (None on the direct path) can be passed on.  A given fy whose
    bin count is not size // 2 belongs to another length, and one whose
    rows are not those of x to another stack: ValueError.  So is an
    operand longer than size.  Only [lo, hi) is copied out of the
    transform, so that a caller holding it does not hold all size points
    alive.  size None takes the shortest length that holds the whole
    product, worked out only on the FFT path.
    """
    if x.shape[-1] * y.shape[-1] <= _DIRECT_WORK_LIMIT:
        if x.ndim == 1:
            return np.convolve(x, y)[lo:hi], fy
        return np.stack([np.convolve(u, v)[lo:hi] for u, v in zip(x, y)]), fy
    if size is None:
        size = _fast_len(x.shape[-1] + y.shape[-1] - 1)
    if fy is None:
        fy = rfft(y, size)
    elif fy.shape[-1] != size // 2:
        raise ValueError(f"spectrum of {fy.shape[-1]} bins passed to a product "
                         f"of negacyclic length {size}")
    elif fy.shape[:-1] != x.shape[:-1]:
        raise ValueError(f"spectrum of rows {fy.shape[:-1]} passed to a "
                         f"product of rows {x.shape[:-1]}")
    fx = rfft(x, size)
    fx *= fy
    return irfft(fx, size, lo, hi), fy


def mul_trunc(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Cauchy product of a and b truncated to m coefficients (length exactly m)."""
    la = min(len(a), m)
    lb = min(len(b), m)
    full, _ = _product(a[:la], b[:lb], 0, m)
    if len(full) < m:
        full = np.concatenate([full, np.zeros(m - len(full))])
    return full


def exp_recurrence(a: np.ndarray) -> np.ndarray:
    """exp* by the triangular recurrence m e_m = sum_{k=1..m} k a_k e_{m-k}."""
    # built reversed, rev[n-1-m] = e_m, so that both operands of every dot
    # are forward, contiguous slices (numpy copies a reversed view first)
    n = len(a)
    rev = np.zeros(n)
    rev[n - 1] = math.exp(a[0])
    w = np.arange(n) * a
    for m in range(1, n):
        rev[n - 1 - m] = np.dot(w[1 : m + 1], rev[n - m :]) / m
    return rev[::-1].copy()


def log_recurrence(e: np.ndarray) -> np.ndarray:
    """Inverse of exp_recurrence; requires e[0] > 0."""
    if not e[0] > 0.0:
        raise ValueError("log* needs a positive mass at u = 1")
    n = len(e)
    a = np.zeros(n)
    a[0] = math.log(e[0])
    ka = np.zeros(n)
    rev = e[::-1].copy()  # rev[n-1-j] = e_j, read forward as in exp_recurrence
    for m in range(1, n):
        s = np.dot(ka[1:m], rev[n - m : n - 1]) if m > 1 else 0.0
        a[m] = (m * e[m] - s) / (m * e[0])
        ka[m] = m * a[m]
    return a


def invert_recurrence(a: np.ndarray) -> np.ndarray:
    """Convolution inverse; requires a[0] != 0."""
    if a[0] == 0.0:
        raise ValueError("inverse needs nonzero mass at u = 1")
    n = len(a)
    rev = np.zeros(n)  # rev[n-1-m] = b_m, as in exp_recurrence
    rev[n - 1] = 1.0 / a[0]
    for m in range(1, n):
        rev[n - 1 - m] = -np.dot(a[1 : m + 1], rev[n - m :]) / a[0]
    return rev[::-1].copy()


def _refine_inverse(e: np.ndarray, r: np.ndarray, m: int,
                    fr: np.ndarray | None = None) -> np.ndarray:
    # One Newton step r <- r - r (e r - 1), taking r = 1/e mod x^p to
    # 1/e mod x^m for p = r.shape[-1] < m <= 2p, on each row.  Since
    # e r = 1 + O(x^p), the products only need coefficients [p, m) of e r
    # and [0, m - p) of the correction, and a length >= m keeps both clear
    # of wrap-around.  fr is rfft(r, _fast_len(m)) when the caller
    # has it already.
    p = r.shape[-1]
    size = _fast_len(m)
    d, fr = _product(e[..., :m], r, p, m, size, fr)
    c, _ = _product(d, r, 0, m - p, size, fr)
    return np.concatenate([r, -c], axis=-1)


def _extend(a: np.ndarray, e: np.ndarray, r: np.ndarray,
            keep_inverse_spectrum: bool = True):
    # Steps 2 and 3 of a round of _exp_newton_monic on each row: from
    # e = exp(a) mod x^m and r = 1/e mod x^m, the coefficients [m, m2) of
    # exp(a), m2 = a.shape[-1], and the spectrum of r at _fast_len(m2),
    # which is None when computed directly or not kept.  Each temporary is
    # dropped once spent, the spectrum of r before the step's product when
    # it is not kept.
    m, m2 = e.shape[-1], a.shape[-1]
    size = _fast_len(m2)
    la = a * np.arange(m2)
    la[..., 0] = 0.0
    q, fe = _product(la, e, m, m2, size)
    del la
    k_eps, fr = _product(q, r, 0, m2 - m, size)
    del q
    if not keep_inverse_spectrum:
        fr = None
    k_eps /= np.arange(m, m2)
    step, _ = _product(k_eps, e, 0, m2 - m, size, fe)
    return step, fr


def _exp_newton_monic(a: np.ndarray, pair: bool = False):
    # Newton iteration on each row of the (b, n) stack a, taken as if
    # a[:, 0] = 0, over the precisions n, ceil(n/2), ..., 1 taken upwards.
    # Entering a round m -> m2 <= 2m, e = exp(a) mod x^m and
    # r = 1/e mod x^ceil(m/2).  The round
    #   1. refines r to 1/e mod x^m (one reciprocal step);
    #   2. gets eps = a - log e, which vanishes below m, on [m, m2): with L
    #      the k-weighting, L e = (L a) e mod x^m, so k eps_k is coefficient
    #      k of ((L a) e - L e) r and only ((L a) e)[m:m2] and r mod x^m
    #      enter;
    #   3. sets e[m:m2] = (e eps)[m:m2], since exp(eps) = 1 + eps mod x^m2.
    # Steps 2 and 3 share the spectrum of e.  Step 2 multiplies by all of r,
    # not just r mod x^(m2 - m): the extra coefficients reach only indices
    # >= m2 - m, which it drops, and the spectrum of r at _fast_len(m2) is
    # then the one the next round's step 1 needs, so it is carried there.
    # Every round to precision ceil(n/2) runs on all rows at once; steps 2
    # and 3 of the last round and, when pair, the closing reciprocal step
    # to 1/e mod x^n run one row at a time (see the module docstring).
    # Returns the rows of exp(a) and, when pair, of 1/exp(a), as lists.
    b, n = a.shape
    precisions = [n]
    while precisions[-1] > 1:
        precisions.append((precisions[-1] + 1) // 2)
    e = np.ones((b, 1))
    r = np.ones((b, 1))
    fr = None
    for m2 in reversed(precisions[:-1]):
        m = e.shape[-1]
        if r.shape[-1] < m:
            # fr, the spectrum of the old r, is spent once r is refined
            r, fr = _refine_inverse(e, r, m, fr), None
        if m2 == n:
            break
        step, fr = _extend(a[:, :m2], e, r)
        e = np.concatenate([e, step], axis=-1)
        del step
    exps, inverses = [], []
    for i in range(b):
        e_i, r_i, fr = e[i], r[i], None
        if e_i.shape[-1] < n:
            step, fr = _extend(a[i], e_i, r_i, pair)
            e_i = np.concatenate([e_i, step])
            del step
        exps.append(e_i)
        if pair:
            inverses.append(_refine_inverse(e_i, r_i, n, fr)
                            if r_i.shape[-1] < n else r_i)
    return exps, inverses


def _finish(e: np.ndarray, a0: float, kh: np.ndarray,
            log_bound: float) -> np.ndarray:
    # Scale e = exp*(a'), a' the input with its u = 1 mass a0 removed, to
    # exp*(a) after two checks on log |exp*(a)_k|.  The a priori bound
    # |exp*(a)_k| <= e^{kh} exp(log_bound), log_bound = sum_j |a_j| e^{-jh},
    # holds because exp*(|a|) dominates exp*(a) and no coefficient of
    # exp*(|a_j| e^{-jh}) exceeds its total mass.  A result more than a
    # factor e above it is the garbage of an iteration whose intermediates
    # left the double range (ValueError); a result within it that is too
    # large for a double, or that holds a NaN, which no comparison with the
    # bound catches, raises OverflowError.
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(e)) + a0
    if float(np.max(log_mag - kh)) > log_bound + 1.0:
        raise ValueError(
            "exp* result exceeds its a priori envelope bound: the FFT "
            "iteration left the double range; use a weighted (tilted) input"
        )
    if not float(np.max(log_mag)) <= 708.0:
        raise OverflowError(_LEFT_THE_RANGE)
    e *= math.exp(a0)
    return e


def _recurrence(a: np.ndarray) -> np.ndarray:
    # exp_recurrence where the rule picks it, unwarned: an inf or NaN in
    # the result raises as a Newton result out of the double range does
    with np.errstate(over="ignore", invalid="ignore"):
        e = exp_recurrence(a)
    if not np.all(np.isfinite(e)):
        raise OverflowError(_LEFT_THE_RANGE)
    return e


def _log_envelope(a: np.ndarray, h: float):
    # kh, and for each row of a the log envelope bound S = sum |a_j| e^{-jh}
    # of _finish and the cancellation excess of exp*(a): S minus
    # s = sum a_j e^{-jh}; one weights array serves every row
    kh = h * np.arange(a.shape[-1])
    w = np.exp(-kh)
    rows = np.reshape(a, (-1, a.shape[-1]))
    log_bound = np.array([np.dot(np.abs(row), w) for row in rows])
    signed = np.array([np.dot(row, w) for row in rows])
    return (kh, log_bound.reshape(a.shape[:-1]),
            (log_bound - signed).reshape(a.shape[:-1]))


def _newton_envelope(a: np.ndarray, h: float):
    # _log_envelope(a, h) when a goes to Newton, None when it goes to the
    # recurrence: too short, or cancelling too strongly
    if len(a) < _NEWTON_MIN_N:
        return None
    envelope = _log_envelope(a, h)
    if envelope[2] > _NEWTON_MAX_EXCESS:
        return None
    return envelope


def exp_star(a: np.ndarray, h: float) -> np.ndarray:
    """exp* by Newton where it is fast and accurate, by the recurrence
    elsewhere (see the module docstring)."""
    envelope = _newton_envelope(a, h)
    if envelope is None:
        return _recurrence(a)
    return exp_newton(a, h, envelope)


def exp_star_pair(a: np.ndarray, h: float):
    """(exp* a, exp* -a) for a row a or for each row of a (b, n) stack.

    A row runs Newton only where exp_star would run Newton on both signs:
    the excess of exp*(-a) is S + s, so the pair's is S + |s|.  The rows
    that pass run as one stack, in lockstep (see the module docstring); the
    others take the recurrence, row by row.  One weights pass serves every
    row's rule and envelope check.
    """
    rows = np.reshape(a, (-1, a.shape[-1]))
    kh, log_bound, excess = _log_envelope(rows, h)
    newton = ((rows.shape[-1] >= _NEWTON_MIN_N)
              & ~((excess > _NEWTON_MAX_EXCESS)
                  | (2.0 * log_bound - excess > _NEWTON_MAX_EXCESS)))
    if newton.all():
        return exp_newton_pair(a, h, (kh, log_bound.reshape(a.shape[:-1]), None))
    pos, neg = np.empty(rows.shape), np.empty(rows.shape)
    if newton.any():
        pos[newton], neg[newton] = exp_newton_pair(
            rows[newton], h, (kh, log_bound[newton], None))
    for i in np.flatnonzero(~newton):
        pos[i], neg[i] = _recurrence(rows[i]), _recurrence(-rows[i])
    return pos.reshape(a.shape), neg.reshape(a.shape)


def _stacked(rows: list, shape: tuple) -> np.ndarray:
    # the rows as one array of the given shape; a single row is not copied
    return rows[0].reshape(shape) if len(rows) == 1 else np.stack(rows).reshape(shape)


def _newton(a: np.ndarray, h: float, envelope, pair: bool):
    # exp_newton (pair False) or exp_newton_pair on a row or a stack of rows
    a = np.asarray(a, dtype=float)
    kh, log_bound, _ = envelope or _log_envelope(a, h)
    rows = np.reshape(a, (-1, a.shape[-1]))
    bounds = np.reshape(log_bound, -1)
    # unwarned: _finish refuses an iteration that left the double range
    with np.errstate(over="ignore", invalid="ignore"):
        exps, inverses = _exp_newton_monic(rows, pair)
    results = [exps, inverses] if pair else [exps]
    for sign, out in zip((1.0, -1.0), results):
        for row, bound, res in zip(rows, bounds, out):
            _finish(res, sign * float(row[0]), kh, bound)
    return tuple(_stacked(out, a.shape) for out in results)


def exp_newton(a: np.ndarray, h: float, envelope=None) -> np.ndarray:
    """exp* via Newton/FFT, on the coefficients exactly as given.

    It never reweights: a raw, growing input is the caller's to weight (see
    the conditioning note above).  Raises OverflowError when the result
    cannot be represented in double precision, and ValueError when the
    result breaks the a priori envelope bound (see _finish).  envelope is
    _log_envelope(a, h) when the caller has it already.  A (b, n) stack
    runs its rows in lockstep and returns the stack of their exps.
    """
    return _newton(a, h, envelope, pair=False)[0]


def exp_newton_pair(a: np.ndarray, h: float, envelope=None):
    """(exp* a, exp* -a) from one Newton iteration, on the coefficients as given.

    exp*(-a) is the convolution inverse of exp*(a); one more reciprocal
    step at full length turns the inverse the iteration already tracks into
    it.  Both results pass the checks of exp_newton, and envelope and
    stacks are as there.
    """
    return _newton(a, h, envelope, pair=True)
