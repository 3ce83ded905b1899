"""Low-level coefficient kernels for the truncated convolution algebra.

Everything here works on plain float64 arrays indexed by lattice position;
the Measure wrapper and grid bookkeeping live one layer up.  Two exponential
algorithms are provided: the O(n^2) weighted-coefficient recurrence (the
derivation identity L exp* = (L a) * exp* read as a triangular solve) and an
O(n log n) Newton iteration on top of FFT products.

The Newton iteration doubles the precision of e = exp*(a) each round and
carries r = 1/e at the same precision alongside (Brent & Kung 1978).  A
round m -> M <= 2m gets the correction eps = a - log e on [m, M) from
((L a) e) r, multiplies it into e, and then refines r to precision M in
one inverse transform of spectra it already holds: since e r = 1 mod x^m,
the step e eps added to e has (e eps) r = eps mod x^(M - m), so the
reciprocal step needs only

    x^m c = ((e r - 1) + x^m eps) r   on [m, M),

whose spectrum is (fe fr - 1 + t^m feps) fr, and t^m multiplies the
spectrum point by point (_refine_spectra).  A round thus takes 5 forward
transforms (e, L a, r, the product q, eps) and 4 inverse ones (q, eps, the
step, the refine) of its own length, 9 in all, where refining r in
transforms of its own took 12: 10 at the round's length and 4 at half of
it.  Each product is taken mod t^N + 1 for the shortest length N whose
wrap-around misses the coefficients it must deliver (Bernstein, "Removing
redundancy in high-precision Newton iteration", 2004; Hanrot & Zimmermann,
"Newton iteration revisited", 2004).  By transform volume, the summed sizes
of the transforms in units of M(n), one product of two n-term rows (three
transforms of _fast_len(2n - 1) points), on the weighted Kahane tail:

    n            exp_newton     exp_newton_pair    (refine apart: exp, pair)
    500,001      2.85 M(n)      3.02 M(n)          3.35, 4.02
    2,800,001    2.84 M(n)      3.01 M(n)          3.34, 4.01

against 17/6 = 2.83 for Bernstein's exp.  Since exp*(-a) = 1/exp*(a), the
last round's refine, which a lone exp skips, turns the tracked r into
exp*(-a): exp_newton_pair returns both for one inverse transform more than
one exponential.

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
the peak RSS of a process running that exp from 352 to 483 MB.  The row
weights and chunk tables are cached per size and direction (_tables, at
most _TABLES_CACHED of them): the ladder of the Kahane pair keeps 2.5 MB
of them, and that of the de Haan exp 6.6 MB.  Each cached table lives in
an anonymous mapping of its own, outside the malloc heap, where it would
outlive the ladders' buffers among theirs.  Below _FOUR_STEP_MIN points
the split is (1, M), the same code reduced to one 1-D FFT, whose table is
one row of M points.  One forward and one inverse
transform of one row, median of 25 (11 at 2.8M) interleaved, on one core
of a 2-vCPU Intel Xeon (AVX-512), against scipy.fft's 1-D pocketfft with
its plan cache, which this replaced, and numpy.fft in one 1-D call:

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

Every round runs in lockstep up to precision ceil(n/2).  The last round,
whose products have full length, runs one row at a time, so that the
spectra of a stack of two rows take no more room than those of one exp:
two rows at precision ceil(n/2) transform about n/4 complex points each,
one row at full length n/2.  Run in lockstep too, the last round raised
the tracemalloc peak of the Kahane pair of two rows to 1.41 times that of
two sequential pairs, for no gain in time; it is 1.08 times now.  What the
stack adds is the other rows' e and r.

A ladder allocates its memory once (_exp_newton_monic): the (b, n) stacks
e and r of its results, r only ceil(n/2) long for a lone exp, and one
(3, need) complex workspace for the three spectra a round keeps alive,
those of e, of the product and of r, with need the largest rows times N/2
over the rounds.  Each round fills [m, M) of e and r in place through
irfft(..., out=), q and eps pass through e[m:M] until the step overwrites
them, rfft packs L a straight from a, and _log_envelope and _finish read
their rows _PASS points at a time.  In units of 8n bytes, one row of n
doubles, which a spectrum of N/2 ~ n/2 complex points takes too, a lone
exp holds 1 + 1/2 + 3 = 4.5 and a pair 5.  The tracemalloc peaks of one
exp on the weighted Kahane tail, against those of the ladder that
allocated round by round and kept the weights e^{-kh} at full length:

    n            exp_newton      exp_newton_pair
    500,001      4.76 (6.08)     5.23 (6.04)
    2,800,001    4.59 (6.02)     5.05 (6.01)

On a 2-vCPU Intel Xeon the peak RSS of the perfbench transform workload,
which runs the de Haan exp, fell from 212.8 to 160.9 MB, and that of
kahane from 96.6 to 86.2 MB (medians of ten and of six runs a side).  No
allocator option is set: at de Haan size the 67.5 MB workspace lies above
glibc's 32 MB ceiling on its mmap threshold, so it is mapped and handed
back when the exp returns, and tracemalloc sees it, as it would not see
an anonymous mmap.

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
h = 0.01 (c = 0.006 i, seed i, i = 1..300) grows with it, unevenly; the
second row is the same sweep with r refined in products of its own, whose
e r - 1 dropped the coefficients below m that the round's refine keeps:

    excess     <= 8    8-16    16-24   24-32   32-48   48-64   64-100
    max gap    3e-16   3e-15   3e-14   1e-12   7e-11   7e-7    2e-7
    (apart)    3e-16   2e-15   3e-15   1e-13   1e-12   4e-8    7e-9

The FFT rounds behave alike.  On weighted li + c uniform(-1, 1) (seed 7)
at h = 0.025, n = 2048, against the exact reference of the test suite
(max |error| over max |exact|), with the excess of exp*(a) / exp*(-a):

    c      excess       exp_newton(a)  (-a)     pair (a)   (-a)
    0.1    1.39/2.81    2.2e-15   2.5e-15       2.2e-15   3.3e-15
    0.2    3.34/4.79    1.3e-13   1.7e-13       1.3e-13   3.3e-13
    0.3    5.30/6.79    8.0e-12   8.4e-12       8.0e-12   2.0e-11
    (apart)
    0.1                 1.7e-15   1.7e-15       1.7e-15   8.2e-15
    0.2                 6.7e-14   8.1e-14       6.7e-14   1.7e-12
    0.3                 2.5e-12   2.6e-12       2.5e-12   1.9e-10

The two routes to exp*(-a) are now of one order; refined apart, the
pair's was up to 20 times worse than the direct one, and the exps 2 to 3
times better.  On weighted li at h = 0.01, n = 2^16 (excess 0, sum a =
7.1), exp_newton is within 1.0e-14 of the recurrence, 2.1e-16 refined
apart; on the Kahane and de Haan inputs the exps moved by 1.7e-16 at most.

So exp_star runs Newton from _NEWTON_MIN_N = 128 on inputs with excess
<= _NEWTON_MAX_EXCESS = 8, and the recurrence otherwise; exp_star_pair
runs Newton only if both signs pass, S + |s| <= 8, as exp*(-a) has excess
S + s.  Weighted prime densities have excess at most 1.52, either sign;
the uniform(-1, 1) inputs of the identity suite 33 to 60.  The excess
comes from the pass that takes the envelope bound of Newton anyway.  A badly conditioned input takes the recurrence at every size, at
O(n^2) cost: 57 ms at n = 16,383 (above), four times that per doubling of
n, some 45 s at n = 500,001.  A recurrence result holding an inf or NaN
raises OverflowError, as a Newton result out of the double range does.
invert and log_star run their recurrences on every size.
"""
from __future__ import annotations

import functools
import math
import mmap

import numpy as np

_DIRECT_WORK_LIMIT = 1 << 16
# complex transforms of fewer points run as one 1-D FFT, the rest as a
# four-step (see the docstring).  A forward and inverse pair took, 1-D
# against four-step: 0.53 against 0.68 ms at 16,384 points, 0.68 against
# 0.70 ms at 20,000, 1.18 against 0.76 ms at 22,500
_FOUR_STEP_MIN = 20_000
# complex points per block of rows in _refine_spectra, a few of which fit
# in a core's L2 cache
_BLOCK = 1 << 13
# points per block of the passes over a row that would otherwise build
# temporaries of its length: _ramp, _log_envelope and the checks of _finish
_PASS = 1 << 16
# transform sizes whose four-step tables stay cached, forward and inverse
# counted apart: the ladders of a few exps of different lengths
_TABLES_CACHED = 64
# exp_star runs Newton from this length up, on inputs whose
# cancellation excess (see _log_envelope) is at most _NEWTON_MAX_EXCESS
_NEWTON_MIN_N = 128
_NEWTON_MAX_EXCESS = 8.0
# _finish accepts on the weights a result within this factor of its bounds
_ROOM = 1.0 - 1e-9
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


@functools.lru_cache(maxsize=_TABLES_CACHED)
def _tables(size: int, sign: int):
    # The four-step's tables for products mod t^size + 1, forward (sign 1)
    # or inverse (sign -1, with the 1/M of the inverse folded in), over the
    # (A, B) split of M = size // 2 points, w = e^{i pi/size}: the row
    # weights w^(sign B a) as a column (None when A = 1); the twiddles of
    # the first chunk of s = isqrt(A) rows, T[r, b] = scale w^(sign b (1 - 4r));
    # and for each later chunk, starting at row c, the row w^(-4 sign c b).
    half = size // 2
    rows, cols = _split(half)
    s = math.isqrt(rows)
    weights = _turns(sign * cols, rows, size)[:, None] if rows > 1 else None
    chunk = _turns(sign * (1 - 4 * np.arange(s)), cols, size,
                   1.0 if sign > 0 else 1.0 / half)
    shifts = _turns(-4 * sign * np.arange(s, rows, s), cols, size)
    return _kept(weights), _kept(chunk), _kept(shifts)


def _kept(table: np.ndarray | None) -> np.ndarray | None:
    # a read-only copy of a cached table in an anonymous mapping of its
    # own, outside the malloc heap (see the module docstring)
    if table is None or table.size == 0:
        return table
    kept = np.frombuffer(mmap.mmap(-1, table.nbytes), dtype=table.dtype)
    kept = kept.reshape(table.shape)
    kept[...] = table
    kept.setflags(write=False)
    return kept


def _twiddle(view: np.ndarray, chunk: np.ndarray, shifts: np.ndarray) -> None:
    # view[..., k, b] *= scale w^(sign b (1 - 4k)) in place over the (A, B)
    # view of the four-step transform, chunk by chunk from the tables of
    # _tables: the chunk starting at row c takes T times its row of shifts
    s = chunk.shape[0]
    rows = view.shape[-2]
    view[..., :s, :] *= chunk
    for c, shift in zip(range(s, rows, s), shifts):
        view[..., c:c + s, :] *= chunk[:rows - c] * shift


def _refine_spectra(fe: np.ndarray, fr: np.ndarray, f: np.ndarray,
                    size: int, m: int) -> None:
    # The spectra of one round (see _round), in place: f <- f fe, the
    # spectrum of eps e, and fr <- (fe fr - 1 + t^m f) fr, that of
    # ((e r - 1) + x^m eps) r.  Bin j of a spectrum is its row's value at
    # w^(1 - 4j), w = e^{i pi/size}, and bin k + A l sits at (k, l) of the
    # (A, B) view, so t^m multiplies it by w^(m (1 - 4k)) w^(-4 A m l).
    # A block of rows at a time, so that no temporary has full length.
    rows, cols = _split(size // 2)
    down = _unit(m, size) * _turns(-4 * m, rows, size)
    across = _turns(-4 * rows * m, cols, size)
    views = [x.reshape(x.shape[:-1] + (rows, cols)) for x in (fe, fr, f)]
    block = max(1, _BLOCK // cols)
    for k in range(0, rows, block):
        ve, vr, vf = (v[..., k:k + block, :] for v in views)
        t = vf * (down[k:k + block, None] * across)
        t += ve * vr
        t -= 1.0
        vr *= t
        vf *= ve


def _ramp(op, x: np.ndarray, start: int, out: np.ndarray) -> None:
    # out[..., j] = op(x[..., j], start + j) along the last axis, _PASS
    # points at a time, so that no index array has full length
    n = x.shape[-1]
    for k in range(0, n, _PASS):
        stop = min(k + _PASS, n)
        op(x[..., k:stop], np.arange(start + k, start + stop),
           out=out[..., k:stop])


def rfft(x: np.ndarray, size: int, out: np.ndarray | None = None,
         ramp: bool = False) -> np.ndarray:
    """Right-angle spectrum of the real rows x for products mod t^size + 1.

    size is even and x.shape[-1] <= size.  A row x packs into the complex
    row z_j = (x_j + i x_{M+j}) w^j of M = size // 2 points, with
    w = e^{i pi/size}, and its spectrum is the four-step FFT of z along the
    last axis, in the permuted order of the module docstring.  Products of
    spectra taken at one size give, through irfft, the product of the rows
    mod t^size + 1.  An odd size, or a row longer than size, which the
    packing would cut short: ValueError.  ramp takes the spectrum of L x,
    the row k x_k (0 at k = 0), packed straight from x.  out, of shape
    x.shape[:-1] + (M,), receives the spectrum instead of a new array.
    """
    n, half = x.shape[-1], size // 2
    if size % 2 or n > size:
        raise ValueError(f"rows of {n} points have no right-angle spectrum "
                         f"of length {size}")
    z = np.empty(x.shape[:-1] + (half,), dtype=complex) if out is None else out
    low, high = min(n, half), max(n - half, 0)
    for part, lo, hi in ((z.real, 0, low), (z.imag, half, half + high)):
        if ramp:
            _ramp(np.multiply, x[..., lo:hi], lo, part[..., :hi - lo])
        else:
            part[..., :hi - lo] = x[..., lo:hi]
        part[..., hi - lo:] = 0.0
    if ramp:
        z.real[..., :1] = 0.0
    rows, cols = _split(half)
    weights, chunk, shifts = _tables(size, 1)
    view = z.reshape(z.shape[:-1] + (rows, cols))
    if rows > 1:
        view *= weights
        np.fft.fft(view, axis=-2, out=view)
    _twiddle(view, chunk, shifts)
    np.fft.fft(view, axis=-1, out=view)
    return z


def irfft(f: np.ndarray, size: int, lo: int, hi: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients [lo, hi) of the real rows mod t^size + 1 whose
    right-angle spectra (see rfft) are f; f is overwritten.

    The steps of rfft run backwards, unnormalised transforms with the 1/M
    folded into the twiddles.  The unweighted inverse of a row is
    z_j = c_j + i c_{M+j}, M = size // 2: coefficient j < M of the product
    is the real part of z_j, and coefficient M + j its imaginary part.
    out, of shape f.shape[:-1] + (hi - lo,), receives the coefficients
    instead of a new array.
    """
    half = size // 2
    rows, cols = _split(half)
    weights, chunk, shifts = _tables(size, -1)
    view = f.reshape(f.shape[:-1] + (rows, cols))
    np.fft.ifft(view, axis=-1, norm="forward", out=view)
    _twiddle(view, chunk, shifts)
    if rows > 1:
        np.fft.ifft(view, axis=-2, norm="forward", out=view)
        view *= weights
    z = view.reshape(f.shape)
    if out is None:
        out = np.empty(z.shape[:-1] + (hi - lo,))
    if lo < half:
        out[..., :min(hi, half) - lo] = z.real[..., lo:min(hi, half)]
    if hi > half:
        top = max(lo, half)
        out[..., top - lo:] = z.imag[..., top - half:hi - half]
    return out


def _convolve(x: np.ndarray, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # coefficients [lo, hi) of the Cauchy product x*y by np.convolve, for a
    # row or row by row for equal stacks of rows
    if x.ndim == 1:
        return np.convolve(x, y)[lo:hi]
    return np.stack([np.convolve(u, v)[lo:hi] for u, v in zip(x, y)])


def _product(x: np.ndarray, y: np.ndarray, lo: int, hi: int,
             size: int | None = None) -> np.ndarray:
    """Coefficients [lo, hi) of the Cauchy product x*y.

    x and y are single rows or equal stacks of rows, multiplied row by row
    along the last axis.  Products with x.shape[-1] * y.shape[-1] <=
    _DIRECT_WORK_LIMIT are direct, one np.convolve per row.  Larger ones
    are right-angle products mod t^size + 1 (rfft, irfft): one complex
    transform of size // 2 points per operand and one inverse, every row
    in one batched call.  The product is negacyclic: its coefficient
    j >= size lands at j - size with its sign flipped, and the caller
    picks size so that those positions miss [lo, hi).  An operand longer
    than size: ValueError.  Only [lo, hi) is copied out of the transform,
    so that a caller holding it does not hold all size points alive.  size
    None takes the shortest length that holds the whole product, worked
    out only on the FFT path.
    """
    if x.shape[-1] * y.shape[-1] <= _DIRECT_WORK_LIMIT:
        return _convolve(x, y, lo, hi)
    if size is None:
        size = _fast_len(x.shape[-1] + y.shape[-1] - 1)
    fx = rfft(x, size)
    fx *= rfft(y, size)
    return irfft(fx, size, lo, hi)


def mul_trunc(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Cauchy product of a and b truncated to m coefficients (length exactly m)."""
    la = min(len(a), m)
    lb = min(len(b), m)
    full = _product(a[:la], b[:lb], 0, m)
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


def _round(a: np.ndarray, e: np.ndarray, r: np.ndarray, m: int,
           spectra: np.ndarray, refine: bool) -> None:
    # One round of _exp_newton_monic on each row, in place: from
    # e = exp(a) mod x^m and r = 1/e mod x^m, held in [0, m) of e and r,
    # it fills [m, M) of e, and of r when refine, M = a.shape[-1] <= 2m.
    # Every product of the round is direct or every one a right-angle
    # product mod t^N + 1, N = _fast_len(M), as (L a) e is: the refine
    # reads the spectra of e, r and eps together.  Those take the rows of
    # spectra, a (3, need) workspace, and q and eps pass through e[m:M]
    # until the step overwrites them.
    M = a.shape[-1]
    if M * m <= _DIRECT_WORK_LIMIT:
        la = a * np.arange(M)
        la[..., 0] = 0.0
        q = _convolve(la, e[..., :m], m, M)
        eps = _convolve(q, r[..., :m], 0, M - m) / np.arange(m, M)
        if refine:
            g = np.zeros(e.shape[:-1] + (M,))
            g[..., :2 * m - 1] = _convolve(e[..., :m], r[..., :m], 0, M)
            g[..., 0] -= 1.0
            g[..., m:] += eps
            r[..., m:M] = -_convolve(g, r[..., :m], m, M)
        e[..., m:M] = _convolve(eps, e[..., :m], 0, M - m)
        return
    size = _fast_len(M)
    shape = e.shape[:-1] + (size // 2,)
    fe, f, fr = (row[:math.prod(shape)].reshape(shape) for row in spectra)
    new = e[..., m:M]
    rfft(e[..., :m], size, out=fe)
    rfft(a, size, out=f, ramp=True)
    f *= fe
    irfft(f, size, m, M, out=new)  # q
    rfft(r[..., :m], size, out=fr)
    rfft(new, size, out=f)
    f *= fr
    irfft(f, size, 0, M - m, out=new)
    _ramp(np.true_divide, new, m, new)  # eps
    rfft(new, size, out=f)
    if refine:
        _refine_spectra(fe, fr, f, size, m)
        irfft(f, size, 0, M - m, out=new)
        c = r[..., m:M]
        irfft(fr, size, m, M, out=c)
        np.negative(c, out=c)
    else:
        f *= fe
        irfft(f, size, 0, M - m, out=new)


def _exp_newton_monic(a: np.ndarray, pair: bool = False) -> tuple:
    # Newton iteration on each row of the (b, n) stack a, taken as if
    # a[:, 0] = 0, over the precisions n, ceil(n/2), ..., 1 taken upwards.
    # Entering a round m -> M <= 2m, e = exp(a) mod x^m and r = 1/e mod x^m.
    # The round
    #   1. gets eps = a - log e, which vanishes below m, on [m, M): with L
    #      the k-weighting, L e = (L a) e mod x^m, so k eps_k is coefficient
    #      k of ((L a) e - L e) r and only ((L a) e)[m:M] and r enter;
    #   2. sets e[m:M] = (e eps)[m:M], since exp(eps) = 1 + eps mod x^M;
    #   3. refines r to 1/e mod x^M for the new e.  The Newton step
    #      r - r (e r - 1) needs e r - 1 on [m, M), where it is
    #      (e_old r - 1) + x^m (e eps) r, and (e eps) r = eps mod x^(M - m)
    #      since e_old r = 1 mod x^m: so r[m:M] = -(((e_old r - 1)
    #      + x^m eps) r)[m:M], from the spectra of e_old, r and eps that
    #      steps 1 and 2 took, in one inverse transform.
    # Every round to precision ceil(n/2) runs on all rows at once; the last
    # round runs one row at a time (see the module docstring), and refines
    # only when pair.  The stacks e and r and the spectra's workspace are
    # allocated here, once, and every round fills its part of them; r is
    # ceil(n/2) long unless pair.  Returns (e,), or (e, r) when pair.
    b, n = a.shape
    ladder = [n]
    while ladder[-1] > 1:
        ladder.append((ladder[-1] + 1) // 2)
    ladder.reverse()
    rounds = list(zip(ladder, ladder[1:]))
    need = max([(b if M < n else 1) * (_fast_len(M) // 2) for m, M in rounds
                if M * m > _DIRECT_WORK_LIMIT], default=0)
    spectra = np.empty((3, need), dtype=complex)
    e = np.empty((b, n))
    r = np.empty((b, n if pair else (n + 1) // 2))
    e[:, 0] = r[:, 0] = 1.0
    for m, M in rounds[:-1]:
        _round(a[:, :M], e[:, :M], r[:, :M], m, spectra, True)
    if rounds:
        m = rounds[-1][0]
        for i in range(b):
            _round(a[i], e[i], r[i], m, spectra, pair)
    return (e, r) if pair else (e,)


def _decay(lo: int, hi: int, h: float) -> np.ndarray:
    # the weights e^{-kh} for k in [lo, hi)
    w = np.arange(lo, hi, dtype=float)
    w *= -h
    return np.exp(w, out=w)


def _finish(e: np.ndarray, a0: float, log_bound: float, h: float) -> np.ndarray:
    # Scale e = exp*(a'), a' the input with its u = 1 mass a0 removed, to
    # exp*(a) after two checks on log |exp*(a)_k|.  The a priori bound
    # |exp*(a)_k| <= e^{kh} exp(log_bound), log_bound = sum_j |a_j| e^{-jh},
    # holds because exp*(|a|) dominates exp*(a) and no coefficient of
    # exp*(|a_j| e^{-jh}) exceeds its total mass.  A result more than a
    # factor e above it is the garbage of an iteration whose intermediates
    # left the double range (ValueError); a result within it that is too
    # large for a double, or that holds a NaN, which no comparison with the
    # bound catches, raises OverflowError.  The checks read |e_k| e^{-kh}
    # and |e_k| against the exps of the two bounds; a result that does not
    # pass both with room to spare, or whose bound is below 1, is decided
    # on the logs instead.  Either pass runs _PASS points at a time, and
    # np.max of the blocks' maxima keeps a NaN.
    c = log_bound + 1.0 - a0
    blocks = range(0, e.shape[-1], _PASS)
    peaks, tops = [], []
    with np.errstate(invalid="ignore"):  # inf e^{-kh} where e^{-kh} underflowed
        for k in blocks:
            mag = np.abs(e[k:k + _PASS])
            tops.append(np.max(mag))
            mag *= _decay(k, k + mag.size, h)
            peaks.append(np.max(mag))
    if not (c >= 0.0
            and float(np.max(peaks)) <= _ROOM * math.exp(min(c, 709.0))
            and float(np.max(tops)) <= _ROOM * math.exp(min(708.0 - a0, 709.0))):
        peaks, tops = [], []
        with np.errstate(divide="ignore"):
            for k in blocks:
                log_mag = np.log(np.abs(e[k:k + _PASS]))
                log_mag += a0
                tops.append(np.max(log_mag))
                log_mag -= h * np.arange(k, k + log_mag.size)
                peaks.append(np.max(log_mag))
        if float(np.max(peaks)) > log_bound + 1.0:
            raise ValueError(
                "exp* result exceeds its a priori envelope bound: the FFT "
                "iteration left the double range; use a weighted (tilted) input"
            )
        if not float(np.max(tops)) <= 708.0:
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
    # for each row of a, the log envelope bound S = sum |a_j| w_j of _finish,
    # w_j = e^{-jh}, and the cancellation excess of exp*(a): S minus
    # s = sum a_j w_j.  Summed _PASS points at a time, every row against
    # one block of weights, so that neither w nor |a| has full length
    rows = np.reshape(a, (-1, a.shape[-1]))
    log_bound, signed = np.zeros(len(rows)), np.zeros(len(rows))
    for k in range(0, rows.shape[-1], _PASS):
        block = rows[:, k:k + _PASS]
        w = _decay(k, k + block.shape[-1], h)
        log_bound += np.abs(block) @ w
        signed += block @ w
    return (log_bound.reshape(a.shape[:-1]),
            (log_bound - signed).reshape(a.shape[:-1]))


def _newton_envelope(a: np.ndarray, h: float):
    # _log_envelope(a, h) when a goes to Newton, None when it goes to the
    # recurrence: too short, or cancelling too strongly
    if len(a) < _NEWTON_MIN_N:
        return None
    envelope = _log_envelope(a, h)
    if envelope[1] > _NEWTON_MAX_EXCESS:
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
    others take the recurrence, row by row.  One _log_envelope pass serves
    every row's rule and envelope bound.
    """
    rows = np.reshape(a, (-1, a.shape[-1]))
    log_bound, excess = _log_envelope(rows, h)
    newton = ((rows.shape[-1] >= _NEWTON_MIN_N)
              & ~((excess > _NEWTON_MAX_EXCESS)
                  | (2.0 * log_bound - excess > _NEWTON_MAX_EXCESS)))
    if newton.all():
        return exp_newton_pair(a, h, (log_bound.reshape(a.shape[:-1]), None))
    pos, neg = np.empty(rows.shape), np.empty(rows.shape)
    if newton.any():
        pos[newton], neg[newton] = exp_newton_pair(
            rows[newton], h, (log_bound[newton], None))
    for i in np.flatnonzero(~newton):
        pos[i], neg[i] = _recurrence(rows[i]), _recurrence(-rows[i])
    return pos.reshape(a.shape), neg.reshape(a.shape)


def _newton(a: np.ndarray, h: float, envelope, pair: bool):
    # exp_newton (pair False) or exp_newton_pair on a row or a stack of rows
    a = np.asarray(a, dtype=float)
    log_bound = (envelope or _log_envelope(a, h))[0]
    rows = np.reshape(a, (-1, a.shape[-1]))
    bounds = np.reshape(log_bound, -1)
    # unwarned: _finish refuses an iteration that left the double range
    with np.errstate(over="ignore", invalid="ignore"):
        stacks = _exp_newton_monic(rows, pair)
    for sign, stack in zip((1.0, -1.0), stacks):
        for row, out, bound in zip(rows, stack, bounds):
            _finish(out, sign * float(row[0]), bound, h)
    return tuple(stack.reshape(a.shape) for stack in stacks)


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

    exp*(-a) is the convolution inverse of exp*(a), which the iteration
    tracks; the last round's refine, one inverse transform, takes it to
    full length.  Both results pass the checks of exp_newton, and envelope
    and stacks are as there.
    """
    return _newton(a, h, envelope, pair=True)
