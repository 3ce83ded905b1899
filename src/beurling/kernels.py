"""Low-level coefficient kernels for the truncated convolution algebra.

Everything here works on plain float64 arrays indexed by lattice position;
the Measure wrapper and grid bookkeeping live one layer up.  Two exponential
algorithms are provided: the O(n^2) weighted-coefficient recurrence (the
derivation identity L exp* = (L a) * exp* read as a triangular solve) and an
O(n log n) Newton iteration on top of FFT products.  Each rule below keeps
the number that sets it; the BENCH_*.json file named with it holds the rest.

The Newton iteration doubles the precision of e = exp*(a) each round and
carries r = 1/e at the same precision alongside (Brent & Kung 1978).  A
round m -> M <= 2m gets the correction eps = a - log e on [m, M) from
((L a) e) r, multiplies it into e, and then refines r to precision M in
one inverse transform of spectra it already holds: since e r = 1 mod x^m,
the step e eps added to e has (e eps) r = eps mod x^(M - m), so the
reciprocal step needs only

    x^m c = ((e r - 1) + x^m eps) r   on [m, M),

whose spectrum is (fe fr - 1 + t^m feps) fr, and t^m multiplies the
spectrum point by point (_refine_spectra, which takes the negated
spectrum, so that r[m:M] comes out of the inverse with its sign).  A round
thus takes 5 forward transforms (e, L a, r, the product q, eps) and 4
inverse ones (q, eps, the step, the refine) of its own length, 9 in all,
and no whole-array pass of its own besides: a product of spectra rides in
the first pass of its inverse (irfft(..., times=)), and the weighting by k
and the divide by k in the packing of a forward transform
(rfft(..., ramp=)).  Each product is taken mod t^N + 1 for the shortest
length N whose wrap-around misses the coefficients it must deliver
(Bernstein, "Removing redundancy in high-precision Newton iteration",
2004; Hanrot & Zimmermann, "Newton iteration revisited", 2004).  In units
of M(n), one product of two n-term rows (three transforms of
_fast_len(2n - 1) points), an exp_newton on the weighted Kahane tail
transforms 2.85 M(n) and an exp_newton_pair 3.02 M(n) at n = 500,001,
against 17/6 = 2.83 for Bernstein's exp (BENCH_21.json transform_volume).
Since exp*(-a) = 1/exp*(a), the last round's refine, which a lone exp
skips, turns the tracked r into exp*(-a): exp_newton_pair returns both for
one inverse transform more than one exponential.

The ladder starts at m0, the first precision whose round multiplies more
than _DIRECT_WORK_LIMIT coefficient pairs (245 at n = 500,001, 256 at
16,383 and 32,768, 342 at 2,800,001, n up to 362): below it, rather than a
direct copy of the round, e and r are one stacked exp_recurrence on a and
-a, a_0 dropped, so a row with a_0 = 0 is the recurrence's to the bit, for
0.1-0.4 ms more per ladder than the direct rounds (BENCH_31.json seed_cost).
A lone exp with no round (n up to 362) reads no r and seeds a alone.

Products are right-angle (Crandall & Fagin, "Discrete weighted transforms
and large-integer arithmetic", Math. Comp. 62, 1994).  A real row x of at
most N points packs into the complex row z_j = (x_j + i x_{M+j}) w^j of
M = N/2 points, w = e^{i pi/N}; one complex FFT of M points per operand,
the product of the spectra, one inverse FFT and the weights w^-j give the
product mod t^N + 1, coefficient j < M as the real part of point j and
coefficient M + j as its imaginary part.  The product is negacyclic: a
coefficient at j >= N lands at j - N with its sign flipped, where every
caller drops it.  N is even and N/2 is 5-smooth (_fast_len), since
pocketfft runs factors 7 and 11 through slow generic passes.

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
its twiddles, so no transpose is ever made.  Below _FOUR_STEP_MIN points
the split is (1, M), one 1-D FFT.  Each twiddle is rounded from an
exponent reduced mod 2N; every one was within 7e-16 of its exact value at
N = 2,812,500.  The twiddles of a chunk of isqrt(A) rows are a table of
that many rows times one row per chunk, each the outer product of two
tables of about sqrt(B) exps: a full table cached per length raised the
peak RSS of a process running the de Haan exp from 352 to 483 MB.  The row
weights and chunk tables are cached per size and direction (_tables, at
most _TABLES_CACHED), each in an anonymous mapping of its own, outside the
malloc heap, where it would outlive the ladders' buffers among theirs.

Independent exps run in lockstep: exp_newton, exp_newton_pair and
exp_star_pair take a (b, n) stack of rows, a single row being the one-row
stack, and each FFT product of the ladder is one forward and one inverse
transform along the stack's last axis, whose rows equal the 1-D
transforms to the bit (BENCH_15.json).  The seed and every round up to
precision ceil(n/2) run in lockstep; the last, whose products have full
length, runs one row at a time, so that a stack's spectra take no more
room than one exp's: the tracemalloc peak of the Kahane pair of two rows
is 1.08 times that of two sequential pairs.

A ladder allocates its memory once (_exp_newton_monic): the (b, n) stacks
e and r of its results, r only ceil(n/2) long for a lone exp, and one
(3, need) complex workspace for the spectra of e, of the product and of r,
need being the largest rows times N/2 over the rounds; each round fills
[m, M) of e and r in place, and its q and k eps_k pass through e[m:M]
until the step overwrites them.  In units of 8n bytes a lone exp holds
1 + 1/2 + 3 = 4.5 and a pair 5; tracemalloc reads 4.76 and 5.23 at
n = 500,001 (BENCH_22.json tracemalloc).  No allocator option is set: at
de Haan size the workspace lies above glibc's 32 MB ceiling on its mmap
threshold, so it is mapped and handed back when the exp returns.

Passes run in two parts when the process may use more than one CPU
(os.sched_getaffinity): _halves runs the first part of a pass on the
calling thread and hands the second to the one thread of a
concurrent.futures.ThreadPoolExecutor.  rfft and irfft split each pass
by halves of the rows or of the columns of the (A, B) view, the twiddles
at a chunk of their table; _refine_spectra, _log_envelope and _finish
split their blocks (partial sums added afterwards in block order), and so
do density.discretize, measure.mellin and asymptotics._tail_estimates.
Each part writes only its own points, so every result is the same to the
bit on one CPU or two.  What stays on the calling thread, and why:

  - a pass over fewer than _SPLIT_MIN = 2^16 points (a transform counts
    the rows of its stack times M): split, a forward and inverse pair of
    32,768 points took 1.55 ms on two CPUs against 1.30 on one
    (BENCH_23.json transform_pair_one_cpu_against_two);
  - the cached tables (_tables), read before a split, and every public
    function, which a tracer with one stack of spans may wrap;
  - large temporaries: memory the pool's thread allocates stays in its own
    malloc arena, so a part writes into buffers its caller allocated
    (rows made on that thread raised the transform workload's peak RSS by
    11 MB).

The pool's thread runs its part in a copy of the caller's context, numpy's
errstate included, and its exception is raised on the caller once both
parts are done.  A process that never splits never loads the pool.

Conditioning: the exponential of a signed sequence can be dominated by
cancellation; relative accuracy is only meaningful when the positive
envelope exp*(|a|) stays within a few orders of magnitude of the result.
Nothing here reweights: a caller with raw, rapidly growing coefficients
exponentiates the u^{-s}-weighted copy c_k e^{-s k h} (measure.tilt, an
exact homomorphism that commutes with exp*) and weights back itself.
A Newton result is checked against the a priori envelope bound and
refused when inputs that grow too fast drove it out of the double range.
The cancellation excess S - s, with S = sum |a_j| e^{-jh} and
s = sum a_j e^{-jh}, is, untruncated, the log of the ratio of the weighted
masses of exp*(|a|) and exp*(a).  Over 300 inputs c * uniform(-1, 1) at
n = 256, h = 0.01, the largest Newton-vs-recurrence gap was 3e-16 at
excess up to 8 and 3e-15 at 8 to 16, and it reached 7e-7 past 48
(BENCH_28.json kernels_docstring_tables, with the FFT rounds' errors).

So exp_star runs Newton from _NEWTON_MIN_N = 128, below which a row is
exp_recurrence's own to the bit, a_0 included (BENCH_31.json newton_min_n),
on inputs with excess <= _NEWTON_MAX_EXCESS = 8, and the recurrence
otherwise; exp_star_pair runs Newton only if both signs pass,
S + |s| <= 8, as exp*(-a) has excess S + s.  Weighted prime densities
have excess at most 1.52, either sign; the uniform(-1, 1) inputs of the
identity suite 33 to 60.  Both apply the rule in one router
(_route), on each row of a stack, with the excess from Newton's envelope
pass; a badly conditioned input takes the recurrence at every size, at
O(n^2) cost.  The recurrences take a row or a stack of rows, one np.vecdot
over the rows per step; a result holding an inf or NaN raises
OverflowError, as a Newton result out of the double range does.  invert
and log_star run their recurrences on every size.
"""
from __future__ import annotations

import contextvars
import functools
import math
import mmap
import os
import threading

import numpy as np

# np.convolve beats transforms on products of at most this many coefficient
# pairs (mul_trunc); Newton ladders start past it (see the docstring)
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
# _halves splits passes over at least this many points; handing a part to
# the pool costs more than it saves below (see the module docstring)
_SPLIT_MIN = 1 << 16
# transform sizes whose four-step tables stay cached, forward and inverse
# counted apart: the ladders of a few exps of different lengths
_TABLES_CACHED = 64
# exp_star runs Newton from this length up, on inputs whose
# cancellation excess (see _log_envelope) is at most _NEWTON_MAX_EXCESS
_NEWTON_MIN_N = 128
_NEWTON_MAX_EXCESS = 8.0
_LEFT_THE_RANGE = ("exp* result left the double range; keep the computation "
                   "in a weighted (tilted) representation instead")
# the one-thread pool that runs the second part of each _halves split:
# made on the first split, under _starting, and dropped in a forked child,
# where its thread does not run
_pool = None
_starting = threading.Lock()
_THREAD_NAME = "beurling-halves"


def _forget_pool() -> None:
    # in a forked child: the parent's pool thread, and any thread that held
    # _starting, did not come along
    global _pool, _starting
    _pool, _starting = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cpus() -> int:
    # the CPUs this process may run on
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity to read: run on one
        return 1


def _halves(fn, n: int, align: int = 1, points: int | None = None) -> None:
    # fn(lo, hi) over [0, n) in two parts, [0, mid) on the calling thread
    # and [mid, n) on the pool's thread, when the process may run on more
    # than one CPU and the pass covers at least _SPLIT_MIN points (n unless
    # given): mid = align ceil(u/2) for the u = ceil(n/align) units of
    # align, so the caller takes the larger half.  Otherwise, when called
    # from the pool's thread itself, and once the pool refuses work at
    # interpreter shutdown: fn(0, n).  fn must write disjoint parts of its
    # outputs for disjoint ranges and call only numpy and private helpers
    # (see the module docstring).  An exception raised on the pool's
    # thread is raised here once both parts are done.
    global _pool
    mid = align * ((-(-n // align) + 1) // 2)
    if (mid >= n or (n if points is None else points) < _SPLIT_MIN or _cpus() < 2
            or threading.current_thread().name.startswith(_THREAD_NAME)):
        fn(0, n)
        return
    try:
        if _pool is None:
            with _starting:
                if _pool is None:
                    from concurrent.futures import ThreadPoolExecutor
                    _pool = ThreadPoolExecutor(1, thread_name_prefix=_THREAD_NAME)
        # in a copy of the caller's context, where numpy's errstate lives
        part = _pool.submit(contextvars.copy_context().run, fn, mid, n)
    except RuntimeError:  # interpreter shutdown has begun (see the docstring)
        fn(0, n)
        return
    try:
        fn(0, mid)
    finally:
        part.exception()  # waits for the pool's part
    part.result()


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


def _twiddle(view: np.ndarray, chunk: np.ndarray, shifts: np.ndarray,
             lo: int, hi: int) -> None:
    # view[..., k, b] *= scale w^(sign b (1 - 4k)) in place for the rows k
    # in [lo, hi) of the (A, B) view of the four-step transform, lo a
    # multiple of the chunk's rows, chunk by chunk from the tables of
    # _tables: the chunk starting at row c takes T times its row of shifts
    s = chunk.shape[0]
    for c in range(lo, hi, s):
        rows = view[..., c:min(c + s, hi), :]
        if c == 0:
            rows *= chunk[:rows.shape[-2]]
        else:
            rows *= chunk[:rows.shape[-2]] * shifts[c // s - 1]


def _refine_spectra(fe: np.ndarray, fr: np.ndarray, f: np.ndarray,
                    size: int, m: int) -> None:
    # The reciprocal's spectrum of one round (see _round), in place:
    # fr <- (1 - (t^m f + fe fr)) fr, that of -((e r - 1) + x^m eps) r, with
    # f the spectrum of eps, which it leaves alone.  Bin j of a spectrum is
    # its row's value at w^(1 - 4j), w = e^{i pi/size}, and bin k + A l sits
    # at (k, l) of the (A, B) view, so t^m multiplies it by
    # w^(m (1 - 4k)) w^(-4 A m l).  A block of rows at a time, so that no
    # temporary has full length.
    rows, cols = _split(size // 2)
    down = _unit(m, size) * _turns(-4 * m, rows, size)
    across = _turns(-4 * rows * m, cols, size)
    views = [x.reshape(x.shape[:-1] + (rows, cols)) for x in (fe, fr, f)]
    block = max(1, _BLOCK // cols)

    def blocks(lo, hi):
        for k in range(lo, hi, block):
            ve, vr, vf = (v[..., k:k + block, :] for v in views)
            t = vf * (down[k:k + block, None] * across)
            t += ve * vr
            np.subtract(1.0, t, out=t)
            vr *= t

    _halves(blocks, rows, block, fe.size)


def _ramp(op, x: np.ndarray, start: int, out: np.ndarray) -> None:
    # out[..., j] = op(x[..., j], start + j) along the last axis, _PASS
    # points at a time, so that no index array has full length
    n = x.shape[-1]
    for k in range(0, n, _PASS):
        stop = min(k + _PASS, n)
        op(x[..., k:stop], np.arange(start + k, start + stop),
           out=out[..., k:stop])


def rfft(x: np.ndarray, size: int, out: np.ndarray | None = None,
         ramp: tuple | None = None) -> np.ndarray:
    """Right-angle spectrum of the real rows x for products mod t^size + 1.

    size is even and x.shape[-1] <= size.  A row x packs into the complex
    row z_j = (x_j + i x_{M+j}) w^j of M = size // 2 points, with
    w = e^{i pi/size}, and its spectrum is the four-step FFT of z along the
    last axis, in the permuted order of the module docstring.  Products of
    spectra taken at one size give, through irfft, the product of the rows
    mod t^size + 1.  An odd size, or a row longer than size, which the
    packing would cut short: ValueError.  ramp, a pair (op, start), takes
    the spectrum of the row op(x_k, start + k) packed straight from x:
    (np.multiply, 0) that of L x, the row k x_k, and (np.true_divide, m)
    that of x_k / (m + k).  out, of shape
    x.shape[:-1] + (M,), receives the spectrum instead of a new array.
    """
    n, half = x.shape[-1], size // 2
    if size % 2 or n > size:
        raise ValueError(f"rows of {n} points have no right-angle spectrum "
                         f"of length {size}")
    z = np.empty(x.shape[:-1] + (half,), dtype=complex) if out is None else out
    rows, cols = _split(half)
    weights, chunk, shifts = _tables(size, 1)
    view = z.reshape(z.shape[:-1] + (rows, cols))

    def pack(r0, r1):
        # rows [r0, r1) of the view: points [lo, hi) of z, where point p
        # takes x_p, or op(x_p, start + p) when ramp, as its real part, and
        # x_{half + p} alike as its imaginary part
        lo, hi = r0 * cols, r1 * cols
        for part, base in ((z.real, 0), (z.imag, half)):
            stop = min(max(n - base, lo), hi)
            if ramp:
                op, start = ramp
                _ramp(op, x[..., base + lo:base + stop], start + base + lo,
                      part[..., lo:stop])
            else:
                part[..., lo:stop] = x[..., base + lo:base + stop]
            part[..., stop:hi] = 0.0
        if rows > 1:
            view[..., r0:r1, :] *= weights[r0:r1]

    def down(c0, c1):
        block = view[..., c0:c1]
        np.fft.fft(block, axis=-2, out=block)

    def across(r0, r1):
        block = view[..., r0:r1, :]
        _twiddle(view, chunk, shifts, r0, r1)
        np.fft.fft(block, axis=-1, out=block)

    _halves(pack, rows, points=z.size)
    if rows > 1:
        _halves(down, cols, points=z.size)
    _halves(across, rows, len(chunk), z.size)
    return z


def irfft(f: np.ndarray, size: int, lo: int, hi: int,
          out: np.ndarray | None = None,
          times: np.ndarray | None = None) -> np.ndarray:
    """Coefficients [lo, hi) of the real rows mod t^size + 1 whose
    right-angle spectra (see rfft) are f, or f times when given, the
    spectrum of a product; f is overwritten.

    The steps of rfft run backwards, unnormalised transforms with the 1/M
    folded into the twiddles; times multiplies each block of rows of f,
    as f times, just before its row FFTs.  The unweighted inverse of a row
    is z_j = c_j + i c_{M+j}, M = size // 2: coefficient j < M of the
    product is the real part of z_j, and coefficient M + j its imaginary
    part.  Unless 0 <= lo <= hi <= size: ValueError.  out, of shape
    f.shape[:-1] + (hi - lo,), receives the coefficients instead of a new
    array.
    """
    if not 0 <= lo <= hi <= size:
        raise ValueError(f"coefficients [{lo}, {hi}) lie outside a product "
                         f"mod t^{size} + 1")
    half = size // 2
    rows, cols = _split(half)
    weights, chunk, shifts = _tables(size, -1)
    view = f.reshape(f.shape[:-1] + (rows, cols))
    z = view.reshape(f.shape)
    by = None if times is None else times.reshape(view.shape)
    if out is None:
        out = np.empty(z.shape[:-1] + (hi - lo,))

    def across(r0, r1):
        block = view[..., r0:r1, :]
        if by is not None:
            block *= by[..., r0:r1, :]
        np.fft.ifft(block, axis=-1, norm="forward", out=block)
        _twiddle(view, chunk, shifts, r0, r1)

    def down(c0, c1):
        block = view[..., c0:c1]
        np.fft.ifft(block, axis=-2, norm="forward", out=block)

    def unpack(r0, r1):
        # rows [r0, r1) of the view: points [p0, p1) of z, whose real parts
        # are coefficients p and imaginary parts coefficients half + p
        p0, p1 = r0 * cols, r1 * cols
        if rows > 1:
            view[..., r0:r1, :] *= weights[r0:r1]
        a, b = max(lo, p0), min(hi, half, p1)
        if a < b:
            out[..., a - lo:b - lo] = z.real[..., a:b]
        a, b = max(lo - half, p0), min(hi - half, p1)
        if a < b:
            out[..., a + half - lo:b + half - lo] = z.imag[..., a:b]

    _halves(across, rows, len(chunk), f.size)
    if rows > 1:
        _halves(down, cols, points=f.size)
    _halves(unpack, rows, points=f.size)
    return out


def mul_trunc(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Cauchy product of a and b truncated to m coefficients (length exactly m).

    Up to _DIRECT_WORK_LIMIT coefficient pairs one np.convolve, past it a
    right-angle product (rfft, irfft) of the shortest length that holds it.
    """
    a, b = a[:m], b[:m]
    hi = min(m, len(a) + len(b) - 1)
    out = np.zeros(m)
    if len(a) * len(b) <= _DIRECT_WORK_LIMIT:
        out[:hi] = np.convolve(a, b)[:hi]
    else:
        size = _fast_len(len(a) + len(b) - 1)
        irfft(rfft(a, size), size, 0, hi, out=out[:hi], times=rfft(b, size))
    return out


def exp_recurrence(a: np.ndarray) -> np.ndarray:
    """exp* by the triangular recurrence m e_m = sum_{k=1..m} k a_k e_{m-k},
    on a row or on each row of a (b, n) stack."""
    # built reversed, rev[:, n-1-m] = e_m, so that the dots read forward,
    # contiguous slices; np.vecdot over the rows rounds as np.dot per row,
    # and e_0 is math.exp, from which np.exp can differ in the last bit
    rows = np.reshape(a, (-1, a.shape[-1]))
    b, n = rows.shape
    rev = np.zeros((b, n))
    rev[:, n - 1] = [math.exp(x) for x in rows[:, 0].tolist()]
    w = np.arange(n) * rows
    for m in range(1, n):
        rev[:, n - 1 - m] = np.vecdot(w[:, 1 : m + 1], rev[:, n - m :]) / m
    return rev[:, ::-1].copy().reshape(a.shape)


def log_recurrence(e: np.ndarray) -> np.ndarray:
    """Inverse of exp_recurrence, on a row or a stack; requires e_0 > 0."""
    rows = np.reshape(e, (-1, e.shape[-1]))
    if not np.all(rows[:, 0] > 0.0):
        raise ValueError("log* needs a positive mass at u = 1")
    b, n = rows.shape
    a, ka = np.zeros((b, n)), np.zeros((b, n))
    a[:, 0] = [math.log(x) for x in rows[:, 0].tolist()]
    rev = rows[:, ::-1].copy()  # rev[:, n-1-j] = e_j, as in exp_recurrence
    for m in range(1, n):
        s = np.vecdot(ka[:, 1:m], rev[:, n - m : n - 1])
        a[:, m] = (m * rows[:, m] - s) / (m * rows[:, 0])
        ka[:, m] = m * a[:, m]
    return a.reshape(e.shape)


def invert_recurrence(a: np.ndarray) -> np.ndarray:
    """Convolution inverse, on a row or a stack; requires a_0 != 0."""
    rows = np.reshape(a, (-1, a.shape[-1]))
    head = rows[:, 0]
    if np.any(head == 0.0):
        raise ValueError("inverse needs nonzero mass at u = 1")
    b, n = rows.shape
    rev = np.zeros((b, n))  # rev[:, n-1-m] = b_m, as in exp_recurrence
    rev[:, n - 1] = 1.0 / head
    for m in range(1, n):
        rev[:, n - 1 - m] = -np.vecdot(rows[:, 1 : m + 1], rev[:, n - m :]) / head
    return rev[:, ::-1].copy().reshape(a.shape)


def _round(a: np.ndarray, e: np.ndarray, r: np.ndarray, m: int,
           spectra: np.ndarray, refine: bool) -> None:
    # One round of _exp_newton_monic on each row, in place: from
    # e = exp(a) mod x^m and r = 1/e mod x^m, held in [0, m) of e and r,
    # it fills [m, M) of e, and of r when refine, M = a.shape[-1] <= 2m,
    # by right-angle products mod t^N + 1, N = _fast_len(M).  The spectra
    # of e, r and eps take the rows of spectra, a (3, need) workspace, and
    # q and k eps_k pass through e[m:M] until the step overwrites them.
    M = a.shape[-1]
    size = _fast_len(M)
    shape = e.shape[:-1] + (size // 2,)
    fe, f, fr = (row[:math.prod(shape)].reshape(shape) for row in spectra)
    new = e[..., m:M]
    rfft(e[..., :m], size, out=fe)
    rfft(a, size, out=f, ramp=(np.multiply, 0))
    irfft(f, size, m, M, out=new, times=fe)  # q
    rfft(r[..., :m], size, out=fr)
    rfft(new, size, out=f)
    irfft(f, size, 0, M - m, out=new, times=fr)  # k eps_k
    rfft(new, size, out=f, ramp=(np.true_divide, m))  # eps
    if refine:
        _refine_spectra(fe, fr, f, size, m)
        irfft(fr, size, m, M, out=r[..., m:M])
    irfft(f, size, 0, M - m, out=new, times=fe)


def _exp_newton_monic(a: np.ndarray, pair: bool = False) -> tuple:
    # Newton iteration on each row of the (b, n) stack a, taken as if
    # a[:, 0] = 0, over the precisions n, ceil(n/2), ..., m0 taken upwards,
    # from the recurrence's e and r below m0 (see the module docstring).
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
    # ceil(n/2) long unless pair, and the seed takes -a only where a round
    # or the pair reads r.  Returns (e,), or (e, r) when pair.
    b, n = a.shape
    rounds, m0 = [], n
    while m0 * ((m0 + 1) // 2) > _DIRECT_WORK_LIMIT:
        rounds.insert(0, ((m0 + 1) // 2, m0))
        m0 = (m0 + 1) // 2
    need = max([(b if M < n else 1) * _fast_len(M) // 2 for m, M in rounds], default=0)
    spectra = np.empty((3, need), dtype=complex)
    e = np.empty((b, n))
    r = np.empty((b, n if pair else (n + 1) // 2))
    seed = np.stack((a[:, :m0], -a[:, :m0]) if pair or rounds else (a[:, :m0],))
    seed[..., 0] = 0.0
    e[:, :m0], *tracked = exp_recurrence(seed)
    if tracked:
        r[:, :m0] = tracked[0]
    for m, M in rounds[:-1]:
        _round(a[:, :M], e[:, :M], r[:, :M], m, spectra, True)
    if rounds:
        m = rounds[-1][0]
        for i in range(b):
            _round(a[i], e[i], r[i], m, spectra, pair)
    return (e, r) if pair else (e,)


def _finish(e: np.ndarray, a0: float, log_bound: float, h: float) -> np.ndarray:
    # Scale e = exp*(a'), a' the input with its u = 1 mass a0 removed, to
    # exp*(a) after two checks on log |exp*(a)_k|.  The a priori bound
    # |exp*(a)_k| <= e^{kh} exp(log_bound), log_bound = sum_j |a_j| e^{-jh},
    # holds because exp*(|a|) dominates exp*(a) and no coefficient of
    # exp*(|a_j| e^{-jh}) exceeds its total mass.  A result more than a
    # factor e above it is the garbage of an iteration whose intermediates
    # left the double range (ValueError); a result within it that is too
    # large for a double, or that holds a NaN, which no comparison with the
    # bound catches, raises OverflowError.  One pass, _PASS points at a
    # time, takes the maxima of a block's logs and then scales the block;
    # np.max of the blocks' maxima keeps a NaN.
    n = e.shape[-1]
    peaks, tops = np.empty(-(-n // _PASS)), np.empty(-(-n // _PASS))
    scale = math.exp(min(a0, 708.0))  # e_0 = 1: past 708 the tops refuse

    def checked(lo, hi):
        for k in range(lo, hi, _PASS):
            block = e[k:k + _PASS]
            log_mag = np.log(np.abs(block))
            log_mag += a0
            tops[k // _PASS] = np.max(log_mag)
            log_mag -= h * np.arange(k, k + block.size)
            peaks[k // _PASS] = np.max(log_mag)
            block *= scale

    with np.errstate(divide="ignore", over="ignore"):  # log 0; a refused result
        _halves(checked, n, _PASS)
    if float(np.max(peaks)) > log_bound + 1.0:
        raise ValueError(
            "exp* result exceeds its a priori envelope bound: the FFT "
            "iteration left the double range; use a weighted (tilted) input"
        )
    if not float(np.max(tops)) <= 708.0:
        raise OverflowError(_LEFT_THE_RANGE)
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
    n = rows.shape[-1]
    sums = np.empty((-(-n // _PASS), 2, len(rows)))

    def summed(lo, hi):
        for k in range(lo, hi, _PASS):
            block = rows[:, k:k + _PASS]
            w = np.arange(k, k + block.shape[-1], dtype=float)
            w *= -h
            np.exp(w, out=w)
            sums[k // _PASS] = np.abs(block) @ w, block @ w

    _halves(summed, n, _PASS, rows.size)
    log_bound, signed = np.zeros(len(rows)), np.zeros(len(rows))
    for bound, part in sums:  # in block order, whichever thread summed them
        log_bound += bound
        signed += part
    return (log_bound.reshape(a.shape[:-1]),
            (log_bound - signed).reshape(a.shape[:-1]))


def _route(a: np.ndarray, h: float, pair: bool):
    # exp_star (pair False) or exp_star_pair on a row or a stack of rows,
    # after one _log_envelope pass: the rows that go to Newton run as one
    # stack, through the public exp_newton or exp_newton_pair, and the
    # others, both signs of a pair, as one stack on the recurrence
    rows = np.reshape(a, (-1, a.shape[-1]))
    log_bound, excess = _log_envelope(rows, h)
    if pair:  # exp*(-a) has excess S + s
        excess = np.maximum(excess, 2.0 * log_bound - excess)
    # a NaN excess goes to Newton, whose _finish refuses the result
    newton = (rows.shape[-1] >= _NEWTON_MIN_N) & ~(excess > _NEWTON_MAX_EXCESS)
    exp = exp_newton_pair if pair else exp_newton
    if newton.all():
        return exp(a, h, log_bound.reshape(a.shape[:-1]))
    outs = np.empty((1 + pair,) + rows.shape)
    if newton.any():
        outs[:, newton] = exp(rows[newton], h, log_bound[newton])
    outs[:, ~newton] = _recurrence(np.multiply.outer((1.0, -1.0)[:1 + pair], rows[~newton]))
    outs = outs.reshape((1 + pair,) + a.shape)
    return tuple(outs) if pair else outs[0]


def exp_star(a: np.ndarray, h: float) -> np.ndarray:
    """exp* by Newton where it is fast and accurate, by the recurrence
    elsewhere (see the module docstring), on a row or on each row of a
    (b, n) stack."""
    return _route(a, h, pair=False)


def exp_star_pair(a: np.ndarray, h: float):
    """(exp* a, exp* -a) for a row a or for each row of a (b, n) stack.

    A row runs Newton only where exp_star would run Newton on both signs:
    the excess of exp*(-a) is S + s, so the pair's is S + |s|.  The rows
    that pass run as one stack, in lockstep (see the module docstring); the
    others, both signs, as one stack on the recurrence.  One _log_envelope
    pass serves every row's rule and envelope bound.
    """
    return _route(a, h, pair=True)


def _newton(a: np.ndarray, h: float, log_bound, pair: bool):
    # exp_newton (pair False) or exp_newton_pair on a row or a stack of rows
    a = np.asarray(a, dtype=float)
    if log_bound is None:
        log_bound = _log_envelope(a, h)[0]
    rows = np.reshape(a, (-1, a.shape[-1]))
    bounds = np.reshape(log_bound, -1)
    # unwarned: _finish refuses an iteration that left the double range
    with np.errstate(over="ignore", invalid="ignore"):
        stacks = _exp_newton_monic(rows, pair)
    for sign, stack in zip((1.0, -1.0), stacks):
        for row, out, bound in zip(rows, stack, bounds):
            _finish(out, sign * float(row[0]), bound, h)
    return tuple(stack.reshape(a.shape) for stack in stacks)


def exp_newton(a: np.ndarray, h: float, log_bound=None) -> np.ndarray:
    """exp* via Newton/FFT, on the coefficients exactly as given.

    It never reweights: a raw, growing input is the caller's to weight (see
    the conditioning note above).  Raises OverflowError when the result
    cannot be represented in double precision, and ValueError when the
    result breaks the a priori envelope bound (see _finish).  log_bound is
    _log_envelope(a, h)[0] when the caller has it already.  A (b, n) stack
    runs its rows in lockstep and returns the stack of their exps.
    """
    return _newton(a, h, log_bound, pair=False)[0]


def exp_newton_pair(a: np.ndarray, h: float, log_bound=None):
    """(exp* a, exp* -a) from one Newton iteration, on the coefficients as given.

    exp*(-a) is the convolution inverse of exp*(a), which the iteration
    tracks; the last round's refine, one inverse transform, takes it to
    full length.  Both results pass the checks of exp_newton, and log_bound
    and stacks are as there.
    """
    return _newton(a, h, log_bound, pair=True)
