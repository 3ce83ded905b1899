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
carried into the next round's refine, and each product is a cyclic FFT of
the shortest length whose wrap-around misses the coefficients it must
deliver (Bernstein, "Removing redundancy in high-precision Newton
iteration", 2004; Hanrot & Zimmermann, "Newton iteration revisited",
2004).  Since exp*(-a) = 1/exp*(a), one more reciprocal step at full
length, reading the carried spectrum, turns the tracked r into exp*(-a):
exp_newton_pair returns both for about the price of one exponential.

Cyclic lengths are 5-smooth, next_fast_len(m, real=True): the 7- and
11-smooth lengths it gives otherwise are slow in pocketfft's real
transforms.  One rfft + irfft, best of 15 on one core of an AMD EPYC, and
the sum of that over the lengths of a Newton ladder (precisions >= 512):

    n            next_fast_len(n)      real=True             ladder
    500,001      500,094    10.1 ms    506,250    8.7 ms     11.1 -> 8.9 ms
    2,800,001    2,806,650  78.3 ms    2,812,500  60.5 ms    105 -> 87 ms

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
from scipy.fft import irfft, next_fast_len, rfft

_DIRECT_WORK_LIMIT = 1 << 16
# exp_star runs Newton from this length up, on inputs whose
# cancellation excess (see _log_envelope) is at most _NEWTON_MAX_EXCESS
_NEWTON_MIN_N = 128
_NEWTON_MAX_EXCESS = 8.0
_LEFT_THE_RANGE = ("exp* result left the double range; keep the computation "
                   "in a weighted (tilted) representation instead")


def _fast_len(m: int) -> int:
    # the shortest cyclic length >= m that is 5-smooth (see the docstring)
    return next_fast_len(m, real=True)


def _product(x: np.ndarray, y: np.ndarray, lo: int, hi: int, size: int,
             fy: np.ndarray | None = None):
    """Coefficients [lo, hi) of the Cauchy product x*y, and the spectrum of y.

    Products with len(x) * len(y) <= _DIRECT_WORK_LIMIT are direct.  Larger
    ones are cyclic of length size, which the caller picks so that the part
    of the product wrapped past size misses [lo, hi).  fy, the spectrum
    rfft(y, size) from an earlier call, is reused when given; the returned
    spectrum (None on the direct path) can be passed on.  A given fy whose
    bin count is not size // 2 + 1 belongs to another length: ValueError.
    The coefficients are copied out of the cyclic buffer, so that a caller
    holding them does not hold all size points alive.
    """
    if len(x) * len(y) <= _DIRECT_WORK_LIMIT:
        return np.convolve(x, y)[lo:hi], fy
    if fy is None:
        fy = rfft(y, size)
    elif len(fy) != size // 2 + 1:
        raise ValueError(f"spectrum of {len(fy)} bins passed to a product "
                         f"of cyclic length {size}")
    return irfft(rfft(x, size) * fy, size)[lo:hi].copy(), fy


def mul_trunc(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Cauchy product of a and b truncated to m coefficients (length exactly m)."""
    la = min(len(a), m)
    lb = min(len(b), m)
    full, _ = _product(a[:la], b[:lb], 0, m, _fast_len(la + lb - 1))
    if len(full) < m:
        full = np.concatenate([full, np.zeros(m - len(full))])
    return full


def exp_recurrence(a: np.ndarray) -> np.ndarray:
    """exp* by the triangular recurrence m e_m = sum_{k=1..m} k a_k e_{m-k}."""
    n = len(a)
    e = np.zeros(n)
    e[0] = math.exp(a[0])
    w = np.arange(n) * a
    for m in range(1, n):
        e[m] = np.dot(w[1 : m + 1], e[m - 1 :: -1]) / m
    return e


def log_recurrence(e: np.ndarray) -> np.ndarray:
    """Inverse of exp_recurrence; requires e[0] > 0."""
    if not e[0] > 0.0:
        raise ValueError("log* needs a positive mass at u = 1")
    n = len(e)
    a = np.zeros(n)
    a[0] = math.log(e[0])
    ka = np.zeros(n)
    for m in range(1, n):
        s = np.dot(ka[1:m], e[m - 1 : 0 : -1]) if m > 1 else 0.0
        a[m] = (m * e[m] - s) / (m * e[0])
        ka[m] = m * a[m]
    return a


def invert_recurrence(a: np.ndarray) -> np.ndarray:
    """Convolution inverse; requires a[0] != 0."""
    if a[0] == 0.0:
        raise ValueError("inverse needs nonzero mass at u = 1")
    n = len(a)
    b = np.zeros(n)
    b[0] = 1.0 / a[0]
    for m in range(1, n):
        b[m] = -np.dot(a[1 : m + 1], b[m - 1 :: -1]) / a[0]
    return b


def _refine_inverse(e: np.ndarray, r: np.ndarray, m: int,
                    fr: np.ndarray | None = None) -> np.ndarray:
    # One Newton step r <- r - r (e r - 1), taking r = 1/e mod x^p to
    # 1/e mod x^m for p = len(r) < m <= 2p.  Since e r = 1 + O(x^p), the
    # products only need coefficients [p, m) of e r and [0, m - p) of the
    # correction, and a cyclic length >= m keeps both clear of wrap-around.
    # fr is rfft(r, _fast_len(m)) when the caller has it already.
    p = len(r)
    size = _fast_len(m)
    d, fr = _product(e[:m], r, p, m, size, fr)
    c, _ = _product(d, r, 0, m - p, size, fr)
    return np.concatenate([r, -c])


def _exp_newton_monic(a: np.ndarray, keep_inverse_spectrum: bool = False):
    # Newton iteration for a[0] = 0 over the precisions n, ceil(n/2), ...,
    # 1 taken upwards.  Entering a round m -> m2 <= 2m, e = exp(a) mod x^m
    # and r = 1/e mod x^ceil(m/2).  The round
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
    # Returns (e, r, fr) with r = 1/e mod x^ceil(n/2) and fr its spectrum
    # at _fast_len(n); fr is None when computed directly, and when not
    # keep_inverse_spectrum it is freed before step 3 of the last round
    # instead of staying alive through the largest product.
    n = len(a)
    la = a * np.arange(n)
    precisions = [n]
    while precisions[-1] > 1:
        precisions.append((precisions[-1] + 1) // 2)
    e = np.ones(1)
    r = np.ones(1)
    fr = None
    for m2 in reversed(precisions[:-1]):
        m = len(e)
        if len(r) < m:
            # fr, the spectrum of the old r, is spent once r is refined
            r, fr = _refine_inverse(e, r, m, fr), None
        size = _fast_len(m2)
        q, fe = _product(la[:m2], e, m, m2, size)
        k_eps, fr = _product(q, r, 0, m2 - m, size)
        if m2 == n and not keep_inverse_spectrum:
            fr = None
        step, _ = _product(k_eps / np.arange(m, m2), e, 0, m2 - m, size, fe)
        e = np.concatenate([e, step])
        del q, k_eps, step, fe
    return e, r, fr


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
    # kh, the log envelope bound S = sum |a_j| e^{-jh} of _finish, and the
    # cancellation excess of exp*(a): S minus s = sum a_j e^{-jh}
    kh = h * np.arange(len(a))
    w = np.exp(-kh)
    log_bound = float(np.dot(np.abs(a), w))
    return kh, log_bound, log_bound - float(np.dot(a, w))


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
    """(exp* a, exp* -a), by Newton only where exp_star would run Newton on
    both: the excess of exp*(-a) is S + s, so the pair's is S + |s|."""
    envelope = _newton_envelope(a, h)
    if envelope is None or 2.0 * envelope[1] - envelope[2] > _NEWTON_MAX_EXCESS:
        return _recurrence(a), _recurrence(-a)
    return exp_newton_pair(a, h, envelope)


def exp_newton(a: np.ndarray, h: float, envelope=None) -> np.ndarray:
    """exp* via Newton/FFT, on the coefficients exactly as given.

    It never reweights: a raw, growing input is the caller's to weight (see
    the conditioning note above).  Raises OverflowError when the result
    cannot be represented in double precision, and ValueError when the
    result breaks the a priori envelope bound (see _finish).  envelope is
    _log_envelope(a, h) when the caller has it already.
    """
    kh, log_bound, _ = envelope or _log_envelope(a, h)
    az = a.astype(float, copy=True)
    a0 = float(az[0])
    az[0] = 0.0
    # unwarned: _finish refuses an iteration that left the double range
    with np.errstate(over="ignore", invalid="ignore"):
        e, _, _ = _exp_newton_monic(az)
    return _finish(e, a0, kh, log_bound)


def exp_newton_pair(a: np.ndarray, h: float, envelope=None):
    """(exp* a, exp* -a) from one Newton iteration, on the coefficients as given.

    exp*(-a) is the convolution inverse of exp*(a); one more reciprocal
    step at full length turns the inverse the iteration already tracks into
    it.  Both results pass the checks of exp_newton, and envelope is as
    there.
    """
    kh, log_bound, _ = envelope or _log_envelope(a, h)
    az = a.astype(float, copy=True)
    a0 = float(az[0])
    az[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        e, r, fr = _exp_newton_monic(az, keep_inverse_spectrum=True)
        if len(r) < len(e):
            r = _refine_inverse(e, r, len(e), fr)
    return (_finish(e, a0, kh, log_bound),
            _finish(r, -a0, kh, log_bound))
