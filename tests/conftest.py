"""Session-scoped fixtures for the expensive acceptance artifacts;
u_density, which writes a test density as a function of u; and
exp_timings, which times the FFT exp for criterion 09.

The full-resolution Kahane run and the two transform-side experiments each
take seconds; they are built once per session and shared by every test that
needs them.  Each fixture returns (result, wall_seconds) so runtime
criteria can be asserted where required.

Two further fixtures are exact references for the Kahane tail, computed
from closed-form integrals without the lattice, exp-star or any package
code.  In log coordinates v = log u the u^{-1}-weighted tail
u^{-1} dA = dv / (v log v) on [e, inf), and multiplicative convolution
becomes additive convolution.
"""

import math
import os
import time

# One BLAS thread, set before numpy loads: the O(n^2) recurrences' np.dot
# calls otherwise start one thread per core, and those threads stall while
# another process keeps a core busy (criterion 02 read 12-22 s against its
# 5 s gate under such load, 2 s with one thread).  setdefault, so that a
# caller's own setting wins.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.fft import irfft, next_fast_len, rfft  # noqa: E402
from scipy.integrate import quad  # noqa: E402
from scipy.interpolate import CubicSpline  # noqa: E402

from beurling import LogGrid, build_li_pi, kernels, relative_gap  # noqa: E402
from beurling.density import DensitySpec  # noqa: E402
from beurling.pipelines import (  # noqa: E402
    de_haan_experiment, kahane_pipeline, mellin_alpha_experiment)


def u_density(f, **fields):
    """The DensitySpec of a density f given as a function of u: its
    log_density evaluates f at u = e^t."""
    return DensitySpec(log_density=lambda t: f(np.exp(t)), **fields)


def _timed(builder):
    t0 = time.perf_counter()
    value = builder()
    return value, time.perf_counter() - t0


@pytest.fixture(scope="session")
def kahane_acceptance():
    """Full-resolution Kahane report on the default h=1e-4, n=500,001 grid."""
    return _timed(kahane_pipeline)


@pytest.fixture(scope="session")
def mellin_acceptance():
    return _timed(mellin_alpha_experiment)


@pytest.fixture(scope="session")
def de_haan_acceptance():
    return _timed(de_haan_experiment)


def exp_timings():
    """({n: seconds of kernels.exp_newton}, gap to exp_recurrence at 2^12).

    The input is the u^{-1}-weighted li density at h = 0.01, which stays
    well scaled at every size; n runs over 2^12 and 2^16 .. 2^20.
    """
    seconds, gap = {}, None
    for n in [1 << 12] + [1 << p for p in range(16, 21)]:
        grid = LogGrid(0.01, n)
        a = build_li_pi(grid, weight_sigma=1.0).coeffs
        t0 = time.perf_counter()
        e_fft = kernels.exp_newton(a, grid.h)
        seconds[n] = time.perf_counter() - t0
        if gap is None:
            gap = relative_gap(e_fft, kernels.exp_recurrence(a))
    return seconds, gap


def _tail_convolution_primitives(d, w_end):
    """Splines of G_k(w), the mass on [ke, ke + w] of the k-fold additive
    self-convolution of dv / (v log v) on [e, inf), for k = 1 .. w_end / e.

    G_1(w) = loglog(e + w) in closed form; G_k = G_{k-1} * g with
    g(w) = 1 / ((e + w) log(e + w)) by the trapezoid rule on step d.  Both
    factors are smooth on the closed interval and G_{k-1}(0) = 0, so the
    error expands in even powers of d.
    """
    n = int(math.ceil(w_end / d)) + 4
    w = np.arange(n) * d
    g = 1.0 / ((w + math.e) * np.log(w + math.e))
    size = next_fast_len(2 * n)
    g_hat = rfft(g, size)
    prims = [np.log(np.log(w + math.e))]
    for _ in range(int(w_end / math.e) - 1):
        conv = irfft(rfft(prims[-1], size) * g_hat, size)[:n]
        prims.append(d * (conv - 0.5 * g[0] * prims[-1]))
    return [CubicSpline(w, p) for p in prims]


def _alternating_series(splines, ts):
    s = np.ones_like(ts)
    for k, spline in enumerate(splines, start=1):
        w = ts - k * math.e
        reached = w > 0
        s[reached] += (-1) ** k * spline(w[reached]) / math.factorial(k)
    return s


@pytest.fixture(scope="session")
def tail_s_reference():
    """S(e^t) = int_{[1, e^t]} dB-/u with dB- = exp*(-dA), for t <= 51.

    By the alternating series S(e^t) = sum_{k <= t/e} (-1)^k G_k(t - ke) / k!
    with G_k from _tail_convolution_primitives, Richardson-extrapolated from
    steps d = 2e-3 and d/2.  Returns a function of an array of log points;
    each call asserts that the raw d vs d/2 gap stays below 1e-6 relative;
    the extrapolated value is far more accurate than that gap.
    """
    t_end = 51.0
    coarse = _tail_convolution_primitives(2e-3, t_end)
    fine = _tail_convolution_primitives(1e-3, t_end)

    def s_of_log(ts):
        ts = np.asarray(ts, dtype=float)
        assert np.all(ts <= t_end), ts
        s_coarse = _alternating_series(coarse, ts)
        s_fine = _alternating_series(fine, ts)
        gap = np.abs(s_coarse - s_fine) / np.abs(s_fine)
        assert gap.max() <= 1e-6, f"trapezoid d vs d/2 gap {gap.max():.1e}"
        return (4.0 * s_fine - s_coarse) / 3.0

    return s_of_log


@pytest.fixture(scope="session")
def tail_transform():
    """T(sigma) = int_{[e^e, inf)} u^{-sigma} dA = int_1^inf exp(-s e^y) dy / y,
    s = sigma - 1, by scipy.integrate.quad split at s e^y = 1 and cut where
    the integrand falls below e^{-60}.  Returns a function of an array of
    sigmas; each value asserts that quad's error estimate is below 1e-10
    relative.
    """
    def transform(sigmas):
        out = []
        for s in np.asarray(sigmas, dtype=float) - 1.0:
            y_knee = max(1.0, math.log(1.0 / s))

            def integrand(y):
                return math.exp(-s * math.exp(y)) / y

            total = err = 0.0
            for lo, hi in ((1.0, y_knee), (y_knee, y_knee + math.log(60.0))):
                val, est = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12,
                                limit=200)
                total += val
                err += est
            assert err <= 1e-10 * total, (s, total, err)
            out.append(total)
        return np.array(out)

    return transform
