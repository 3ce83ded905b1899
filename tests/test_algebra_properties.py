"""Property-based checks of the algebra laws on random measures.

Tolerances: laws that are sums of exactly representable rearrangements are
asserted coefficient-exact; accumulation identities get 1e-12; anything
routed through exp*/log*/invert gets 1e-10 (matching the randomized
identity suite); FFT-vs-recurrence agreement gets 1e-8.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beurling import (CheckpointSeries, LogGrid, Measure, add, check_decay,
                      convolve, delta_one, exp_star, invert, load_measure,
                      log_star, negate, relative_gap, save_measure, tilt,
                      variation)
from beurling import kernels
from beurling.kernels import exp_recurrence
from beurling.measure import apply_log
from beurling.selfcheck import exp_series_oracle

H = 0.01
N = 64
GRID = LogGrid(H, N)


def coeffs(bound=1.0, low=None):
    lo = -bound if low is None else low
    return arrays(np.float64, N,
                  elements=st.floats(lo, bound, allow_nan=False, width=64))


def as_measure(c):
    return Measure(GRID, c)


@given(coeffs(), coeffs())
@settings(max_examples=60, deadline=None)
def test_convolution_commutes_exactly(a, b):
    x, y = as_measure(a), as_measure(b)
    assert np.array_equal(convolve(x, y).coeffs, convolve(y, x).coeffs)


@given(coeffs(), coeffs(), coeffs())
@settings(max_examples=60, deadline=None)
def test_convolution_associates(a, b, c):
    x, y, z = as_measure(a), as_measure(b), as_measure(c)
    lhs = convolve(convolve(x, y), z)
    rhs = convolve(x, convolve(y, z))
    assert relative_gap(lhs, rhs) <= 1e-12


@given(coeffs())
@settings(max_examples=60, deadline=None)
def test_delta_is_neutral(a):
    x = as_measure(a)
    assert np.array_equal(convolve(x, delta_one(GRID)).coeffs, x.coeffs)


@given(coeffs(), coeffs(), coeffs())
@settings(max_examples=60, deadline=None)
def test_convolution_distributes(a, b, c):
    x, y, z = as_measure(a), as_measure(b), as_measure(c)
    lhs = convolve(add(x, y), z)
    rhs = add(convolve(x, z), convolve(y, z))
    assert relative_gap(lhs, rhs) <= 1e-12


@given(coeffs(), coeffs())
@settings(max_examples=60, deadline=None)
def test_apply_log_is_a_derivation(a, b):
    x, y = as_measure(a), as_measure(b)
    lhs = apply_log(convolve(x, y))
    rhs = add(convolve(apply_log(x), y), convolve(x, apply_log(y)))
    assert relative_gap(lhs, rhs) <= 1e-12


@given(coeffs(bound=0.5))
@settings(max_examples=30, deadline=None)
def test_exp_matches_series_oracle(a):
    x = as_measure(a)
    assert relative_gap(exp_star(x), exp_series_oracle(x)) <= 1e-10


@given(coeffs(bound=0.5), coeffs(bound=0.5))
@settings(max_examples=30, deadline=None)
def test_exponential_law(a, b):
    x, y = as_measure(a), as_measure(b)
    lhs = exp_star(add(x, y))
    rhs = convolve(exp_star(x), exp_star(y))
    assert relative_gap(lhs, rhs) <= 1e-10


@given(coeffs(bound=0.5))
@settings(max_examples=30, deadline=None)
def test_chebyshev_identity(a):
    # L exp*(dA) = (L dA) * exp*(dA), the recurrence read back as a law
    x = as_measure(a)
    e = exp_star(x)
    assert relative_gap(apply_log(e), convolve(apply_log(x), e)) <= 1e-10


@given(coeffs(bound=0.5))
@settings(max_examples=30, deadline=None)
def test_log_inverts_exp(a):
    # the head passes through exp(a0) = 1 + a0 + ..., which rounds to 1.0
    # when a0 is below eps, so information under eps of unit scale cannot
    # survive the roundtrip; bound the error against max(1, |a|) instead
    x = as_measure(a)
    back = log_star(exp_star(x))
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(back.coeffs - a)) <= 1e-10 * scale


@given(coeffs(bound=0.5))
@settings(max_examples=30, deadline=None)
def test_invert_exp_is_exp_negate(a):
    x = as_measure(a)
    assert relative_gap(invert(exp_star(x)), exp_star(negate(x))) <= 1e-10


@given(coeffs())
@settings(max_examples=40, deadline=None)
def test_invert_is_right_inverse(a):
    c = a * (0.5 / N)
    c[0] = 1.0 + c[0]  # head mass near 1 keeps the inverse well conditioned
    x = as_measure(c)
    assert relative_gap(convolve(x, invert(x)), delta_one(GRID)) <= 1e-10


@given(coeffs(), coeffs(), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_tilt_is_a_homomorphism(a, b, sigma):
    x, y = as_measure(a), as_measure(b)
    lhs = tilt(convolve(x, y), sigma)
    rhs = convolve(tilt(x, sigma), tilt(y, sigma))
    assert relative_gap(lhs, rhs) <= 1e-12
    assert np.array_equal(tilt(delta_one(GRID), sigma).coeffs,
                          delta_one(GRID).coeffs)


@given(coeffs(bound=0.5), st.floats(0.0, 2.0))
@settings(max_examples=30, deadline=None)
def test_tilt_commutes_with_exp(a, sigma):
    x = as_measure(a)
    assert relative_gap(tilt(exp_star(x), sigma),
                        exp_star(tilt(x, sigma))) <= 1e-12


@given(coeffs(bound=0.5, low=0.0))
@settings(max_examples=40, deadline=None)
def test_exp_of_nonnegative_is_nonnegative(a):
    assert np.all(exp_recurrence(a) >= 0.0)


@given(coeffs(bound=0.5))
@settings(max_examples=30, deadline=None)
def test_envelope_dominates(a):
    x = as_measure(a)
    e = exp_star(x)
    env = exp_star(variation(x))
    assert np.all(np.abs(e.coeffs) <= env.coeffs * (1 + 1e-12) + 1e-300)


@given(arrays(np.float64, 256,
              elements=st.floats(-0.04, 0.04, allow_nan=False, width=64)))
@settings(max_examples=20, deadline=None)
def test_fft_exp_tracks_recurrence(a):
    # n = 256 and |a_j| <= 0.04 bound the cancellation excess
    # sum |a_j| e^{-jh} - sum a_j e^{-jh} by 7.4, so exp_star runs Newton
    # on every draw
    assert kernels._newton_envelope(a, H) is not None
    e_fft = exp_star(Measure(LogGrid(H, 256), a))
    assert relative_gap(e_fft, exp_recurrence(a)) <= 1e-8


@given(arrays(np.float64, 8, elements=st.floats(1e-3, 1e3, width=64)),
       st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_check_decay_is_scale_invariant(values, twos):
    factor = 2.0 ** twos  # exact scaling, so the proxy must agree exactly
    pts = np.arange(1.0, 9.0)
    base = check_decay(CheckpointSeries(pts, values, "raw"))
    scaled = check_decay(CheckpointSeries(pts, values * factor, "scaled"))
    assert base.passed == scaled.passed
    assert base.values == scaled.values


@given(arrays(np.float64, 16,
              elements=st.floats(allow_nan=False, allow_infinity=False,
                                 width=64)))
@settings(max_examples=40, deadline=None)
def test_serialization_roundtrip(a):
    x = Measure(LogGrid(0.25, 16), a)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.txt")
        save_measure(x, path)
        y = load_measure(path)
    assert y.grid == x.grid
    assert np.array_equal(x.coeffs, y.coeffs)


@given(coeffs())
@settings(max_examples=60, deadline=None)
def test_variation_dominates_signed_mass(a):
    x = as_measure(a)
    v = variation(x)
    partial = np.cumsum(x.coeffs)
    bound = np.cumsum(v.coeffs)
    assert np.all(np.abs(partial) <= bound * (1 + 1e-12) + 1e-300)
