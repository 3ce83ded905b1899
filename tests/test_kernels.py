import math
import operator
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.fft import next_fast_len

from beurling import kernels
from beurling.grid import LogGrid
from beurling.kernels import (exp_newton, exp_newton_pair, exp_recurrence,
                              invert_recurrence, log_recurrence, mul_trunc)
from beurling.measure import Measure, negate, relative_gap, tilt
from beurling.config import parse_density, spec_from_text
from beurling.density import discretize
from beurling.pipelines import KAHANE_GRID
from beurling.selfcheck import exp_series_oracle, run_identity_suite, series_terms
from beurling.systems import assemble_pi, build_kahane_pi, build_li_pi, kahane_tail


def test_mul_trunc_matches_direct_convolution():
    rng = np.random.default_rng(20)
    a = rng.standard_normal(50)
    b = rng.standard_normal(70)
    got = mul_trunc(a, b, 60)
    want = np.convolve(a, b)[:60]
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_mul_trunc_pads_short_products():
    got = mul_trunc(np.array([1.0, 2.0]), np.array([3.0]), 5)
    assert np.array_equal(got, np.array([3.0, 6.0, 0.0, 0.0, 0.0]))
    # on the FFT path too: 599 coefficients, then zeros up to 1000
    got = mul_trunc(np.ones(300), np.ones(300), 1000)
    assert np.array_equal(got[599:], np.zeros(401))
    assert np.allclose(got[:599], np.convolve(np.ones(300), np.ones(300)),
                       rtol=0, atol=1e-12)


def test_mul_trunc_fft_path_agrees_with_direct():
    # 600 * 600 coefficients exceeds the direct-work limit, forcing the FFT
    rng = np.random.default_rng(21)
    a = rng.standard_normal(600)
    b = rng.standard_normal(600)
    got = mul_trunc(a, b, 600)
    want = np.convolve(a, b)[:600]
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _forward_recurrences(a, e):
    # the recurrences indexed forward, reading reversed views: the kernels
    # build theirs reversed, with the same arithmetic in the same order
    n = len(a)
    ex, inv, lg, ka = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    ex[0], inv[0], lg[0] = math.exp(a[0]), 1.0 / a[0], math.log(e[0])
    w = np.arange(n) * a
    for m in range(1, n):
        ex[m] = np.dot(w[1 : m + 1], ex[m - 1 :: -1]) / m
        inv[m] = -np.dot(a[1 : m + 1], inv[m - 1 :: -1]) / a[0]
        s = np.dot(ka[1:m], e[m - 1 : 0 : -1]) if m > 1 else 0.0
        lg[m] = (m * e[m] - s) / (m * e[0])
        ka[m] = m * lg[m]
    return ex, inv, lg


@pytest.mark.parametrize("n", [2, 3, 64, 1000])
def test_recurrences_equal_forward_indexing_bit_for_bit(n):
    rng = np.random.default_rng(30 + n)
    a = rng.uniform(-1.0, 1.0, n) * (4.0 / n)
    a[0] = 0.7
    e = np.abs(exp_recurrence(a)) + 0.1
    ex, inv, lg = _forward_recurrences(a, e)
    assert np.array_equal(exp_recurrence(a), ex)
    assert np.array_equal(invert_recurrence(a), inv)
    assert np.array_equal(log_recurrence(e), lg)


@pytest.mark.parametrize("b", [1, 4])
def test_stacked_recurrences_equal_each_row_alone_bit_for_bit(b):
    # one np.vecdot per step over the rows rounds as one np.dot per row; row
    # 0 takes heads at which np.exp and np.log differ from math.exp and
    # math.log in the last bit, and the stacks take e_0 from math's
    a = np.random.default_rng(35).uniform(-1.0, 1.0, (b, 300)) * (4.0 / 300)
    a[:, 0] = np.linspace(0.134, 0.9, b)
    e = np.abs(exp_recurrence(a)) + 0.1
    e[:, 0] = np.linspace(0.691, 2.0, b)
    assert np.exp(a[0, 0]) != math.exp(a[0, 0])
    assert np.log(e[0, 0]) != math.log(e[0, 0])
    stacked = exp_recurrence(a), invert_recurrence(a), log_recurrence(e)
    for i in range(b):
        want = _forward_recurrences(a[i], e[i])
        alone = exp_recurrence(a[i]), invert_recurrence(a[i]), log_recurrence(e[i])
        for got, row, ref in zip(stacked, alone, want):
            assert got.shape == (b, 300) and row.shape == (300,)
            assert np.array_equal(got[i], ref)
            assert np.array_equal(row, ref)


def test_a_stack_with_one_bad_head_is_refused():
    a = np.full((3, 4), 0.5)
    a[1, 0] = 0.0
    with pytest.raises(ValueError, match="inverse needs nonzero mass"):
        invert_recurrence(a)
    for head in (0.0, -2.0, math.nan):
        a[1, 0] = head
        with pytest.raises(ValueError, match="log. needs a positive mass"):
            log_recurrence(a)


def test_exp_recurrence_matches_power_series():
    # exp*(a) = sum a^{*m} / m! summed directly to machine precision
    rng = np.random.default_rng(22)
    a = 0.3 * rng.standard_normal(32)
    total = np.zeros(32)
    total[0] = 1.0
    term = total.copy()
    for m in range(1, 40):
        term = np.convolve(term, a)[:32] / m
        total += term
    assert np.allclose(exp_recurrence(a), total, rtol=0, atol=1e-12)


def test_invert_recurrence_matches_triangular_solve():
    # inverse coefficients grow geometrically, so the agreement is relative
    rng = np.random.default_rng(23)
    a = rng.standard_normal(64)
    a[0] = 1.5
    got = invert_recurrence(a)
    lower = scipy.linalg.toeplitz(a, np.zeros(64))
    rhs = np.zeros(64)
    rhs[0] = 1.0
    want = scipy.linalg.solve_triangular(lower, rhs, lower=True)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_log_recurrence_inverts_exp():
    rng = np.random.default_rng(24)
    a = 0.2 * rng.standard_normal(128)
    back = log_recurrence(exp_recurrence(a))
    assert np.max(np.abs(back - a)) <= 1e-11


def test_log_recurrence_requires_positive_head():
    with pytest.raises(ValueError):
        log_recurrence(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        log_recurrence(np.array([-2.0, 1.0]))


def test_invert_requires_nonzero_head():
    with pytest.raises(ValueError):
        invert_recurrence(np.array([0.0, 1.0]))


def test_exp_newton_agrees_with_recurrence():
    rng = np.random.default_rng(25)
    n = 1 << 12
    a = 0.05 * rng.standard_normal(n)
    e_fft = exp_newton(a, h=0.01)
    e_ref = exp_recurrence(a)
    scale = np.max(np.abs(e_ref))
    assert np.max(np.abs(e_fft - e_ref)) <= 1e-8 * scale


def test_exp_newton_auto_handles_subexponential_growth():
    # du/u profile: exp* grows like e^{2 sqrt(t)}, so a unit weight would
    # drown the tail below machine precision; the unweighted Newton exp must
    # match the recurrence
    n = 1 << 12
    h = 0.01
    a = np.full(n, h)
    a[0] = 0.0
    ref = exp_recurrence(a)
    got = exp_newton(a, h)
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(ref)


def test_exp_newton_overflow_message_points_to_weighting():
    # exp(800) * delta cannot be represented raw; the guard fires before the
    # back-scaling would produce non-finite coefficients
    a = np.zeros(64)
    a[0] = 800.0
    with pytest.raises(OverflowError, match="weighted"):
        exp_newton(a, h=0.01)


@pytest.mark.parametrize("n", [1, 2, 3, 257, 4096, 5000, (1 << 15) + 1])
def test_newton_and_pair_match_recurrence_on_signed_inputs(n):
    # sizes on both sides of the first FFT round, odd ones included.  The
    # envelope exp*(|a|) dominates every coefficient and has total mass
    # exp(sum |a_j|), so rounding is measured against that
    rng = np.random.default_rng(n)
    a = rng.uniform(-1.0, 1.0, n) * (4.0 / n)
    tol = 64 * np.finfo(float).eps * math.exp(np.sum(np.abs(a)))
    ref_pos = exp_recurrence(a)
    ref_neg = exp_recurrence(-a)
    pos, neg = exp_newton_pair(a, h=0.01)
    assert np.max(np.abs(exp_newton(a, h=0.01) - ref_pos)) <= tol
    assert np.max(np.abs(pos - ref_pos)) <= tol
    assert np.max(np.abs(neg - ref_neg)) <= tol


def _seeds(monkeypatch):
    # the lengths of the rows exp_recurrence runs on, call by call
    lengths = []
    recurrence = kernels.exp_recurrence

    def recorded(a):
        lengths.append(a.shape[-1])
        return recurrence(a)

    monkeypatch.setattr(kernels, "exp_recurrence", recorded)
    return lengths


def test_ladder_below_its_first_fft_round_is_the_recurrence(monkeypatch):
    # at n = 5000 the round 157 -> 313 multiplies 49,141 coefficient pairs
    # and 313 -> 625 195,625, past _DIRECT_WORK_LIMIT: the ladder starts at
    # m0 = 313, and below it a row with a_0 = 0 is the recurrence's
    seeds = _seeds(monkeypatch)
    a = _signed_rows(1, 5000)[0]
    a[0] = 0.0
    e = exp_newton(a, 0.01)
    pos, neg = exp_newton_pair(a, 0.01)
    assert seeds == [313, 313]
    m0 = seeds[0]
    assert np.array_equal(e[:m0], exp_recurrence(a)[:m0])
    assert np.array_equal(pos[:m0], exp_recurrence(a)[:m0])
    assert np.array_equal(neg[:m0], exp_recurrence(-a)[:m0])


@pytest.mark.parametrize("n, m0", [(362, 362), (363, 182)])
def test_newton_on_either_side_of_the_first_fft_round(monkeypatch, n, m0):
    # 362 * 181 pairs stay within _DIRECT_WORK_LIMIT, so the recurrence
    # runs the whole ladder; at 363 one FFT round, 182 -> 363, follows it
    seeds = _seeds(monkeypatch)
    for a in (_signed_rows(1, n)[0], build_li_pi(LogGrid(0.01, n), weight_sigma=1.0).coeffs):
        ref_pos, ref_neg = exp_recurrence(a), exp_recurrence(-a)
        pos, neg = exp_newton_pair(a, 0.01)
        for got, ref in ((exp_newton(a, 0.01), ref_pos), (pos, ref_pos), (neg, ref_neg)):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert seeds == [m0] * 4


@pytest.mark.parametrize("n, lone_height", [(362, 1), (363, 2)])
def test_seed_runs_minus_a_only_where_the_ladder_reads_r(monkeypatch, n, lone_height):
    # a lone exp with no FFT round reads no r, so its seed stacks a alone;
    # one round, or a pair, reads r = exp(-a) mod x^m0 and stacks a and -a.
    # The rows of a stack round one by one: the lone exp equals the pair's
    # exp(a) to the bit either way
    heights = []
    recurrence = kernels.exp_recurrence

    def recorded(a):
        heights.append(a.shape[0])
        return recurrence(a)

    monkeypatch.setattr(kernels, "exp_recurrence", recorded)
    a = _signed_rows(2, n)
    lone = exp_newton(a, 0.01)
    pos, _ = exp_newton_pair(a, 0.01)
    assert heights == [lone_height, 2]
    assert np.array_equal(lone, pos)


def test_kahane_size_exp_makes_no_direct_product(monkeypatch):
    # from m0 = 245 up every round of the n = 500,001 ladder is an FFT round
    seeds = _seeds(monkeypatch)
    convolved = []
    monkeypatch.setattr(np, "convolve", lambda *args: convolved.append(args))
    a = build_kahane_pi(KAHANE_GRID, weight_sigma=1.0).coeffs
    exp_newton_pair(a, KAHANE_GRID.h)
    assert seeds == [245]
    assert convolved == []


def test_envelope_guard_refuses_raw_long_grid_inverse():
    # raw li masses grow like e^{kh}/(kh); untilted, the Newton iteration on
    # -pi leaves the double range and returns finite values near 1e104, far
    # above the a priori bound e^{kh} exp(sum_j |a_j| e^{-jh})
    grid = LogGrid(4e-3, 32_768)
    pi = build_li_pi(grid).coeffs
    with pytest.raises(ValueError, match="envelope"):
        exp_newton(-pi, grid.h)
    with pytest.raises(ValueError, match="envelope"):
        exp_newton_pair(pi, grid.h)


def test_envelope_guard_refuses_a_nan_result():
    # weighted u^2 still grows like e^{kh}, so its envelope bound, about
    # exp(8e56), bounds nothing; with no cancellation Newton runs, overflows
    # into NaN, and no comparison with the bound catches a NaN
    grid = LogGrid(4e-3, 32_768)
    a = discretize(parse_density("u**2"), grid, 1.0).coeffs
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OverflowError, match="double range"):
        kernels.exp_star(a, grid.h)


def _decided_on_logs(e, a0, kh, log_bound):
    # the envelope and range checks of _finish taken on log |e_k| + a0:
    # the type of the error they raise, None when both pass
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = np.log(np.abs(e)) + a0
        if float(np.max(log_mag - kh)) > log_bound + 1.0:
            return ValueError
    if not float(np.max(log_mag)) <= 708.0:
        return OverflowError
    return None


def _finish_cases():
    # rows of 2,000 points at h = 0.5, so kh runs to 999.5 and the weights
    # e^{-kh} underflow past kh = 745; each case sets one coefficient
    n, h = 2000, 0.5
    kh = h * np.arange(n)
    base = np.exp(-0.5 * kh)
    cases = {"within": (base, 0.0, 2.0)}
    for name, k, value in [("inf early", 10, np.inf), ("inf past underflow", 1800, np.inf),
                           ("nan early", 10, np.nan), ("nan past underflow", 1800, np.nan),
                           ("above the bound", 10, math.exp(5.0 + 4.0)),
                           ("just below the bound", 10, math.exp(5.0 + 2.9)),
                           ("huge, weight underflowed", 1500, 1e300),
                           ("within the bound, past e^708", 1418, 1e308)]:
        e = base.copy()
        e[k] = value
        cases[name] = (e, 0.0, 2.0)
    cases["within, a0 past 708"] = (base, 709.0, 712.0)
    big = base.copy()
    big[10] = 1e300
    cases["scaled past the double range"] = (big, 700.0, 2000.0)
    cases["a0 past the bound"] = (base, 5.0, 2.0)
    cases["negative bound"] = (np.zeros(n), 0.0, -3.0)
    return cases, kh, h


@pytest.mark.parametrize("name", sorted(_finish_cases()[0]))
def test_finish_decides_as_its_logs_do(name):
    # the checks read log |e_k| + a0, and a result they refuse raises
    # unwarned, whether or not scaling it left the double range
    cases, kh, h = _finish_cases()
    e, a0, log_bound = cases[name]
    want = _decided_on_logs(e, a0, kh, log_bound)
    if want is None:
        got = kernels._finish(e.copy(), a0, log_bound, h)
        assert np.array_equal(got, e * math.exp(a0))
    else:
        with pytest.raises(want):
            kernels._finish(e.copy(), a0, log_bound, h)


@pytest.mark.parametrize("name", sorted(_finish_cases()[0]))
def test_finish_decides_alike_in_short_blocks(monkeypatch, name):
    # _finish reads its rows _PASS points at a time; in blocks of 300 the
    # cases of 2,000 points span seven, and a NaN or inf in a later block
    # decides as it does in the first
    monkeypatch.setattr(kernels, "_PASS", 300)
    test_finish_decides_as_its_logs_do(name)


@pytest.mark.parametrize("build", [build_kahane_pi, kahane_tail])
def test_envelope_guard_is_silent_on_weighted_kahane_inputs(build):
    a = build(KAHANE_GRID, weight_sigma=1.0).coeffs
    pos, neg = exp_newton_pair(a, KAHANE_GRID.h)
    delta = np.zeros(KAHANE_GRID.n)
    delta[0] = 1.0
    assert np.max(np.abs(mul_trunc(pos, neg, KAHANE_GRID.n) - delta)) <= 1e-12


def test_pair_costs_about_one_exp_in_transforms(monkeypatch):
    forward, inverse = Counter(), Counter()
    rfft, irfft = kernels.rfft, kernels.irfft

    def counted(x, *args, **kwargs):
        forward["rfft"] += 1
        forward["rows"] += len(x) if x.ndim == 2 else 1
        return rfft(x, *args, **kwargs)

    def counted_inverse(f, *args, **kwargs):
        inverse["irfft"] += 1
        return irfft(f, *args, **kwargs)

    monkeypatch.setattr(kernels, "rfft", counted)
    monkeypatch.setattr(kernels, "irfft", counted_inverse)
    grid = LogGrid(0.01, 1 << 16)
    a = build_li_pi(grid, weight_sigma=1.0).coeffs
    exp_newton(a, grid.h)
    one, one_inverse = forward["rfft"], inverse["irfft"]
    forward.clear()
    inverse.clear()
    exp_newton_pair(a, grid.h)
    pair, pair_inverse = forward["rfft"], inverse["irfft"]
    # a round m -> M takes 5 forward transforms (e, L a, r, the product q
    # and the correction eps) and 3 inverse ones (q, eps and the step e eps);
    # its refine of r reads those spectra and adds one inverse transform.
    # A round is direct when its product (L a) e of M m work is at most
    # 2^16, so the 8 rounds to precision 512 .. 2^16 transform: 8 * 5 = 40
    # forward, for the exp and the pair alike.  Every round refines but
    # the exp's last, whose r nothing reads: 8 * 3 + 7 = 31 inverse, and
    # 32 for the pair
    assert (one, one_inverse) == (40, 31)
    assert (pair, pair_inverse) == (40, 32)
    # two rows in lockstep transform 2 * 40 rows: the 7 rounds to
    # precision 2^15 in 35 batched calls, the last round one row at a time
    forward.clear()
    exp_newton_pair(np.stack([a, 0.5 * a]), grid.h)
    assert forward["rows"] == 2 * 40
    assert forward["rfft"] == 7 * 5 + 2 * 5


def test_exp_and_pair_stay_within_their_transform_budget(monkeypatch):
    # the summed sizes of the transforms, a batched one once per row, in
    # units of M(n), one product of two n-term rows: three transforms of
    # _fast_len(2n - 1) points.  The refine that reads the round's spectra
    # takes the exp to 2.85 M(n) and the pair to 3.02; refining r in
    # transforms of its own took 3.35 and 4.02
    volume = Counter()

    def summed(fn):
        def wrapped(x, size, *args, **kwargs):
            volume["points"] += size * (x.size // x.shape[-1])
            return fn(x, size, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "rfft", summed(kernels.rfft))
    monkeypatch.setattr(kernels, "irfft", summed(kernels.irfft))
    grid = KAHANE_GRID
    a = kahane_tail(grid, weight_sigma=1.0).coeffs
    product = 3 * kernels._fast_len(2 * grid.n - 1)
    exp_newton(a, grid.h)
    assert volume["points"] <= 2.9 * product
    volume.clear()
    exp_newton_pair(a, grid.h)
    assert volume["points"] <= 3.1 * product


def test_exp_and_pair_stay_within_their_pass_budget(monkeypatch):
    # the calls of _halves, one per pass over a row or a stack, whether or
    # not it splits: the products, the divide by k and the reciprocal's
    # sign ride in the transforms' own passes, and the check and scale of
    # each result in one.  With each a pass of its own, an exp took 278 and
    # a pair 283; with the scale apart from the check, 244 and 250
    passes = Counter()
    halves = kernels._halves

    def counted(*args, **kwargs):
        passes["halves"] += 1
        return halves(*args, **kwargs)

    monkeypatch.setattr(kernels, "_halves", counted)
    grid = KAHANE_GRID
    a = kahane_tail(grid, weight_sigma=1.0).coeffs
    exp_newton(a, grid.h)
    assert passes["halves"] <= 243
    passes.clear()
    exp_newton_pair(a, grid.h)
    assert passes["halves"] <= 248


def test_exp_and_pair_stay_within_their_memory_budget():
    # the tracemalloc peak in units of 8n bytes, one row of n doubles, which
    # a spectrum of _fast_len(n) / 2 complex points also takes, near enough.
    # A lone exp holds its result e (1), r to precision ceil(n/2) (1/2) and
    # the three spectra of a round (3); a pair holds r at full length (1).
    # They peak at 4.76 and 5.23; with buffers allocated round by round,
    # and the weights e^{-kh} at full length, they peaked at 6.08 and 6.04
    grid = KAHANE_GRID
    a = kahane_tail(grid, weight_sigma=1.0).coeffs
    unit = 8 * grid.n
    assert _peak_bytes(lambda: exp_newton(a, grid.h)) <= 5.0 * unit
    assert _peak_bytes(lambda: exp_newton_pair(a, grid.h)) <= 5.5 * unit


@pytest.mark.parametrize("n", [5000, kernels._FOUR_STEP_MIN * 3])
def test_ramped_spectrum_and_inverse_in_place_match_to_the_bit(n):
    # rfft(x, ramp=(op, start)) packs op(x_k, start + k) straight from x,
    # irfft(f, times=g) multiplies f by g inside its first pass, and out=
    # receives a spectrum or coefficients in place: the same numbers as
    # the unfused sequence into new arrays, on a row and on a stack of rows
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.standard_normal((2, n))):
        size = kernels._fast_len(n + n // 3)
        for op, start in ((np.multiply, 0), (np.true_divide, 11)):
            want = kernels.rfft(op(x, np.arange(start, start + n)), size)
            out = np.full_like(want, np.nan)
            assert kernels.rfft(x, size, out=out, ramp=(op, start)) is out
            assert np.array_equal(out, want)
        g = kernels.rfft(rng.standard_normal(x.shape), size)
        coeffs = np.full(x.shape[:-1] + (n - 7,), np.nan)
        assert kernels.irfft(out.copy(), size, 7, n, out=coeffs) is coeffs
        assert np.array_equal(coeffs, kernels.irfft(want.copy(), size, 7, n))
        assert np.array_equal(kernels.irfft(out, size, 7, n, times=g),
                              kernels.irfft(want * g, size, 7, n))


def test_spectral_refine_matches_the_recurrence():
    # at 40,001 points the rounds to precision 626 and up refine r from
    # their own spectra; exp*(-a), the pair's r at full length, stays in the
    # envelope tolerance of the signed-input test and the relative one of
    # the systems-size test
    grid = LogGrid(0.01, 40_001)
    a = build_li_pi(grid, weight_sigma=1.0).coeffs
    ref = exp_recurrence(-a)
    _, neg = exp_newton_pair(a, grid.h)
    tol = 64 * np.finfo(float).eps * math.exp(np.sum(np.abs(a)))
    assert np.max(np.abs(neg - ref)) <= tol
    assert np.max(np.abs(neg - ref)) <= 1e-14 * np.max(np.abs(ref))


def _is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


@pytest.mark.parametrize("n", [5000, (1 << 15) + 1, 1 << 16])
def test_every_transform_length_is_5_smooth(monkeypatch, n):
    # a product mod t^N + 1 runs complex transforms of N/2 points, which
    # _fast_len keeps 5-smooth, the lengths pocketfft runs fastest
    lengths = []

    def recording(fn):
        def wrapped(x, size=None, *args, **kwargs):
            lengths.append(size)
            return fn(x, size, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "rfft", recording(kernels.rfft))
    monkeypatch.setattr(kernels, "irfft", recording(kernels.irfft))
    grid = LogGrid(0.01, n)
    a = build_li_pi(grid, weight_sigma=1.0).coeffs
    exp_newton(a, grid.h)
    exp_newton_pair(a, grid.h)
    for m in (n, n // 3):
        mul_trunc(a, a[::-1], m)
    assert lengths
    assert [k for k in lengths if k % 2 or not _is_5_smooth(k // 2)] == []
    # the search is pocketfft's real-transform length, scipy's
    # next_fast_len(m, real=True): on 1 .. n, and near every precision of
    # the ladders of n and of the kahane and de Haan grids, and their halves
    near = set(range(1, n + 1))
    for top in (n, 500_001, 2_800_001):
        p = top
        while p > 1:
            for q in (p, (p + 1) // 2):
                near.update(range(max(1, q - 64), q + 65))
            p = (p + 1) // 2
    assert [m for m in sorted(near)
            if kernels._smooth_len(m) != next_fast_len(m, real=True)] == []


def _right_angle(x, y, lo, hi, size):
    # coefficients [lo, hi) of the product of the rows x and y mod
    # t^size + 1, as mul_trunc and the Newton rounds take them
    return kernels.irfft(kernels.rfft(x, size), size, lo, hi,
                         times=kernels.rfft(y, size))


@pytest.mark.parametrize("n", [600, 601, kernels._FOUR_STEP_MIN + 1,
                               2 * kernels._FOUR_STEP_MIN])
def test_right_angle_product_matches_convolve(n):
    # x is longer than size / 2, so both halves of its packing carry data;
    # the last two n put size / 2 either side of _FOUR_STEP_MIN, so that
    # one 1-D transform and the four-step both run
    rng = np.random.default_rng(24 + n)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n // 2)
    size = kernels._fast_len(n + n // 2 - 1)
    assert n > size // 2
    want = np.convolve(x, y)
    scale = np.max(np.abs(want))
    for lo, hi in ((0, n), (n // 3, n + n // 2 - 1),
                   (size // 2 - 7, size // 2 + 5)):
        got = _right_angle(x, y, lo, hi, size)
        assert got.shape == (hi - lo,)
        assert np.max(np.abs(got - want[lo:hi])) <= 1e-14 * scale
    xs, ys = np.stack([x, -2.0 * x]), np.stack([y, y[::-1]])
    got = _right_angle(xs, ys, 3, n, size)
    for row, u, v in zip(got, xs, ys):
        want = np.convolve(u, v)[3:n]
        assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))


def test_right_angle_product_wraps_negated():
    # mod t^N + 1 a coefficient j >= N comes back at j - N with its sign
    # flipped, where a cyclic product would add it unchanged
    rng = np.random.default_rng(25)
    x = rng.standard_normal(700)
    y = rng.standard_normal(700)
    size = kernels._fast_len(700)
    want = np.convolve(x, y)
    wrapped = want[:size].copy()
    wrapped[:len(want) - size] -= want[size:]
    got = _right_angle(x, y, 0, size, size)
    assert np.max(np.abs(got - wrapped)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(got - want[:size])) > 1.0


def test_product_refuses_an_operand_longer_than_size():
    rng = np.random.default_rng(26)
    x = rng.standard_normal(600)
    y = rng.standard_normal(600)
    with pytest.raises(ValueError, match="601 points .* length 600"):
        _right_angle(np.append(x, 1.0), y, 0, 600, 600)
    with pytest.raises(ValueError, match="601 points .* length 600"):
        _right_angle(x, np.append(y, 1.0), 0, 600, 600)
    # nor does it hand out coefficients past the size it has, which it
    # would leave unwritten
    for lo, hi in ((0, 601), (-1, 5), (7, 6)):
        with pytest.raises(ValueError, match="outside a product"):
            _right_angle(x, y, lo, hi, 600)


# ------------------------------------------------- rows run in lockstep

def _signed_rows(b, n):
    # well-conditioned signed rows, as in the signed Newton test above
    rng = np.random.default_rng(1000 * b + n)
    return rng.uniform(-1.0, 1.0, (b, n)) * (4.0 / n)


@pytest.mark.parametrize("n", [127, 257, 5000, (1 << 15) + 1, 1 << 16])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_stacked_pair_equals_one_pair_per_row_to_the_bit(b, n):
    # batched transforms and the stacked seed recurrence must round as the
    # 1-d calls do; at n = 127 every row takes the recurrence
    rows = _signed_rows(b, n)
    pos, neg = kernels.exp_star_pair(rows, 0.01)
    assert pos.shape == neg.shape == (b, n)
    for row, p, q in zip(rows, pos, neg):
        want_pos, want_neg = kernels.exp_star_pair(row, 0.01)
        assert np.array_equal(p, want_pos)
        assert np.array_equal(q, want_neg)


@pytest.mark.parametrize("n", [257, 5000])
def test_stack_sends_a_cancelling_row_to_the_recurrence(exp_paths, n):
    # the middle row cancels (excess far above 8) and takes the recurrence
    # on both signs; the other two still run Newton as one stack
    rows = _signed_rows(3, n)
    rows[1] = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    pos, neg = kernels.exp_star_pair(rows, 0.01)
    assert exp_paths == {"exp_newton_pair": 1, "exp_recurrence": 2}
    assert np.array_equal(pos[1], exp_recurrence(rows[1]))
    assert np.array_equal(neg[1], exp_recurrence(-rows[1]))
    for i in (0, 2):
        want_pos, want_neg = exp_newton_pair(rows[i], 0.01)
        assert np.array_equal(pos[i], want_pos)
        assert np.array_equal(neg[i], want_neg)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_lockstep_pair_peaks_near_two_sequential_pairs():
    # the rounds below the last share each buffer between the rows, but
    # the last round, refine included, runs one row at a time, so no
    # buffer outgrows a single exp's largest; what the stack adds is the
    # other row's e and 1/e while a row finishes.  numpy reports its
    # allocations to tracemalloc, so the peaks are exact: the ratio is
    # 1.083 (running the last round in lockstep too gave 1.41)
    grid = LogGrid(1e-3, 1 << 16)
    stack = np.stack([build_kahane_pi(grid, weight_sigma=1.0).coeffs,
                      kahane_tail(grid, weight_sigma=1.0).coeffs])
    sequential = _peak_bytes(lambda: [kernels.exp_star_pair(row, grid.h)
                                      for row in stack])
    lockstep = _peak_bytes(lambda: kernels.exp_star_pair(stack, grid.h))
    assert lockstep <= 1.2 * sequential


# --------------------------------------------------------- the exp* rule

@pytest.fixture
def exp_paths(monkeypatch):
    """Counts of the paths the exp rule took: under "exp_recurrence" the
    rows that its fallback kernels._recurrence ran, since one call runs a
    whole stack, and the calls of the Newton kernels, each of which runs
    its rows in one ladder.  The fallback is spied, not exp_recurrence
    itself, which also seeds every Newton ladder."""
    ran = Counter()

    def spy(name, key):
        fn = getattr(kernels, name)

        def wrapped(*args, **kwargs):
            a = np.asarray(args[0])
            ran[key] += a.size // a.shape[-1] if name == "_recurrence" else 1
            return fn(*args, **kwargs)
        return wrapped

    for name, key in (("_recurrence", "exp_recurrence"), ("exp_newton", "exp_newton"),
                      ("exp_newton_pair", "exp_newton_pair")):
        monkeypatch.setattr(kernels, name, spy(name, key))
    return ran


@pytest.mark.parametrize("n, path", [(kernels._NEWTON_MIN_N - 1, "exp_recurrence"),
                                     (kernels._NEWTON_MIN_N, "exp_newton")])
def test_auto_runs_newton_from_its_minimum_length(exp_paths, n, path):
    a = build_li_pi(LogGrid(0.01, n), weight_sigma=1.0).coeffs
    kernels.exp_star(a, 0.01)
    assert exp_paths == {path: 1}


def test_auto_keeps_cancelling_input_on_the_recurrence(exp_paths):
    rng = np.random.default_rng(40)
    a = rng.uniform(-1.0, 1.0, 4096)
    log_bound, excess = kernels._log_envelope(a, 0.01)
    # the signed excesses of exp*(a) and exp*(-a): 53 and 41
    assert 30.0 <= excess <= 60.0
    assert 30.0 <= 2.0 * log_bound - excess <= 60.0
    kernels.exp_star(a, 0.01)
    kernels.exp_star_pair(a, 0.01)
    assert exp_paths == {"exp_recurrence": 3}


def test_identity_suite_runs_only_the_recurrence(exp_paths, monkeypatch):
    # the suite checks the reference path by name, whatever the rule picks:
    # one exp per pool measure, plus exp(a + b) and exp(-a) per step, and
    # neither the rule's fallback nor a Newton kernel
    rows = Counter()
    recurrence = kernels.exp_recurrence

    def counted(a):
        rows["exp_recurrence"] += a.size // a.shape[-1]
        return recurrence(a)

    monkeypatch.setattr(kernels, "exp_recurrence", counted)
    count = 3
    run_identity_suite(count=count)
    assert exp_paths == {}
    assert rows == {"exp_recurrence": 3 * count}


def test_identity_suite_runs_each_reference_as_one_stack(monkeypatch):
    # the exps of a, a + b and -a, and the inverses of the exps, are four
    # stacked calls whatever the pool's size, not one call per measure
    calls = Counter()
    for name in ("exp_recurrence", "invert_recurrence"):
        def spy(*args, fn=getattr(kernels, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(kernels, name, spy)
    run_identity_suite(count=5)
    assert calls == {"exp_recurrence": 3, "invert_recurrence": 1}


def test_series_oracle_sums_53_terms_on_the_suites_inputs():
    # the suite's pool: n = 256, |a_j| <= 1
    rng = np.random.default_rng(2026)
    pool = [rng.uniform(-1.0, 1.0, 256) for _ in range(100)]
    assert {series_terms(256, float(np.max(np.abs(a[1:])))) for a in pool} == {53}
    assert series_terms(256, 1.0) == 53


def _series_terms_two_calls(n, peak):
    # series_terms as it was with log_t evaluated twice per count, head and
    # next both afresh; carrying next over as the next head is the same sum
    def log_t(m):
        return (math.lgamma(n - 1) - math.lgamma(m) - math.lgamma(n - m)
                + m * math.log(peak) - math.lgamma(m + 1))

    for terms in range(n - 2):
        head, nxt = log_t(terms + 1), log_t(terms + 2)
        if nxt < head and head - math.log1p(-math.exp(nxt - head)) < math.log(1e-16):
            return terms
    return n - 1


def test_series_terms_carries_each_term_over_to_the_same_counts():
    for peak in np.logspace(-3.0, 1.0, 9).tolist():
        assert ([series_terms(n, peak) for n in range(2, 301)]
                == [_series_terms_two_calls(n, peak) for n in range(2, 301)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_oracle_of_a_point_mass_at_one_is_exact(n):
    c = np.zeros(n)
    c[0] = 0.7
    got = exp_series_oracle(Measure(LogGrid(0.01, n), c)).coeffs
    want = np.zeros(n)
    want[0] = math.exp(0.7)
    assert np.array_equal(got, want)


def _exact_exp(a, bits=320):
    """exp* of the float coefficients a by the recurrence
    m e_m = sum_k k a_k e_{m-k} in integer fixed point with 2^-bits
    resolution; each float converts exactly, and the result is rounded to
    floats once at the end."""
    one = 1 << bits
    fixed = [int(math.ldexp(x, bits)) for x in a.tolist()]
    e0, term, k = 0, one, 0
    while term:
        e0 += term
        k += 1
        term = term * fixed[0] // (k * one)
    w = [k * c for k, c in enumerate(fixed)]
    e = [e0]
    for m in range(1, len(a)):
        e.append(sum(map(operator.mul, w[1:m + 1], reversed(e))) // (m * one))
    return np.array([x / one for x in e])


@pytest.mark.parametrize("scale, terms", [(5.0, 49), (20.0, 63)])
def test_series_oracle_matches_an_exact_reference(scale, terms):
    # at scale 20 the tail bound stays above 1e-16 and all n - 1 terms run;
    # the oracle's rounding is relative to exp*(|a|), which dominates every
    # term, as the terms cancel to a far smaller exp*(a)
    a = np.random.default_rng(64).uniform(-scale, scale, 64)
    assert series_terms(64, float(np.max(np.abs(a[1:])))) == terms
    got = exp_series_oracle(Measure(LogGrid(0.01, 64), a)).coeffs
    envelope = exp_recurrence(np.abs(a))
    assert np.max(np.abs(got - _exact_exp(a)) / envelope) <= 1e-13


def _suite_measure():
    # a measure as the identity suite draws them: n = 256, |a_j| <= 1
    return Measure(LogGrid(0.01, 256),
                   np.random.default_rng(2026).uniform(-1.0, 1.0, 256))


def test_series_oracle_takes_few_products_at_the_suites_size(monkeypatch):
    # Paterson-Stockmeyer on 53 terms: 6 powers and 7 Horner steps
    products = Counter()
    product = kernels.mul_trunc

    def counted(*args):
        products["mul_trunc"] += 1
        return product(*args)

    monkeypatch.setattr(kernels, "mul_trunc", counted)
    exp_series_oracle(_suite_measure())
    assert products["mul_trunc"] <= 15


def test_series_oracle_matches_an_exact_reference_at_the_suites_size():
    measure = _suite_measure()
    a = measure.coeffs
    got = exp_series_oracle(measure).coeffs
    envelope = exp_recurrence(np.abs(a))
    assert np.max(np.abs(got - _exact_exp(a)) / envelope) <= 1e-13


def test_cancelling_exp_matches_an_exact_reference():
    # exp*(-dPi) for li + u^2, weighted by u^{-1}: sum |a_j| e^{-jh} is 3.6e3
    # and the signed excess twice that, so the rule must pick the
    # recurrence, alone or in a pair; Newton on this input is off by 1.6e-11,
    # and 1.4e-10 in the pair
    spec = spec_from_text("base = li\ngrid.h = 0.004\ngrid.n = 2048\n"
                          "e.density = u**2\n")
    a = negate(tilt(assemble_pi(spec), 1.0)).coeffs
    ref = _exact_exp(a)
    assert relative_gap(kernels.exp_star(a, 0.004), ref) <= 1e-13
    assert relative_gap(kernels.exp_star_pair(-a, 0.004)[1], ref) <= 1e-13


def test_weighted_kahane_pair_runs_newton(monkeypatch):
    # both signs of the Kahane pi_w are well conditioned (excess of
    # exp*(-pi_w) 1.42), so the pair rule keeps the headline on Newton;
    # the paths are stubbed, since only the decision is under test
    ran = []
    monkeypatch.setattr(kernels, "exp_newton_pair", lambda *args: ran.append("newton"))
    monkeypatch.setattr(kernels, "_recurrence", lambda *args: ran.append("recurrence"))
    a = build_kahane_pi(KAHANE_GRID, weight_sigma=1.0).coeffs
    assert kernels._log_envelope(a, KAHANE_GRID.h)[1] <= kernels._NEWTON_MAX_EXCESS
    kernels.exp_star_pair(a, KAHANE_GRID.h)
    assert ran == ["newton"]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_auto_runs_newton_on_weighted_li_at_the_systems_size(exp_paths, sign):
    grid = LogGrid(0.01, 16_383)
    a = sign * build_li_pi(grid, weight_sigma=1.0).coeffs
    got = kernels.exp_star(a, grid.h)
    assert exp_paths == {"exp_newton": 1}
    ref = exp_recurrence(a)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("pair", [False, True])
def test_auto_decision_adds_no_weights_pass(monkeypatch, pair):
    # from 2^15 up exp_star runs Newton as before; the decision reuses the one
    # _log_envelope pass that gives Newton its envelope bound, and the result
    # is that of exp_newton to the bit
    passes = Counter()
    log_envelope = kernels._log_envelope

    def counted(*args):
        passes["log_envelope"] += 1
        return log_envelope(*args)

    monkeypatch.setattr(kernels, "_log_envelope", counted)
    grid = LogGrid(0.01, 1 << 15)
    a = build_li_pi(grid, weight_sigma=1.0).coeffs
    got = (kernels.exp_star_pair if pair else kernels.exp_star)(a, grid.h)
    assert passes["log_envelope"] == 1
    want = (exp_newton_pair if pair else exp_newton)(a, grid.h)
    assert np.array_equal(np.asarray(got), np.asarray(want))
