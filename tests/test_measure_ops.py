"""Operation-level checks for the convolution algebra.

Closed forms used throughout: the harmonic measure du/u discretizes to
coefficients (h/2, h, h, ...) in log coordinates, so its primitive at the
cell boundary e^{(K+1/2)h} is exactly (K+1/2)h, its Mellin transform is
1/sigma up to an O(h^2) midpoint defect, and (delta - du/u)^{-1} has
primitive e^t (exponential series summed along the lattice).
"""

import math
import sys

import numpy as np
import pytest

from beurling import (GridMismatchError, LogGrid, Measure, ParameterError,
                      RangeError, add, apply_log, checkpoint_sums, convolve,
                      delta_one, exp_star, exp_star_pair, exp_star_pairs,
                      invert, kahane_pipeline, kahane_tail, load_measure,
                      log_star, mellin, negate, pipelines, primitive,
                      relative_gap, save_measure, scale, tilt, variation, zero)
from beurling.kernels import exp_recurrence

H = 1e-3
GRID = LogGrid(H, 12_001)


def harmonic_measure(grid=GRID):
    c = np.full(grid.n, grid.h)
    c[0] = grid.h / 2.0
    return Measure(grid, c)


def random_measure(grid, seed, amplitude=0.1):
    rng = np.random.default_rng(seed)
    return Measure(grid, amplitude * rng.standard_normal(grid.n))


# ----------------------------------------------------------------- ring ops

def test_delta_is_identity_exactly():
    # n = 256 keeps the product on the direct path, where the identity is
    # bit-exact; the FFT path only preserves it to rounding
    b = random_measure(LogGrid(0.01, 256), seed=1)
    conv = convolve(delta_one(b.grid), b)
    assert np.array_equal(conv.coeffs, b.coeffs)
    big = random_measure(GRID, seed=1)
    conv_fft = convolve(delta_one(GRID), big)
    scale = np.max(np.abs(big.coeffs))
    assert np.max(np.abs(conv_fft.coeffs - big.coeffs)) <= 1e-12 * scale


def test_convolve_commutes_exactly():
    g = LogGrid(0.01, 512)
    a = random_measure(g, seed=2)
    b = random_measure(g, seed=3)
    assert np.array_equal(convolve(a, b).coeffs, convolve(b, a).coeffs)


def test_linear_ops():
    g = LogGrid(0.1, 8)
    a = Measure(g, np.arange(8.0))
    b = Measure(g, np.ones(8))
    assert np.array_equal(add(a, b).coeffs, np.arange(8.0) + 1.0)
    assert np.array_equal(add(a, negate(b)).coeffs, np.arange(8.0) - 1.0)
    assert np.array_equal(scale(a, 2.0).coeffs, 2.0 * np.arange(8.0))
    assert np.array_equal(negate(a).coeffs, -np.arange(8.0))
    assert np.array_equal(zero(g).coeffs, np.zeros(8))


def test_grid_mismatch_is_rejected():
    a = zero(LogGrid(0.1, 8))
    b = zero(LogGrid(0.1, 9))
    with pytest.raises(GridMismatchError):
        add(a, b)
    with pytest.raises(GridMismatchError):
        convolve(a, b)


def test_measure_refusals_are_typed():
    g = LogGrid(0.1, 8)
    with pytest.raises(ParameterError, match="expected 8 coefficients"):
        Measure(g, np.zeros(7))
    with pytest.raises(ParameterError, match="finite"):
        Measure(g, np.array([0.0] * 7 + [np.inf]))


def test_harmonic_square_primitive():
    # (du/u * du/u)([1, x]) = (log x)^2 / 2; at x = e^2 this is 2
    sq = convolve(harmonic_measure(), harmonic_measure())
    got = primitive(sq, math.e ** 2)
    assert got == pytest.approx(2.0, abs=3 * H)


# ---------------------------------------------------------------- applyL

def test_apply_log_on_delta_is_zero():
    g = LogGrid(0.1, 16)
    assert np.array_equal(apply_log(delta_one(g)).coeffs, np.zeros(16))


def test_apply_log_scales_atom_by_log_position():
    g = LogGrid(0.1, 16)
    c = np.zeros(16)
    c[7] = 3.0
    la = apply_log(Measure(g, c))
    assert la.coeffs[7] == pytest.approx(3.0 * 0.7, rel=5e-16)
    assert np.count_nonzero(la.coeffs) == 1


def test_apply_log_is_a_derivation():
    g = LogGrid(0.01, 256)
    a = random_measure(g, seed=4)
    b = random_measure(g, seed=5)
    lhs = apply_log(convolve(a, b))
    rhs = add(convolve(apply_log(a), b), convolve(a, apply_log(b)))
    assert relative_gap(lhs, rhs) <= 1e-12


# ---------------------------------------------------------------- exp / log

def test_exp_of_zero_is_delta():
    g = LogGrid(0.1, 32)
    assert np.array_equal(exp_star(zero(g)).coeffs, delta_one(g).coeffs)


def test_exp_of_scaled_delta():
    g = LogGrid(0.1, 32)
    e = exp_star(scale(delta_one(g), 0.7))
    expected = np.zeros(32)
    expected[0] = math.exp(0.7)
    assert np.array_equal(e.coeffs, expected)


def test_exp_is_a_homomorphism():
    g = LogGrid(0.01, 256)
    a = random_measure(g, seed=6)
    b = random_measure(g, seed=7)
    lhs = exp_star(add(a, b))
    rhs = convolve(exp_star(a), exp_star(b))
    assert relative_gap(lhs, rhs) <= 1e-10


def test_log_of_delta_is_zero():
    g = LogGrid(0.1, 32)
    assert np.array_equal(log_star(delta_one(g)).coeffs, np.zeros(32))


def test_log_exp_roundtrip():
    g = LogGrid(0.01, 256)
    a = random_measure(g, seed=8)
    back = log_star(exp_star(a))
    assert relative_gap(a, back) <= 1e-10


def test_log_needs_positive_mass_at_one():
    g = LogGrid(0.1, 8)
    with pytest.raises(ValueError):
        log_star(zero(g))
    c = np.ones(8)
    c[0] = -1.0
    with pytest.raises(ValueError):
        log_star(Measure(g, c))


def test_exp_pair_is_exp_of_both_signs():
    # below n = 128 the pair runs the recurrence once per sign, unchanged to
    # the bit; the large well-conditioned input goes to Newton, where the
    # pair comes from one run
    small = random_measure(LogGrid(0.01, 100), seed=12)
    pos, neg = exp_star_pair(small)
    assert np.array_equal(pos.coeffs, exp_recurrence(small.coeffs))
    assert np.array_equal(neg.coeffs, exp_recurrence(-small.coeffs))
    large = random_measure(LogGrid(0.01, 1 << 15), seed=13, amplitude=1e-4)
    pos, neg = exp_star_pair(large)
    assert relative_gap(pos, exp_star(large)) <= 1e-13
    assert relative_gap(neg, exp_star(negate(large))) <= 1e-13


def test_exp_pairs_equal_one_pair_per_measure_to_the_bit():
    # the measures' rows run in lockstep on batched transforms, and the
    # batched rows round exactly as one pair per measure does
    grid = LogGrid(0.01, 5000)
    measures = [random_measure(grid, seed, amplitude=1e-4) for seed in (14, 15, 16)]
    for (pos, neg), m in zip(exp_star_pairs(measures), measures):
        want_pos, want_neg = exp_star_pair(m)
        assert np.array_equal(pos.coeffs, want_pos.coeffs)
        assert np.array_equal(neg.coeffs, want_neg.coeffs)
    with pytest.raises(GridMismatchError):
        exp_star_pairs([measures[0], random_measure(LogGrid(0.02, 5000), seed=17)])


def test_kahane_series_equal_those_of_one_pair_per_measure(monkeypatch):
    # kahane_pipeline runs exp*(+-dPi_K) and exp*(+-dA) as one stack; every
    # series it reports equals, to the bit, the one built from two
    # separate exp_star_pair calls
    grid = LogGrid(1e-3, 50_001)
    stacked = kahane_pipeline(grid)
    monkeypatch.setattr(pipelines, "exp_star_pairs",
                        lambda measures: [exp_star_pair(m) for m in measures])
    separate = kahane_pipeline(grid)
    assert stacked.series.keys() == separate.series.keys()
    for name, series in stacked.series.items():
        assert np.array_equal(series.values, separate.series[name].values), name


def test_kahane_pipeline_discretizes_the_tail_once(monkeypatch):
    # dPi_K is li plus the tail measure dA that the pipeline also
    # exponentiates on its own; the one discretization of dA serves both
    from beurling import systems

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kahane_tail(*args, **kwargs)

    monkeypatch.setattr(systems, "kahane_tail", counted)
    monkeypatch.setattr(pipelines, "kahane_tail", counted)
    kahane_pipeline(LogGrid(0.01, 6000))
    assert len(calls) == 1


def test_envelope_dominates_exp():
    g = LogGrid(0.01, 256)
    a = random_measure(g, seed=9)
    e = exp_star(a)
    env = exp_star(variation(a))
    assert np.all(np.abs(e.coeffs) <= env.coeffs * (1 + 1e-12) + 1e-300)


# ------------------------------------------------------------------ invert

def test_invert_delta():
    g = LogGrid(0.1, 32)
    assert np.array_equal(invert(delta_one(g)).coeffs, delta_one(g).coeffs)


def test_invert_is_convolution_inverse():
    g = LogGrid(0.01, 256)
    a = random_measure(g, seed=10)
    a = add(a, delta_one(g))  # ensure unit mass at 1
    conv = convolve(a, invert(a))
    assert relative_gap(conv, delta_one(g)) <= 1e-10


def test_invert_of_exp_is_exp_of_negation():
    g = LogGrid(0.01, 256)
    a = random_measure(g, seed=11)
    assert relative_gap(invert(exp_star(a)), exp_star(negate(a))) <= 1e-10


def test_invert_needs_mass_at_one():
    g = LogGrid(0.1, 8)
    with pytest.raises(ValueError):
        invert(zero(g))


def test_geometric_inverse_of_delta_minus_harmonic():
    # (delta - du/u)^{-1} = sum_m (du/u)^{*m} has primitive e^t
    a = add(delta_one(GRID), negate(harmonic_measure()))
    inv = invert(a)
    for t in (2.0, 5.0, 10.0):
        k = GRID.index_of_log(t)
        t_eff = (k + 0.5) * H
        got = primitive(inv, math.exp(t))
        assert got == pytest.approx(math.exp(t_eff), rel=2e-6)


# ------------------------------------------------------------- variation

def test_variation_flips_signs():
    g = LogGrid(0.1, 4)
    a = Measure(g, np.array([1.0, -2.0, 0.0, 3.0]))
    assert np.array_equal(variation(a).coeffs, np.array([1.0, 2.0, 0.0, 3.0]))
    assert np.array_equal(variation(variation(a)).coeffs, variation(a).coeffs)


def test_variation_triangle_inequality():
    g = LogGrid(0.01, 256)
    a = random_measure(g, seed=12)
    x = math.exp(2.0)
    assert abs(primitive(a, x)) <= primitive(variation(a), x) * (1 + 1e-12)


# ------------------------------------------------- primitives / transforms

def test_primitive_of_delta():
    g = LogGrid(0.1, 32)
    d = delta_one(g)
    assert primitive(d, 1.0) == 1.0
    assert primitive(d, 20.0) == 1.0


def test_primitive_of_harmonic_measure():
    a = harmonic_measure()
    for t in (1.0, 3.0, 7.0):
        k = GRID.index_of_log(t)
        assert primitive(a, math.exp(t)) == pytest.approx((k + 0.5) * H, abs=1e-12)
        assert primitive(a, math.exp(t)) == pytest.approx(t, abs=H)


def test_primitive_range_errors():
    a = harmonic_measure(LogGrid(0.1, 8))
    with pytest.raises(RangeError):
        primitive(a, 0.5)
    with pytest.raises(RangeError):
        primitive(a, math.exp(0.9))


def test_harmonic_primitive_closed_form():
    # int_{[1, x]} dA(u)/u is the primitive of the u^{-1}-tilted measure
    a = tilt(harmonic_measure(), 1.0)
    assert checkpoint_sums(tilt(delta_one(GRID), 1.0), [math.log(5.0)])[0] == 1.0
    for t in (2.0, 6.0, 10.0):
        k = GRID.index_of_log(t)
        t_eff = (k + 0.5) * H
        got = checkpoint_sums(a, [t])[0]
        assert got == pytest.approx(1.0 - math.exp(-t_eff), abs=1e-5)


def longdouble_checkpoint_sums(a, ts, rate):
    c = a.coeffs.astype(np.longdouble)
    h = np.longdouble(a.grid.h)
    out = []
    for t in ts:
        k = a.grid.index_of_log(t)
        logu = np.arange(k + 1, dtype=np.longdouble) * h
        out.append(np.sum(c[: k + 1] * np.exp(np.longdouble(rate) * (logu - np.longdouble(t)))))
    return np.array(out)


@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0, 3.0])
def test_checkpoint_sums_match_long_double_reference(rate):
    g = LogGrid(1e-3, 60_001)
    c = np.random.default_rng(7).uniform(-0.5, 1.0, g.n)
    a = Measure(g, c)
    # K = 0, two checkpoints in one cell, long segments, the last lattice point
    ts = [0.0, 4e-4, 5.0, 5.0004, 5.0011, 20.0, 37.5, (g.n - 1) * g.h]
    got = checkpoint_sums(a, ts, rate)
    ref = longdouble_checkpoint_sums(a, ts, rate)
    assert got.shape == (len(ts),)
    assert float(np.max(np.abs((got - ref) / ref))) <= 1e-14
    assert got[0] == c[0]
    assert got[1] == pytest.approx(c[0] * math.exp(-rate * 4e-4), rel=1e-15)


def test_checkpoint_sums_stay_finite_on_long_grids():
    # raw e^{kh} factors overflow past kh = 709; the rescaled carry does not
    g = LogGrid(0.5, 4_001)
    a = Measure(g, np.ones(g.n))
    got = checkpoint_sums(a, [100.0, 1500.0, 2000.0], 1.0)
    assert np.allclose(got, 1.0 / (1.0 - math.exp(-0.5)), rtol=1e-14, atol=0.0)


def test_checkpoint_sums_reject_bad_checkpoints():
    a = harmonic_measure(LogGrid(0.1, 8))
    with pytest.raises(RangeError):
        checkpoint_sums(a, [0.2, 0.8])
    with pytest.raises(ValueError, match="ascending"):
        checkpoint_sums(a, [0.5, 0.2])
    with pytest.raises(ValueError):
        checkpoint_sums(a, [[0.1, 0.2]])


def test_mellin_of_delta_is_one():
    g = LogGrid(0.1, 32)
    for sigma in (0.0, 1.0, 1.7, 3.0):
        assert mellin(delta_one(g), sigma) == 1.0


def test_mellin_of_harmonic_measure():
    a = harmonic_measure()
    for sigma in (1.5, 2.0, 3.0):
        assert mellin(a, sigma) == pytest.approx(1.0 / sigma, abs=1e-5)


def longdouble_mellin(a, sigma):
    """Direct sum_k c_k e^{-sigma k h} in extended precision, the reference
    for the blocked kernel."""
    k = np.arange(a.grid.n, dtype=np.longdouble)
    rate = np.longdouble(sigma) * np.longdouble(a.grid.h)
    return np.sum(a.coeffs.astype(np.longdouble) * np.exp(-rate * k))


# n = 400,003 = 632^2 + 579: the blocked sum has a ragged last block of 579
# terms, which carries weight e^{-1} at sigma = 1e-5
SIGMAS = np.concatenate([[0.0], np.logspace(-5, -2, 7)])


def test_mellin_array_form_equals_scalar_form_to_the_bit():
    g = LogGrid(0.25, 400_003)
    a = kahane_tail(g, weight_sigma=1.0)
    values = mellin(a, SIGMAS)
    assert values.shape == SIGMAS.shape
    for s, v in zip(SIGMAS, values):
        got = mellin(a, s)
        assert isinstance(got, float)
        assert got == v
    # a sigma's value does not depend on the others evaluated with it
    assert np.array_equal(mellin(a, SIGMAS[::-1])[::-1], values)
    assert np.array_equal(mellin(a, SIGMAS[3:5]), values[3:5])


def test_mellin_blocked_sum_matches_long_double_reference():
    g = LogGrid(0.25, 400_003)
    a = kahane_tail(g, weight_sigma=1.0)
    values = mellin(a, SIGMAS)
    for s, v in zip(SIGMAS, values):
        ref = longdouble_mellin(a, s)
        assert abs(float((v - ref) / ref)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 37 ** 2 - 1, 37 ** 2, 37 ** 2 + 1])
def test_mellin_block_edges(n):
    # isqrt(n) blocks: n = B^2 - 1 gives B - 1 columns and no ragged block,
    # B^2 is square, B^2 + 1 leaves a ragged block of one term
    g = LogGrid(0.01, n)
    a = Measure(g, np.random.default_rng(n).random(n))
    sigmas = np.array([0.0, 0.5, 3.0, 40.0])
    values = mellin(a, sigmas)
    for s, v in zip(sigmas, values):
        ref = longdouble_mellin(a, s)
        assert abs(float((v - ref) / ref)) <= 1e-14
        assert mellin(a, s) == v
    assert np.array_equal(mellin(delta_one(g), sigmas), np.ones(4))


def test_mellin_of_fully_underflowing_terms_is_finite():
    # sigma * n * h = 1e5 and 1e9: every term past the first few hundred
    # underflows to zero, which must neither warn nor poison the sum
    g = LogGrid(1.0, 100_000)
    a = Measure(g, np.ones(g.n))
    values = mellin(a, np.array([1.0, 1e4]))
    assert np.all(np.isfinite(values))
    assert values[0] == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-14)
    assert values[1] == 1.0


def test_mellin_sigma_shapes():
    a = harmonic_measure()
    assert mellin(a, np.array([])).shape == (0,)
    assert isinstance(mellin(a, np.float64(2.0)), float)
    assert np.array_equal(mellin(a, [1.5, 2.0]),
                          [mellin(a, 1.5), mellin(a, 2.0)])
    with pytest.raises(ValueError):
        mellin(a, np.ones((2, 2)))


# -------------------------------------------------------------- round trip

def test_save_load_roundtrip_is_exact(tmp_path):
    g = LogGrid(0.001, 6)
    a = Measure(g, np.array([1.0, -0.0, 1e-300, 1e300, math.pi, -2.5e-17]))
    path = tmp_path / "m.txt"
    save_measure(a, path)
    b = load_measure(path)
    assert b.grid == g
    assert np.array_equal(a.coeffs, b.coeffs)
    # -0.0 round-trips with its sign
    assert math.copysign(1.0, b.coeffs[1]) == -1.0


def test_load_reads_every_double_bit_for_bit(tmp_path):
    rng = np.random.default_rng(14)
    values = rng.uniform(-1, 1, 500) * 10.0 ** rng.uniform(-300, 300, 500)
    extremes = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
                -sys.float_info.max, sys.float_info.min]
    a = Measure(LogGrid(0.001, 507), np.concatenate([extremes, values]))
    path = tmp_path / "m.txt"
    save_measure(a, path)
    assert load_measure(path).coeffs.tobytes() == a.coeffs.tobytes()


def test_load_skips_blank_lines_and_refuses_a_malformed_one(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# beurling-measure-v1\nh=0.001,n=3\n1.5\n\n  \n-2.0\n0.25\n\n")
    assert load_measure(path).coeffs.tolist() == [1.5, -2.0, 0.25]
    path.write_text("# beurling-measure-v1\nh=0.001,n=3\n1.5\nnot-a-number\n0.25\n")
    with pytest.raises(ValueError):
        load_measure(path)


BODY = "1.5\n-2.0\n0.25\n"


@pytest.mark.parametrize("text, names", [
    ("", "first line ''"),
    ("# other-format\nh=0.001,n=3\n" + BODY, "first line '# other-format'"),
    ("h=0.001,n=3\n" + BODY, "first line 'h=0.001,n=3'"),
    ("# beurling-measure-v1\nh=0.001\n" + BODY, "header 'h=0.001'"),
    ("# beurling-measure-v1\nn=3\n" + BODY, "header 'n=3'"),
    ("# beurling-measure-v1\nh=0.001,n=three\n" + BODY, "header 'h=0.001,n=three'"),
    ("# beurling-measure-v1\nh=0.001,n=3\n1.5\n1,5\n0.25\n", "'1,5'"),
], ids=["empty", "foreign-tag", "no-tag", "no-n", "no-h", "bad-n", "bad-coefficient"])
def test_load_refuses_a_malformed_file_naming_it(tmp_path, text, names):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ParameterError) as exc:
        load_measure(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert names in str(exc.value)


def test_save_format_header(tmp_path):
    g = LogGrid(0.001, 3)
    path = tmp_path / "m.txt"
    save_measure(zero(g), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# beurling-measure-v1"
    assert lines[1] == "h=0.001,n=3"
    assert lines[2:] == ["0.0", "0.0", "0.0"]


def test_relative_gap_conventions():
    assert relative_gap(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_gap(np.array([1.0, 0.0]), np.array([0.5, 0.0])) == 0.5
    g = LogGrid(0.1, 2)
    assert relative_gap(Measure(g, np.array([1.0, 0.0])), np.array([1.0, 0.0])) == 0.0
