"""Exact prime-power enumeration and the lattice projection built on it.

The total mass sum_{p^j <= x} 1/j regroups exactly as
sum_{j >= 1} pi(floor(x^{1/j})) / j with integer-exact roots, giving an
independent rational-arithmetic oracle with zero tolerance.
"""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from beurling import (LogGrid, ParameterError, RangeError, build_classical_pi,
                      prime_count, prime_power_mass, primitive)
from beurling import sieve
from beurling.sieve import (count_primes_in_ranges, iter_primes, prime_powers,
                            simple_sieve)


def iroot(x: int, k: int) -> int:
    """floor(x^{1/k}) in exact integer arithmetic."""
    if k == 1:
        return x
    r = int(round(x ** (1.0 / k)))
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def test_simple_sieve_small():
    assert simple_sieve(1).size == 0
    assert simple_sieve(2).tolist() == [2]
    assert simple_sieve(10).tolist() == [2, 3, 5, 7]
    assert simple_sieve(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_counts():
    assert prime_count(10) == 4
    assert prime_count(100) == 25
    assert prime_count(10 ** 6) == 78_498


def test_segmented_matches_simple():
    parts = [seg for seg in iter_primes(10 ** 5, segment=9_973)]
    assert all(len(seg) > 0 for seg in parts)
    joined = np.concatenate(parts)
    assert np.array_equal(joined, simple_sieve(10 ** 5))


def range_counts_by_search(edges, limit):
    """Primes <= limit per range [edges[j], edges[j+1]), from the plain sieve."""
    return np.diff(np.searchsorted(simple_sieve(limit), edges)).astype(np.int64)


# 30,030 integers is one presieve period (15,015 odd numbers), 30,032 one odd
# number more, so segments start at every offset in the period; segments of
# 2, 3 and 97 start past 3, 5, 7, 11 or 13, which the presieve must restore.
# 8,000,000 is the earlier default, one segment for every limit below.
SEGMENTS = [2, 3, 97, 30_030, 30_032, 8_000_000, sieve.DEFAULT_SEGMENT]


def assert_sieve_matches_simple_sieve(x, segment):
    assert prime_count(x, segment) == len(simple_sieve(x)), x
    joined = np.concatenate([np.empty(0, np.int64), *iter_primes(x, segment)])
    assert joined.dtype == np.int64
    assert np.array_equal(joined, simple_sieve(x)), x
    edges = np.arange(-3, x + 12, 7)
    got = count_primes_in_ranges(edges, x, segment)
    assert np.array_equal(got, range_counts_by_search(edges, x)), x


@pytest.mark.parametrize("segment", SEGMENTS)
def test_prime_count_and_iter_primes_match_simple_sieve(segment):
    for x in range(401):
        assert_sieve_matches_simple_sieve(x, segment)


@pytest.mark.parametrize("segment", SEGMENTS)
def test_sieve_matches_simple_sieve_across_presieve_periods(segment):
    # 2 * 15,015 + 3 is the first odd number of the second period; segments
    # of 2 or 3 integers make one mask per odd number, so they stop there
    if segment <= 3:
        limits = [2 * 15_015 + 3]
    else:
        limits = [*range(2 * 15_015 - 2, 2 * 15_015 + 9), 10 ** 5]
    for x in limits:
        assert_sieve_matches_simple_sieve(x, segment)


def test_prime_count_powers_of_ten():
    pi = [0, 4, 25, 168, 1_229, 9_592, 78_498, 664_579, 5_761_455]
    assert [prime_count(10 ** k) for k in range(9)] == pi


def test_sieve_refuses_segments_below_two():
    for segment in (1, 0, -5):
        with pytest.raises(ParameterError):
            prime_count(100, segment)
        with pytest.raises(ParameterError):
            next(iter_primes(100, segment))
        with pytest.raises(ParameterError):
            count_primes_in_ranges([0, 50, 101], 100, segment)


def test_count_primes_in_ranges_small():
    edges = [-3, 0, 2, 3, 4, 10, 10, 11, 30, 31]
    # [-3,0) [0,2) [2,3) [3,4) [4,10) [10,10) [10,11) [11,30) [30,31)
    want = [0, 0, 1, 1, 2, 0, 0, 6, 0]
    for segment in (2, 3, 4, 5, 97):
        assert count_primes_in_ranges(edges, 30, segment).tolist() == want
    assert count_primes_in_ranges(edges, 12, 3).tolist() == [0, 0, 1, 1, 2, 0, 0, 1, 0]
    assert count_primes_in_ranges([5], 100).size == 0


def parent_pi(h: float, n: int, limit: int) -> np.ndarray:
    """The lattice projection written out from a full prime list: every
    prime snapped by rint(log p / h) and counted by bincount, then the
    prime powers p^j (j >= 2) with mass 1/j."""
    coeffs = np.zeros(n)
    ks = np.rint(np.log(simple_sieve(limit).astype(float)) / h).astype(np.int64)
    coeffs += np.bincount(ks, minlength=n)[:n]
    for p in simple_sieve(math.isqrt(limit)).tolist():
        pj, j = p * p, 2
        while pj <= limit:
            coeffs[int(round(math.log(pj) / h))] += 1.0 / j
            j += 1
            pj *= p
    return coeffs


def first_in_cell(h: float, k: int) -> int:
    """B_k: the smallest integer p >= 2 with rint(log p / h) >= k, by scan."""
    p = 2
    while np.rint(np.log(float(p)) / h) < k:
        p += 1
    return p


@pytest.mark.parametrize("segment", [2, 3, 97, 9_973])
@pytest.mark.parametrize("h", [1e-4, 4e-3, 0.1, 0.37])
def test_cell_counts_match_the_prime_list(h, segment, monkeypatch):
    # build_classical_pi sieves with the default segment; pin a short one so
    # cells straddle segments (small h) and segments sit inside a cell (large h)
    monkeypatch.setattr(sieve, "count_primes_in_ranges",
                        partial(count_primes_in_ranges, segment=segment))
    b_k = first_in_cell(h, int(np.rint(math.log(1200) / h)))
    assert b_k not in (1000, 1001)
    for limit in (2, 3, 4, 1000, 1001, b_k - 1, b_k):
        n = int(math.log(limit) / h) + 2
        got = build_classical_pi(LogGrid(h, n), limit).coeffs
        assert got.tobytes() == parent_pi(h, n, limit).tobytes(), limit


@pytest.mark.parametrize("m", [3, 5, 11, 13, 19, 997])
@pytest.mark.parametrize("k", [5, 8, 13, 20])
def test_cell_counts_match_the_prime_list_at_half_step_ties(m, k):
    # h = log(m)/(k - 1/2) puts log m / h on a rounding tie, so e^{(k-1/2)h}
    # and the snap of m and m +- 1 decide B_k by the last bit either way
    h = math.log(m) / (k - 0.5)
    for limit in (m - 1, m, m + 1, 3_000):
        n = int(math.log(limit) / h) + 2
        got = build_classical_pi(LogGrid(h, n), limit).coeffs
        assert got.tobytes() == parent_pi(h, n, limit).tobytes(), limit


@pytest.mark.parametrize("h", [1e-4, 4e-3, 0.1, 0.37])
def test_classical_pi_matches_the_prime_list_at_default_segment(h):
    for limit in (10 ** 6, 10 ** 6 + 3):
        n = int(math.log(limit) / h) + 2
        got = build_classical_pi(LogGrid(h, n), limit).coeffs
        assert got.tobytes() == parent_pi(h, n, limit).tobytes(), limit


def test_classical_pi_is_the_same_at_the_earlier_default_segment(monkeypatch):
    # the systems grid and limit: 1 MiB masks against the 4 MB ones before
    grid, limit = LogGrid(4e-3, 16_383), 10 ** 8
    coeffs = {}
    for segment in (2_097_152, 8_000_000):
        monkeypatch.setattr(sieve, "count_primes_in_ranges",
                            partial(count_primes_in_ranges, segment=segment))
        coeffs[segment] = build_classical_pi(grid, limit).coeffs.tobytes()
    assert coeffs[2_097_152] == coeffs[8_000_000]


def test_prime_powers_up_to_ten():
    got = set(prime_powers(10))
    want = {(2, 1, 2), (3, 1, 3), (2, 2, 4), (5, 1, 5), (7, 1, 7),
            (2, 3, 8), (3, 2, 9)}
    assert got == want


def test_prime_power_mass_small_closed_form():
    # 4 primes + 1/2 (4, 9) + 1/3 (8) = 16/3 at limit 10
    assert prime_power_mass(10) == Fraction(16, 3)
    assert prime_power_mass(1) == 0
    assert prime_power_mass(2) == 1


def test_prime_power_mass_regroups_by_root():
    limit = 10 ** 6
    direct = prime_power_mass(limit)
    regrouped = Fraction(0)
    j = 1
    while 2 ** j <= limit:
        regrouped += Fraction(prime_count(iroot(limit, j)), j)
        j += 1
    assert direct == regrouped  # exact rational equality


def test_lattice_projection_preserves_total_mass():
    limit = 10 ** 6
    grid = LogGrid(1e-3, 14_001)
    m = build_classical_pi(grid, limit)
    total = float(np.sum(m.coeffs))
    exact = float(prime_power_mass(limit))
    assert total == pytest.approx(exact, rel=1e-12)


def test_no_mass_below_two():
    grid = LogGrid(1e-3, 14_001)
    m = build_classical_pi(grid, 10 ** 4)
    # snapping moves log 2 by at most h/2, so probe a comfortable margin below
    assert primitive(m, 1.99) == 0.0
    assert primitive(m, 2.01) == 1.0


def test_classical_needs_grid_room():
    with pytest.raises(RangeError):
        build_classical_pi(LogGrid(0.1, 10), 10 ** 4)
    with pytest.raises(ValueError):
        build_classical_pi(LogGrid(0.1, 10), 1)


def test_classical_masses_are_thirds_and_halves():
    grid = LogGrid(1e-4, 30_000)
    m = build_classical_pi(grid, 10)
    idx = {p: grid.nearest_index_of_log(math.log(p)) for p in (2, 3, 5, 7)}
    for p in (2, 3, 5, 7):
        assert m.coeffs[idx[p]] == 1.0
    assert m.coeffs[grid.nearest_index_of_log(math.log(4))] == 0.5
    assert m.coeffs[grid.nearest_index_of_log(math.log(9))] == 0.5
    assert m.coeffs[grid.nearest_index_of_log(math.log(8))] == pytest.approx(1 / 3)
    assert float(np.sum(m.coeffs)) == pytest.approx(16.0 / 3.0, rel=1e-15)
