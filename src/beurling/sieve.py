"""Prime enumeration for the classical (rational-prime) system.

One core, ``_odd_segments``, runs a segmented sieve of Eratosthenes over
the odd numbers only (Bays & Hudson, BIT 17, 1977): each segment spans a
fixed number of integers, so memory stays bounded by the segment length
rather than the limit, and yields a boolean mask of its odd primes.  The
segment, SEGMENT = 2^21 integers, gives a 1 MiB mask, which stays in a
2 MiB L2 cache while every base prime strides through it.  Each mask
starts as a copy of a presieve pattern that already strikes the multiples
of 3, 5, 7, 11 and 13: in odd-index space (i for the odd number 3 + 2i)
those repeat with period 3*5*7*11*13 = 15,015, so the pattern is tiled
once and each segment copies the slice at its offset, then sets the five
small primes back where they fall.  The base primes above 13 then strike
their multiples, the first of each computed for all of them at once.
Three consumers read the masks:

  prime_count              1 (for the prime 2) plus the set bits;
  iter_primes              the primes themselves, 2 first;
  count_primes_in_ranges   primes per integer range [edges[j], edges[j+1]),
                           one count per range slice, with no prime array.

A plain sieve serves small limits and the base primes.  Prime powers p^j
are compared against the limit in exact integer arithmetic, never through
floating-point roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

# integers per segment, read when a sieve starts
SEGMENT = 2_097_152
# the presieved primes, and the period of their multiples in odd-index space
_PRESIEVE = (3, 5, 7, 11, 13)
_PERIOD = 15_015


def simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _odd_segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """Iterator of (lo, mask) over the odd numbers in [3, limit], lo odd and
    ascending: mask[i] is true iff lo + 2i is prime.  Each mask covers
    SEGMENT integers, the last one fewer."""
    base = simple_sieve(math.isqrt(max(limit, 0)))
    base = base[base > _PRESIEVE[-1]]
    squares = base * base
    pattern = np.ones(_PERIOD, dtype=bool)
    for p in _PRESIEVE:
        pattern[(p - 3) // 2 :: p] = False
    # no mask is longer than the count of odd numbers in [3, limit]; the tiled
    # pattern holds a slice of that length from any offset in the period
    size = min(SEGMENT // 2, max((limit - 1) // 2, 0))
    tiled = np.tile(pattern, size // _PERIOD + 2)
    lo = 3
    while lo <= limit:
        hi = min(lo + 2 * (size - 1), limit)
        offset = ((lo - 3) // 2) % _PERIOD
        mask = tiled[offset : offset + (hi - lo) // 2 + 1].copy()
        for p in _PRESIEVE:
            if lo <= p <= hi:
                mask[(p - lo) // 2] = True
        # the first odd multiple >= max(p^2, lo) of each base prime p with
        # p^2 <= hi, as an index into the mask
        k = int(np.searchsorted(squares, hi, side="right"))
        ps = base[:k]
        start = np.maximum(squares[:k], -(-lo // ps) * ps)
        start += ps * (1 - start % 2)
        for p, i in zip(ps.tolist(), ((start - lo) // 2).tolist()):
            mask[i::p] = False
        yield lo, mask
        lo += 2 * mask.size


def iter_primes(limit: int) -> Iterator[np.ndarray]:
    """Yield primes <= limit in ascending int64 arrays: [2], then the odd
    primes segment by segment."""
    if limit >= 2:
        yield np.array([2], dtype=np.int64)
    for lo, mask in _odd_segments(limit):
        yield lo + 2 * np.flatnonzero(mask).astype(np.int64)


def prime_count(limit: int) -> int:
    odd = sum(int(np.count_nonzero(mask)) for _, mask in _odd_segments(limit))
    return odd + (limit >= 2)


def count_primes_in_ranges(edges, limit: int) -> np.ndarray:
    """Number of primes p <= limit with edges[j] <= p < edges[j+1], for
    ascending integer edges, as an int64 array of len(edges) - 1.

    Counted straight from the sieve masks, one ``count_nonzero`` per
    nonempty range slice of each segment; no prime array is built.
    """
    edges = np.asarray(edges, dtype=np.int64)
    counts = np.zeros(max(edges.size - 1, 0), dtype=np.int64)
    if limit >= 2:
        j = int(np.searchsorted(edges, 2, side="right")) - 1
        if 0 <= j < counts.size:
            counts[j] += 1
    for lo, mask in _odd_segments(limit):
        # ranges first..last-1 meet the segment; idx holds, for each of their
        # edges, the index of the first odd number >= it, clipped to the mask
        first = max(int(np.searchsorted(edges, lo, side="right")) - 1, 0)
        last = int(np.searchsorted(edges, lo + 2 * mask.size))
        idx = np.clip((edges[first:last + 1] - lo + 1) // 2, 0, mask.size)
        cells = np.flatnonzero(idx[1:] > idx[:-1])
        counts[first + cells] += np.fromiter(
            (np.count_nonzero(mask[a:b]) for a, b in
             zip(idx[cells].tolist(), idx[cells + 1].tolist())),
            dtype=np.int64, count=cells.size)
    return counts


def prime_powers(limit: int) -> Iterator[tuple[int, int, int]]:
    """Yield (p, j, p**j) for every prime power p^j <= limit, j >= 1, in
    ascending p, the primes taken segment by segment from iter_primes."""
    for chunk in iter_primes(limit):
        for p in chunk.tolist():
            pj, j = p, 1
            while pj <= limit:
                yield p, j, pj
                j += 1
                pj *= p


def prime_power_mass(limit: int) -> Fraction:
    """Exact total prime-power mass sum_{p^j <= limit} 1/j."""
    total = Fraction(0)
    for _, j, _ in prime_powers(limit):
        total += Fraction(1, j)
    return total
