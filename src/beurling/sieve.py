"""Prime enumeration for the classical (rational-prime) system.

One core, ``_odd_masks``, runs a segmented sieve of Eratosthenes over the
odd numbers only (Bays & Hudson, BIT 17, 1977): each segment spans a fixed
number of integers, so memory stays bounded by the segment length rather
than the limit, and yields a boolean mask of its odd primes.  Three
consumers read the masks:

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

from .errors import ParameterError

DEFAULT_SEGMENT = 8_000_000


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


def _odd_masks(limit: int, segment: int) -> Iterator[tuple[int, np.ndarray]]:
    """Iterator of (lo, mask) over the odd numbers in [3, limit], lo odd and
    ascending: mask[i] is true iff lo + 2i is prime.  Each mask covers
    ``segment`` integers, the last one fewer.  The segment length is checked
    here, before any mask is made."""
    if segment < 2:
        raise ParameterError(f"sieve segment must be at least 2, got {segment}")
    return _odd_segments(limit, segment // 2)


def _odd_segments(limit: int, size: int) -> Iterator[tuple[int, np.ndarray]]:
    base = simple_sieve(math.isqrt(max(limit, 0)))[1:].tolist()
    lo = 3
    while lo <= limit:
        hi = min(lo + 2 * (size - 1), limit)
        mask = np.ones((hi - lo) // 2 + 1, dtype=bool)
        for p in base:
            p2 = p * p
            if p2 > hi:
                break
            start = max(p2, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            mask[(start - lo) // 2 :: p] = False
        yield lo, mask
        lo += 2 * mask.size


def iter_primes(limit: int, segment: int = DEFAULT_SEGMENT) -> Iterator[np.ndarray]:
    """Yield primes <= limit in ascending int64 arrays: [2], then the odd
    primes segment by segment."""
    masks = _odd_masks(limit, segment)
    if limit >= 2:
        yield np.array([2], dtype=np.int64)
    for lo, mask in masks:
        yield lo + 2 * np.flatnonzero(mask).astype(np.int64)


def prime_count(limit: int, segment: int = DEFAULT_SEGMENT) -> int:
    odd = sum(int(np.count_nonzero(mask)) for _, mask in _odd_masks(limit, segment))
    return odd + (limit >= 2)


def count_primes_in_ranges(edges, limit: int,
                           segment: int = DEFAULT_SEGMENT) -> np.ndarray:
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
    for lo, mask in _odd_masks(limit, segment):
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
    """Yield (p, j, p**j) for every prime power p^j <= limit, j >= 1.

    Sieves all primes up to limit, so this is meant for moderate limits;
    the lattice builder counts primes per cell from the segmented sieve
    instead for its j = 1 pass.
    """
    for p in simple_sieve(limit).tolist():
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
