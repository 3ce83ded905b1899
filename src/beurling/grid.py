"""Logarithmic lattice underlying the truncated convolution algebra.

A grid places n points u_k = e^{kh} for k = 0 .. n-1.  A measure supported
on [1, e^{nh}) is represented by one coefficient per point; multiplicative
convolution of two such measures is then an ordinary truncated Cauchy
product of the coefficient sequences.  Mass with log u in the symmetric
cell [(k-1/2)h, (k+1/2)h) belongs to point k; cell 0 covers [0, h/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GridMismatchError, ParameterError, RangeError


@dataclass(frozen=True)
class LogGrid:
    h: float
    n: int

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ParameterError(f"grid step must be positive and finite, got {self.h}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ParameterError(f"grid size must be a positive integer, got {self.n}")

    @property
    def log_end(self) -> float:
        """log of the first point beyond the lattice, i.e. n*h."""
        return self.n * self.h

    def index_of_log(self, t: float) -> int:
        """Largest k with kh <= t, with a small forgiveness for roundoff.

        Primitives up to x = e^t therefore include every point whose
        nominal position does not exceed t.
        """
        if t < 0.0:
            raise RangeError(f"log point {t} below 1")
        k = int(math.floor(t / self.h + 1e-9))
        if k >= self.n:
            raise RangeError(f"log point {t} beyond lattice end {self.log_end}")
        return k

    def index_of(self, x: float) -> int:
        if x < 1.0:
            raise RangeError(f"evaluation point {x} below 1")
        return self.index_of_log(math.log(x))

    def nearest_index_of_log(self, t: float) -> int:
        """Nearest lattice point; used when snapping atoms."""
        if t < 0.0:
            raise RangeError(f"log point {t} below 1")
        k = int(round(t / self.h))
        if k >= self.n:
            raise RangeError(f"log point {t} beyond lattice end {self.log_end}")
        return k

    def require_same(self, other: "LogGrid"):
        if self != other:
            raise GridMismatchError(f"incompatible grids {self} and {other}")
