"""Ensemble parameters, combinatorial counts, calibration, and G_d(n,p) sampling.

M counts the hyperedges through a fixed vertex that touch a k-set; M_i the
same for the union of two k-sets overlapping in i vertices.  Both are exact
big-integer binomial differences.  Calibration solves E[X] = delta by
bisection on the edge probability, evaluating the expected count in log
space.  Sampling draws the edge count from Binomial(C(n,d), p) and then picks
that many distinct edge ranks uniformly, unranking each to a d-subset, which
reproduces the product measure exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache

from .hypergraph import Hypergraph
from .rng import STREAM_EDGES, SplitMix64, derive_seed

_RANK_LIMIT = 1 << 63  # edge ranks are kept within a 64-bit signed range


class CalibrationError(ValueError):
    """Raised when no edge probability can reach the target expected count."""


class InstanceTooLarge(ValueError):
    """Raised when C(n,d) exceeds the edge-rank type."""


@dataclass(frozen=True)
class ModelParams:
    """Ensemble description: sizes, target, edge probability, and seed."""

    n: int
    d: int
    k: int
    p: float
    delta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.d <= self.n:
            raise ValueError(f"need 2 <= d <= n, got d={self.d}, n={self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"need 0 <= p <= 1, got p={self.p}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"need 0 < delta < 1, got delta={self.delta}")

    def with_seed(self, seed: int) -> "ModelParams":
        return replace(self, seed=seed)

    @classmethod
    def calibrated(cls, n: int, d: int, k: int | None = None,
                   delta: float = 0.5, seed: int = 0, tol: float = 1e-12) -> "ModelParams":
        """Params with p solved so the expected dominating-set count is delta."""
        if k is None:
            k = choose_k(n)
        p = calibrate_p(n, d, k, delta, tol=tol)
        return cls(n=n, d=d, k=k, p=p, delta=delta, seed=seed)


def _comb0(m: int, r: int) -> int:
    # binomial with top below bottom (including negative top) evaluating to 0
    return math.comb(m, r) if m >= r else 0


def count_M(n: int, k: int, d: int) -> int:
    """Hyperedges through a fixed vertex that meet a disjoint k-set."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    return math.comb(n - 1, d - 1) - _comb0(n - 1 - k, d - 1)


def count_Mi(n: int, k: int, i: int, d: int) -> int:
    """Hyperedges through a fixed vertex that meet the union of two k-sets."""
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    if 2 * k - i > n:
        raise ValueError(f"union size 2k-i={2*k-i} exceeds n={n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    return math.comb(n - 1, d - 1) - _comb0(n - 1 - (2 * k - i), d - 1)


def choose_k(n: int) -> int:
    """Default target set size round(ln n), floored at 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return max(1, round(math.log(n)))


def asymptotic_p(n: int, d: int) -> float:
    """Limiting edge probability 1 - exp(-(d-2)!/n^(d-2)); defined for d >= 3."""
    if d < 3:
        raise ValueError("the asymptotic form applies only for d >= 3; calibrate instead")
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    return -math.expm1(-math.factorial(d - 2) / n ** (d - 2))


def calibrate_p(n: int, d: int, k: int, delta: float, tol: float = 1e-12) -> float:
    """Solve E[X](p) = delta by bisection; E[X] is strictly increasing in p.

    Returns p with |E[X](p) - delta| <= tol * delta.
    """
    from .moments import expected_count  # cycle: moments needs count_M

    if not 0.0 < delta < 1.0:
        raise ValueError(f"need 0 < delta < 1, got {delta}")
    if tol <= 0.0:
        raise ValueError(f"need tol > 0, got {tol}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")

    lo = 0.0
    hi = min(1.0, 50.0 * asymptotic_p(n, d)) if d >= 3 else 1.0
    while expected_count(n, d, k, hi) < delta:
        if hi >= 1.0:
            raise CalibrationError(
                f"E[X] at p=1 is {expected_count(n, d, k, 1.0)} < delta={delta}")
        hi = min(1.0, 2.0 * hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = expected_count(n, d, k, mid)
        if abs(val - delta) <= tol * delta:
            return mid
        if val < delta:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection did not reach tolerance {tol} for n={n}, d={d}, k={k}, delta={delta}")


# -- sampling ---------------------------------------------------------------


@lru_cache(maxsize=32)
def _binom_columns(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    # columns[i][c] = C(c, d-i) for c in 0..n-1: the colex digits, highest first
    return tuple(tuple(math.comb(c, j) for c in range(n)) for j in range(d, 0, -1))


def sample_hypergraph(params: ModelParams) -> Hypergraph:
    """Draw G_d(n,p): every d-subset present independently with probability p.

    Deterministic in params.seed; the edge stream is derived from the seed so
    other consumers of the same seed stay decoupled.
    """
    n, d, p = params.n, params.d, params.p
    total = math.comb(n, d)
    if total >= _RANK_LIMIT:
        raise InstanceTooLarge(f"C({n},{d}) = {total} exceeds the edge-rank range")
    if p == 0.0 or total == 0:
        return Hypergraph(n, d, ())
    if p == 1.0:
        chosen = range(total)
    else:
        rng = SplitMix64(derive_seed(params.seed, STREAM_EDGES))
        count = rng.binomial(total, p)
        ranks: set[int] = set()  # the chosen ranks, or the excluded ones past total / 2
        if count <= total // 2:
            while len(ranks) < count:
                ranks.add(rng.randbelow(total))
            chosen = ranks
        else:
            while len(ranks) < total - count:
                ranks.add(rng.randbelow(total))
            chosen = (r for r in range(total) if r not in ranks)
    # colex unranking: rank = sum_j C(c_j, j) over digits c_d > ... > c_1.
    # Edges go out in any order and with descending digits; Hypergraph sorts.
    columns = _binom_columns(n, d)
    edges = []
    for rank in chosen:
        edge = []
        for column in columns:
            c = bisect_right(column, rank) - 1
            edge.append(c)
            rank -= column[c]
        edges.append(edge)
    return Hypergraph(n, d, edges)
