"""Ensemble parameters, combinatorial counts, calibration, and G_d(n,p) sampling.

M counts the hyperedges through a fixed vertex that touch a k-set; M_i the
same for the union of two k-sets overlapping in i vertices.  Both are exact
big-integer binomial differences.  Calibration solves E[X] = delta by
bisection on the edge probability, evaluating the expected count in log
space.  Sampling draws the edge count from Binomial(C(n,d), p) and then picks
that many distinct edge ranks uniformly, unranking each to a d-subset, which
reproduces the product measure exactly.  Instances whose expected edge count
C(n,d)*p passes `MAX_EDGES` are refused before anything is drawn.

`_edge_ranks(params)` is the one owner of that edge stream, and
`_colex_digits` the one reader of its ranks: it returns the d digit columns
of all the ranks at once (vertex j of every edge in column j), bisecting each
digit above the lowest two in a table of binomials and taking those two in
closed form (c_2 from an integer square root, then c_1), so the table holds
the d - 2 upper columns, n entries each, and none at d = 2.  The bitmask
builders `hypergraph._edge_bits` and `_closed_bits` read those columns.
`_instance(n, d, cols)` sorts the rows of the columns into a `Hypergraph`
for `sample_hypergraph` and for the one attempt the pair builder accepts;
the Monte-Carlo kernels and the pair builder's attempts build bitmasks
straight from the columns, so they see the same instance without one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

from .hypergraph import Hypergraph
from .rng import STREAM_EDGES, SplitMix64, derive_seed

_RANK_LIMIT = 1 << 63  # edge ranks are kept within a 64-bit signed range
_BLOCK_CAP = 512  # most SplitMix64 outputs drawn in one block
# Largest expected edge count C(n,d)*p that is sampled.  `sample_hypergraph`
# peaked at 169 bytes per edge (tracemalloc, n=200, d=3, 10^5 edges drawn in
# 2.4 s), so one instance stays near 170 MB and half a minute of drawing;
# n=1000, d=3, p=0.9 would ask for 1.5e8 edges, some 25 GB.
MAX_EDGES = 1_000_000


class CalibrationError(ValueError):
    """Raised when no edge probability can reach the target expected count."""


class InstanceTooLarge(ValueError):
    """Raised when C(n,d) exceeds the edge-rank type, or C(n,d)*p exceeds
    `MAX_EDGES`."""


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
                   delta: float = 0.5, seed: int = 0) -> "ModelParams":
        """Params with p solved so the expected dominating-set count is delta."""
        if k is None:
            k = choose_k(n)
        p = calibrate_p(n, d, k, delta)
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

    Returns p with |E[X](p) - delta| <= tol * delta.  Where no float p gets
    that close (one float step of p moves E[X] by more, as at d=2, k=1 and
    n >= 10^5), the bracket closes on two adjacent floats, and of these the
    one whose E[X] is nearer delta is returned.
    """
    from .moments import expected_count  # cycle: moments needs count_M

    if not 0.0 < delta < 1.0:
        raise ValueError(f"need 0 < delta < 1, got {delta}")
    if not (tol > 0.0 and math.isfinite(tol)):  # NaN fails the first test, inf the second
        raise ValueError(f"need a finite tol > 0, got {tol}")
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
        if mid == lo or mid == hi:  # lo and hi are adjacent floats
            return min((lo, hi), key=lambda x: abs(expected_count(n, d, k, x) - delta))
        if val < delta:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection did not reach tolerance {tol} for n={n}, d={d}, k={k}, delta={delta}")


# -- sampling ---------------------------------------------------------------


# At most 4 tables at once: a d = 3 table at n = 3*10^6 (one column) takes
# about 135 MB.
@lru_cache(maxsize=4)
def _binom_columns(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    # columns[i][c] = C(c, d-i) for c in 0..n-1: the colex digits c_d .. c_3
    return tuple(tuple(math.comb(c, j) for c in range(n)) for j in range(d, 2, -1))


def _edge_ranks(params: ModelParams, seed: Optional[int] = None) -> Sequence[int]:
    """The colex ranks of the edges of G_d(n,p), in no particular order.

    The stream is seeded from `seed`, or from params.seed when it is None, so
    the trial and attempt loops pass each derived seed without building (and
    validating) a new ModelParams.

    The edge count is Binomial(C(n,d), p); that many distinct ranks are then
    taken as the first distinct accepted top-bits draws below C(n,d) (past
    C(n,d)/2, the excluded ranks are drawn instead).  This is the rank set a
    loop of `randbelow(C(n,d))` calls would give; the draws come in blocks of
    the same SplitMix64 stream, sized from the ranks still missing, and draws
    past the last rank needed are thrown away with the generator.
    """
    n, d, p = params.n, params.d, params.p
    total = math.comb(n, d)
    if total >= _RANK_LIMIT:
        raise InstanceTooLarge(f"C({n},{d}) = {total} exceeds the edge-rank range")
    if total * p > MAX_EDGES:
        raise InstanceTooLarge(
            f"C({n},{d})*p = {total * p:.6g} expected edges exceeds the limit of {MAX_EDGES}")
    rng = SplitMix64(derive_seed(params.seed if seed is None else seed, STREAM_EDGES))
    count = rng.binomial(total, p)
    excluded = count > total // 2
    want = total - count if excluded else count
    drawn: dict[int, None] = {}  # insertion-ordered, so the first `want` keys are the set
    bits = (total - 1).bit_length()
    while len(drawn) < want:
        missing = want - len(drawn)  # expect (missing << bits) / total draws for them
        size = min(_BLOCK_CAP, 1 << ((missing << bits) // total).bit_length())
        drawn.update(dict.fromkeys([r for r in rng._next_block(size, 64 - bits) if r < total]))
    ranks = list(drawn)[:want]
    if excluded:  # the ranks between consecutive excluded ones
        kept, start = [], 0
        for stop in sorted(ranks):
            kept += range(start, stop)
            start = stop + 1
        kept += range(start, total)
        ranks = kept
    return ranks


def _colex_digits(n: int, d: int, ranks: Sequence[int]) -> list[list[int]]:
    """The colex digits of each rank, as d columns c_1 < ... < c_d with
    rank = sum_j C(c_j, j): column j holds vertex j of every edge, in the
    order of `ranks`.

    The digits above the lowest two are bisected out of their binomial
    columns.  What is left, r = C(c_2, 2) + c_1 with c_1 < c_2, satisfies
    (2 c_2 - 1)^2 <= 8 r + 1 < (2 c_2 + 1)^2, so c_2 = (isqrt(8 r + 1) + 1) // 2
    exactly, and c_1 = r - c_2 (c_2 - 1) / 2."""
    cols = []
    for column in _binom_columns(n, d):
        top = [bisect_right(column, r) - 1 for r in ranks]
        ranks = [r - column[c] for r, c in zip(ranks, top)]
        cols.append(top)
    c2 = [math.isqrt(8 * r + 1) + 1 >> 1 for r in ranks]
    cols += c2, [r - (c * (c - 1) >> 1) for r, c in zip(ranks, c2)]
    cols.reverse()
    return cols


def _instance(n: int, d: int, cols: Sequence[Sequence[int]]) -> Hypergraph:
    """The `Hypergraph` whose edges have these digit columns; distinct ranks
    give distinct edges, so only their order is left to fix."""
    return Hypergraph._trusted(n, d, sorted(zip(*cols)))


def sample_hypergraph(params: ModelParams) -> Hypergraph:
    """Draw G_d(n,p): every d-subset present independently with probability p.

    Deterministic in params.seed; the edge stream is derived from the seed so
    other consumers of the same seed stay decoupled.
    """
    return _instance(params.n, params.d, _colex_digits(params.n, params.d, _edge_ranks(params)))
