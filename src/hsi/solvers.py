"""Exact ground-truth oracles for desk-scale instances.

Counting is exact and works on the hitting-set form of domination: S
dominates G iff S meets every closed neighborhood S_u.  The search keeps a
chosen set I, a set A of vertices still allowed to join it and the vertices
not yet dominated.  At each node it takes an undominated vertex u and
branches on x, the lowest member of the k-set inside S_u: I gains x and the
members of S_u below x leave A.  Nodes with three or more picks left take
the lowest u whose S_u has the fewest allowed members.  These branches, plus
the k-sets that avoid S_u, split the node's C(|A|, left) k-sets into
disjoint blocks, so every k-set is settled exactly once:

* when nothing is left to dominate, all C(|A|, left) completions count;
* with two picks left, the pairs are settled together (below);
* with one pick left, the hits are the allowed vertices in every open S_u;
* with as many picks left as allowed vertices, the one completion is tested;
* a block is pruned when its picks cannot dominate what is left
  (left * max|S_v| < undominated), or when it avoids an S_u.

The pair pass settles the last two picks without branching, and without a
node: a node with three picks left hands each branch straight to `pairs`.
Bit y*n + x (x < y) stands for the pair {x, y}.  The search keeps `rows`,
exactly the pairs inside A: when x leaves A, `rows &= keep[x]` drops the
pairs that hold x.  `pairs` starts from `rows` and ANDs in, for each open w
in ascending |S_w| order, good[w], the pairs with x or y in S_w, until the
mask is empty; it walks a chain of (bit of w, good[w]) in that order, built
once per search.  The hits are read off the set bits in increasing position,
which is colex order.  The mask of all pairs inside V, the row marker `rep`
and the keep masks depend on n alone, so `_pair_space` builds them once per
n; the good table is built per search from its masks.  The table and the
keep masks take n^3 bits each and the ANDs cost n^2 bits each, so the pass
runs only for k >= 3 and n <= PAIR_PASS_MAX_N: at k = 2 the one node ANDs
over all of V, and the static-order pass matched or beat it on plain counts
at every n.  That fallback branches on the first open u in ascending |S_u|
order, sorted once per search.  Both passes share one branch loop, and each
branch goes to its settle level: a node with three picks left hands it to
`pairs` in the pair pass, one with two picks left to `last_picks` in the
fallback.

Quasi mode (exactly one undominated vertex) adds one branch while no vertex
has been missed: "u is the missed vertex", which removes all of S_u from A.
Until then a last pick, or a pair in the pair pass, counts when it lies in
(meets) all open S_u but one, so the pair pass needs no such branch.  The
missed vertex of each quasi witness is read off the witness at the end.

`subsets_examined` counts the k-sets settled so far: each closed or pruned
block adds its size, so a full run reads exactly C(n, k).  Witnesses are
bitmasks ordered as integers, which is colex order on k-sets; the
`witness_cap` colex-smallest of the sets found are kept.  Without `count_cap`
every dominating set is found, so they are the colex-first witnesses.  With
`count_cap` the search stops at the cap, and the witnesses are the sets found
before it stopped, in colex order.

The budget guard is expressed in C(n, k), not seconds, so refusals are
reproducible; the search visits at most about sum_{j<=k} C(n, j) nodes.

The search is `_search(n, masks, ...)`: it reads only the vertex count and the
closed-neighborhood bitmasks.  The public functions pass a `Hypergraph`'s
`neighborhood_masks`, checking k and the budget first so that a refusal
builds no masks; the Monte-Carlo kernels and the pair builder's attempts
pass masks built straight from the sampled edge ranks, without a
`Hypergraph`.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Optional, Sequence

from .hypergraph import Hypergraph, _covered, _vertices

DEFAULT_BUDGET = 10**9
# Largest n for the pair pass.  Its table takes n^3 bits: 3.4 MB at n=300,
# where a k=3 count ran 1.7x and a k=4 count 2.7x faster than the
# static-order fallback; at n=400 (8 MB) k=3 was faster in one of two timed
# runs and slower in the other.  The limit also bounds memory: the default
# budget admits k=3 up to n=1818, whose table would take 730 MB.  The keep
# masks `_pair_space` caches per n take n^3 bits more: 27 KB at n=60, 3.4 MB
# at n=300.
PAIR_PASS_MAX_N = 300


class BudgetExceeded(RuntimeError):
    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} subsets, budget is {budget}")
        self.required = required
        self.budget = budget

    def __reduce__(self):  # so a forked share can send it to the parent
        return type(self), (self.required, self.budget)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one exact search."""

    k: int
    count: int
    witnesses: tuple[tuple[int, ...], ...]
    unique: bool
    subsets_examined: int
    elapsed: float
    capped: bool = False
    missed_vertices: Optional[tuple[int, ...]] = None


class _CapReached(Exception):
    pass


def _colex_subsets(mask: int, r: int) -> Iterator[int]:
    """The r-subsets of `mask` in increasing order, which is colex order."""
    bits = _mask_bits(mask)
    pick = (1 << r) - 1  # the r lowest bits, indexed by position in `bits`
    while pick < 1 << len(bits):
        yield _select(bits, pick)
        if not pick:
            return
        low = pick & -pick  # Gosper's hack: the next larger index set of size r
        ripple = pick + low
        pick = (((ripple ^ pick) >> 2) // low) | ripple


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _select(bits: list[int], pick: int) -> int:
    out = 0
    for low in _mask_bits(pick):
        out |= bits[low.bit_length() - 1]
    return out


# At most 4 values of n at once: each entry holds n^3 + 2 n^2 bits, 3.4 MB
# at n = PAIR_PASS_MAX_N, so the cache stays under 14 MB.
@lru_cache(maxsize=4)
def _pair_space(n: int) -> tuple[int, int, tuple[int, ...]]:
    """rows, the pairs {x < y} of all of V (row y holds bits y*n + x for x < y);
    rep, bit y*n set for each row y; and keep[x], rows less the pairs that
    hold x (row x and column x).  All depend on n alone."""
    rows = sum((1 << y) - 1 << y * n for y in range(n))
    rep = ((1 << n * n) - 1) // ((1 << n) - 1)
    keep = tuple(rows ^ ((1 << x) - 1 << x * n) ^ (rep >> (x + 1) * n << (x + 1) * n + x)
                 for x in range(n))
    return rows, rep, keep


def _pair_table(n: int, masks: Sequence[int]) -> list[int]:
    """good[w]: the pairs {x < y}, as bit y*n + x, with x or y in S_w.

    It is built from its complement within all n*n bits, the bits y*n + x
    with neither x nor y in S_w.  Row y of `nadj` is the complement of S_y,
    and S is symmetric, so bit w of row y is set exactly when y is not in
    S_w; each such bit, times the complement of S_w, fills its row with the
    x outside S_w."""
    full = (1 << n) - 1
    rep = _pair_space(n)[1]
    every = (1 << n * n) - 1
    nadj = 0
    for m in reversed(masks):
        nadj = nadj << n | m
    nadj ^= every
    return [every ^ ((nadj >> w) & rep) * (full ^ m) for w, m in enumerate(masks)]


def _pair_bits(pairs: int, n: int) -> Iterator[int]:
    """The pairs {x, y} of a pair-space mask, as vertex bitmasks, in
    increasing bit position y*n + x, which is colex order."""
    while pairs:
        low = pairs & -pairs
        pairs ^= low
        y, x = divmod(low.bit_length() - 1, n)
        yield 1 << x | 1 << y


def _admitted(n: int, k: int, budget: int) -> int:
    """C(n, k), once k is in range and the budget admits that many k-sets."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = comb(n, k)
    if total > budget:
        raise BudgetExceeded(required=total, budget=budget)
    return total


def _search(n: int, masks: Sequence[int], k: int, witness_cap: int, budget: int,
            count_cap: Optional[int], quasi: bool) -> SolveReport:
    """Count the k-sets that dominate the instance on vertices 0..n-1 whose
    closed-neighborhood bitmasks are `masks`, or in quasi mode miss exactly one."""
    total = _admitted(n, k, budget)
    if count_cap is not None and count_cap < 1:
        raise ValueError(f"count_cap must be >= 1, got {count_cap}")
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")

    t0 = time.perf_counter()
    full = (1 << n) - 1
    sizes = [m.bit_count() for m in masks]
    widest = max(sizes)
    order = sorted(range(n), key=sizes.__getitem__)  # ascending |S_u|, ties by u
    by_vertex = [(1 << u, m, u) for u, m in enumerate(masks)]
    cap = count_cap if count_cap is not None else total + 1
    pair_pass = k >= 3 and n <= PAIR_PASS_MAX_N
    rows = 0  # the pair pass's pairs {x < y} inside A
    if pair_pass:
        good = _pair_table(n, masks)
        chain = [(1 << w, good[w]) for w in order]
        rows, _, keep = _pair_space(n)
    count = 0
    examined = 0
    heap: list[int] = []  # negated masks: the colex-largest kept set is on top

    def hits(block: int, completions: Iterator[int], chosen: int) -> None:
        """Record `block` found sets, chosen | each completion, in colex order."""
        nonlocal count
        take = min(block, cap - count)
        count += take
        for _, extra in zip(range(min(take, witness_cap)), completions):
            key = -(chosen | extra)
            if len(heap) < witness_cap:
                heapq.heappush(heap, key)
            elif key > heap[0]:
                heapq.heapreplace(heap, key)
            else:
                break  # later completions are colex-larger still
        if count >= cap:
            raise _CapReached

    def last_picks(chosen: int, allowed: int, rows: int, open_: int, spare: int) -> None:
        """Settle the k-sets chosen | y, y the last pick, a member of `allowed`.

        y must lie in every S_u that chosen leaves open, or in all but one if
        spare.  `rows` is unused: the arguments are those of `pairs`."""
        nonlocal examined
        examined += allowed.bit_count()
        rest = open_
        every, all_but_one = allowed, 0
        while rest and (every or all_but_one):
            low = rest & -rest
            rest ^= low
            s_u = masks[low.bit_length() - 1]
            if spare:
                all_but_one = (all_but_one & s_u) | (every & ~s_u)
            every &= s_u
        found = all_but_one if spare else every
        if found:
            hits(found.bit_count(), _colex_subsets(found, 1), chosen)

    def pairs(chosen: int, allowed: int, rows: int, open_: int, spare: int) -> None:
        """Settle the k-sets chosen | {x, y}, {x, y} a pair inside `allowed`,
        by AND-ing the pair-space masks of the open vertices.

        `rows` holds the pairs inside `allowed`; in quasi mode `found`
        collects the pairs that miss exactly one open vertex."""
        nonlocal examined
        examined += comb(allowed.bit_count(), 2)
        every = rows
        if spare:
            found = 0
            for bit, g in chain:
                if open_ & bit:
                    kept = every & g
                    found = found & g | every ^ kept
                    every = kept
                    if not (every or found):
                        return
        else:
            for bit, g in chain:
                if open_ & bit:
                    every &= g
                    if not every:
                        return
            found = every
        if found:
            hits(found.bit_count(), _pair_bits(found, n), chosen)

    def visit(chosen: int, allowed: int, rows: int, left: int, open_: int,
              spare: int) -> None:
        """Settle the k-sets chosen | C, C a `left`-subset of `allowed`.

        `open_` holds the vertices chosen leaves undominated, less the missed
        one in quasi mode; `spare` is 1 while a quasi set may still miss one.
        `rows` is the pair pass's mask of the pairs inside `allowed`.  A node
        with `settle_left` picks left hands each branch to `settle` (`pairs`
        in the pair pass, else `last_picks`), so left is never below it."""
        nonlocal examined
        size = allowed.bit_count()
        if not open_:
            block = comb(size, left)
            examined += block
            if not spare:  # else every completion dominates: none is quasi
                hits(block, _colex_subsets(allowed, left), chosen)
            return
        if left > size or left * widest < open_.bit_count() - spare:
            examined += comb(size, left)
            return
        if left == size:  # the one completion takes all of allowed
            examined += 1
            if (open_ & ~_covered(masks, allowed)).bit_count() == spare:
                hits(1, iter((allowed,)), chosen)
            return

        if left == 2:  # most nodes: a static order costs less than the scan
            for best in order:
                if open_ >> best & 1:
                    break
        else:
            best, fewest = -1, size + 1
            for bit, m, u in by_vertex:  # ascending u: ties go to the lowest
                if open_ & bit:
                    c = (m & allowed).bit_count()
                    if c < fewest:
                        best, fewest = u, c
                        if c == 0:
                            break
        branch = masks[best] & allowed
        settles = left == settle_left
        while branch:
            low = branch & -branch
            branch ^= low
            x = low.bit_length() - 1
            allowed ^= low  # x leaves A together with the members below it
            if pair_pass:
                rows &= keep[x]
            if settles:
                settle(chosen | low, allowed, rows, open_ & ~masks[x], spare)
            else:
                visit(chosen | low, allowed, rows, left - 1, open_ & ~masks[x], spare)
        # allowed now avoids S_best, so best stays undominated in what is left
        if spare:
            visit(chosen, allowed, rows, left, open_ ^ (1 << best), 0)
        else:
            examined += comb(allowed.bit_count(), left)

    settle, settle_left = (pairs, 3) if pair_pass else (last_picks, 2)
    capped = False
    depth = sys.getrecursionlimit()
    sys.setrecursionlimit(max(depth, k + 100))  # a frame per pick, one per miss
    try:
        if k == 1:
            last_picks(0, full, rows, full, 1 if quasi else 0)
        else:
            visit(0, full, rows, k, full, 1 if quasi else 0)
    except _CapReached:
        capped = True
    finally:
        sys.setrecursionlimit(depth)
        # visit reaches itself through its closure cell; clearing the cell
        # frees the pair table now rather than at a later cycle collection
        del visit

    found = sorted(-key for key in heap)
    missed = None
    if quasi:
        missed = tuple((full & ~_covered(masks, w)).bit_length() - 1 for w in found)
    return SolveReport(
        k=k,
        count=count,
        witnesses=tuple(_vertices(w) for w in found),
        unique=(count == 1 and not capped),
        subsets_examined=examined,
        elapsed=time.perf_counter() - t0,
        capped=capped,
        missed_vertices=missed,
    )


def enumerate_dominating_sets(g: Hypergraph, k: int, witness_cap: int = 8,
                              budget: int = DEFAULT_BUDGET,
                              count_cap: Optional[int] = None) -> SolveReport:
    """Exact count of dominating k-sets (capped search when count_cap given)."""
    _admitted(g.n, k, budget)  # a refusal builds no masks
    return _search(g.n, g.neighborhood_masks, k, witness_cap, budget, count_cap, quasi=False)


def enumerate_quasi_dominating_sets(g: Hypergraph, k: int, witness_cap: int = 8,
                                    budget: int = DEFAULT_BUDGET,
                                    count_cap: Optional[int] = None) -> SolveReport:
    """Exact count of k-sets that dominate all but exactly one vertex."""
    _admitted(g.n, k, budget)  # a refusal builds no masks
    return _search(g.n, g.neighborhood_masks, k, witness_cap, budget, count_cap, quasi=True)
