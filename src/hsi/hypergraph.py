"""Canonical d-uniform hypergraph with domination predicates.

Vertices are dense integers 0..n-1.  Edges are stored as strictly ascending
tuples, sorted lexicographically, with set semantics (duplicates rejected).
Instances are immutable after construction; the edge bitmasks and the
per-vertex closed-neighborhood bitmasks are computed once and shared, so all
predicates are pure and safe to evaluate concurrently.  `_edge_bits` and
`_closed_bits` are the one pair of mask builders.  They read an edge list as
d vertex columns (column j holds vertex j of every edge): an instance passes
`zip(*edges)`, and the sampler's trial kernels and pair builder pass the
digit columns of `model._colex_digits`, so both see the same masks.

A vertex counts as dominated by a set S if it belongs to S or shares a
hyperedge with a member of S.  The equivalent hitting-set view: v is dominated
by S iff S intersects S_v, the closed neighborhood of v.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

Edge = tuple[int, ...]
VertexSet = tuple[int, ...]

_INSTANCE_KEYS = {"n", "d", "edges", "p", "seed"}


class Hypergraph:
    """Immutable d-uniform hypergraph on vertices 0..n-1."""

    def __init__(self, n: int, d: int, edges: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if d < 2:
            raise ValueError(f"edge arity must be >= 2, got {d}")
        canonical: list[Edge] = []
        seen: set[Edge] = set()
        for raw in edges:
            e = _canonical_edge(raw, n, d)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
        if canonical and d > n:
            raise ValueError(f"arity {d} exceeds vertex count {n} on a non-edgeless graph")
        canonical.sort()
        self._init(n, d, canonical)

    def _init(self, n: int, d: int, edges: list[Edge]) -> None:
        self.n = n
        self.d = d
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._nb_masks = None
        self._edge_masks = None

    @classmethod
    def _trusted(cls, n: int, d: int, edges: list[Edge]) -> "Hypergraph":
        """An instance on edges already canonical: distinct ascending d-tuples
        within [0, n), in lexicographic order, as unranking distinct ranks
        gives them.  Skips validation."""
        g = cls.__new__(cls)
        g._init(n, d, edges)
        return g

    # -- derived structure (lazy, cached) ------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def neighborhood_masks(self) -> tuple[int, ...]:
        """Bit i of masks[v] set iff i is in the closed neighborhood of v."""
        if self._nb_masks is None:
            self._nb_masks = tuple(_closed_bits(self.n, list(zip(*self.edges))))
        return self._nb_masks

    @property
    def edge_masks(self) -> tuple[int, ...]:
        """Each edge's vertex bitmask, in the order of `edges`."""
        if self._edge_masks is None:
            self._edge_masks = tuple(_edge_bits(self.n, zip(*self.edges)))
        return self._edge_masks

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return sum(m >> u & 1 for m in self.edge_masks)

    def replace_edges(self, removed: Iterable[Edge], added: Iterable[Edge]) -> "Hypergraph":
        """New instance with `removed` deleted and `added` inserted."""
        edges = list(self.edges)
        for e in removed:
            i = bisect_left(edges, e)
            if i == len(edges) or edges[i] != e:
                raise ValueError(f"cannot remove absent edge {e}")
            del edges[i]
        for raw in added:
            e = _canonical_edge(raw, self.n, self.d)
            i = bisect_left(edges, e)
            if i < len(edges) and edges[i] == e:
                raise ValueError(f"cannot add duplicate edge {e}")
            edges.insert(i, e)
        return Hypergraph._trusted(self.n, self.d, edges)

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range [0, {self.n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.d, self.edges) == (other.n, other.d, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.d, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, d={self.d}, m={len(self.edges)})"


def _canonical_edge(raw: Iterable[int], n: int, d: int) -> Edge:
    """`raw` as an ascending tuple, checked to hold d distinct vertices in [0, n)."""
    e = tuple(sorted(raw))
    if len(e) != d or len(set(e)) != d:
        raise ValueError(f"edge {tuple(raw)} does not have {d} distinct vertices")
    if e[0] < 0 or e[-1] >= n:
        raise ValueError(f"edge {e} has vertices outside [0, {n})")
    return e


# Most vertices a bitmask is built for.  The table of 1 << v takes n^2/16
# bytes and more: 17.6 MB at n = 16,384, where `hsi solve --k 1` on an
# edgeless instance peaked at 54 MB RSS (30 MB at 10,000, 71 MB at 20,000 and
# 160 MB at 32,768; CPython 3.11, x86-64).  The cache holds four tables, so
# 70 MB at the limit.
MAX_VERTICES = 16_384


@lru_cache(maxsize=4)
def _vertex_bits(n: int) -> tuple[int, ...]:
    if n > MAX_VERTICES:
        raise ValueError(f"n = {n} exceeds the limit of {MAX_VERTICES} vertices for bitmasks")
    return tuple(1 << v for v in range(n))


def _edge_bits(n: int, cols: Iterable[Sequence[int]]) -> list[int]:
    """Each edge's vertex bitmask, from the edges' vertex columns: the
    columns ORed together, row by row."""
    bits = _vertex_bits(n)
    columns = iter(cols)
    masks = [bits[v] for v in next(columns, ())]
    for col in columns:
        masks = [m | bits[v] for m, v in zip(masks, col)]
    return masks


def _closed_bits(n: int, cols: Sequence[Sequence[int]]) -> list[int]:
    """The closed-neighborhood bitmasks of the instance whose edges have these
    vertex columns: bit v, and the mask of every edge that holds v, scattered
    into masks[v] through each column."""
    masks = list(_vertex_bits(n))
    edges = _edge_bits(n, cols)
    for col in cols:
        for v, m in zip(col, edges):
            masks[v] |= m
    return masks


def _dominated(edge_masks: Iterable[int], s: int) -> int:
    """The vertices the set `s` dominates: s and every edge that meets it."""
    out = s
    for m in edge_masks:
        if m & s:
            out |= m
    return out


def _vertices(mask: int) -> tuple[int, ...]:
    """The set bits of `mask`, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class DominationStatus:
    """Per-vertex domination flags plus the list of undominated vertices."""

    dominated: tuple[bool, ...]
    undominated: VertexSet


def as_vertex_set(members: Iterable[int], n: int) -> VertexSet:
    """Validate and canonicalize a vertex set: sorted, distinct, within [0, n)."""
    ms = tuple(sorted(members))
    if len(set(ms)) != len(ms):
        raise ValueError(f"duplicate vertices in {ms}")
    if ms and (ms[0] < 0 or ms[-1] >= n):
        raise ValueError(f"vertex set {ms} not within [0, {n})")
    return ms


def _set_mask(s: Iterable[int]) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def domination_status(g: Hypergraph, s: Iterable[int]) -> DominationStatus:
    missing = g.full_mask & ~_dominated(g.edge_masks, _set_mask(as_vertex_set(s, g.n)))
    dominated = tuple(not missing >> v & 1 for v in range(g.n))
    return DominationStatus(dominated=dominated, undominated=_vertices(missing))


def is_dominating_set(g: Hypergraph, s: Iterable[int]) -> bool:
    return _dominated(g.edge_masks, _set_mask(as_vertex_set(s, g.n))) == g.full_mask


# -- canonical instance file ------------------------------------------------


def dumps_instance(g: Hypergraph, p: Optional[float] = None, seed: Optional[int] = None) -> str:
    obj = {
        "n": g.n,
        "d": g.d,
        "edges": [list(e) for e in g.edges],
        "p": p,
        "seed": seed,
    }
    return json.dumps(obj, separators=(",", ":"))


def loads_instance(text: str) -> tuple[Hypergraph, dict]:
    """Parse the canonical instance file; strict about keys, types and edge order."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("instance file nests too deeply to parse") from None
    if not isinstance(obj, dict):
        raise ValueError("instance file must be a JSON object")
    unknown = set(obj) - _INSTANCE_KEYS
    if unknown:
        raise ValueError(f"unknown keys in instance file: {sorted(unknown)}")
    for key in ("n", "d", "edges"):
        if key not in obj:
            raise ValueError(f"instance file missing required key {key!r}")
    for key in ("n", "d"):
        if not _is_int(obj[key]):
            raise ValueError(f"{key} must be an integer, got {obj[key]!r}")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ValueError("edges must be a list")
    tuples = []
    for e in edges:
        if not isinstance(e, list) or not all(_is_int(v) for v in e):
            raise ValueError(f"edge {e!r} is not a list of integer vertices")
        t = tuple(e)
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise ValueError(f"edge {t} is not strictly ascending")
        tuples.append(t)
    if sorted(tuples) != tuples:
        raise ValueError("edges are not in lexicographic order")
    g = Hypergraph(obj["n"], obj["d"], tuples)
    meta = {"p": obj.get("p"), "seed": obj.get("seed")}
    p = meta["p"]
    if p is not None and not ((_is_int(p) or isinstance(p, float)) and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be a probability or null, got {p!r}")
    if meta["seed"] is not None and not _is_int(meta["seed"]):
        raise ValueError(f"seed must be an integer or null, got {meta['seed']!r}")
    return g, meta


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def write_instance(g: Hypergraph, path, p: Optional[float] = None, seed: Optional[int] = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_instance(g, p=p, seed=seed))
        fh.write("\n")


def read_instance(path) -> tuple[Hypergraph, dict]:
    with open(path) as fh:
        return loads_instance(fh.read())
