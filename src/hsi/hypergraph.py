"""Canonical d-uniform hypergraph with domination predicates.

Vertices are dense integers 0..n-1.  Edges are stored as strictly ascending
tuples, sorted lexicographically, with set semantics (duplicates rejected).
Instances are immutable after construction; the per-vertex closed-neighborhood
bitmasks are computed once and shared, so all predicates are pure and safe to
evaluate concurrently.

A vertex counts as dominated by a set S if it belongs to S or shares a
hyperedge with a member of S.  The equivalent hitting-set view: v is dominated
by S iff S intersects S_v, the closed neighborhood of v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

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
            e = tuple(sorted(raw))
            if len(e) != d or len(set(e)) != d:
                raise ValueError(f"edge {tuple(raw)} does not have {d} distinct vertices")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"edge {e} has vertices outside [0, {n})")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
        if canonical and d > n:
            raise ValueError(f"arity {d} exceeds vertex count {n} on a non-edgeless graph")
        canonical.sort()
        self.n = n
        self.d = d
        self.edges: tuple[Edge, ...] = tuple(canonical)
        self._edge_set = seen
        self._nb_masks: Optional[tuple[int, ...]] = None
        self._edge_masks: Optional[tuple[int, ...]] = None
        self._incidence: Optional[tuple[tuple[Edge, ...], ...]] = None

    # -- derived structure (lazy, cached) ------------------------------------

    @property
    def edge_set(self) -> set[Edge]:
        return self._edge_set

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def neighborhood_masks(self) -> tuple[int, ...]:
        """Bit i of masks[v] set iff i is in the closed neighborhood of v."""
        if self._nb_masks is None:
            masks = [1 << v for v in range(self.n)]
            for e in self.edges:
                m = 0
                for v in e:
                    m |= 1 << v
                for v in e:
                    masks[v] |= m
            self._nb_masks = tuple(masks)
        return self._nb_masks

    @property
    def edge_masks(self) -> tuple[int, ...]:
        if self._edge_masks is None:
            out = []
            for e in self.edges:
                m = 0
                for v in e:
                    m |= 1 << v
                out.append(m)
            self._edge_masks = tuple(out)
        return self._edge_masks

    @property
    def incidence(self) -> tuple[tuple[Edge, ...], ...]:
        """incidence[v] = edges containing v, in lexicographic order."""
        if self._incidence is None:
            by_vertex: list[list[Edge]] = [[] for _ in range(self.n)]
            for e in self.edges:
                for v in e:
                    by_vertex[v].append(e)
            self._incidence = tuple(tuple(es) for es in by_vertex)
        return self._incidence

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self.incidence[u])

    def replace_edges(self, removed: Iterable[Edge], added: Iterable[Edge]) -> "Hypergraph":
        """New instance with `removed` deleted and `added` inserted."""
        edges = set(self.edges)
        for e in removed:
            if e not in edges:
                raise ValueError(f"cannot remove absent edge {e}")
            edges.remove(e)
        for e in added:
            if e in edges:
                raise ValueError(f"cannot add duplicate edge {e}")
            edges.add(e)
        return Hypergraph(self.n, self.d, edges)

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


def closed_neighborhood(g: Hypergraph, u: int) -> VertexSet:
    """{u} together with every vertex sharing at least one edge with u."""
    g._check_vertex(u)
    mask = g.neighborhood_masks[u]
    return tuple(v for v in range(g.n) if (mask >> v) & 1)


def _set_mask(g: Hypergraph, s: VertexSet) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def domination_status(g: Hypergraph, s: Iterable[int]) -> DominationStatus:
    vs = as_vertex_set(s, g.n)
    s_mask = _set_mask(g, vs)
    masks = g.neighborhood_masks
    dominated = tuple(bool(masks[v] & s_mask) for v in range(g.n))
    undominated = tuple(v for v in range(g.n) if not dominated[v])
    return DominationStatus(dominated=dominated, undominated=undominated)


def is_dominating_set(g: Hypergraph, s: Iterable[int]) -> bool:
    vs = as_vertex_set(s, g.n)
    covered = 0
    masks = g.neighborhood_masks
    for v in vs:
        covered |= masks[v]
    return covered == g.full_mask


def is_quasi_dominating(g: Hypergraph, s: Iterable[int]) -> Optional[int]:
    """The unique undominated vertex when exactly one exists, else None."""
    vs = as_vertex_set(s, g.n)
    covered = 0
    masks = g.neighborhood_masks
    for v in vs:
        covered |= masks[v]
    missing = g.full_mask & ~covered
    if missing and (missing & (missing - 1)) == 0:
        return missing.bit_length() - 1
    return None


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
    obj = json.loads(text)
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
