"""Degree-preserving two-edge swaps that flip solvability.

Both directions are one rewiring: the pivot-side pair (u, v, z...),
(u', v', w...) is traded for the S-side pair (u, u', z...), (v, v', w...), which
keeps every vertex degree and the edge count and touches no edge meeting the
protected region.  Forward trades the pivot-side pair away: S dominates, the
pivot v is dominated only by u through one edge, the partner edge holds only u'
of S, and afterwards v is undominated.  Backward trades the S-side pair away
where v is undominated, and S dominates again.

Each direction lists its own candidate roles; one search applies the first
admissible one.  Candidates come in lexicographic order (optionally shuffled
by a seeded generator), so a fixed seed reproduces the same SwapRecord.
Pinned roles are a single candidate whose refusal is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hypergraph import (
    Edge,
    Hypergraph,
    as_vertex_set,
    domination_status,
    is_dominating_set,
)
from .model import ModelParams, _closed_masks, _edge_ranks, _unranked
from .rng import STREAM_ATTEMPTS, SplitMix64, indexed_seed
from .solvers import DEFAULT_BUDGET, SolveReport, _search, enumerate_dominating_sets


class SwapNotFound(RuntimeError):
    """No admissible pivot/partner assignment exists."""


class RetriesExhausted(RuntimeError):
    def __init__(self, attempts: int, non_unique: int, swap_failures: int):
        super().__init__(
            f"no pair built in {attempts} attempts "
            f"({non_unique} without a unique solution, {swap_failures} swap failures)")
        self.attempts = attempts
        self.non_unique = non_unique
        self.swap_failures = swap_failures


@dataclass(frozen=True)
class ProtectedRegion:
    """Vertices whose incident edges a swap must leave untouched."""

    vertices: tuple[int, ...] = ()
    exponent_c: Optional[float] = None

    @classmethod
    def sized(cls, n: int, c: float) -> "ProtectedRegion":
        """Auto-sized region: the round(n^c) lowest vertex ids."""
        if not 0.0 < c < 1.0:
            raise ValueError(f"need 0 < c < 1, got {c}")
        h = round(n**c)
        return cls(vertices=tuple(range(h)), exponent_c=c)


@dataclass(frozen=True)
class SwapRoles:
    u: int
    v: int
    u_prime: int
    v_prime: int
    z: tuple[int, ...]
    w: tuple[int, ...]


@dataclass(frozen=True)
class SwapRecord:
    removed: tuple[Edge, Edge]
    added: tuple[Edge, Edge]
    roles: SwapRoles
    direction: str  # "forward" | "backward"
    protected: ProtectedRegion


@dataclass(frozen=True)
class PairResult:
    g_yes: Hypergraph
    g_no: Hypergraph
    record: SwapRecord
    report_yes: SolveReport
    report_no: SolveReport
    attempts: int
    non_unique: int
    swap_failures: int

    @property
    def flip_succeeded(self) -> bool:
        return self.report_no.count == 0


def _pivots(g: Hypergraph, s, region: ProtectedRegion):
    """The validated set and its pivots (v, u, e1): v outside S is dominated
    only by u, through the one edge e1, and e1 avoids the region."""
    vs = as_vertex_set(s, g.n)
    if not is_dominating_set(g, vs):
        raise ValueError("forward swap needs a dominating set")
    s_set = set(vs)
    blocked = set(region.vertices)
    pivots = []
    for v in range(g.n):
        if v in s_set:
            continue
        touching = [e for e in g.incidence[v] if any(x in s_set for x in e)]
        if len(touching) != 1:
            continue
        e1 = touching[0]
        in_s = [x for x in e1 if x in s_set]
        if len(in_s) == 1 and not any(x in blocked for x in e1):
            pivots.append((v, in_s[0], e1))
    return vs, pivots


def find_pivot(g: Hypergraph, s, region: ProtectedRegion = ProtectedRegion(),
               rng: Optional[SplitMix64] = None) -> tuple[int, int, Edge]:
    """A pivot `forward_swap` may use; lowest v wins unless rng picks uniformly."""
    _, pivots = _pivots(g, s, region)
    if not pivots:
        raise SwapNotFound("no pivot vertex outside the protected region")
    return pivots[0] if rng is None else pivots[rng.randbelow(len(pivots))]


def _edge(a: int, b: int, rest: tuple[int, ...]) -> Edge:
    return tuple(sorted((a, b, *rest)))


def _rest(e: Edge, a: int, b: int) -> tuple[int, ...]:
    return tuple(x for x in e if x != a and x != b)


def _rewire(roles: SwapRoles, forward: bool) -> tuple[tuple[Edge, Edge], tuple[Edge, Edge]]:
    """(removed, added): forward trades the pivot-side pair (u,v,z...),(u',v',w...)
    for the S-side pair (u,u',z...),(v,v',w...); backward trades them back."""
    pivot_side = (_edge(roles.u, roles.v, roles.z), _edge(roles.u_prime, roles.v_prime, roles.w))
    s_side = (_edge(roles.u, roles.u_prime, roles.z), _edge(roles.v, roles.v_prime, roles.w))
    return (pivot_side, s_side) if forward else (s_side, pivot_side)


def _refusal(g: Hypergraph, roles: SwapRoles, forward: bool, removed, added,
             s_set: set[int], blocked: set[int]) -> Optional[str]:
    """Why the swap is inadmissible, or None when it may be applied."""
    e1, e2 = removed
    if e1 not in g.edge_set or e2 not in g.edge_set:
        return f"edges {e1}, {e2} are not both present"
    if e1 == e2:
        return "the two swapped edges must differ"
    for e in removed:
        if any(x in blocked for x in e):
            return f"edge {e} touches the protected region"
    for x in (roles.u, roles.v, roles.u_prime, roles.v_prime):
        if x in blocked:
            return f"role vertex {x} lies in the protected region"
    # each direction's rule on S: forward keeps (v, v', w...) outside S,
    # backward takes u and u' from S
    if forward:
        if not s_set.isdisjoint((roles.v, roles.v_prime, *roles.w)):
            return "the pivot-side replacement edge would still touch S"
    elif roles.u not in s_set or roles.u_prime not in s_set:
        return "backward swap needs both inner roles inside S"
    for e in added:
        if len(set(e)) != g.d:
            return f"replacement edge {e} collapses to fewer than d vertices"
        if e in g.edge_set:
            return f"replacement edge {e} already exists"
    if added[0] == added[1]:
        return "replacement edges coincide"
    return None


def _first_swap(g: Hypergraph, vs, region: ProtectedRegion, direction: str, candidates,
                exhausted: Optional[str]) -> tuple[Hypergraph, SwapRecord]:
    """Apply the first admissible candidate; raise `exhausted` when none is, or,
    for pinned roles (`exhausted` None), the candidate's own refusal."""
    forward = direction == "forward"
    s_set = set(vs)
    blocked = set(region.vertices)
    for roles in candidates:
        removed, added = _rewire(roles, forward)
        refusal = _refusal(g, roles, forward, removed, added, s_set, blocked)
        if refusal is None:
            g2 = g.replace_edges(removed=removed, added=added)
            undominated = domination_status(g2, vs).undominated
            # forward leaves the pivot undominated; backward leaves none
            if (roles.v not in undominated) if forward else undominated:
                raise AssertionError(f"{direction} swap did not flip the domination of S")
            return g2, SwapRecord(removed=removed, added=added, roles=roles,
                                  direction=direction, protected=region)
        if exhausted is None:
            raise SwapNotFound(refusal)
    raise SwapNotFound(exhausted)


def forward_swap(g: Hypergraph, s, region: ProtectedRegion = ProtectedRegion(),
                 rng: Optional[SplitMix64] = None,
                 roles: Optional[SwapRoles] = None) -> tuple[Hypergraph, SwapRecord]:
    """Rewire (u,v,z...),(u',v',w...) -> (u,u',z...),(v,v',w...).

    Afterwards the pivot v shares no edge with S, so S stops dominating.
    """
    vs, pivots = _pivots(g, s, region)
    if roles is not None:
        e1 = _edge(roles.u, roles.v, roles.z)
        if (roles.v, roles.u, e1) not in pivots:
            raise SwapNotFound(f"vertex {roles.v} is not a pivot via {e1}")
        return _first_swap(g, vs, region, "forward", [roles], None)
    if not pivots:
        raise SwapNotFound("no pivot vertex outside the protected region")
    s_set = set(vs)
    blocked = set(region.vertices)
    partners = []  # (v', u', e2): e2 avoids the region and holds only u' of S
    for e2 in g.edges:
        in_s = [x for x in e2 if x in s_set]
        if len(in_s) == 1 and not any(x in blocked for x in e2):
            partners += [(v2, in_s[0], e2) for v2 in e2 if v2 != in_s[0]]
    partners.sort()
    if rng is not None:
        rng.shuffle(pivots)
        rng.shuffle(partners)

    def candidates():
        for v, u, e1 in pivots:
            z = _rest(e1, u, v)
            for v2, u2, e2 in partners:
                # v meets S only through e1, so u2 != u also rules out e2 == e1
                # and every e2 containing v
                if u2 != u:
                    yield SwapRoles(u=u, v=v, u_prime=u2, v_prime=v2, z=z, w=_rest(e2, u2, v2))

    return _first_swap(g, vs, region, "forward", candidates(),
                       "no admissible partner pair for any pivot")


def backward_swap(g: Hypergraph, s, v: int, region: ProtectedRegion = ProtectedRegion(),
                  rng: Optional[SplitMix64] = None,
                  roles: Optional[SwapRoles] = None) -> tuple[Hypergraph, SwapRecord]:
    """Inverse rewiring (u,u',z...),(v,v',w...) -> (v,u,z...),(v',u',w...).

    Requires v undominated by S, and every other vertex S leaves undominated
    inside one edge (v, v', w...); afterwards S dominates the instance.
    """
    vs = as_vertex_set(s, g.n)
    s_set = set(vs)
    g._check_vertex(v)
    if v in s_set:
        raise ValueError(f"vertex {v} is inside the candidate set")
    undominated = set(domination_status(g, vs).undominated)
    if v not in undominated:
        raise ValueError(f"vertex {v} is already dominated")
    # the swap newly dominates only the vertices of the edge (v, v', w...) it
    # removes, so that edge must hold every undominated vertex
    holders = [e2 for e2 in g.incidence[v] if undominated.issubset(e2)]
    if len(undominated) > 1 and not holders:
        raise SwapNotFound(f"no edge of {v} holds all undominated vertices {sorted(undominated)}")
    blocked = set(region.vertices)
    if v in blocked:
        raise SwapNotFound(f"undominated vertex {v} lies in the protected region")
    if roles is not None:
        if roles.v != v:
            raise SwapNotFound(f"pinned roles move vertex {roles.v}, not the undominated {v}")
        if not undominated.issubset(_edge(v, roles.v_prime, roles.w)):
            raise SwapNotFound(f"pinned roles leave some of {sorted(undominated)} undominated")
        return _first_swap(g, vs, region, "backward", [roles], None)

    inner = sorted(  # (u, u', e1): e1 avoids the region and holds u != u' of S
        (u, u2, e1) for e1 in g.edges if not any(x in blocked for x in e1)
        for u in e1 if u in s_set for u2 in e1 if u2 in s_set and u2 != u)
    outer = sorted(  # (v', e2): e2 holds the undominated vertices and avoids the region
        (v2, e2) for e2 in holders if not any(x in blocked for x in e2)
        for v2 in e2 if v2 != v)
    if rng is not None:
        rng.shuffle(inner)
        rng.shuffle(outer)
    if not inner:
        raise SwapNotFound("no edge joins two members of S outside the region")
    if not outer:
        raise SwapNotFound(f"vertex {v} has no usable edge to a partner vertex")

    def candidates():
        for u, u2, e1 in inner:
            z = _rest(e1, u, u2)
            for v2, e2 in outer:  # v is undominated, so e2 never meets S
                yield SwapRoles(u=u, v=v, u_prime=u2, v_prime=v2, z=z, w=_rest(e2, v, v2))

    return _first_swap(g, vs, region, "backward", candidates(),
                       "no admissible role assignment for the backward swap")


def build_selfref_pair(params: ModelParams, region: ProtectedRegion = ProtectedRegion(),
                       retry_budget: int = 200, rng: Optional[SplitMix64] = None,
                       witness_cap: int = 4, budget: int = DEFAULT_BUDGET) -> PairResult:
    """Sample until an instance has a unique dominating k-set, then flip it.

    Each attempt is counted on the bitmasks built from its edge ranks; only
    the attempt with a unique set is built as a `Hypergraph` and swapped.

    Returns the original instance, the swapped instance, the record, and both
    solve reports.  The swapped instance provably loses S as a dominating set;
    whether it has *no* dominating k-set at all is verified by enumeration and
    reported, not assumed.
    """
    non_unique = 0
    swap_failures = 0
    for attempt in range(retry_budget):
        seed = indexed_seed(params.seed, STREAM_ATTEMPTS, attempt)
        ranks = _edge_ranks(params, seed)
        report_yes = _search(params.n, _closed_masks(params.n, params.d, ranks), params.k,
                             witness_cap, budget, 2, quasi=False)
        if not report_yes.unique:
            non_unique += 1
            continue
        g = Hypergraph(params.n, params.d, _unranked(params.n, params.d, ranks))
        s = report_yes.witnesses[0]
        try:
            g_no, record = forward_swap(g, s, region=region, rng=rng)
        except SwapNotFound:
            swap_failures += 1
            continue
        report_no = enumerate_dominating_sets(
            g_no, params.k, witness_cap=witness_cap, budget=budget, count_cap=2)
        return PairResult(
            g_yes=g, g_no=g_no, record=record,
            report_yes=report_yes, report_no=report_no,
            attempts=attempt + 1, non_unique=non_unique, swap_failures=swap_failures,
        )
    raise RetriesExhausted(attempts=retry_budget, non_unique=non_unique,
                           swap_failures=swap_failures)
