"""Degree-preserving two-edge swaps that flip solvability.

Both directions are one rewiring: the pivot-side pair (u, v, z...),
(u', v', w...) is traded for the S-side pair (u, u', z...), (v, v', w...), which
keeps every vertex degree and the edge count and touches no edge meeting the
protected region.  Forward trades the pivot-side pair away: S dominates, the
pivot v is dominated only by u through one edge, the partner edge holds only u'
of S, and afterwards v is undominated.  Backward trades the S-side pair away
where v is undominated, and S dominates again.

Both directions read the instance through its edge bitmasks, in one pass
over the edges that meet S (`_scan`): `once` and `twice` collect the vertices
in at least one and in at least two of them.  Of the edges that avoid the
region, a usable one holds exactly one member of S and gives forward its
pivots (in `once & ~twice`, outside S) and partners; an inner one holds two or
more and gives backward its pairs u, u' of S.  The swapped instance comes from
`Hypergraph.replace_edges`.

A candidate is admitted when the role lists hold it and both of its
replacement edges are new; the lists hold every other rule (`_first_swap`).
Candidates come in lexicographic order (optionally shuffled by a seeded
generator), so a fixed seed reproduces the same SwapRecord.  Roles pinned for
a backward swap are one candidate, refused unless the same lists hold them.
Every refusal carries a reason code (`SwapNotFound.reason`), and
`build_selfref_pair` tallies its failed attempts by code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .hypergraph import (
    Edge,
    Hypergraph,
    _closed_bits,
    _dominated,
    _set_mask,
    _vertices,
    as_vertex_set,
)
from .model import ModelParams, _colex_digits, _edge_ranks, _instance
from .rng import STREAM_ATTEMPTS, SplitMix64, indexed_seed
from .solvers import DEFAULT_BUDGET, SolveReport, _search, enumerate_dominating_sets


class SwapNotFound(RuntimeError):
    """No admissible pivot/partner assignment exists.

    `reason` says which check refused: "no-pivot" and "no-partner" (forward),
    "no-holder", "protected", "no-inner", "no-outer" and "no-role" and
    "pinned" (backward), and "not-quasi" when the CLI is asked for a backward
    swap on a set that leaves no vertex undominated."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):  # so a forked share can send it to the parent
        return type(self), (str(self), self.reason)


class RetriesExhausted(RuntimeError):
    def __init__(self, attempts: int, non_unique: int, swap_failures: int,
                 failure_reasons: Optional[dict[str, int]] = None):
        super().__init__(
            f"no pair built in {attempts} attempts "
            f"({non_unique} without a unique solution, {swap_failures} swap failures)")
        self.attempts = attempts
        self.non_unique = non_unique
        self.swap_failures = swap_failures
        self.failure_reasons = failure_reasons or {}

    def __reduce__(self):  # so a forked share can send it to the parent
        return type(self), (self.attempts, self.non_unique, self.swap_failures,
                            self.failure_reasons)


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
    failure_reasons: dict[str, int] = field(default_factory=dict)  # SwapNotFound.reason counts

    @property
    def flip_succeeded(self) -> bool:
        return self.report_no.count == 0


def _scan(g: Hypergraph, vs, region: ProtectedRegion):
    """One pass over the edge masks for both directions: the masks of S and
    of the region, `once`, `twice`, and the edges that avoid the region split
    into usable ones (e, u), holding one member u of S, and inner ones
    (e, hit), holding the members `hit` of S, two or more."""
    s_mask = _set_mask(vs)
    blocked = _set_mask(v for v in region.vertices if 0 <= v < g.n)  # no edge holds others
    once = twice = 0
    usable, inner = [], []
    for e, m in zip(g.edges, g.edge_masks):
        hit = m & s_mask
        if hit:
            twice |= once & m
            once |= m
            if not m & blocked:
                if hit & (hit - 1):
                    inner.append((e, hit))
                else:
                    usable.append((e, hit.bit_length() - 1))
    return s_mask, blocked, once, twice, usable, inner


def _roles(g: Hypergraph, s, region: ProtectedRegion):
    """The validated set, its pivots (v, u, e1) and its partners (v', u', e2).

    v outside S is a pivot when exactly one edge meeting S holds it and that
    edge, e1, is usable; u is e1's member of S.  Each vertex v' != u' of a
    usable edge e2 is a partner, u' being e2's member of S.  Both lists are
    sorted, so pivots come by increasing v."""
    vs = as_vertex_set(s, g.n)
    s_mask, _, once, twice, usable, _ = _scan(g, vs, region)
    if once | s_mask != g.full_mask:
        raise ValueError("forward swap needs a dominating set")
    sole = once & ~twice & ~s_mask
    pivots = sorted((v, u, e) for e, u in usable for v in e if sole >> v & 1)
    partners = sorted((v, u, e) for e, u in usable for v in e if v != u)
    return vs, pivots, partners


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


def _first_swap(g: Hypergraph, vs, region: ProtectedRegion, direction: str, candidates,
                exhausted: Optional[tuple[str, str]]) -> tuple[Hypergraph, SwapRecord]:
    """Apply the first candidate whose replacement edges are both new; raise
    `exhausted` (message, reason) when none is, or, for pinned backward roles
    (`exhausted` None), the candidate's refusal.  The role lists hold every
    other rule: forward's v meets S only through e1 and e2's only member of S
    is u' != u, and backward's v is undominated, so e2 never meets S.  Either
    way the removed edges differ, and each replacement edge has d distinct
    vertices and only one of them holds v."""
    forward = direction == "forward"
    present = set(g.edges)
    for roles in candidates:
        removed, added = _rewire(roles, forward)
        clash = next((e for e in added if e in present), None)
        if clash is None:
            g2 = g.replace_edges(removed=removed, added=added)
            dominated = _dominated(g2.edge_masks, _set_mask(vs))
            # forward leaves the pivot undominated; backward leaves none
            if (dominated >> roles.v & 1) if forward else dominated != g2.full_mask:
                raise AssertionError(f"{direction} swap did not flip the domination of S")
            return g2, SwapRecord(removed=removed, added=added, roles=roles,
                                  direction=direction, protected=region)
        if exhausted is None:
            raise SwapNotFound(f"replacement edge {clash} already exists", "pinned")
    raise SwapNotFound(*exhausted)


def forward_swap(g: Hypergraph, s, region: ProtectedRegion = ProtectedRegion(),
                 rng: Optional[SplitMix64] = None) -> tuple[Hypergraph, SwapRecord]:
    """Rewire (u,v,z...),(u',v',w...) -> (u,u',z...),(v,v',w...).

    Afterwards the pivot v shares no edge with S, so S stops dominating.
    """
    vs, pivots, partners = _roles(g, s, region)
    if not pivots:
        raise SwapNotFound("no pivot vertex outside the protected region", "no-pivot")
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
                       ("no admissible partner pair for any pivot", "no-partner"))


def backward_swap(g: Hypergraph, s, v: int, region: ProtectedRegion = ProtectedRegion(),
                  rng: Optional[SplitMix64] = None,
                  roles: Optional[SwapRoles] = None) -> tuple[Hypergraph, SwapRecord]:
    """Inverse rewiring (u,u',z...),(v,v',w...) -> (v,u,z...),(v',u',w...).

    Requires v undominated by S, and every other vertex S leaves undominated
    inside one edge (v, v', w...); afterwards S dominates the instance.
    """
    vs = as_vertex_set(s, g.n)
    g._check_vertex(v)
    if v in vs:
        raise ValueError(f"vertex {v} is inside the candidate set")
    s_mask, blocked, once, _, _, inner_edges = _scan(g, vs, region)
    open_ = g.full_mask & ~(once | s_mask)
    if not open_ >> v & 1:
        raise ValueError(f"vertex {v} is already dominated")
    undominated = list(_vertices(open_))
    # the swap newly dominates only the vertices of the edge (v, v', w...) it
    # removes, so that edge must hold every undominated vertex
    holders = [(e2, m) for e2, m in zip(g.edges, g.edge_masks) if m & open_ == open_]
    if len(undominated) > 1 and not holders:
        raise SwapNotFound(f"no edge of {v} holds all undominated vertices {undominated}",
                           "no-holder")
    if blocked >> v & 1:
        raise SwapNotFound(f"undominated vertex {v} lies in the protected region", "protected")
    inner = sorted(  # (u, u', e1): e1 avoids the region and holds u != u' of S
        (u, u2, e1) for e1, hit in inner_edges
        for u in _vertices(hit) for u2 in _vertices(hit) if u2 != u)
    outer = sorted(  # (v', e2): e2 holds the undominated vertices and avoids the region
        (v2, e2) for e2, m in holders if not m & blocked for v2 in e2 if v2 != v)
    if roles is not None:
        if roles.v != v:
            raise SwapNotFound(f"pinned roles move vertex {roles.v}, not the undominated {v}",
                               "pinned")
        e2 = _edge(v, roles.v_prime, roles.w)
        if not set(undominated).issubset(e2):
            raise SwapNotFound(f"pinned roles leave some of {undominated} undominated", "pinned")
        e1 = _edge(roles.u, roles.u_prime, roles.z)
        if (roles.u, roles.u_prime, e1) not in inner or (roles.v_prime, e2) not in outer:
            raise SwapNotFound(f"pinned roles trade {e1}, {e2}, not an inner and an outer "
                               f"edge outside the region", "pinned")
        return _first_swap(g, vs, region, "backward", [roles], None)
    if rng is not None:
        rng.shuffle(inner)
        rng.shuffle(outer)
    if not inner:
        raise SwapNotFound("no edge joins two members of S outside the region", "no-inner")
    if not outer:
        raise SwapNotFound(f"vertex {v} has no usable edge to a partner vertex", "no-outer")

    def candidates():
        for u, u2, e1 in inner:
            z = _rest(e1, u, u2)
            for v2, e2 in outer:  # v is undominated, so e2 never meets S
                yield SwapRoles(u=u, v=v, u_prime=u2, v_prime=v2, z=z, w=_rest(e2, v, v2))

    return _first_swap(g, vs, region, "backward", candidates(),
                       ("no admissible role assignment for the backward swap", "no-role"))


def build_selfref_pair(params: ModelParams, region: ProtectedRegion = ProtectedRegion(),
                       retry_budget: int = 200) -> PairResult:
    """Sample until an instance has a unique dominating k-set, then flip it.

    Each attempt is counted on the closed masks `_closed_bits` builds from
    the digit columns of its edge ranks (`_colex_digits`); only an attempt
    with a unique set has its ranks built into a `Hypergraph` (`_instance`)
    and swapped.  Failed swaps are tallied by `SwapNotFound.reason` in
    `failure_reasons`.

    Returns the original instance, the swapped instance, the record, and both
    solve reports.  The swapped instance provably loses S as a dominating set;
    whether it has *no* dominating k-set at all is verified by enumeration and
    reported, not assumed.
    """
    if retry_budget < 0:
        raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
    n, d = params.n, params.d
    non_unique = 0
    failures: Counter[str] = Counter()
    for attempt in range(retry_budget):
        ranks = _edge_ranks(params, indexed_seed(params.seed, STREAM_ATTEMPTS, attempt))
        # count_cap=2 finds at most two sets, so a witness cap of 2 keeps them all
        report_yes = _search(n, _closed_bits(n, _colex_digits(n, d, ranks)), params.k, 2,
                             DEFAULT_BUDGET, 2, quasi=False)
        if not report_yes.unique:
            non_unique += 1
            continue
        g = _instance(n, d, ranks)
        s = report_yes.witnesses[0]
        try:
            g_no, record = forward_swap(g, s, region=region)
        except SwapNotFound as exc:
            failures[exc.reason] += 1
            continue
        report_no = enumerate_dominating_sets(g_no, params.k, witness_cap=2, count_cap=2)
        return PairResult(
            g_yes=g, g_no=g_no, record=record,
            report_yes=report_yes, report_no=report_no,
            attempts=attempt + 1, non_unique=non_unique, swap_failures=failures.total(),
            failure_reasons=dict(failures),
        )
    raise RetriesExhausted(attempts=retry_budget, non_unique=non_unique,
                           swap_failures=failures.total(), failure_reasons=dict(failures))
