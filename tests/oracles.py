"""Independent brute-force oracles.

Everything here works on raw (n, edges) with plain set logic, deliberately
sharing no code with the library's bitmask/enumeration paths, so it can serve
as ground truth for them.  The ensemble helpers enumerate every edge
configuration of the random model (2^C(n,d) graphs), which is feasible for
n <= 5.
"""

import itertools
import math


def potential_edges(n, d):
    return list(itertools.combinations(range(n), d))


def colex_unrank_plain(d, rank):
    """The d-subset whose colex rank is `rank`, ascending: for j = d down to 1,
    the largest c_j with C(c_j, j) <= what is left of the rank."""
    digits = []
    for j in range(d, 0, -1):
        c = j - 1
        while math.comb(c + 1, j) <= rank:
            c += 1
        digits.append(c)
        rank -= math.comb(c, j)
    return tuple(reversed(digits))


def closed_masks_plain(n, edges):
    """Bitmask of each vertex's closed neighborhood S_v: v and every vertex
    that shares an edge with it."""
    return [sum(1 << u for u in {v}.union(*(e for e in edges if v in e)))
            for v in range(n)]


def undominated_plain(n, edges, s):
    sset = set(s)
    out = []
    for v in range(n):
        if v in sset:
            continue
        if not any(v in e and any(u in sset for u in e if u != v) for e in edges):
            out.append(v)
    return out


def is_dominating_plain(n, edges, s):
    return not undominated_plain(n, edges, s)


def count_dominating_plain(n, edges, k):
    return sum(1 for sub in itertools.combinations(range(n), k)
               if is_dominating_plain(n, edges, sub))


def count_quasi_plain(n, edges, k):
    return sum(1 for sub in itertools.combinations(range(n), k)
               if len(undominated_plain(n, edges, sub)) == 1)


def swap_roles_plain(n, edges, s, blocked):
    """The forward swap's pivots (v, u, e1) and partners (v', u', e2), from
    per-vertex incidence lists: v outside s lies in exactly one edge e1 that
    meets s; e1 and e2 avoid `blocked` and hold exactly one member u, u' of s;
    v' is any other vertex of e2.  Pivots by increasing v, partners sorted."""
    sset, bset = set(s), set(blocked)
    incidence = {v: [e for e in edges if v in e] for v in range(n)}
    usable = {}
    for e in edges:
        in_s = [x for x in e if x in sset]
        if len(in_s) == 1 and not bset.intersection(e):
            usable[tuple(e)] = in_s[0]
    pivots = []
    for v in range(n):
        touching = [e for e in incidence[v] if sset.intersection(e)]
        if v not in sset and len(touching) == 1 and tuple(touching[0]) in usable:
            pivots.append((v, usable[tuple(touching[0])], tuple(touching[0])))
    partners = sorted((v, u, e) for e, u in usable.items() for v in e if v != u)
    return pivots, partners


def backward_swap_plain(n, edges, s, v, blocked):
    """The backward swap's first candidate, from plain set logic: inner roles
    (u, u', e1) with u != u' both of s in an edge e1 that avoids `blocked`;
    outer roles (v', e2) with v' != v in an edge e2 that avoids `blocked` and
    holds every vertex s leaves undominated (v among them).  Both lists
    sorted; the first pair whose replacement edges (v, u, z...), (v', u', w...)
    are both new gives ((e1, e2), (added...)), and None when no pair does."""
    sset, bset = set(s), set(blocked)
    present = {tuple(e) for e in edges}
    open_ = set(undominated_plain(n, edges, s))
    inner = sorted((u, u2, tuple(e)) for e in edges if not bset.intersection(e)
                   for u in e if u in sset for u2 in e if u2 in sset and u2 != u)
    outer = sorted((v2, tuple(e)) for e in edges
                   if open_.issubset(e) and not bset.intersection(e) for v2 in e if v2 != v)
    for u, u2, e1 in inner:
        z = [x for x in e1 if x not in (u, u2)]
        for v2, e2 in outer:
            w = [x for x in e2 if x not in (v, v2)]
            added = (tuple(sorted([v, u, *z])), tuple(sorted([v2, u2, *w])))
            if not present.intersection(added):
                return (e1, e2), added
    return None


def is_cover_plain(edges, s):
    sset = set(s)
    return all(sset.intersection(e) for e in edges)


def ensemble_profile(n, d, value_fn):
    """[(edge_count, value_fn(edges))] over all 2^C(n,d) edge configurations."""
    pot = potential_edges(n, d)
    total = len(pot)
    profile = []
    for bits in range(1 << total):
        edges = [pot[j] for j in range(total) if (bits >> j) & 1]
        profile.append((len(edges), value_fn(edges)))
    return profile


def ensemble_average(profile, n_potential, p):
    """Expectation of the profiled value under edge probability p."""
    return math.fsum(value * p**m * (1.0 - p) ** (n_potential - m)
                     for m, value in profile)
