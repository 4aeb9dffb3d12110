import dataclasses

import pytest

from hsi.hypergraph import Hypergraph, domination_status, is_dominating_set
from hsi.model import ModelParams, sample_hypergraph
from hsi.rng import SplitMix64
from hsi.solvers import enumerate_dominating_sets, enumerate_quasi_dominating_sets
from hsi.swaps import (
    PairResult,
    ProtectedRegion,
    RetriesExhausted,
    SwapNotFound,
    SwapRoles,
    _roles,
    backward_swap,
    build_selfref_pair,
    forward_swap,
)

from oracles import backward_swap_plain, swap_roles_plain, undominated_plain

STAR = Hypergraph(7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6)])
FIG = Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6)])
FIG_SET = (0, 1, 4)


def degrees(g):
    return [g.degree(v) for v in range(g.n)]


def pivots(g, s, region=ProtectedRegion()):
    """The pivots (v, u, e1) the forward role scan lists, lowest v first."""
    return _roles(g, s, region)[1]


class TestFindPivot:
    def test_lowest_vertex_tie_break(self):
        assert pivots(STAR, (0,))[0] == (1, 0, (0, 1, 2))

    def test_protected_region_excludes(self):
        region = ProtectedRegion(vertices=(1, 2))
        assert pivots(STAR, (0,), region)[0] == (3, 0, (0, 3, 4))
        # vertices outside [0, n) are in no edge, so they block nothing
        region = ProtectedRegion(vertices=(-1, 1, 2, 7, 99))
        assert pivots(STAR, (0,), region)[0] == (3, 0, (0, 3, 4))

    def test_region_holding_u_leaves_no_pivot(self):
        # u = 0 lies in every edge, so the region blocks every pivot edge
        region = ProtectedRegion(vertices=(0,))
        assert pivots(STAR, (0,), region) == []
        with pytest.raises(SwapNotFound, match="no pivot vertex"):
            forward_swap(STAR, (0,), region)

    def test_pivot_is_usable_by_forward_swap(self):
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=77)
        region = ProtectedRegion.sized(30, 0.5)
        checked = 0
        for seed in range(40):
            result = _try_pair(params.with_seed(seed), region)
            if result is None:
                continue
            g, s, _, rec = result
            checked += 1
            listed = pivots(g, s, region)
            v, u, e1 = listed[0]
            # without rng the search tries pivots lowest first, so the pivot it
            # used comes no earlier than the lowest one
            assert v <= rec.roles.v and u in s and v in e1
            assert not set(region.vertices).intersection(e1)
            assert (rec.roles.v, rec.roles.u, rec.removed[0]) in listed
        assert checked >= 3

    def test_full_set_has_no_pivot(self):
        assert pivots(STAR, tuple(range(7))) == []
        with pytest.raises(SwapNotFound) as err:
            forward_swap(STAR, tuple(range(7)))
        assert err.value.reason == "no-pivot"

    def test_non_dominating_set_rejected(self):
        with pytest.raises(ValueError):
            _roles(STAR, (1,), ProtectedRegion())

    def test_multiply_dominated_vertex_is_not_a_pivot(self):
        g = Hypergraph(5, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        # vertices 1 and 3 meet S={2} through two edges; 0 and 4 qualify
        assert [v for v, _, _ in pivots(g, (2,))] == [0, 4]

    def test_seeded_choice_is_deterministic(self):
        picks = {forward_swap(FIG, FIG_SET, rng=SplitMix64(s))[1].roles.v for s in range(12)}
        assert picks.issubset({2, 3, 5, 6}) and len(picks) > 1
        assert forward_swap(FIG, FIG_SET, rng=SplitMix64(4)) == \
            forward_swap(FIG, FIG_SET, rng=SplitMix64(4))


    def test_roles_against_incidence_lists(self):
        # the edge-bitmask pass against per-vertex incidence lists, on 200
        # instances with a unique dominating 3-set, with and without a region
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5)
        checked = found = 0
        seed = 0
        while checked < 200:
            g = sample_hypergraph(params.with_seed(seed))
            seed += 1
            report = enumerate_dominating_sets(g, 3, witness_cap=1, count_cap=2)
            if not report.unique:
                continue
            s = report.witnesses[0]
            for region in (ProtectedRegion(), ProtectedRegion(tuple(range(5)))):
                _, pivots, partners = _roles(g, s, region)
                assert (pivots, partners) == swap_roles_plain(g.n, g.edges, s, region.vertices)
                found += len(pivots) > 0 and len(partners) > 0
            checked += 1
        assert found > 200


class TestForwardSwap:
    def test_figure_example(self):
        g_no, rec = forward_swap(FIG, FIG_SET)
        assert rec.removed == ((1, 2, 3), (4, 5, 6))
        assert rec.added == ((1, 3, 4), (2, 5, 6))
        assert rec.roles == SwapRoles(u=1, v=2, u_prime=4, v_prime=5, z=(3,), w=(6,))
        assert rec.direction == "forward"
        assert not is_dominating_set(g_no, FIG_SET)
        assert g_no.neighborhood_masks[2] & 0b10011 == 0  # v=2 shares no edge with S

    def test_degrees_and_edge_count_preserved(self):
        g_no, _ = forward_swap(FIG, FIG_SET)
        assert degrees(g_no) == degrees(FIG)
        assert len(g_no.edges) == len(FIG.edges)

    def test_existing_edge_candidate_rejected(self):
        # adding (1,3,4) must be refused when it already exists; next candidate wins
        g = Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6), (1, 3, 4)])
        g2, rec = forward_swap(g, (0, 1, 4))
        assert set(rec.added).isdisjoint(g.edges)
        assert rec.removed[0] != rec.removed[1]
        assert degrees(g2) == degrees(g)

    def test_no_partner_fails(self):
        # single edge: a pivot exists but no second edge can partner
        g = Hypergraph(5, 3, [(0, 1, 2)])
        with pytest.raises(SwapNotFound):
            forward_swap(g, (0, 3, 4))

    def test_requires_dominating_set(self):
        with pytest.raises(ValueError):
            forward_swap(FIG, (1,))


class TestBackwardSwap:
    def test_figure_inverse(self):
        g_no = Hypergraph(7, 3, [(1, 3, 4), (2, 5, 6)])
        g2, rec = backward_swap(g_no, FIG_SET, 2)
        assert rec.removed == ((1, 3, 4), (2, 5, 6))
        assert rec.added == ((1, 2, 3), (4, 5, 6))
        assert is_dominating_set(g2, FIG_SET)
        assert domination_status(g2, FIG_SET).undominated == ()

    def test_requires_undominated_vertex(self):
        with pytest.raises(ValueError):
            backward_swap(FIG, FIG_SET, 2)  # 2 is dominated in FIG

    def test_isolated_vertex_fails(self):
        g = Hypergraph(6, 3, [(0, 1, 2)])
        # vertex 5 shares no edge at all: no partner edge e2 exists
        with pytest.raises(SwapNotFound):
            backward_swap(g, (0,), 5)

    def test_no_inner_edge_fails(self):
        # S = {0}: no edge joins two members of S
        g = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(SwapNotFound):
            backward_swap(g, (0,), 3)

    def test_pinned_roles_must_move_v(self):
        g = Hypergraph(8, 3, [(0, 1, 7), (2, 5, 6), (3, 4, 6)])
        roles = SwapRoles(u=0, v=3, u_prime=1, v_prime=6, z=(7,), w=(4,))
        with pytest.raises(SwapNotFound, match="not a backward candidate") as err:
            backward_swap(g, (0, 1, 4), 2, roles=roles)
        assert err.value.reason == "pinned"

    def test_undominated_vertex_outside_every_edge_of_v(self):
        # S leaves 2, 5 and the isolated 8 undominated; no edge of 2 holds 8
        g = Hypergraph(9, 3, [(0, 1, 7), (2, 5, 6), (3, 4, 6)])
        rng = SplitMix64(5)
        with pytest.raises(SwapNotFound, match="no edge of 2 holds"):
            backward_swap(g, (0, 1, 4), 2, rng=rng)
        assert rng.next_u64() == SplitMix64(5).next_u64()  # refused before any draw

    def test_partner_edge_must_hold_every_undominated_vertex(self):
        # S = {0, 1, 4} leaves 2 and 5 undominated: of the edges of 2, only
        # (2, 5, 6) holds both, so the partner (2, 3, 8) cannot flip S
        g = Hypergraph(10, 3, [(0, 1, 7), (2, 5, 6), (2, 3, 8), (3, 4, 6), (4, 8, 9)])
        s = (0, 1, 4)
        pinned = SwapRoles(u=0, v=2, u_prime=1, v_prime=3, z=(7,), w=(8,))
        with pytest.raises(SwapNotFound, match="not a backward candidate") as err:
            backward_swap(g, s, 2, roles=pinned)
        assert err.value.reason == "pinned"
        g2, rec = backward_swap(g, s, 2)
        assert rec.removed == ((0, 1, 7), (2, 5, 6))
        assert is_dominating_set(g2, s)

    def test_lists_against_plain_oracle(self):
        # the one-pass role lists against plain set logic on 200 instances
        # with a quasi-dominating 3-set, with and without a region; a random
        # 3-set, which may leave several vertices open, rides along
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5)
        rng = SplitMix64(3)
        checked = swapped = refused = 0
        seed = 0
        while checked < 200:
            g = sample_hypergraph(params.with_seed(seed))
            seed += 1
            report = enumerate_quasi_dominating_sets(g, 3, witness_cap=1)
            if not report.count:
                continue
            checked += 1
            other = tuple(sorted({rng.randbelow(30) for _ in range(3)}))
            for s in (report.witnesses[0], other):
                open_ = domination_status(g, s).undominated
                if not open_:
                    continue
                for region in (ProtectedRegion(), ProtectedRegion(tuple(range(5)))):
                    expected = backward_swap_plain(g.n, g.edges, s, open_[0], region.vertices)
                    if expected is None:
                        with pytest.raises(SwapNotFound):
                            backward_swap(g, s, open_[0], region)
                        refused += 1
                    else:
                        _, rec = backward_swap(g, s, open_[0], region)
                        assert (rec.removed, rec.added) == expected
                        swapped += 1
        assert swapped > 150 and refused > 100


def backward_roles_plain(n, edges, s, v, blocked):
    """Every admissible backward role assignment for the undominated v, from
    plain set logic: u != u' of s in an edge u, u', z... that avoids
    `blocked`; v' != v in an edge v, v', w... that avoids `blocked` and holds
    every vertex s leaves undominated; both replacement edges (v, u, z...),
    (v', u', w...) new."""
    sset, bset = set(s), set(blocked)
    present = {tuple(e) for e in edges}
    open_ = set(undominated_plain(n, edges, s))
    found = set()
    for e1 in edges:
        for u in sset.intersection(e1):
            for u2 in sset.intersection(e1) - {u}:
                z = tuple(x for x in e1 if x not in (u, u2))
                for e2 in edges:
                    if bset.intersection(e1 + e2) or v not in e2 or not open_ <= set(e2):
                        continue
                    for v2 in set(e2) - {v}:
                        w = tuple(x for x in e2 if x not in (v, v2))
                        added = (tuple(sorted((v, u, *z))), tuple(sorted((v2, u2, *w))))
                        if not present.intersection(added):
                            found.add(SwapRoles(u=u, v=v, u_prime=u2, v_prime=v2, z=z, w=w))
    return found


class TestPinnedRoles:
    def test_pinned_roles_against_plain_listing(self):
        # each forward swap's roles, pinned, restore the instance; each roles
        # with one field changed are applied exactly when the plain listing
        # holds them, and refused with reason "pinned" otherwise, with the
        # passed generator left unused either way
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5)
        swaps = applied = refused = 0
        seed = 0
        while swaps < 200:
            g = sample_hypergraph(params.with_seed(seed))
            seed += 1
            report = enumerate_dominating_sets(g, 3, witness_cap=1)
            if not report.count:
                continue
            s = report.witnesses[0]
            for region in (ProtectedRegion(), ProtectedRegion(tuple(range(5)))):
                try:
                    g2, rec = forward_swap(g, s, region=region, rng=SplitMix64(seed))
                except SwapNotFound:
                    continue
                swaps += 1
                r, v = rec.roles, rec.roles.v
                assert backward_swap(g2, s, v, region, roles=r)[0] == g
                listed = backward_roles_plain(g2.n, g2.edges, s, v, region.vertices)
                assert r in listed
                changed = [dataclasses.replace(r, u=r.u_prime, u_prime=r.u)]
                for x in range(g.n):
                    changed += [dataclasses.replace(r, v_prime=x), dataclasses.replace(r, z=(x,)),
                                dataclasses.replace(r, w=(x,)), dataclasses.replace(r, v=x)]
                for roles in changed:
                    if roles == r:
                        continue
                    rng = SplitMix64(seed)
                    if roles in listed:
                        g3, rec3 = backward_swap(g2, s, v, region, rng=rng, roles=roles)
                        removed = (tuple(sorted((roles.u, roles.u_prime, *roles.z))),
                                   tuple(sorted((v, roles.v_prime, *roles.w))))
                        added = (tuple(sorted((v, roles.u, *roles.z))),
                                 tuple(sorted((roles.v_prime, roles.u_prime, *roles.w))))
                        assert (rec3.roles, rec3.removed, rec3.added) == (roles, removed, added)
                        assert set(g3.edges) == set(g2.edges) - set(removed) | set(added)
                        applied += 1
                    else:
                        with pytest.raises(SwapNotFound) as err:
                            backward_swap(g2, s, v, region, rng=rng, roles=roles)
                        assert err.value.reason == "pinned"
                        refused += 1
                    assert rng.next_u64() == SplitMix64(seed).next_u64()
        assert applied > 200 and refused > 10000


class TestRoundTrip:
    def test_figure_round_trip(self):
        g_no, rec = forward_swap(FIG, FIG_SET)
        g_back, rec2 = backward_swap(g_no, FIG_SET, rec.roles.v, roles=rec.roles)
        assert g_back == FIG
        assert rec2.removed == rec.added and rec2.added == rec.removed

    def test_random_instances_round_trip(self):
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=1001)
        built = 0
        for seed in range(40):
            result = _try_pair(params.with_seed(seed))
            if result is None:
                continue
            built += 1
            g, s, g_no, rec = result
            g_back, _ = backward_swap(g_no, s, rec.roles.v, roles=rec.roles)
            assert g_back == g
            assert degrees(g_no) == degrees(g)
            assert len(g_no.edges) == len(g.edges)
        assert built >= 5


def _try_pair(params, region=ProtectedRegion()):
    from hsi.model import sample_hypergraph

    g = sample_hypergraph(params)
    rep = enumerate_dominating_sets(g, params.k, count_cap=2)
    if not rep.unique:
        return None
    s = rep.witnesses[0]
    try:
        g_no, rec = forward_swap(g, s, region=region)
    except SwapNotFound:
        return None
    return g, s, g_no, rec


class TestProtectedRegion:
    def test_sized_example(self):
        region = ProtectedRegion.sized(60, 0.5)
        assert region.vertices == tuple(range(8))
        assert region.exponent_c == 0.5
        with pytest.raises(ValueError):
            ProtectedRegion.sized(60, 1.0)

    def test_protection_enforced(self):
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=77)
        region = ProtectedRegion.sized(30, 0.5)
        checked = 0
        for seed in range(60):
            from hsi.model import sample_hypergraph

            g = sample_hypergraph(params.with_seed(seed))
            rep = enumerate_dominating_sets(g, 3, count_cap=2)
            if not rep.unique:
                continue
            try:
                g_no, rec = forward_swap(g, rep.witnesses[0], region=region)
            except SwapNotFound:
                continue
            checked += 1
            protected = set(region.vertices)
            for e in rec.removed + rec.added:
                assert not protected.intersection(e)
            before = {e for e in g.edges if protected.intersection(e)}
            after = {e for e in g_no.edges if protected.intersection(e)}
            assert before == after
        assert checked >= 3


class TestBuildPair:
    def test_build_and_verify(self):
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=2024)
        region = ProtectedRegion.sized(30, 0.5)
        result = build_selfref_pair(params, region=region, retry_budget=300)
        assert isinstance(result, PairResult)
        assert result.report_yes.count == 1 and result.report_yes.unique
        s = result.report_yes.witnesses[0]
        assert is_dominating_set(result.g_yes, s)
        assert not is_dominating_set(result.g_no, s)
        assert degrees(result.g_yes) == degrees(result.g_no)
        assert result.flip_succeeded == (result.report_no.count == 0)

    def test_deterministic(self):
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=555)
        a = build_selfref_pair(params, retry_budget=300)
        b = build_selfref_pair(params, retry_budget=300)
        assert a.g_yes == b.g_yes and a.g_no == b.g_no and a.record == b.record

    def test_failure_reasons_sum_to_swap_failures(self):
        # a 15-vertex region of 30 fails some swaps before one succeeds; a
        # 20-vertex one exhausts the retries
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=0)
        result = build_selfref_pair(params, region=ProtectedRegion(tuple(range(15))),
                                    retry_budget=300)
        assert result.swap_failures > 0
        assert sum(result.failure_reasons.values()) == result.swap_failures
        assert set(result.failure_reasons) == {"no-pivot", "no-partner"}
        with pytest.raises(RetriesExhausted) as err:
            build_selfref_pair(params, region=ProtectedRegion(tuple(range(20))), retry_budget=300)
        assert err.value.swap_failures > 0
        assert sum(err.value.failure_reasons.values()) == err.value.swap_failures

    def test_negative_budget(self):
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=1)
        with pytest.raises(ValueError, match="retry_budget must be >= 0, got -3"):
            build_selfref_pair(params, retry_budget=-3)

    def test_zero_budget(self):
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=1)
        with pytest.raises(RetriesExhausted) as err:
            build_selfref_pair(params, retry_budget=0)
        assert err.value.attempts == 0
