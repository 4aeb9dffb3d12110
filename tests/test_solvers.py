import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hsi.hypergraph import Hypergraph, domination_status
import hsi.solvers as solvers
from hsi.model import ModelParams, calibrate_p, sample_hypergraph
from hsi.rng import SplitMix64
from hsi.solvers import (
    BudgetExceeded,
    _pair_space,
    _pair_table as pair_table,
    enumerate_dominating_sets,
    enumerate_quasi_dominating_sets,
)

from oracles import count_dominating_plain, count_quasi_plain, undominated_plain

G52 = Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])


class TestDominatingEnumeration:
    def test_unique_singleton(self):
        rep = enumerate_dominating_sets(G52, 1)
        assert rep.count == 1
        assert rep.witnesses == ((2,),)
        assert rep.unique
        assert rep.subsets_examined == 5
        assert not rep.capped

    def test_full_vertex_set(self):
        rep = enumerate_dominating_sets(G52, 5)
        assert rep.count == 1 and rep.witnesses[0] == (0, 1, 2, 3, 4)

    def test_edgeless(self):
        rep = enumerate_dominating_sets(Hypergraph(4, 2, ()), 3)
        assert rep.count == 0 and not rep.unique

    def test_witnesses_verify(self):
        g = sample_hypergraph(ModelParams(n=14, d=3, k=2, p=0.08, seed=3))
        rep = enumerate_dominating_sets(g, 3, witness_cap=100)
        for w in rep.witnesses:
            assert domination_status(g, w).undominated == ()
        assert len(rep.witnesses) == min(rep.count, 100)

    def test_counts_match_plain_oracle(self):
        rng = SplitMix64(17)
        for trial in range(40):
            n = 5 + rng.randbelow(4)
            d = 2 + rng.randbelow(2)
            p = 0.05 + 0.3 * rng.random()
            g = sample_hypergraph(ModelParams(n=n, d=d, k=2, p=p, seed=trial))
            for k in (1, 2, 3):
                assert enumerate_dominating_sets(g, k).count == \
                    count_dominating_plain(n, g.edges, k)

    def test_label_invariance(self):
        g = sample_hypergraph(ModelParams(n=12, d=3, k=2, p=0.08, seed=9))
        perm = [7, 3, 11, 0, 9, 5, 1, 10, 2, 8, 4, 6]
        relabeled = Hypergraph(12, 3, [tuple(perm[v] for v in e) for e in g.edges])
        for k in (1, 2, 3):
            assert enumerate_dominating_sets(g, k).count == \
                enumerate_dominating_sets(relabeled, k).count

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded) as err:
            enumerate_dominating_sets(G52, 2, budget=5)
        assert err.value.required == 10 and err.value.budget == 5

    @pytest.mark.parametrize("count", [enumerate_dominating_sets,
                                       enumerate_quasi_dominating_sets])
    def test_budget_refusal_builds_no_masks(self, count):
        # C(2000, 4) k-sets exceed the default budget; the n masks of up to
        # n bits each are never built
        g = Hypergraph(2000, 3)
        with pytest.raises(BudgetExceeded) as err:
            count(g, 4)
        assert err.value.required == math.comb(2000, 4)
        assert g._nb_masks is None

    def test_k_range(self):
        with pytest.raises(ValueError):
            enumerate_dominating_sets(G52, 0)
        with pytest.raises(ValueError):
            enumerate_dominating_sets(G52, 6)

    def test_count_cap_semantics(self):
        g = Hypergraph(5, 3, [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)])
        full = enumerate_dominating_sets(g, 2)
        assert full.count > 2
        capped = enumerate_dominating_sets(g, 2, count_cap=2)
        assert capped.count == 2 and capped.capped and not capped.unique
        assert capped.subsets_examined <= full.subsets_examined
        first = enumerate_dominating_sets(g, 2, count_cap=1)
        assert first.count == 1 and first.capped and not first.unique

    def test_deep_search_near_n(self):
        # a k-set missing one vertex r dominates iff r has a neighbor; the
        # search goes deeper than Python's default recursion limit here
        n = 1050
        g = Hypergraph(n, 3, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(200)])
        rep = enumerate_dominating_sets(g, n - 1, witness_cap=1)
        assert rep.count == 600  # colex-first: drop the highest vertex with a neighbor
        assert rep.witnesses == (tuple(v for v in range(n) if v != 599),)
        assert rep.subsets_examined == n
        assert enumerate_quasi_dominating_sets(g, n - 1).count == 450

    def test_existence_fast_path_agrees(self):
        rng = SplitMix64(23)
        for trial in range(1000):
            n = 5 + rng.randbelow(4)
            p = 0.02 + 0.25 * rng.random()
            k = 1 + rng.randbelow(3)
            g = sample_hypergraph(ModelParams(n=n, d=3, k=k, p=p, seed=trial * 7 + 1))
            first = enumerate_dominating_sets(g, k, witness_cap=1, count_cap=1)
            assert (first.count > 0) == (enumerate_dominating_sets(g, k).count > 0)


class TestQuasiEnumeration:
    def test_examples(self):
        g = Hypergraph(4, 3, [(0, 1, 2)])
        rep = enumerate_quasi_dominating_sets(g, 1)
        assert rep.count == 3
        assert rep.witnesses == ((0,), (1,), (2,))
        assert rep.missed_vertices == (3, 3, 3)

    def test_complete_graph_has_none(self):
        complete = Hypergraph(5, 3, itertools.combinations(range(5), 3))
        for k in (1, 2):
            assert enumerate_quasi_dominating_sets(complete, k).count == 0

    def test_edgeless_n_minus_one(self):
        g = Hypergraph(5, 2, ())
        rep = enumerate_quasi_dominating_sets(g, 4, witness_cap=10)
        assert rep.count == 5
        for w, miss in zip(rep.witnesses, rep.missed_vertices):
            assert miss not in w

    def test_counts_match_plain_oracle(self):
        rng = SplitMix64(31)
        for trial in range(30):
            n = 5 + rng.randbelow(4)
            p = 0.05 + 0.3 * rng.random()
            g = sample_hypergraph(ModelParams(n=n, d=3, k=2, p=p, seed=trial + 100))
            for k in (1, 2):
                assert enumerate_quasi_dominating_sets(g, k).count == \
                    count_quasi_plain(n, g.edges, k)

    def test_witnesses_verify(self):
        g = sample_hypergraph(ModelParams(n=13, d=3, k=2, p=0.06, seed=5))
        rep = enumerate_quasi_dominating_sets(g, 2, witness_cap=50)
        for w, miss in zip(rep.witnesses, rep.missed_vertices):
            assert domination_status(g, w).undominated == (miss,)


@st.composite
def instances(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(2, 4))
    pot = list(itertools.combinations(range(n), d))
    edges = draw(st.lists(st.sampled_from(pot), unique=True, max_size=30)) if pot else []
    k = draw(st.integers(1, n))
    return Hypergraph(n, d, edges), k


def colex_key(s):
    return tuple(reversed(s))


class TestDifferential:
    """The search against the plain oracle: every k-subset checked by set logic."""

    @given(instances(), st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_oracle(self, instance, witness_cap):
        g, k = instance
        plain = {v: [] for v in range(-1, g.n)}  # missed vertex (-1: none) -> k-sets
        for sub in itertools.combinations(range(g.n), k):
            miss = undominated_plain(g.n, g.edges, sub)
            if len(miss) <= 1:
                plain[miss[0] if miss else -1].append(sub)
        dominating = plain.pop(-1)
        quasi = sorted(((s, v) for v, sets in plain.items() for s in sets),
                       key=lambda sv: colex_key(sv[0]))
        assert len(dominating) == count_dominating_plain(g.n, g.edges, k)
        assert len(quasi) == count_quasi_plain(g.n, g.edges, k)

        rep = enumerate_dominating_sets(g, k, witness_cap=witness_cap)
        assert rep.count == len(dominating) and not rep.capped
        assert rep.unique == (rep.count == 1)
        assert rep.witnesses == tuple(sorted(dominating, key=colex_key)[:witness_cap])
        assert rep.subsets_examined == math.comb(g.n, k)
        assert rep.missed_vertices is None

        q = enumerate_quasi_dominating_sets(g, k, witness_cap=witness_cap)
        assert q.count == len(quasi) and not q.capped
        assert list(zip(q.witnesses, q.missed_vertices)) == quasi[:witness_cap]
        assert q.subsets_examined == math.comb(g.n, k)

        for fn, truth in ((enumerate_dominating_sets, dict.fromkeys(dominating, None)),
                          (enumerate_quasi_dominating_sets, dict(quasi))):
            for cap in (1, 2):
                capped = fn(g, k, witness_cap=witness_cap, count_cap=cap)
                assert capped.count == min(len(truth), cap)
                assert capped.capped == (len(truth) >= cap)
                assert capped.unique == (len(truth) == 1 and cap > 1)
                assert capped.subsets_examined <= math.comb(g.n, k)
                assert list(capped.witnesses) == sorted(set(capped.witnesses), key=colex_key)
                assert len(capped.witnesses) == min(capped.count, witness_cap)
                missed = capped.missed_vertices or (None,) * len(capped.witnesses)
                for w, v in zip(capped.witnesses, missed):
                    assert w in truth and truth[w] == v


def pair_pass_cases():
    """Random instances up to n=70 (several words of vertices), k = 2..5, at
    densities around and above the calibrated p, so hits are common too."""
    rng = SplitMix64(41)
    cases = []
    for trial in range(36):
        k = 2 + trial % 4
        n = 8 + rng.randbelow(63)
        d = 2 + rng.randbelow(3)
        p = calibrate_p(n, d, k, 0.5) * (0.5 + 3.0 * rng.random())
        g = sample_hypergraph(ModelParams(n=n, d=d, k=k, p=min(p, 1.0), seed=trial))
        if math.comb(n, k) <= 2 * 10**6:  # keeps the fallback runs short
            cases.append((g, k, rng.randbelow(10)))
    return cases


class TestPairPass:
    """The pair pass (k >= 3, n <= PAIR_PASS_MAX_N) against the static-order
    fallback on the same instance, and against the plain oracle when it is
    cheap; its table against a plain-set construction."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 61])
    def test_pair_table_against_plain_pairs(self, n):
        # good[w] holds the pairs {x < y} with x or y in S_w; the bits with
        # x >= y are outside the pair space and never read
        rows = _pair_space(n)[0]
        rng = random.Random(n)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            masks = [1 << v for v in range(n)]  # closed masks: symmetric, v in S_v
            for x, y in itertools.combinations(range(n), 2):
                if rng.random() < density:
                    masks[x] |= 1 << y
                    masks[y] |= 1 << x
            good = pair_table(n, masks)
            assert len(good) == n
            for w, s_w in enumerate(masks):
                plain = {y * n + x for x, y in itertools.combinations(range(n), 2)
                         if (s_w >> x | s_w >> y) & 1}
                assert good[w] & rows == sum(1 << b for b in plain)

    @pytest.mark.parametrize("quasi", [False, True], ids=["plain", "quasi"])
    def test_matches_fallback(self, monkeypatch, quasi):
        fn = enumerate_quasi_dominating_sets if quasi else enumerate_dominating_sets
        oracle = count_quasi_plain if quasi else count_dominating_plain
        built, limit = [], solvers.PAIR_PASS_MAX_N
        monkeypatch.setattr(solvers, "_pair_table",
                            lambda n, masks: built.append(n) or pair_table(n, masks))

        def run(pair_pass, *args, **kw):
            monkeypatch.setattr(solvers, "PAIR_PASS_MAX_N", limit if pair_pass else 0)
            before = len(built)
            rep = fn(*args, budget=10**7, **kw)
            assert len(built) - before == (pair_pass and args[1] >= 3)
            return rep

        checked = 0
        for g, k, witness_cap in pair_pass_cases():
            fast = run(True, g, k, witness_cap=witness_cap)
            slow = run(False, g, k, witness_cap=witness_cap)
            assert (fast.count, fast.witnesses, fast.missed_vertices, fast.unique) == \
                (slow.count, slow.witnesses, slow.missed_vertices, slow.unique)
            assert fast.subsets_examined == slow.subsets_examined == math.comb(g.n, k)
            assert not fast.capped and len(fast.witnesses) == min(fast.count, witness_cap)
            if math.comb(g.n, k) * g.n * (len(g.edges) + 1) <= 3 * 10**6:
                assert fast.count == oracle(g.n, g.edges, k)
                checked += 1
            for cap in (1, 2, 3):
                for pair_pass in (True, False):
                    capped = run(pair_pass, g, k, witness_cap=witness_cap, count_cap=cap)
                    assert capped.count == min(fast.count, cap)
                    assert capped.capped == (fast.count >= cap)
                    assert capped.unique == (fast.count == 1 and cap > 1)
                    assert len(capped.witnesses) == min(capped.count, witness_cap)
                    assert list(capped.witnesses) == sorted(set(capped.witnesses),
                                                            key=colex_key)
                    missed = capped.missed_vertices or (None,) * len(capped.witnesses)
                    for w, v in zip(capped.witnesses, missed):
                        miss = undominated_plain(g.n, g.edges, w)
                        assert len(w) == k and miss == ([v] if quasi else [])
        assert checked >= 5


class TestMultiword:
    def test_beyond_64_vertices(self):
        # structure lives in the low vertices; the tail forces a second word
        base = sample_hypergraph(ModelParams(n=10, d=3, k=2, p=0.15, seed=8))
        edges = list(base.edges) + [(i, i + 1, i + 2) for i in range(10, 78, 3)]
        g = Hypergraph(80, 3, edges)
        rep = enumerate_dominating_sets(g, 2, budget=10**7)
        assert rep.count == count_dominating_plain(80, g.edges, 2)
        q = enumerate_quasi_dominating_sets(g, 2, budget=10**7)
        assert q.count == count_quasi_plain(80, g.edges, 2)
