import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from hsi.hypergraph import (
    MAX_VERTICES,
    Hypergraph,
    _vertex_bits,
    as_vertex_set,
    domination_status,
    dumps_instance,
    is_dominating_set,
    loads_instance,
    read_instance,
    write_instance,
)
from hsi.solvers import enumerate_dominating_sets

from oracles import is_dominating_plain, undominated_plain


@st.composite
def hypergraphs(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(2, min(4, n)))
    pot = list(itertools.combinations(range(n), d))
    edges = draw(st.lists(st.sampled_from(pot), unique=True, max_size=min(len(pot), 12)))
    return Hypergraph(n, d, edges)


@st.composite
def hypergraph_and_set(draw):
    g = draw(hypergraphs())
    size = draw(st.integers(0, g.n))
    members = draw(st.permutations(range(g.n)))[:size]
    return g, tuple(sorted(members))


G52 = Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])


class TestConstruction:
    def test_canonical_edge_order(self):
        g = Hypergraph(5, 3, [(4, 3, 2), (2, 1, 0)])
        assert g.edges == ((0, 1, 2), (2, 3, 4))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph(5, 3, [(0, 1, 2), (2, 1, 0)])
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1, 2\)$"):
            Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4), (2, 1, 0)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(5, 3, [(0, 1)])
        with pytest.raises(ValueError):
            Hypergraph(5, 3, [(0, 1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 2, [(1, 3)])
        with pytest.raises(ValueError):
            Hypergraph(3, 2, [(-1, 2)])

    def test_arity_exceeding_n_only_when_edgeless(self):
        Hypergraph(2, 3, ())  # fine: no edges
        with pytest.raises(ValueError):
            Hypergraph(2, 3, [(0, 1, 2)])

    def test_replace_edges(self):
        g2 = G52.replace_edges(removed=[(0, 1, 2)], added=[(0, 1, 3)])
        assert g2.edges == ((0, 1, 3), (2, 3, 4))
        with pytest.raises(ValueError):
            G52.replace_edges(removed=[(0, 1, 3)], added=[])
        with pytest.raises(ValueError):
            G52.replace_edges(removed=[], added=[(2, 3, 4)])
        with pytest.raises(ValueError, match=r"^cannot add duplicate edge \(2, 3, 4\)$"):
            G52.replace_edges(removed=[], added=[(4, 3, 2)])

    @given(hypergraphs(), st.data())
    def test_replace_edges_matches_a_fresh_build(self, g, data):
        # the edges, closed masks and edge masks of the result against a fresh build
        pot = list(itertools.combinations(range(g.n), g.d))
        removed = data.draw(st.lists(st.sampled_from(g.edges), unique=True, max_size=2)
                            if g.edges else st.just([]))
        absent = [e for e in pot if e not in set(g.edges)]
        added = data.draw(st.lists(st.sampled_from(absent), unique=True, max_size=2)
                          if absent else st.just([]))
        g2 = g.replace_edges(removed=removed, added=added)
        fresh = Hypergraph(g.n, g.d, g2.edges)
        assert g2.edges == tuple(sorted(set(g.edges) - set(removed) | set(added)))
        assert g2.neighborhood_masks == fresh.neighborhood_masks
        assert g2.edge_masks == fresh.edge_masks


class TestNeighborhoods:
    def test_closed_neighborhood_examples(self):
        assert G52.neighborhood_masks[2] == 0b11111
        assert G52.neighborhood_masks[0] == 0b00111
        edgeless = Hypergraph(4, 2, ())
        assert edgeless.neighborhood_masks[3] == 0b1000

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            G52.degree(5)
        with pytest.raises(ValueError):
            G52.degree(-1)

    def test_degree_examples(self):
        assert G52.degree(2) == 2
        assert G52.degree(0) == 1
        assert Hypergraph(3, 2, ()).degree(1) == 0


class TestDomination:
    def test_status_examples(self):
        assert domination_status(G52, (2,)).undominated == ()
        status = domination_status(G52, (0,))
        assert status.undominated == (3, 4)
        assert status.dominated == (True, True, True, False, False)
        assert domination_status(G52, (0, 1, 2, 3, 4)).undominated == ()

    def test_invalid_set(self):
        with pytest.raises(ValueError):
            domination_status(G52, (0, 0))
        with pytest.raises(ValueError):
            domination_status(G52, (7,))

    def test_empty_graph_empty_set(self):
        g = Hypergraph(0, 2, ())
        assert domination_status(g, ()).undominated == ()
        assert is_dominating_set(g, ())

    def test_quasi_examples(self):
        g = Hypergraph(4, 3, [(0, 1, 2)])
        assert domination_status(g, (0,)).undominated == (3,)
        assert domination_status(g, (3,)).undominated == (0, 1, 2)
        assert domination_status(g, (0, 1, 2, 3)).undominated == ()


class TestVertexLimit:
    def test_refusal_builds_no_table(self):
        # the table past the limit would hold some 17 MB of ints; the refusal
        # comes before it, so almost nothing is allocated and nothing is cached
        cached = _vertex_bits.cache_info().currsize
        g = Hypergraph(MAX_VERTICES + 1, 3, ())
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n = {MAX_VERTICES + 1} exceeds the limit"):
                g.edge_masks
            with pytest.raises(ValueError, match="exceeds the limit"):
                g.neighborhood_masks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert _vertex_bits.cache_info().currsize == cached

    def test_edgeless_instance_at_the_limit_counts(self):
        g = Hypergraph(MAX_VERTICES, 3, ())
        try:
            report = enumerate_dominating_sets(g, 1, witness_cap=0)
            assert domination_status(g, (5,)).undominated[:6] == (0, 1, 2, 3, 4, 6)
        finally:
            _vertex_bits.cache_clear()  # the table at the limit takes 17.6 MB
        assert (report.count, report.subsets_examined) == (0, MAX_VERTICES)


def hits_every_neighborhood(g, s):
    """The hitting-set form: S meets the closed neighborhood S_u of every u."""
    s_mask = sum(1 << v for v in s)
    return all(s_mask & m for m in g.neighborhood_masks)


class TestHitting:
    def test_family_examples(self):
        edgeless = Hypergraph(3, 2, ())
        assert edgeless.neighborhood_masks == (0b001, 0b010, 0b100)
        assert hits_every_neighborhood(edgeless, (0, 1, 2))
        assert not hits_every_neighborhood(edgeless, (0, 1))

    def test_complete_graph(self):
        complete = Hypergraph(4, 3, itertools.combinations(range(4), 3))
        assert complete.neighborhood_masks == (0b1111,) * 4


class TestProperties:
    @given(hypergraph_and_set())
    def test_matches_plain_oracle(self, gs):
        g, s = gs
        status = domination_status(g, s)
        assert list(status.undominated) == undominated_plain(g.n, g.edges, s)
        assert is_dominating_set(g, s) == is_dominating_plain(g.n, g.edges, s)

    @given(hypergraph_and_set())
    def test_monotone_in_set(self, gs):
        g, s = gs
        if is_dominating_set(g, s):
            bigger = tuple(sorted(set(s) | {0}))
            assert is_dominating_set(g, bigger)

    @given(hypergraph_and_set())
    def test_hitting_equivalence(self, gs):
        g, s = gs
        assert (domination_status(g, s).undominated == ()) == hits_every_neighborhood(g, s)

    @given(hypergraphs())
    def test_neighborhood_symmetry(self, g):
        masks = g.neighborhood_masks
        for u in range(g.n):
            assert masks[u] >> u & 1
            for v in range(g.n):
                assert masks[u] >> v & 1 == masks[v] >> u & 1

    @given(hypergraph_and_set())
    def test_quasi_iff_single_undominated(self, gs):
        # S is quasi-dominating when exactly one vertex u is left undominated,
        # and then S + u dominates
        g, s = gs
        undominated = domination_status(g, s).undominated
        assert (len(undominated) == 1) == (len(undominated_plain(g.n, g.edges, s)) == 1)
        if len(undominated) == 1:
            assert is_dominating_set(g, (*s, *undominated))

    @given(hypergraphs())
    def test_serialization_round_trip(self, g):
        g2, _ = loads_instance(dumps_instance(g, p=0.25, seed=7))
        assert g2 == g


class TestInstanceFile:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "g.json"
        write_instance(G52, path, p=0.125, seed=99)
        g2, meta = read_instance(path)
        assert g2 == G52
        assert meta == {"p": 0.125, "seed": 99}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            loads_instance('{"n":3,"d":2,"edges":[],"comment":"hi"}')

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            loads_instance('{"n":3,"d":2}')

    def test_non_ascending_edge_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            loads_instance('{"n":3,"d":2,"edges":[[1,0]]}')

    def test_unsorted_edge_list_rejected(self):
        with pytest.raises(ValueError, match="lexicographic"):
            loads_instance('{"n":4,"d":2,"edges":[[1,2],[0,1]]}')

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            loads_instance('{"n":4,"d":2,"edges":[[0,1],[0,1]]}')

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    def test_deep_nesting_rejected(self, depth):
        # the JSON parser recurses per level: its RecursionError becomes a
        # ValueError.  Where it parses 1,000 levels, the edge check refuses them.
        text = '{"n":5,"d":2,"edges":' + "[" * depth + "]" * depth + "}"
        with pytest.raises(ValueError, match="nests too deeply" if depth > 1_000 else None):
            loads_instance(text)

    def test_canonical_bytes_are_stable(self):
        text = dumps_instance(G52, p=0.5, seed=1)
        assert text == '{"n":5,"d":3,"edges":[[0,1,2],[2,3,4]],"p":0.5,"seed":1}'
        assert json.loads(text)["edges"] == [[0, 1, 2], [2, 3, 4]]


def test_as_vertex_set_validation():
    assert as_vertex_set((3, 1), 5) == (1, 3)
    with pytest.raises(ValueError):
        as_vertex_set((1, 1), 5)
    with pytest.raises(ValueError):
        as_vertex_set((5,), 5)
