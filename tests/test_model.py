import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hsi.hypergraph import Hypergraph, _closed_bits, _edge_bits
from hsi.model import (
    InstanceTooLarge,
    ModelParams,
    _binom_columns,
    _colex_digits,
    _edge_ranks,
    asymptotic_p,
    calibrate_p,
    choose_k,
    count_M,
    count_Mi,
    sample_hypergraph,
)
from hsi.moments import expected_count, quasi_second_moment
from hsi.rng import STREAM_EDGES, SplitMix64, derive_seed

from oracles import closed_masks_plain, colex_unrank_plain


class TestCounts:
    def test_count_m_examples(self):
        assert count_M(10, 2, 3) == math.comb(9, 2) - math.comb(7, 2) == 15
        assert count_M(10, 0, 3) == 0
        assert count_M(4, 1, 3) == 2

    def test_count_m_errors(self):
        with pytest.raises(ValueError):
            count_M(10, 10, 3)
        with pytest.raises(ValueError):
            count_M(10, -1, 3)

    def test_count_mi_examples(self):
        assert count_Mi(10, 2, 1, 3) == 21
        assert count_Mi(10, 2, 2, 3) == count_M(10, 2, 3)
        assert count_Mi(10, 2, 0, 3) == 26

    def test_count_mi_errors(self):
        with pytest.raises(ValueError):
            count_Mi(10, 2, 3, 3)
        with pytest.raises(ValueError):
            count_Mi(4, 3, 0, 3)  # union of 6 vertices cannot fit in 4

    @given(st.integers(2, 5), st.integers(6, 40), st.integers(1, 8))
    def test_mi_monotone_and_bounded(self, d, n, k):
        if 2 * k > n or d > n:
            return
        m = count_M(n, k, d)
        values = [count_Mi(n, k, i, d) for i in range(k + 1)]
        assert values[-1] == m
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(m <= v <= 2 * m for v in values)

    def test_counts_for_overlap_bundle(self):
        # M, M_i and m_i at n=10, k=2, overlap i=1, d=3: m_i = n-2k+i is the
        # block outside the union of the two k-sets
        m_terms = quasi_second_moment(10, 3, 2, 0.1).m_terms
        assert (count_M(10, 2, 3), count_Mi(10, 2, 1, 3), m_terms[1]) == (15, 21, 7)


class TestAsymptoticP:
    def test_values(self):
        assert asymptotic_p(100, 3) == pytest.approx(1 - math.exp(-0.01), rel=1e-12)
        assert asymptotic_p(50, 4) == pytest.approx(1 - math.exp(-2 / 2500), rel=1e-12)
        assert asymptotic_p(1000, 3) == pytest.approx(0.0009995, rel=1e-3)

    def test_d2_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_p(100, 2)


class TestChooseK:
    def test_examples(self):
        assert choose_k(60) == 4
        assert choose_k(3) == 1
        assert choose_k(2) == 1

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            choose_k(1)


class TestCalibration:
    def test_residual(self):
        p = calibrate_p(100, 3, 5, 0.5, tol=1e-9)
        assert abs(expected_count(100, 3, 5, p) - 0.5) <= 1e-9 * 0.5

    def test_monotone_in_delta(self):
        hi = calibrate_p(60, 3, 4, 0.9)
        lo = calibrate_p(60, 3, 4, 0.1)
        assert hi > lo

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            calibrate_p(60, 3, 4, 1.0)
        with pytest.raises(ValueError):
            calibrate_p(60, 3, 4, 0.5, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="finite tol"):
            calibrate_p(60, 3, 4, 0.5, tol=tol)

    def test_d2_calibrates_without_asymptotic_form(self):
        p = calibrate_p(40, 2, 4, 0.3)
        assert abs(expected_count(40, 2, 4, p) - 0.3) <= 1e-12 * 0.3

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_nearest_float_when_tolerance_unreachable(self, n):
        # at d=2, k=1 one float step of p near 1 moves E[X] = n p^(n-1) by more
        # than 1e-12 of delta: the nearer of the two adjacent floats comes back
        def residual(x):
            return expected_count(n, 2, 1, x) - 0.5

        p = calibrate_p(n, 2, 1, 0.5)
        below = p if residual(p) < 0 else math.nextafter(p, 0.0)
        above = math.nextafter(below, 1.0)
        assert residual(below) < 0 <= residual(above)
        assert abs(residual(p)) == min(abs(residual(below)), abs(residual(above)))
        assert abs(residual(p)) > 1e-12 * 0.5


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(n=5, d=6, k=1, p=0.1)
        with pytest.raises(ValueError):
            ModelParams(n=5, d=2, k=0, p=0.1)
        with pytest.raises(ValueError):
            ModelParams(n=5, d=2, k=1, p=1.5)
        with pytest.raises(ValueError):
            ModelParams(n=5, d=2, k=1, p=0.1, delta=0.0)

    def test_calibrated_factory(self):
        params = ModelParams.calibrated(n=60, d=3, delta=0.5, seed=9)
        assert params.k == choose_k(60)
        assert abs(expected_count(60, 3, params.k, params.p) - 0.5) <= 1e-12 * 0.5


class TestSampling:
    def test_degenerate_probabilities(self):
        assert sample_hypergraph(ModelParams(n=8, d=3, k=2, p=0.0, seed=1)).edges == ()
        full = sample_hypergraph(ModelParams(n=6, d=3, k=2, p=1.0, seed=1))
        assert len(full.edges) == math.comb(6, 3)

    def test_seed_determinism(self):
        params = ModelParams(n=20, d=3, k=3, p=0.05, seed=123456789)
        assert sample_hypergraph(params) == sample_hypergraph(params)
        other = sample_hypergraph(params.with_seed(987654321))
        assert other != sample_hypergraph(params)

    def test_frozen_instance(self):
        # regression anchor for the full seed -> instance pipeline
        g = sample_hypergraph(ModelParams(n=8, d=3, k=2, p=0.15, seed=42))
        assert g.edges == ((0, 1, 2), (0, 2, 5), (1, 2, 6), (1, 6, 7),
                           (2, 3, 7), (2, 5, 7), (3, 4, 7))

    def test_edges_are_valid_and_canonical(self):
        g = sample_hypergraph(ModelParams(n=15, d=4, k=2, p=0.03, seed=5))
        assert list(g.edges) == sorted(set(g.edges))
        assert all(len(e) == 4 and list(e) == sorted(e) for e in g.edges)

    def test_mean_edge_count(self):
        # C(30,3) * 0.01 = 40.6 expected edges
        params = ModelParams(n=30, d=3, k=3, p=0.01, seed=77)
        trials = 10_000
        total = math.comb(30, 3)
        counts = [len(sample_hypergraph(params.with_seed(t)).edges) for t in range(trials)]
        mean = sum(counts) / trials
        se = math.sqrt(total * 0.01 * 0.99 / trials)
        assert abs(mean - total * 0.01) <= 3 * se

    def test_fixed_edge_marginal(self):
        # presence frequency of one fixed edge across seeds approximates p
        params = ModelParams(n=5, d=2, k=2, p=0.3, seed=0)
        trials = 100_000
        target = (1, 3)
        hits = sum(target in sample_hypergraph(params.with_seed(t)).edges
                   for t in range(trials))
        se = math.sqrt(0.3 * 0.7 / trials)
        assert abs(hits / trials - 0.3) <= 3 * se

    def test_dense_path_uses_complement_sampling(self):
        params = ModelParams(n=7, d=2, k=2, p=0.9, seed=13)
        g = sample_hypergraph(params)
        assert g == sample_hypergraph(params)
        assert len(g.edges) > math.comb(7, 2) // 2

    def test_rank_space_guard(self):
        with pytest.raises(InstanceTooLarge):
            sample_hypergraph(ModelParams(n=400, d=10, k=2, p=1e-12, seed=1))

    def test_infeasible_calibration_guard_never_triggers_for_valid_k(self):
        # E[X] at p=1 is C(n,k) >= 1 > delta, so calibration always brackets
        p = calibrate_p(10, 3, 1, 0.99)
        assert 0 < p < 1


def _scalar_ranks(params):
    """The rank set of a scalar `randbelow` loop over the sampler's stream."""
    total = math.comb(params.n, params.d)
    if params.p == 0.0:
        return set()
    if params.p == 1.0:
        return set(range(total))
    rng = SplitMix64(derive_seed(params.seed, STREAM_EDGES))
    count = rng.binomial(total, params.p)
    excluded = count > total // 2
    ranks = set()
    while len(ranks) < (total - count if excluded else count):
        ranks.add(rng.randbelow(total))
    return set(range(total)) - ranks if excluded else ranks


@st.composite
def sampler_params(draw):
    n = draw(st.integers(2, 16))
    d = draw(st.integers(2, min(n, 5)))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return ModelParams(n=n, d=d, k=1, p=p, seed=draw(st.integers(0, 2**64 - 1)))


class TestEdgeRanks:
    """The block-drawn ranks against the scalar loop, and the masks built from
    them against the `Hypergraph` the sampler builds from the same ranks.
    C(n,d) = 1 at n = d; C(n,d) = 2 has no solution with 2 <= d <= n."""

    @given(sampler_params())
    @example(ModelParams(n=3, d=3, k=1, p=0.5, seed=0))  # C(n,d) = 1
    @example(ModelParams(n=3, d=3, k=1, p=0.5, seed=1))
    @example(ModelParams(n=3, d=2, k=1, p=0.5, seed=4))  # C(n,d) = 3
    @example(ModelParams(n=9, d=3, k=1, p=0.0, seed=2))
    @example(ModelParams(n=9, d=3, k=1, p=1.0, seed=2))
    @example(ModelParams(n=12, d=2, k=1, p=0.8, seed=3))  # the excluded ranks are drawn
    @example(ModelParams(n=60, d=3, k=1, p=0.0066, seed=5))  # many blocks
    @example(ModelParams(n=300, d=3, k=1, p=1e-4, seed=6))  # wide digit columns
    @example(ModelParams(n=40, d=5, k=1, p=0.001, seed=7))  # three bisected digits
    @settings(max_examples=300, deadline=None)
    def test_ranks_and_masks(self, params):
        ranks = _edge_ranks(params)
        assert len(ranks) == len(set(ranks))
        assert set(ranks) == _scalar_ranks(params)
        g = sample_hypergraph(params)
        assert len(g.edges) == len(ranks)
        cols = _colex_digits(params.n, params.d, ranks)
        assert tuple(_closed_bits(params.n, cols)) == g.neighborhood_masks
        assert sorted(_edge_bits(params.n, cols)) == sorted(g.edge_masks)


class TestColexDigits:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_digits_and_masks_against_plain_unranking(self, d):
        # the digit columns against a greedy unranking of each rank, and the
        # masks built from them against plain sets, from an empty instance up
        # to p past the switch to drawing excluded ranks
        shapes = set()
        for seed in range(120):
            n = d + seed % 11
            total = math.comb(n, d)
            p = (0.0, 1 / total, 0.05, 0.3, 0.7, 0.95)[seed % 6]
            ranks = _edge_ranks(ModelParams(n=n, d=d, k=1, p=p, seed=seed))
            cols = _colex_digits(n, d, ranks)
            edges = [colex_unrank_plain(d, r) for r in ranks]
            assert len(cols) == d and all(len(col) == len(ranks) for col in cols)
            assert list(zip(*cols)) == edges
            assert _edge_bits(n, cols) == [sum(1 << v for v in e) for e in edges]
            assert _closed_bits(n, cols) == closed_masks_plain(n, edges)
            shapes.add("empty" if not ranks else "excluded" if len(ranks) > total // 2 else "drawn")
        assert shapes == {"empty", "drawn", "excluded"}

    @pytest.mark.parametrize("n, d", [(9, 2), (9, 3), (12, 5)])
    def test_table_holds_the_bisected_columns(self, n, d):
        # the lowest two digits are read in closed form, so the table holds
        # C(c, j) for j = d .. 3 only, and nothing at d = 2
        assert _binom_columns(n, d) == tuple(
            tuple(math.comb(c, j) for c in range(n)) for j in range(d, 2, -1))

    def test_closed_form_digits_at_d2_large_n(self):
        # at d = 2 and n = 10^8 no table is built; the first and last ranks and
        # the ranks around C(c, 2) for a c near n read as plain unranking does
        n, c = 10**8, 10**8 - 7
        ranks = [0, 1, 2, math.comb(c, 2) - 1, math.comb(c, 2), math.comb(c, 2) + c - 1,
                 math.comb(n, 2) - 1]
        cols = _colex_digits(n, 2, ranks)
        assert list(zip(*cols)) == [(0, 1), (0, 2), (1, 2), (c - 2, c - 1), (0, c),
                                    (c - 1, c), (n - 2, n - 1)]

    @pytest.mark.parametrize("n, d", [(0, 2), (1, 2), (4, 3), (3, 5)])
    def test_edgeless_masks(self, n, d):
        # an edgeless instance gives no columns through zip(*edges), even at
        # d > n, and d empty ones from no ranks
        g = Hypergraph(n, d)
        assert g.edge_masks == ()
        assert g.neighborhood_masks == tuple(closed_masks_plain(n, []))
        cols = _colex_digits(n, d, [])
        assert cols == [[]] * d
        assert _edge_bits(n, cols) == []
        assert _closed_bits(n, cols) == closed_masks_plain(n, [])
