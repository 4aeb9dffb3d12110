import math
from decimal import Context, Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from hsi.model import calibrate_p, count_M
from hsi.moments import (
    ds_correlation_ratio,
    expected_count,
    quasi_expected,
    quasi_second_moment,
    second_moment,
    solvability_bounds,
    vc_correlation_ratio,
)
from hsi.rng import SplitMix64

from oracles import (
    count_dominating_plain,
    count_quasi_plain,
    ensemble_average,
    ensemble_profile,
    is_cover_plain,
    potential_edges,
)


@st.composite
def moment_params(draw, max_n=220):
    k = draw(st.integers(1, 8))
    n = draw(st.integers(2 * k + 1, max_n))
    d = draw(st.integers(2, min(6, n - 1)))
    p = draw(st.floats(1e-4, 0.999))
    return n, d, k, p


@st.composite
def calibrated_params(draw):
    n = round(10 ** draw(st.floats(3.0, 6.0)))
    k = draw(st.integers(1, 60))
    d = draw(st.integers(2, 4))
    # at d=2 and small k one float step in p moves E[X] by more than the
    # default tolerance, so calibrate to 1e-9 of delta
    return n, d, k, calibrate_p(n, d, k, draw(st.floats(0.05, 0.95)), tol=1e-9)


def _decimal_quasi_second_moment(n, d, k, p):
    """sum_i Phi(i) W(i) in 50-digit decimal arithmetic, from q0, q00, q11, dq."""
    with localcontext(Context(prec=50, Emin=-10**9, Emax=10**9)):
        one = Decimal(1)
        miss = one - Decimal(p)
        through = math.comb(n - 1, d - 1)
        q0 = miss ** (through - math.comb(n - 1 - k, d - 1))
        total = Decimal(0)
        for i in range(k + 1):
            q00 = miss ** (through - math.comb(n - 1 - (2 * k - i), d - 1))
            q11 = one - 2 * q0 + q00
            dq = q0 - q00
            mi, ko, hit = n - 2 * k + i, k - i, one - q0
            w = Decimal(0)
            if mi >= 1:
                w += mi * q00 * q11 ** (mi - 1) * hit ** (2 * ko)
            if mi >= 2:
                w += mi * (mi - 1) * dq * dq * q11 ** (mi - 2) * hit ** (2 * ko)
            if ko >= 1:
                w += ko * ko * q0 * q0 * q11 ** mi * hit ** (2 * ko - 2)
            if ko >= 1 and mi >= 1:
                w += 2 * ko * mi * q0 * dq * q11 ** (mi - 1) * hit ** (2 * ko - 1)
            total += math.comb(n, k) * math.comb(k, i) * math.comb(n - k, k - i) * w
        return total


class TestExpectedCount:
    def test_formula_example(self):
        # n=4, d=3, k=1, p=0.5: M=2, E[X] = 4 * 0.75^3
        assert expected_count(4, 3, 1, 0.5) == pytest.approx(4 * 0.75**3, rel=1e-14)

    def test_full_set(self):
        assert expected_count(9, 3, 9, 0.37) == 1.0

    def test_d2_small_example(self):
        assert expected_count(3, 2, 1, 0.5) == pytest.approx(0.75, rel=1e-14)

    def test_p_zero(self):
        assert expected_count(6, 3, 2, 0.0) == 0.0

    def test_d2_exact_against_ensemble(self):
        for n, k in ((3, 1), (4, 2), (5, 2)):
            profile = ensemble_profile(n, 2, lambda edges: count_dominating_plain(n, edges, k))
            pot = len(potential_edges(n, 2))
            for p in (0.15, 0.5, 0.85):
                truth = ensemble_average(profile, pot, p)
                assert expected_count(n, 2, k, p) == pytest.approx(truth, rel=1e-9)

    def test_d3_formula_is_not_the_truth(self):
        # the per-vertex independence is an approximation for d >= 3
        n, d, k, p = 4, 3, 1, 0.5
        profile = ensemble_profile(n, d, lambda edges: count_dominating_plain(n, edges, k))
        truth = ensemble_average(profile, len(potential_edges(n, d)), p)
        formula = expected_count(n, d, k, p)
        assert truth == pytest.approx(2.0, abs=1e-12)
        assert abs(formula - truth) / truth > 1e-2


class TestSecondMoment:
    def test_terms_example(self):
        rep = second_moment(4, 3, 1, 0.5)
        assert rep.f_terms[1] == pytest.approx(1.6875, rel=1e-13)
        assert rep.f_terms[0] == pytest.approx(12 * 0.75**6, rel=1e-13)
        assert rep.second_moment == pytest.approx(12 * 0.75**6 + 1.6875, rel=1e-12)

    def test_report_invariants(self):
        rep = second_moment(11, 3, 2, 0.2)
        assert all(f >= 0.0 for f in rep.f_terms)
        assert rep.second_moment >= rep.f_terms[-1]
        assert rep.second_moment == pytest.approx(math.fsum(rep.f_terms), rel=1e-12)
        assert rep.q0 == pytest.approx((1 - 0.2) ** count_M(11, 2, 3), rel=1e-12)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            second_moment(5, 3, 3, 0.5)  # n < 2k
        with pytest.raises(ValueError):
            second_moment(8, 3, 2, 1.5)

    @given(moment_params())
    @settings(max_examples=60)
    def test_identities(self, params):
        n, d, k, p = params
        rep = second_moment(n, d, k, p)
        e = expected_count(n, d, k, p)
        if e > 0:
            assert rep.f_terms[k] == pytest.approx(e, rel=1e-12)
            target = e * e * math.comb(n - k, k) / math.comb(n, k)
            assert rep.f_terms[0] == pytest.approx(target, rel=1e-12)

    @given(st.one_of(moment_params(), calibrated_params()))
    @settings(max_examples=60, deadline=None)
    def test_second_moment_at_least_square(self, params):
        # each F(i) is its Vandermonde share of E[X]^2 times e^{m_i lift}, lift >= 0
        assert second_moment(*params).ratio_to_square >= 1 - 1e-12


class TestCorrelationRatios:
    def test_ds_examples(self):
        r = ds_correlation_ratio(4, 3, 1, 1, 0.5)
        assert r.value == pytest.approx(0.75**-3, rel=1e-12)
        r0 = ds_correlation_ratio(4, 3, 1, 0, 0.5)
        assert r0.value == pytest.approx((0.625 / 0.5625) ** 2, rel=1e-12)
        assert r0.regime == "dominating-set"
        assert r0.asymptotic_surrogate is not None and r0.asymptotic_surrogate > 1.0

    def test_zero_exponent_gives_one(self):
        r = ds_correlation_ratio(4, 2, 2, 0, 0.3)
        assert r.value == 1.0 and r.log_value == 0.0

    def test_log_value_consistent(self):
        r = ds_correlation_ratio(30, 3, 4, 2, 0.05)
        assert r.value == pytest.approx(math.exp(r.log_value), rel=1e-12)

    @given(moment_params())
    @settings(max_examples=60)
    def test_ds_ratio_at_least_one(self, params):
        n, d, k, p = params
        for i in range(k + 1):
            assert ds_correlation_ratio(n, d, k, i, p).log_value >= 0.0

    @pytest.mark.parametrize("n, k, i", [(5, 3, 0), (5, 2, 3), (5, 0, 0)])
    def test_impossible_overlap_rejected(self, n, k, i):
        # two disjoint 3-sets need 6 vertices; i > k and k = 0 name no pair
        with pytest.raises(ValueError):
            ds_correlation_ratio(n, 3, k, i, 0.5)
        with pytest.raises(ValueError):
            vc_correlation_ratio(n, k, i, 0.5, 3)

    def test_vc_examples(self):
        r = vc_correlation_ratio(10, 3, 2, 0.1, 2)
        assert r.value == pytest.approx(0.9**-15, rel=1e-12)
        assert vc_correlation_ratio(6, 3, 0, 0.4, 2).value == 1.0
        assert vc_correlation_ratio(9, 4, 1, 0.6, 3).value >= 1.0
        assert r.regime == "vertex-cover"

    def test_vc_cover_prob_examples(self):
        # at full overlap the ratio is 1 / Pr(a fixed k-set is a vertex cover)
        assert 1 / vc_correlation_ratio(5, 2, 2, 0.5, 2).value == pytest.approx(0.125, rel=1e-14)
        assert 1 / vc_correlation_ratio(5, 5, 5, 0.5, 2).value == 1.0
        assert 1 / vc_correlation_ratio(5, 2, 2, 0.5, 3).value == pytest.approx(0.5, rel=1e-14)

    def test_vc_exact_against_ensemble(self):
        for n, k, d in ((4, 2, 2), (5, 2, 2), (5, 2, 3), (5, 3, 3)):
            s = tuple(range(k))
            profile = ensemble_profile(n, d, lambda edges: 1.0 if is_cover_plain(edges, s) else 0.0)
            pot = len(potential_edges(n, d))
            for p in (0.2, 0.5, 0.8):
                truth = ensemble_average(profile, pot, p)
                got = 1 / vc_correlation_ratio(n, k, k, p, d).value
                assert got == pytest.approx(truth, rel=1e-9, abs=1e-15)

    def test_ds_ratio_partial_overlap_not_exact_even_at_d2(self):
        # the substitution classes share the edge between them, so the printed
        # pair formula undercounts the association; exhaustive enumeration
        # pins the true ratio and the closed-form correction for k-i=1
        from oracles import is_dominating_plain

        n, k, i, p = 6, 2, 1, 0.3
        s1, s2 = (0, 1), (1, 2)
        pot = len(potential_edges(n, 2))
        both = ensemble_profile(n, 2, lambda e: float(
            is_dominating_plain(n, e, s1) and is_dominating_plain(n, e, s2)))
        one = ensemble_profile(n, 2, lambda e: float(is_dominating_plain(n, e, s1)))
        two = ensemble_profile(n, 2, lambda e: float(is_dominating_plain(n, e, s2)))
        truth = (ensemble_average(both, pot, p)
                 / (ensemble_average(one, pot, p) * ensemble_average(two, pot, p)))
        formula = ds_correlation_ratio(n, 2, k, i, p).value
        assert formula < truth * 0.9  # materially biased low
        q0 = (1 - p) ** k
        q11 = 1 - 2 * q0 + (1 - p) ** (2 * k - i)
        cross = 1 - 2 * q0 + (1 - p) ** (2 * k - 1)
        corrected = (q11 / (1 - q0) ** 2) ** (n - 2 * k + i) * cross / (1 - q0) ** 2
        assert corrected == pytest.approx(truth, rel=1e-9)

    def test_ds_ratio_full_overlap_exact_at_d2(self):
        # i=k reduces to 1/Pr(S dominates), and the marginal is exact at d=2
        from oracles import is_dominating_plain

        n, k, p = 6, 2, 0.3
        s = (0, 1)
        pot = len(potential_edges(n, 2))
        one = ensemble_profile(n, 2, lambda e: float(is_dominating_plain(n, e, s)))
        truth = 1.0 / ensemble_average(one, pot, p)
        assert ds_correlation_ratio(n, 2, k, k, p).value == pytest.approx(truth, rel=1e-9)

    def test_vc_ratio_exact_against_ensemble(self):
        n, k, i, d = 5, 2, 1, 2
        s1 = (0, 1)
        s2 = (1, 2)
        pot = len(potential_edges(n, d))
        both = ensemble_profile(n, d, lambda e: 1.0 if (is_cover_plain(e, s1) and is_cover_plain(e, s2)) else 0.0)
        one = ensemble_profile(n, d, lambda e: 1.0 if is_cover_plain(e, s1) else 0.0)
        two = ensemble_profile(n, d, lambda e: 1.0 if is_cover_plain(e, s2) else 0.0)
        for p in (0.2, 0.6):
            truth = (ensemble_average(both, pot, p)
                     / (ensemble_average(one, pot, p) * ensemble_average(two, pot, p)))
            assert vc_correlation_ratio(n, k, i, p, d).value == pytest.approx(truth, rel=1e-9)


class TestQuasiMoments:
    def test_expected_example(self):
        q = quasi_expected(4, 3, 1, 0.5)
        assert q.value == pytest.approx(12 * 0.25 * 0.75**2, rel=1e-13)

    def test_expected_p_one(self):
        assert quasi_expected(6, 3, 2, 1.0).value == 0.0

    def test_d2_exact_against_ensemble(self):
        for n, k in ((4, 1), (5, 2)):
            profile = ensemble_profile(n, 2, lambda edges: count_quasi_plain(n, edges, k))
            pot = len(potential_edges(n, 2))
            for p in (0.25, 0.6):
                truth = ensemble_average(profile, pot, p)
                assert quasi_expected(n, 2, k, p).value == pytest.approx(truth, rel=1e-9)

    def test_second_moment_example(self):
        q = quasi_second_moment(4, 3, 1, 0.5)
        assert q.phi_terms == (12, 4)
        assert q.w_terms[1] == pytest.approx(3 * 0.25 * 0.75**2, rel=1e-13)
        assert q.w_terms[0] == pytest.approx(0.1884765625, rel=1e-11)
        assert q.second_moment == pytest.approx(3.94921875, rel=1e-10)

    def test_p_one_zeroes_terms(self):
        q = quasi_second_moment(8, 3, 2, 1.0)
        assert all(w == 0.0 for w in q.w_terms)
        assert q.second_moment == 0.0

    def test_second_moment_past_float_range_of_phi(self):
        # Phi(0) = C(n,k) C(n-k,k) is about 1e556 at n=10^6 while W(0) is far
        # below float range; checked against an independent decimal evaluation
        for n, d, k in ((10**6, 3, 60), (10**4, 3, 9), (400, 3, 6)):
            p = calibrate_p(n, d, k, 0.5)
            exact = _decimal_quasi_second_moment(n, d, k, p)
            assert quasi_second_moment(n, d, k, p).second_moment == pytest.approx(
                float(exact), rel=1e-9)

    def test_p2_zero_when_no_vertex_pair(self):
        q = quasi_second_moment(4, 2, 2, 0.4)
        assert q.m_terms == (0, 1, 2)
        assert q.p2_terms[0] == 0.0 and q.p2_terms[1] == 0.0

    def test_q11_in_unit_interval(self):
        q = quasi_second_moment(30, 3, 4, 0.02)
        for q0x, q11 in zip(q.q00_terms, q.q11_terms):
            assert -1e-15 <= q11 <= 1.0 + 1e-12
            assert q11 == pytest.approx(1 - 2 * q.q0 + q0x, rel=1e-9)

    @given(moment_params())
    @example((103, 2, 5, 1e-4))  # E[X] and E[N] are subnormal here
    @settings(max_examples=60)
    def test_identities(self, params):
        n, d, k, p = params
        q = quasi_second_moment(n, d, k, p)
        en = quasi_expected(n, d, k, p)
        if en.value > 0:
            assert q.phi_terms[k] * q.w_terms[k] == pytest.approx(en.value, rel=1e-12)
            ex = expected_count(n, d, k, p)
            miss0 = (1 - p) ** count_M(n, k, d) if count_M(n, k, d) * math.log1p(-p) > -700 else 0.0
            if ex > 0 and 0 < miss0 < 1:
                # a subnormal operand keeps only ulp(x)/x of relative precision
                rounding = math.ulp(en.value) / en.value + math.ulp(ex) / ex
                assert en.value / ex == pytest.approx(en.ratio_to_expected, rel=1e-12 + rounding)
                assert en.ratio_to_expected == pytest.approx(
                    (n - k) * miss0 / (1 - miss0), rel=1e-9)

    @given(st.one_of(moment_params(), calibrated_params()))
    @settings(max_examples=60, deadline=None)
    def test_second_moment_at_least_square(self, params):
        q = quasi_second_moment(*params)
        en = quasi_expected(*params).value
        if en > 0:
            # divided through by E[N], so E[N]^2 cannot overflow
            assert q.second_moment / en >= en * (1 - 1e-12)


class TestBounds:
    def test_example(self):
        b = solvability_bounds(0.5)
        assert b.lower == pytest.approx(1 / 3, rel=1e-15)
        assert b.upper == 0.5
        assert b.unique_lower == pytest.approx(1 / 6, rel=1e-15)

    def test_limits_and_order(self):
        tiny = solvability_bounds(1e-9)
        assert tiny.lower < tiny.upper < 1e-8
        for delta in (0.1, 0.5, 0.9):
            b = solvability_bounds(delta)
            assert 0 < b.lower < b.upper < 1
            assert 0 < b.unique_lower < b.lower

    def test_range(self):
        with pytest.raises(ValueError):
            solvability_bounds(0.0)
        with pytest.raises(ValueError):
            solvability_bounds(1.0)


def test_identity_sweep_seeded():
    # denser deterministic sweep of the exact identities (complements hypothesis)
    rng = SplitMix64(2024)
    for _ in range(200):
        k = 1 + rng.randbelow(8)
        n = 2 * k + 1 + rng.randbelow(120)
        d = 2 + rng.randbelow(min(5, n - 1) - 1)
        p = 0.001 + 0.998 * rng.random()
        rep = second_moment(n, d, k, p)
        e = expected_count(n, d, k, p)
        q = quasi_second_moment(n, d, k, p)
        en = quasi_expected(n, d, k, p)
        assert rep.f_terms[k] == pytest.approx(e, rel=1e-12)
        assert rep.f_terms[0] == pytest.approx(
            e * e * math.comb(n - k, k) / math.comb(n, k), rel=1e-12)
        assert q.phi_terms[k] * q.w_terms[k] == pytest.approx(en.value, rel=1e-12)
