import math
import os

import pytest
from hypothesis import given, settings, strategies as st

import hsi.experiments as experiments
from hsi.experiments import (
    DegenerateEstimate,
    EstimateRecord,
    failed_gates,
    mc_expected_count,
    mc_pair_correlation,
    mc_quasi_frequency,
    mc_solvable_and_unique,
    ratio_trend,
    records_to_csv,
    write_csv,
    _ratio_se,
    _resolve_workers,
    _run_trials,
    _trial_pair,
    _trial_quasi,
    _trial_solvable,
)
from hsi.hypergraph import is_dominating_set
from hsi.model import ModelParams, calibrate_p, sample_hypergraph
from hsi.moments import expected_count, quasi_expected, second_moment, solvability_bounds
from hsi.rng import STREAM_TRIALS, indexed_seed
from hsi.solvers import (
    enumerate_dominating_sets,
    enumerate_quasi_dominating_sets,
)
from oracles import (
    count_dominating_plain,
    count_quasi_plain,
    is_cover_plain,
    is_dominating_plain,
)

D2 = ModelParams(n=12, d=2, k=2, p=0.3, seed=99)
SMALL = ModelParams(n=8, d=2, k=2, p=0.5, seed=2)  # 7 trials leave no denominator empty


def _true_d2_pair_ratio(n, k, i, p):
    """Exact joint/marginal-product ratio at d=2 for overlap i = k-1.

    The two substitution classes are single vertices a, b; their domination
    events cover k edges each and share the edge {a, b}, so the joint miss
    exponent is 2k-1.  All other vertices contribute the usual q11 factor.
    """
    assert k - i == 1
    q0 = (1 - p) ** k
    q11 = 1 - 2 * q0 + (1 - p) ** (2 * k - i)
    cross = 1 - 2 * q0 + (1 - p) ** (2 * k - 1)
    return (q11 / (1 - q0) ** 2) ** (n - 2 * k + i) * cross / (1 - q0) ** 2


class TestExpectedCountMC:
    def test_d2_within_3se_and_recomputable(self):
        rec = mc_expected_count(D2, 4000)
        assert rec.verdict == "within-3SE"
        mean = rec.counts["sum"] / rec.trials
        var = (rec.counts["sum_sq"] - rec.trials * mean * mean) / (rec.trials - 1)
        se = math.sqrt(max(var, 0.0) / rec.trials)
        assert rec.estimate == mean and rec.std_error == se
        assert abs(mean - expected_count(12, 2, 2, 0.3)) <= 3 * se

    def test_p_zero_trivial(self):
        rec = mc_expected_count(ModelParams(n=8, d=2, k=2, p=0.0, seed=1), 50)
        assert rec.estimate == 0.0 and rec.formula_value == 0.0
        assert rec.verdict == "within-3SE"

    def test_d3_report_only(self):
        rec = mc_expected_count(ModelParams(n=10, d=3, k=2, p=0.05, seed=5), 200)
        assert rec.verdict == "report-only"
        assert rec.formula_value == expected_count(10, 3, 2, 0.05)

    def test_d3_gap_recorded_at_scale(self):
        # 10^4 exact enumerations at n=30: the recorded gap to the formula is
        # the d>=3 independence error, positive and many SEs wide
        params = ModelParams.calibrated(n=30, d=3, k=3, delta=0.5, seed=40)
        rec = mc_expected_count(params, 10_000, workers=2)
        assert rec.verdict == "report-only"
        assert rec.estimate > rec.formula_value + 3 * rec.std_error


class TestSolvableMC:
    def test_markov_and_bands(self):
        params = ModelParams.calibrated(n=20, d=3, k=3, delta=0.5, seed=11)
        solvable, unique = mc_solvable_and_unique(params, 400)
        bounds = solvability_bounds(0.5)
        assert solvable.bound_lo == bounds.lower and solvable.bound_hi == bounds.upper
        assert unique.bound_lo == bounds.unique_lower
        assert solvable.verdict == "report-only" and unique.verdict == "report-only"
        assert solvable.estimate <= solvable.counts["count_sum"] / solvable.trials + 1e-12
        assert unique.counts["unique"] <= solvable.counts["exist"]

    def test_p_one_always_solvable(self):
        params = ModelParams(n=7, d=3, k=1, p=1.0, seed=2)
        solvable, unique = mc_solvable_and_unique(params, 30)
        assert solvable.estimate == 1.0
        assert unique.estimate == 0.0  # every singleton dominates a complete graph


class TestPairCorrelationMC:
    def test_vc_regime_within_3se(self):
        params = ModelParams(n=10, d=2, k=3, p=0.1, seed=31)
        rec = mc_pair_correlation(params, 2, 60_000, regime="vertex-cover")
        assert rec.verdict == "within-3SE"
        assert rec.formula_value == pytest.approx(0.9**-15, rel=1e-12)
        n11, n1, n2 = rec.counts["both"], rec.counts["s1"], rec.counts["s2"]
        ratio, se = _ratio_se(n11, n1, n2, rec.trials)
        assert rec.estimate == ratio and rec.std_error == se

    def test_ds_full_overlap_enforced_at_d2(self):
        # i=k collapses the ratio to 1/Pr(S dominates), exact at d=2
        rec = mc_pair_correlation(D2, 2, 60_000)
        assert rec.verdict == "within-3SE"

    def test_ds_partial_overlap_report_only(self):
        # the printed pair formula drops the cross-class edges, so for i < k
        # it is biased low at every d and must not be a hard gate
        rec = mc_pair_correlation(ModelParams(n=8, d=2, k=2, p=0.5, seed=6), 1, 500)
        assert rec.verdict == "report-only"
        params = ModelParams.calibrated(n=16, d=3, k=2, delta=0.5, seed=3)
        rec = mc_pair_correlation(params, 1, 500)
        assert rec.verdict == "report-only"

    def test_ds_d2_million_trials_against_true_ratio(self):
        # the estimator itself is consistent: at d=2 and k-i=1 the true ratio
        # has a closed form (cross classes are single vertices sharing one
        # edge), and the million-trial run must land within 3 SE of it while
        # sitting far above the printed formula
        n, k, i, p = 12, 2, 1, 0.3
        rec = mc_pair_correlation(D2.with_seed(20240), i, 1_000_000, workers=2)
        truth = _true_d2_pair_ratio(n, k, i, p)
        n11, n1, n2 = rec.counts["both"], rec.counts["s1"], rec.counts["s2"]
        ratio, se = _ratio_se(n11, n1, n2, rec.trials)
        assert abs(ratio - truth) <= 3 * se
        assert rec.formula_value < truth
        assert rec.verdict == "report-only"

    def test_degenerate_overlap_gives_unit_ratio(self):
        # n - 2k + i = 0: the ratio is exactly 1 and the estimate must agree
        params = ModelParams(n=4, d=2, k=2, p=0.45, seed=8)
        rec = mc_pair_correlation(params, 0, 20_000, regime="vertex-cover")
        assert rec.formula_value == 1.0
        assert rec.verdict == "within-3SE"

    def test_zero_marginal_raises(self):
        params = ModelParams(n=8, d=2, k=2, p=1.0, seed=4)
        with pytest.raises(DegenerateEstimate):
            mc_pair_correlation(params, 1, 40, regime="vertex-cover")

    def test_bad_regime_and_overlap(self):
        with pytest.raises(ValueError):
            mc_pair_correlation(D2, 1, 10, regime="nope")
        with pytest.raises(ValueError):
            mc_pair_correlation(D2, 3, 10)


class TestQuasiMC:
    def test_d2_mean_within_3se(self):
        mean_rec, cond_rec = mc_quasi_frequency(D2, 3000)
        assert mean_rec.verdict == "within-3SE"
        assert mean_rec.formula_value == quasi_expected(12, 2, 2, 0.3).value
        assert 0.0 <= cond_rec.estimate <= 1.0
        assert cond_rec.trials == cond_rec.counts["nodom"]
        assert cond_rec.verdict == "report-only"

    def test_conditioning_event_empty(self):
        params = ModelParams(n=6, d=3, k=1, p=1.0, seed=5)
        with pytest.raises(DegenerateEstimate):
            mc_quasi_frequency(params, 20)


class TestRatioTrend:
    def test_ladder_monotone(self):
        ladder = [ModelParams.calibrated(n=n, d=3, delta=0.5, seed=0)
                  for n in (50, 100, 200)]
        records = ratio_trend(ladder)
        assert len(records) == 4
        gate = records[-1]
        assert gate.verdict == "within-3SE" and gate.estimate == 1.0
        for rec, params in zip(records, ladder):
            p_star = calibrate_p(params.n, 3, params.k, 0.5)
            assert rec.estimate == pytest.approx(
                second_moment(params.n, 3, params.k, p_star).ratio_to_square, rel=1e-12)
            assert rec.formula_value == 3.0

    def test_single_element_passes(self):
        records = ratio_trend([ModelParams.calibrated(n=50, d=3, delta=0.5, seed=0)])
        assert records[-1].verdict == "within-3SE"

    def test_unsorted_ladder_rejected(self):
        ladder = [ModelParams.calibrated(n=n, d=3, delta=0.5, seed=0) for n in (100, 50)]
        with pytest.raises(ValueError):
            ratio_trend(ladder)


@st.composite
def kernel_params(draw):
    n = draw(st.integers(3, 9))
    d = draw(st.integers(2, min(n, 4)))
    k = draw(st.integers(1, min(n - 1, 3)))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return ModelParams(n=n, d=d, k=k, p=p, seed=draw(st.integers(0, 2**32)))


class TestKernelsDifferential:
    """Each trial kernel, which counts on masks built from the edge ranks,
    against the same trials run through `sample_hypergraph` and the public
    solvers, and against the plain oracle on each instance's edges."""

    @staticmethod
    def _instances(params, t0):
        for t in range(t0, t0 + 8):
            seed = indexed_seed(params.seed, STREAM_TRIALS, t)
            yield t, sample_hypergraph(params.with_seed(seed))

    @given(kernel_params(), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_solvable(self, params, t0):
        k = params.k
        for t, g in self._instances(params, t0):
            c = enumerate_dominating_sets(g, k, witness_cap=0).count
            assert c == count_dominating_plain(g.n, g.edges, k)
            assert _trial_solvable(params, (), t) == \
                (c, c * c, 1 if c > 0 else 0, 1 if c == 1 else 0)

    @given(kernel_params(), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_quasi(self, params, t0):
        k = params.k
        for t, g in self._instances(params, t0):
            q = enumerate_quasi_dominating_sets(g, k, witness_cap=0).count
            nodom = 0 if enumerate_dominating_sets(g, k, witness_cap=0, count_cap=1).count else 1
            assert q == count_quasi_plain(g.n, g.edges, k)
            assert nodom == (0 if count_dominating_plain(g.n, g.edges, k) else 1)
            assert _trial_quasi(params, (), t) == \
                (q, q * q, nodom, 1 if (nodom and q > 0) else 0)

    @given(kernel_params(), st.integers(0, 10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pair(self, params, t0, data):
        k = params.k
        i = data.draw(st.integers(max(0, 2 * k - params.n), k))
        s1, s2 = tuple(range(k)), tuple(range(k - i, 2 * k - i))
        for t, g in self._instances(params, t0):
            assert [is_dominating_set(g, s) for s in (s1, s2)] == \
                [is_dominating_plain(g.n, g.edges, s) for s in (s1, s2)]
            for regime, plain in (
                    ("vertex-cover", lambda s: is_cover_plain(g.edges, s)),
                    ("dominating-set", lambda s: is_dominating_plain(g.n, g.edges, s))):
                y1, y2 = plain(s1), plain(s2)
                assert _trial_pair(params, (i, regime), t) == \
                    (1 if (y1 and y2) else 0, 1 if y1 else 0, 1 if y2 else 0)


def _raise_unpicklable():
    raise ValueError(lambda: 0)  # a lambda does not pickle


class TestDeterminismAndWorkers:
    def test_csv_byte_identical(self, tmp_path):
        rec1 = mc_expected_count(D2, 300)
        rec2 = mc_expected_count(D2, 300)
        assert records_to_csv([rec1]) == records_to_csv([rec2])
        path = tmp_path / "out.csv"
        write_csv([rec1], path)
        assert path.read_text() == records_to_csv([rec1])

    RUNS = {
        "solvable": lambda w: mc_solvable_and_unique(SMALL, 7, workers=w),
        "pair": lambda w: (mc_pair_correlation(SMALL, 1, 7, workers=w),),
        "quasi": lambda w: mc_quasi_frequency(SMALL, 7, workers=w),
    }

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])  # 8 is trials + 1
    @pytest.mark.parametrize("kind", ["solvable", "pair", "quasi"])
    def test_worker_count_does_not_change_results(self, kind, workers):
        run = self.RUNS[kind]
        assert records_to_csv(run(workers)) == records_to_csv(run(1))

    @pytest.mark.parametrize("workers, trials, forks", [(6, 2, 1), (3, 7, 2), (2, 1, 0), (1, 7, 0)])
    def test_one_fork_per_share_past_the_first(self, monkeypatch, workers, trials, forks):
        calls = []
        real_fork = os.fork

        def counting_fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        _run_trials("solvable", D2, (), trials, workers)
        assert len(calls) == forks

    @pytest.mark.parametrize("bad, error", [
        (range(5, 7), ValueError("boom")),  # the last trials, in the third share
        (range(2, 4), ValueError("boom")),  # the second share, with the third one still open
        (range(0, 1), ValueError("boom")),  # the parent's own share
        (range(0, 1), KeyboardInterrupt()),
    ], ids=["last-child", "first-child", "parent", "parent-interrupt"])
    def test_error_in_a_share_is_raised_and_every_child_reaped(self, monkeypatch, bad, error):
        real = experiments._KERNELS["solvable"]

        def kernel(params, extra, t):
            if t in bad:
                raise error
            return real(params, extra, t)

        monkeypatch.setitem(experiments._KERNELS, "solvable", kernel)  # the forks inherit it
        with pytest.raises(type(error), match=f"^{error}$"):
            mc_solvable_and_unique(D2, 7, workers=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("action, status", [
        (lambda: os._exit(3), 3),
        (_raise_unpicklable, 1),
    ], ids=["exit", "unpicklable"])
    def test_child_without_a_result(self, monkeypatch, action, status):
        real = experiments._KERNELS["solvable"]

        def kernel(params, extra, t):
            if t == 6:
                action()
            return real(params, extra, t)

        monkeypatch.setitem(experiments._KERNELS, "solvable", kernel)
        message = rf"^trial share 2 \(trials 4\.\.6\) gave no result; exit status {status}$"
        with pytest.raises(ChildProcessError, match=message):
            _run_trials("solvable", D2, (), 7, 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_more_than_one_worker_needs_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert _resolve_workers(1) == 1
        with pytest.raises(ValueError, match="needs os.fork"):
            _resolve_workers(2)

    def test_env_variable_controls_workers(self, monkeypatch):
        monkeypatch.setenv("HSI_THREADS", "2")
        rec = mc_expected_count(D2, 120)
        monkeypatch.setenv("HSI_THREADS", "1")
        rec2 = mc_expected_count(D2, 120)
        assert rec == rec2

    def test_se_shrinks_with_trials(self):
        small = mc_expected_count(D2, 600)
        big = mc_expected_count(D2, 2400)
        ratio = small.std_error / big.std_error
        assert 1.6 <= ratio <= 2.4


class TestRecordsAndCsv:
    def test_verdict_consistency(self):
        rec = mc_expected_count(D2, 500)
        within = abs(rec.estimate - rec.formula_value) <= 3 * rec.std_error
        assert (rec.verdict == "within-3SE") == within

    def test_failed_gates_filter(self):
        good = EstimateRecord(name="a", estimate=1.0, std_error=0.1, trials=10,
                              formula_value=1.0, verdict="within-3SE")
        bad = EstimateRecord(name="b", estimate=9.0, std_error=0.1, trials=10,
                             formula_value=1.0, verdict="outside")
        info = EstimateRecord(name="c", estimate=9.0, std_error=0.0, trials=10)
        assert failed_gates([good, bad, info]) == [bad]

    def test_csv_shape_and_quoting(self):
        rec = EstimateRecord(name="x", estimate=0.5, std_error=0.0, trials=3,
                             counts={"a": 1, "b": 2})
        text = records_to_csv([rec])
        header, row = text.strip().split("\n")
        assert header.startswith("schema,name,estimate")
        assert '"{""a"":1,""b"":2}"' in row
        assert row.startswith("hsi.estimates.v1,x,0.5,0.0,3,,,,report-only")
