import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

import hsi.cli as cli
import hsi.experiments as experiments
from hsi.experiments import EstimateRecord
from hsi.hypergraph import (
    Hypergraph,
    domination_status,
    is_dominating_set,
    read_instance,
    write_instance,
)
from hsi.model import calibrate_p
from hsi.moments import expected_count


def test_import_leaves_numpy_out():
    # the declared dependencies are the standard library only
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, hsi.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


BUDGET_ERROR = "error: enumeration needs 55098996177225 subsets, budget is 1000000000\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRepeatedMain:
    """`main` called again and again in one process shares one parser."""

    def test_usage_error_then_valid_call(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--k", "2"])  # --in is missing
        assert exc.value.code == 2
        code, out, _ = run(capsys, "calibrate", "--n", "60", "--d", "3",
                           "--k", "4", "--delta", "0.5")
        assert code == 0 and out.startswith("p_star=")

    def test_pair_then_solve_match_separate_calls(self, tmp_path, capsys):
        pair = ["pair", "--n", "30", "--d", "3", "--k", "3", "--delta", "0.5",
                "--seed", "11", "--vh-size", "5", "--retries", "300", "--out-prefix"]
        solve = ["solve", "--k", "3", "--witnesses", "3", "--in"]

        def solved(stdout):
            report = json.loads(stdout)
            del report["elapsed"]
            return report

        outputs = {}
        for where in ("shared", "separate"):
            prefix = str(tmp_path / where)
            calls = (pair + [prefix], solve + [prefix + "_yes.json"])
            if where == "shared":
                results = [run(capsys, *argv)[:2] for argv in calls]
            else:
                env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
                procs = [subprocess.run([sys.executable, "-m", "hsi.cli", *argv], env=env,
                                        capture_output=True, text=True, timeout=120)
                         for argv in calls]
                results = [(proc.returncode, proc.stdout) for proc in procs]
            assert [code for code, _ in results] == [0, 0]
            files = [Path(prefix + suffix).read_text()
                     for suffix in ("_yes.json", "_no.json", "_record.json")]
            outputs[where] = (files, solved(results[1][1]))
        assert outputs["shared"] == outputs["separate"]
        assert outputs["shared"][1]["count"] == 1


class TestCalibrate:
    def test_prints_residual(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--n", "60", "--d", "3",
                           "--k", "4", "--delta", "0.5")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        p_star = float(lines["p_star"])
        assert abs(expected_count(60, 3, 4, p_star) - 0.5) <= 1e-12 * 0.5
        assert float(lines["residual"]) <= 1e-12 * 0.5

    def test_infeasible_parameters_exit_1(self, capsys):
        code, _, err = run(capsys, "calibrate", "--n", "60", "--d", "3",
                           "--k", "4", "--delta", "1.5")
        assert code == 1 and "error" in err


class TestGenAndSolve:
    def test_gen_refuses_dense_instance(self, tmp_path, capsys):
        # C(1000, 3) * 0.9 = 1.5e8 expected edges passes MAX_EDGES: a clean
        # refusal before anything is drawn, and no file
        path = tmp_path / "g.json"
        code, out, err = run(capsys, "gen", "--n", "1000", "--d", "3", "--p", "0.9",
                             "--seed", "1", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: C(1000,3)*p") and "limit of 1000000" in err
        assert not path.exists()

    def test_gen_solve_found(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        code, _, _ = run(capsys, "gen", "--n", "12", "--d", "3", "--delta", "0.5",
                         "--k", "2", "--seed", "7", "--out", path)
        assert code == 0
        g, meta = read_instance(path)
        assert g.n == 12 and g.d == 3 and meta["seed"] == 7
        assert meta["p"] == pytest.approx(calibrate_p(12, 3, 2, 0.5), rel=1e-12)
        code, out, _ = run(capsys, "solve", "--in", path, "--k", "12")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 1 and report["witnesses"] == [list(range(12))]

    def test_solve_none_found_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "empty.json")
        code, _, _ = run(capsys, "gen", "--n", "6", "--d", "2", "--p", "0.0",
                         "--seed", "1", "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "solve", "--in", path, "--k", "2")
        assert code == 2
        assert json.loads(out)["count"] == 0

    def test_solve_budget_exit_4(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "--n", "12", "--d", "2", "--p", "0.2", "--seed", "3",
            "--out", path)
        code, out, _ = run(capsys, "solve", "--in", path, "--k", "6",
                           "--budget", "10")
        assert code == 4
        assert json.loads(out)["error"] == "budget-exceeded"

    def test_solve_negative_witnesses_exit_1(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        write_instance(Hypergraph(4, 3, [(0, 1, 2)]), path)
        code, out, err = run(capsys, "solve", "--in", path, "--k", "2", "--witnesses", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error: witness_cap must be >= 0")

    def test_solve_negative_budget_exit_1(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        write_instance(Hypergraph(4, 3, [(0, 1, 2)]), path)
        code, out, err = run(capsys, "solve", "--in", path, "--k", "2", "--budget", "-5")
        assert code == 1 and out == ""
        assert err.startswith("error: --budget must be >= 0")

    def test_solve_quasi(self, tmp_path, capsys):
        path = str(tmp_path / "q.json")
        write_instance(Hypergraph(4, 3, [(0, 1, 2)]), path)
        code, out, _ = run(capsys, "solve", "--in", path, "--k", "1", "--quasi")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 3 and report["missed_vertices"] == [3, 3, 3]

    @pytest.mark.parametrize("text, reason", [
        ('{"n":5,"d":2,"edges":[5]}', "edge 5 is not a list"),
        ('{"n":"5","d":2,"edges":[]}', "n must be an integer"),
        ('{"n":5,"d":2,"edges":[[1.5,2]]}', "edge [1.5, 2] is not a list"),
        ('{"n":5,"d":2,"edges":[[true,2]]}', "edge [True, 2] is not a list"),
        ('{"n":5,"d":2,"edges":[],"p":"x"}', "p must be a probability"),
        ('{"n":5,"d":2,"edges":[],"seed":1.5}', "seed must be an integer"),
    ], ids=["edge-not-list", "n-string", "float-vertex", "bool-vertex", "p-string",
            "seed-float"])
    def test_solve_rejects_malformed_instance(self, tmp_path, capsys, text, reason):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "solve", "--in", str(path), "--k", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {reason}")


class TestMoments:
    def test_csv_rows(self, tmp_path, capsys):
        path = str(tmp_path / "m.csv")
        code, _, _ = run(capsys, "moments", "--n", "10", "--d", "3", "--k", "2",
                         "--p", "0.1", "--quasi", "--csv", path)
        assert code == 0
        lines = Path(path).read_text().strip().splitlines()
        assert lines[0].startswith("i,F,ds_ratio,Phi,W")
        assert len(lines) == 4  # header + i in 0..2

    def test_stdout_without_quasi(self, capsys):
        code, out, _ = run(capsys, "moments", "--n", "8", "--d", "2", "--k", "2",
                           "--p", "0.3")
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "0"


class TestSwapCli:
    def test_forward(self, tmp_path, capsys):
        src = str(tmp_path / "fig.json")
        write_instance(Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6)]), src)
        out_prefix = str(tmp_path / "fwd")
        code, _, _ = run(capsys, "swap", "--in", src, "--set", "0,1,4",
                         "--dir", "forward", "--out", out_prefix)
        assert code == 0
        swapped, _ = read_instance(out_prefix + "_swapped.json")
        assert swapped.edges == ((1, 3, 4), (2, 5, 6))
        record = json.loads(Path(out_prefix + "_record.json").read_text())
        assert record["direction"] == "forward"

    def test_backward_on_quasi_instance(self, tmp_path, capsys):
        # S = {0,1,4} dominates all but vertex 2
        src = str(tmp_path / "quasi.json")
        write_instance(Hypergraph(7, 3, [(0, 5, 6), (1, 3, 4), (2, 5, 6)]), src)
        back_prefix = str(tmp_path / "bwd")
        code, _, _ = run(capsys, "swap", "--in", src, "--set", "0,1,4",
                         "--dir", "backward", "--out", back_prefix)
        assert code == 0
        restored, _ = read_instance(back_prefix + "_swapped.json")
        assert restored.edges == ((0, 5, 6), (1, 2, 3), (4, 5, 6))

    def test_backward_needs_quasi_set(self, tmp_path, capsys):
        src = str(tmp_path / "fig.json")
        write_instance(Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6)]), src)
        code, _, err = run(capsys, "swap", "--in", src, "--set", "0,1,4",
                           "--dir", "backward", "--out", str(tmp_path / "x"))
        assert code == 1 and "quasi" in err

    def test_backward_after_a_forward_that_leaves_several_undominated(self, tmp_path, capsys):
        # the forward swap leaves 1 and 16 undominated as well as its pivot
        g = str(tmp_path / "g.json")
        fwd, back = str(tmp_path / "fwd"), str(tmp_path / "back")
        assert run(capsys, "gen", "--n", "30", "--d", "3", "--k", "3", "--delta", "0.5",
                   "--seed", "21", "--out", g)[0] == 0
        assert run(capsys, "swap", "--in", g, "--set", "14,17,27", "--dir", "forward",
                   "--out", fwd)[0] == 0
        swapped, _ = read_instance(fwd + "_swapped.json")
        assert len(domination_status(swapped, (14, 17, 27)).undominated) > 1
        code, _, err = run(capsys, "swap", "--in", fwd + "_swapped.json", "--set", "14,17,27",
                           "--dir", "backward", "--out", back)
        assert (code, err) == (0, "")
        restored, _ = read_instance(back + "_swapped.json")
        assert is_dominating_set(restored, (14, 17, 27))

    def test_backward_needs_one_edge_holding_the_undominated(self, tmp_path, capsys):
        # S = {1,4} leaves 0, 2, 5 and 6 undominated, which no 3-edge holds
        src = str(tmp_path / "quasi.json")
        write_instance(Hypergraph(7, 3, [(0, 5, 6), (1, 3, 4), (2, 5, 6)]), src)
        code, out, err = run(capsys, "swap", "--in", src, "--set", "1,4",
                             "--dir", "backward", "--out", str(tmp_path / "x"))
        assert (code, out) == (1, "")
        assert err == "error: no edge of 0 holds all undominated vertices [0, 2, 5, 6]\n"

    def test_protected_region_respected(self, tmp_path, capsys):
        src = str(tmp_path / "fig.json")
        write_instance(Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6)]), src)
        code, _, err = run(capsys, "swap", "--in", src, "--set", "0,1,4",
                           "--dir", "forward", "--vh", "2,3,5,6",
                           "--out", str(tmp_path / "x"))
        assert code == 1  # every candidate edge touches the region

    @pytest.mark.parametrize("vh", ["0,7", "0,0"])
    def test_region_must_be_a_vertex_set(self, tmp_path, capsys, vh):
        src = str(tmp_path / "fig.json")
        write_instance(Hypergraph(7, 3, [(1, 2, 3), (4, 5, 6)]), src)
        code, _, err = run(capsys, "swap", "--in", src, "--set", "0,1,4",
                           "--dir", "forward", "--vh", vh, "--out", str(tmp_path / "x"))
        assert code == 1 and err.startswith("error:")
        assert not (tmp_path / "x_swapped.json").exists()


class TestPairCli:
    def test_writes_three_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "pair")
        code, out, _ = run(capsys, "pair", "--n", "30", "--d", "3", "--k", "3",
                           "--delta", "0.5", "--seed", "11", "--vh-size", "5",
                           "--retries", "300", "--out-prefix", prefix)
        assert code == 0
        g_yes, _ = read_instance(prefix + "_yes.json")
        g_no, _ = read_instance(prefix + "_no.json")
        record = json.loads(Path(prefix + "_record.json").read_text())
        assert g_yes.n == g_no.n == 30
        assert record["yes_count"] == 1
        assert {tuple(e) for e in record["swap"]["removed"]}.issubset(g_yes.edges)


    @pytest.mark.parametrize("vh_size", ["-4", "27", "1000"])
    def test_region_size_out_of_range(self, tmp_path, capsys, vh_size):
        # n=30, d=3: a swap needs d+1 = 4 vertices outside the region
        code, _, err = run(capsys, "pair", "--n", "30", "--d", "3", "--k", "3",
                           "--delta", "0.5", "--seed", "11", "--vh-size", vh_size,
                           "--out-prefix", str(tmp_path / "pair"))
        assert code == 1 and err.startswith("error: --vh-size")


    def test_budget_refusal_exit_1(self, tmp_path, capsys):
        code, out, err = run(capsys, "pair", "--n", "200", "--d", "3", "--k", "8",
                             "--delta", "0.5", "--seed", "1", "--vh-size", "5",
                             "--out-prefix", str(tmp_path / "pp"))
        assert (code, out, err) == (1, "", BUDGET_ERROR)
        assert list(tmp_path.iterdir()) == []

    def test_negative_retries(self, tmp_path, capsys):
        code, _, err = run(capsys, "pair", "--n", "30", "--d", "3", "--k", "3",
                           "--delta", "0.5", "--seed", "11", "--vh-size", "5", "--retries", "-3",
                           "--out-prefix", str(tmp_path / "pair"))
        assert code == 1 and err.startswith("error: retry_budget must be >= 0")
        assert not (tmp_path / "pair_yes.json").exists()


class TestExperimentCli:
    def test_trend_exit_0(self, tmp_path, capsys):
        path = str(tmp_path / "trend.csv")
        code, out, _ = run(capsys, "experiment", "--kind", "trend",
                           "--n", "50,100", "--d", "3", "--delta", "0.5", "--csv", path)
        assert code == 0
        assert "ratio-trend-excess-non-increasing" in out
        assert Path(path).read_text() in out

    def test_trend_refuses_p(self, capsys):
        code, out, err = run(capsys, "experiment", "--kind", "trend", "--n", "50,100",
                             "--d", "3", "--k", "3", "--p", "0.01")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "--p" in err

    @pytest.mark.parametrize("kind, option, value", [
        ("solvable", "--i", "7"),  # an overlap above k, which the kind would ignore
        ("ex", "--i", "0"),  # the default value too
        ("quasi", "--regime", "vc"),
        ("trend", "--regime", "ds"),
        ("trend", "--trials", "5"),
        ("trend", "--seed", "0"),
        ("trend", "--workers", "2"),
    ])
    def test_refuses_an_option_its_kind_ignores(self, tmp_path, capsys, kind, option, value):
        sizes = (["--n", "50,100", "--d", "3", "--delta", "0.5"] if kind == "trend" else
                 ["--n", "10", "--d", "2", "--k", "2", "--p", "0.25", "--trials", "10"])
        path = tmp_path / "out.csv"
        code, out, err = run(capsys, "experiment", "--kind", kind, *sizes, option, value,
                             "--csv", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and option in err
        assert not path.exists()

    def test_ex_kind_writes_csv(self, tmp_path, capsys):
        path = str(tmp_path / "ex.csv")
        code, out, _ = run(capsys, "experiment", "--kind", "ex", "--n", "10",
                           "--d", "2", "--k", "2", "--p", "0.3",
                           "--trials", "300", "--seed", "5", "--csv", path)
        assert code == 0
        body = Path(path).read_text()
        assert body.startswith("schema,name,estimate")
        assert "expected-count[n=10,d=2,k=2]" in body

    def test_solvable_kind(self, capsys):
        code, out, _ = run(capsys, "experiment", "--kind", "solvable", "--n", "14",
                           "--d", "3", "--k", "2", "--delta", "0.5",
                           "--trials", "100", "--seed", "5")
        assert code == 0
        assert "solvable[" in out and "unique[" in out

    def test_pair_corr_kind(self, capsys):
        code, out, _ = run(capsys, "experiment", "--kind", "pair-corr", "--n", "8",
                           "--d", "2", "--k", "2", "--p", "0.2", "--i", "1",
                           "--regime", "vc", "--trials", "4000", "--seed", "5")
        assert code == 0
        assert "pair-corr[vertex-cover" in out

    def test_quasi_kind(self, capsys):
        code, out, _ = run(capsys, "experiment", "--kind", "quasi", "--n", "10",
                           "--d", "2", "--k", "2", "--p", "0.25",
                           "--trials", "400", "--seed", "5")
        assert code == 0
        assert "quasi-count[" in out and "quasi-given-unsolvable[" in out

    def test_hard_gate_failure_exit_5(self, capsys, monkeypatch):
        bad = EstimateRecord(name="forced", estimate=9.0, std_error=0.0, trials=1,
                             formula_value=1.0, verdict="outside")
        monkeypatch.setattr(cli, "ratio_trend", lambda params: [bad])
        code, out, _ = run(capsys, "experiment", "--kind", "trend", "--n", "50",
                           "--d", "3", "--delta", "0.5")
        assert code == 5

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, capsys, workers):
        code, out, err = run(capsys, "experiment", "--kind", "solvable", "--n", "10",
                             "--d", "2", "--k", "2", "--p", "0.25", "--trials", "10",
                             "--seed", "5", "--workers", workers)
        assert code == 1 and out == ""
        assert err.startswith("error: --workers must be >= 1")

    def test_error_in_a_forked_share_exit_1(self, capsys, monkeypatch):
        real = experiments._trial_solvable
        caller = os.getpid()
        r, w = os.pipe()

        def kernel(params, t):  # fails in the child only
            if os.getpid() != caller:
                os.write(w, b"1")
                raise ValueError("boom")
            if t == 0:  # the caller holds trial 0 until the child has claimed a trial
                select.select([r], [], [], 60)
            return real(params, t)

        monkeypatch.setattr(experiments, "_trial_solvable", kernel)
        try:
            code, out, err = run(capsys, "experiment", "--kind", "solvable", "--n", "10",
                                 "--d", "2", "--k", "2", "--p", "0.25", "--trials", "10",
                                 "--seed", "5", "--workers", "2")
        finally:
            os.close(r)
            os.close(w)
        assert (code, out, err) == (1, "", "error: boom\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_budget_refusal_exit_1(self, capsys, workers):
        code, out, err = run(capsys, "experiment", "--kind", "solvable", "--n", "200",
                             "--d", "3", "--k", "8", "--delta", "0.5", "--trials", "2",
                             "--seed", "1", "--workers", workers)
        assert (code, out, err) == (1, "", BUDGET_ERROR)
        with pytest.raises(ChildProcessError):  # no forked share is left behind
            os.waitpid(-1, os.WNOHANG)

    def test_env_threads_below_one_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("HSI_THREADS", "-3")
        code, out, err = run(capsys, "experiment", "--kind", "solvable", "--n", "10",
                             "--d", "2", "--k", "2", "--p", "0.25", "--trials", "10",
                             "--seed", "5")
        assert code == 1 and out == ""
        assert err.startswith("error: HSI_THREADS must be >= 1")

    def test_env_threads_not_an_integer_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("HSI_THREADS", "abc")
        code, out, err = run(capsys, "experiment", "--kind", "solvable", "--n", "10",
                             "--d", "2", "--k", "2", "--p", "0.25", "--trials", "10",
                             "--seed", "5")
        assert code == 1 and out == ""
        assert err.startswith("error: HSI_THREADS must be an integer, got 'abc'")

    def test_degenerate_estimate_exit_1(self, capsys):
        code, _, err = run(capsys, "experiment", "--kind", "quasi", "--n", "6",
                           "--d", "3", "--k", "1", "--p", "1.0",
                           "--trials", "10", "--seed", "1")
        assert code == 1 and "conditioning" in err
