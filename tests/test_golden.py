"""Golden digests: sampled instances, exact counts, `hsi pair`, `hsi swap`,
`hsi experiment`, `hsi gen`, `hsi solve`, `hsi moments` and `hsi calibrate`
outputs, and the CLI's refusals.

Each test hashes the output of a fixed list of inputs and compares it with the
sha256 recorded when the digest was introduced.  Any change to the sampler's
draws, the counter's results or the pair builder's files shows up here, so a
change meant to be bit-identical must leave every digest as it is.
"""

import hashlib
import math
import re
from pathlib import Path

import hsi.cli as cli
import hsi.solvers as solvers
from hsi.hypergraph import Hypergraph, domination_status, write_instance
from hsi.model import ModelParams, calibrate_p, sample_hypergraph
from hsi.rng import STREAM_SWAP, SplitMix64, derive_seed
from hsi.solvers import enumerate_dominating_sets, enumerate_quasi_dominating_sets
from hsi.swaps import ProtectedRegion, SwapNotFound, backward_swap, forward_swap

# (n, d, p): d = 2, 3, 4; p = 0; p = 1; p > 0.5 takes the complement branch
SAMPLE_CASES = [
    (12, 2, 0.3),
    (20, 3, 0.05),
    (60, 3, calibrate_p(60, 3, 4, 0.5)),
    (12, 4, 0.02),
    (9, 3, 0.0),
    (7, 3, 1.0),
    (8, 2, 0.9),
]
SEEDS = range(20)


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _instance(n, d, p, seed, k=2):
    return sample_hypergraph(ModelParams(n=n, d=d, k=k, p=p, seed=seed))


def test_sampled_instances():
    lines = [repr((n, d, p, seed, _instance(n, d, p, seed).edges))
             for n, d, p in SAMPLE_CASES for seed in SEEDS]
    assert _sha(lines) == "7c62b7e4b6c9f337886e6e3bd422862dde8f317c404562dc77fabc6f20e465a0"


def _count_instances():
    """(n, d, seed, k, instance) for the exact-count digests."""
    for n, d, p, k in [(12, 2, 0.3, 3), (20, 3, 0.05, 3), (12, 4, 0.02, 2),
                       (60, 3, SAMPLE_CASES[2][2], 4)]:
        for seed in SEEDS if n < 60 else range(4):
            yield n, d, seed, k, _instance(n, d, p, seed, k)


def test_full_counts():
    lines = []
    for n, d, seed, k, g in _count_instances():
        for fn in (enumerate_dominating_sets, enumerate_quasi_dominating_sets):
            rep = fn(g, k, witness_cap=5)
            assert rep.subsets_examined == math.comb(n, k)
            lines.append(repr((n, d, seed, k, rep.count, rep.witnesses,
                               rep.subsets_examined, rep.missed_vertices)))
    assert _sha(lines) == "ab6f40e11aef4d699969c7e6075d0f59011877d481c49d0ccbe9c5b4956ea9cf"


def test_capped_counts():
    # a capped search keeps the sets it found before the cap, so its witnesses
    # and `subsets_examined` pin the search order, not just the count
    lines = []
    for n, d, seed, k, g in _count_instances():
        for fn in (enumerate_dominating_sets, enumerate_quasi_dominating_sets):
            for cap in (1, 2, 3):
                rep = fn(g, k, witness_cap=5, count_cap=cap)
                lines.append(repr((n, d, seed, k, cap, rep.count, rep.witnesses,
                                   rep.subsets_examined, rep.capped, rep.missed_vertices)))
    assert _sha(lines) == "4ae50dd9e91574fce9a2f1081c375d164b13bcfd1365fc85a0302c611defd16c"


def test_fallback_capped_counts(monkeypatch):
    # with the pair pass off, k >= 3 counts run on the static-order fallback,
    # whose search order the capped witnesses pin
    monkeypatch.setattr(solvers, "PAIR_PASS_MAX_N", 0)
    lines = []
    for n, d, seed, k, g in _count_instances():
        if k < 3:
            continue
        for fn in (enumerate_dominating_sets, enumerate_quasi_dominating_sets):
            for cap in (1, 2, 3):
                rep = fn(g, k, witness_cap=5, count_cap=cap)
                lines.append(repr((n, d, seed, k, cap, rep.count, rep.witnesses,
                                   rep.subsets_examined, rep.capped, rep.missed_vertices)))
    assert _sha(lines) == "76f05e691d0822cfa176bea28b2082e1e390c2ab97825a1142ef438feb2a36a6"


def test_pair_files(tmp_path, capsys):
    lines = []
    for n, k, seed in [(30, 3, 11), (60, 4, 5)]:
        prefix = str(tmp_path / f"pair{n}")
        code = cli.main(["pair", "--n", str(n), "--d", "3", "--k", str(k),
                         "--delta", "0.5", "--seed", str(seed), "--vh-size", "5",
                         "--retries", "300", "--out-prefix", prefix])
        assert code == 0
        for suffix in ("_yes.json", "_no.json", "_record.json"):
            lines.append(Path(prefix + suffix).read_text())
    capsys.readouterr()
    assert _sha(lines) == "11ff6789ef748f59e7be32db346bf5db8ad1da70f342f6524bd3a8a7c5af84a1"


# (n, d, p, k) for the seeded swaps; the last instance leaves the undominated
# vertex 4 of S = {0, 1} without any edge
SWAP_CASES = [(12, 3, 0.12, 2), (16, 2, 0.25, 3), (20, 3, 0.05, 3),
              (30, 3, calibrate_p(30, 3, 3, 0.5), 3)]
SWAP_REGIONS = ((), (0, 1), (0, 1, 2, 3, 4))


def _swap_instances():
    for n, d, p, k in SWAP_CASES:
        for seed in range(6):
            g = _instance(n, d, p, seed, k)
            yield (g, enumerate_dominating_sets(g, k, witness_cap=2).witnesses,
                   enumerate_quasi_dominating_sets(g, k, witness_cap=2).witnesses)
    yield Hypergraph(5, 3, [(0, 1, 2), (1, 2, 3)]), (), ((0, 1),)


def _library_swap(g, s, direction, region, rng):
    """The swap's result (forward: with its pinned-roles round trip) or its
    refusal message, then the generator's next draw."""
    try:
        if direction == "forward":
            g2, rec = forward_swap(g, s, region=region, rng=rng)
            g_back, rec_back = backward_swap(g2, s, rec.roles.v, roles=rec.roles)
            assert g_back == g and rec_back.added == rec.removed
            outcome = (g2.edges, rec, rec_back)
        else:
            # a quasi witness leaves exactly one vertex undominated
            miss = domination_status(g, s).undominated[0]
            g2, rec = backward_swap(g, s, miss, region=region, rng=rng)
            outcome = (g2.edges, rec)
    except SwapNotFound as exc:
        outcome = str(exc)
    return outcome, rng.next_u64() if rng is not None else None


def test_seeded_swaps(tmp_path, capsys):
    lines = []
    for j, (g, dominating, quasi) in enumerate(_swap_instances()):
        src = str(tmp_path / f"g{j}.json")
        write_instance(g, src)
        for direction, sets in (("forward", dominating), ("backward", quasi)):
            for s in sets:
                for vh in SWAP_REGIONS:
                    for seed in (None, 0, 1):
                        prefix = str(tmp_path / f"{j}_{direction}_{s}_{len(vh)}_{seed}")
                        argv = ["swap", "--in", src, "--set", ",".join(map(str, s)),
                                "--dir", direction, "--out", prefix]
                        argv += ["--vh", ",".join(map(str, vh))] if vh else []
                        argv += ["--seed", str(seed)] if seed is not None else []
                        code = cli.main(argv)
                        err = capsys.readouterr().err
                        files = [Path(prefix + suffix).read_text()
                                 for suffix in ("_swapped.json", "_record.json")] if code == 0 else []
                        rng = SplitMix64(derive_seed(seed, STREAM_SWAP)) if seed is not None else None
                        lines.append(repr((j, direction, s, vh, seed, code, err, files,
                                           _library_swap(g, s, direction, ProtectedRegion(vh), rng))))
    assert _sha(lines) == "5a3e42c733a7652ea201d3459ea8c7a5d7e56756655de359a4c69b00406ba854"


# `hsi experiment` argument lists for the CLI digest: each kernel at d = 2-5,
# p = 0.6 takes the excluded-rank branch, and n=60, d=3 is the benchmark setting
EXPERIMENT_ARGS = [
    "--kind solvable --n 20 --d 3 --k 3 --delta 0.5 --trials 300 --seed 1",
    "--kind solvable --n 14 --d 4 --k 2 --delta 0.5 --trials 300 --seed 2",
    "--kind solvable --n 12 --d 5 --k 2 --delta 0.5 --trials 300 --seed 8",
    "--kind solvable --n 60 --d 3 --k 4 --delta 0.5 --trials 40 --seed 9",
    "--kind ex --n 12 --d 2 --k 2 --p 0.3 --trials 2000 --seed 3",
    "--kind pair-corr --n 12 --d 2 --k 2 --p 0.6 --i 1 --trials 2000 --seed 4",
    "--kind pair-corr --n 12 --d 3 --k 3 --p 0.1 --i 0 --trials 2000 --seed 7",
    "--kind pair-corr --n 10 --d 2 --k 5 --p 0.1 --i 2 --regime vc --trials 2000 --seed 5",
    "--kind quasi --n 20 --d 3 --k 3 --delta 0.5 --trials 300 --seed 6",
]


def test_cli_experiments_and_gen(tmp_path, capsys, monkeypatch):
    # exit code, stdout and CSV of `hsi experiment` at one and three workers,
    # and the output and file of `hsi gen` at d = 2-5 from the empty to the
    # complete instance; relative paths keep the printed output fixed
    monkeypatch.chdir(tmp_path)
    lines = []
    for args in EXPERIMENT_ARGS:
        for workers in ("1", "3"):
            code = cli.main(["experiment", *args.split(), "--workers", workers,
                             "--csv", "out.csv"])
            lines.append(repr((args, workers, code, capsys.readouterr(),
                               Path("out.csv").read_text())))
    for d in (2, 3, 4, 5):
        for p in ("0", "0.3", "1"):
            code = cli.main(["gen", "--n", "9", "--d", str(d), "--p", p, "--seed", str(d),
                             "--out", "g.json"])
            lines.append(repr((d, p, code, capsys.readouterr(), Path("g.json").read_text())))
    assert _sha(lines) == "26db32e35e1f2b93fc4bd91b74fa011a2ed9470587302fe8f3e159176b588507"


def _cli(argv, capsys, files=()) -> str:
    """`cli.main(argv)`'s exit code, stdout, stderr and the listed files, with
    `solve`'s wall time masked."""
    code = cli.main(argv)
    out = capsys.readouterr()
    written = [Path(f).read_text() for f in files] if code == 0 else []
    stdout = re.sub(r'"elapsed": [^,}]+', '"elapsed": 0', out.out)
    return repr((argv, code, stdout, out.err, written))


def test_cli_pairs(tmp_path, capsys, monkeypatch):
    # `hsi pair` at the benchmark setting for seeds 1-20 and at n=30 for seeds
    # 1-10, including the seeds whose swap leaves a dominating k-set (flip=no)
    monkeypatch.chdir(tmp_path)
    files = [f"p{suffix}" for suffix in ("_yes.json", "_no.json", "_record.json")]
    lines = []
    for n, k, vh, seeds in ((60, 4, 8, range(1, 21)), (30, 3, 5, range(1, 11))):
        for seed in seeds:
            argv = ["pair", "--n", str(n), "--d", "3", "--k", str(k), "--delta", "0.5",
                    "--seed", str(seed), "--vh-size", str(vh), "--retries", "400",
                    "--out-prefix", "p"]
            lines.append(_cli(argv, capsys, files))
    assert _sha(lines) == "5915b8203e16c60605a7d6b9b9295dae6d5c62692bb70236615437689819b74c"


def test_cli_solve(tmp_path, capsys, monkeypatch):
    # plain and quasi counts at k = 1 (the root's last picks), k = 2 (the
    # static-order fallback) and k = 3 (the pair pass) on `hsi gen` outputs,
    # then a budget refusal and a negative budget
    monkeypatch.chdir(tmp_path)
    lines = []
    for j, gen in enumerate(["--n 30 --d 3 --k 3 --delta 0.5 --seed 5",
                             "--n 30 --d 3 --k 3 --delta 0.5 --seed 8",
                             "--n 12 --d 2 --k 2 --delta 0.5 --seed 3",
                             "--n 20 --d 3 --p 0.08 --seed 2"]):
        lines.append(_cli(["gen", *gen.split(), "--out", f"g{j}.json"], capsys,
                          [f"g{j}.json"]))
        for k in ("1", "2", "3"):
            for quasi in ([], ["--quasi"]):
                for witnesses in ("0", "3"):
                    lines.append(_cli(["solve", "--in", f"g{j}.json", "--k", k, *quasi,
                                       "--witnesses", witnesses], capsys))
    for budget in ("10", "-5"):
        lines.append(_cli(["solve", "--in", "g0.json", "--k", "3", "--budget", budget], capsys))
    assert _sha(lines) == "74b2927825c8d38509e0b7fb604f088356ce314013e4f56babc3bd1573c376c2"


def test_cli_moments_and_calibrate(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = []
    for n, d, k, p in ((60, 3, 4, "0.006711788865225252"), (1000, 2, 7, "0.3686913230775133")):
        base = ["moments", "--n", str(n), "--d", str(d), "--k", str(k), "--p", p]
        lines.append(_cli(base, capsys))
        lines.append(_cli([*base, "--quasi"], capsys))
        lines.append(_cli([*base, "--quasi", "--csv", "m.csv"], capsys, ["m.csv"]))
    for n, d, k, delta in ((60, 3, 4, "0.5"), (500, 2, 6, "0.2")):
        lines.append(_cli(["calibrate", "--n", str(n), "--d", str(d), "--k", str(k),
                           "--delta", delta], capsys))
    assert _sha(lines) == "eb83f60373a987d8fe777046078abe7fbcc4700e137cbfec6bf75b669a4c2c59"


# refused command lines: each exits 1 with an `error:` line
REFUSALS = [
    "pair --n 30 --d 3 --k 3 --delta 0.5 --seed 1 --vh-size 5 --retries -3 --out-prefix r",
    "pair --n 30 --d 3 --k 3 --delta 0.5 --seed 1 --vh-size 27 --out-prefix r",
    "pair --n 30 --d 3 --k 3 --delta 0.5 --seed 3 --vh-size 5 --retries 1 --out-prefix r",
    "pair --n 30 --d 3 --k 3 --delta 0.5 --seed 0 --vh-size 20 --retries 5 --out-prefix r",
    "pair --n 60 --d 3 --k 10 --delta 0.5 --seed 1 --vh-size 8 --out-prefix r",
    "experiment --kind solvable --n 200 --d 3 --k 8 --trials 2 --seed 1",
    "experiment --kind trend --n 20,30 --d 3 --k 3 --p 0.1",
    "experiment --kind trend --n 20,30 --d 3 --k 3 --trials 5",
    "experiment --kind trend --n 20,30 --d 3 --k 3 --seed 5",
    "experiment --kind trend --n 20,30 --d 3 --k 3 --workers 2",
    "experiment --kind solvable --n 20 --d 3 --k 3 --trials 5 --i 1",
    "experiment --kind ex --n 12 --d 2 --k 2 --p 0.3 --trials 5 --regime vc",
    "experiment --kind quasi --n 20 --d 3 --k 3 --trials 5 --i 0",
    "experiment --kind trend --n 20,30 --d 3 --k 3 --regime ds",
]


def test_cli_refusals(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [_cli(argv.split(), capsys) for argv in REFUSALS]
    assert all(line.count("'error: ") == 1 for line in lines)
    assert _sha(lines) == "a4fb8326c194d0a36024ba9b32db35098d84f6d8d18dac311cf011b7e6c718d1"


# (n, d, p, seed) instances on which some chosen sets dominate every vertex
# with two or more picks left, so the witnesses come out of multi-pick
# completion blocks, in plain and in quasi counts
MULTI_PICK_CASES = [(14, 3, "0.2", 1), (16, 3, "0.15", 0), (12, 3, "0.5", 0)]


def test_multi_pick_completions(tmp_path, capsys, monkeypatch):
    # `hsi solve --witnesses 5` at k = 4 and 5, then library counts at
    # count_cap 1-3 in the pair pass and, at k = 3, on the static-order fallback
    monkeypatch.chdir(tmp_path)
    lines = []
    for j, (n, d, p, seed) in enumerate(MULTI_PICK_CASES):
        lines.append(_cli(["gen", "--n", str(n), "--d", str(d), "--p", p, "--seed", str(seed),
                           "--out", f"m{j}.json"], capsys, [f"m{j}.json"]))
        for k in ("4", "5"):
            for quasi in ([], ["--quasi"]):
                lines.append(_cli(["solve", "--in", f"m{j}.json", "--k", k, *quasi,
                                   "--witnesses", "5"], capsys))
    for pair_pass_max_n, ks in ((solvers.PAIR_PASS_MAX_N, (4, 5)), (0, (3, 4))):
        monkeypatch.setattr(solvers, "PAIR_PASS_MAX_N", pair_pass_max_n)
        for n, d, p, seed in MULTI_PICK_CASES:
            g = _instance(n, d, float(p), seed)
            for k in ks:
                for fn in (enumerate_dominating_sets, enumerate_quasi_dominating_sets):
                    for cap in (1, 2, 3):
                        rep = fn(g, k, witness_cap=5, count_cap=cap)
                        lines.append(repr((pair_pass_max_n, n, seed, k, cap, rep.count,
                                           rep.witnesses, rep.subsets_examined, rep.capped,
                                           rep.missed_vertices)))
    assert _sha(lines) == "9bf3d19a8dd591458b5ae5ac9b63bbc1957aa03795836a950e486a620dd8644b"


def test_cli_gen_d2_large(tmp_path, capsys, monkeypatch):
    # d = 2 at calibrated p, where the lowest colex digit c_1 is read beside
    # c_2 up to n - 1 = 16,383, the vertex limit
    monkeypatch.chdir(tmp_path)
    lines = [_cli(["gen", "--n", str(n), "--d", "2", "--k", str(k), "--delta", "0.5",
                   "--seed", str(seed), "--out", "g.json"], capsys, ["g.json"])
             for n, k, seed in ((2000, 200, 1), (16384, 4000, 2))]
    assert _sha(lines) == "192ea5dbfe00a3661c0e52f28f587495df2c2c984a95495d1dd4324208463164"
