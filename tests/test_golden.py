"""Golden digests: sampled instances, exact counts and `hsi pair` files.

Each test hashes the output of a fixed list of inputs and compares it with the
sha256 recorded when the digest was introduced.  Any change to the sampler's
draws, the counter's results or the pair builder's files shows up here, so a
change meant to be bit-identical must leave every digest as it is.
"""

import hashlib
import math
from pathlib import Path

import hsi.cli as cli
from hsi.model import ModelParams, calibrate_p, sample_hypergraph
from hsi.solvers import enumerate_dominating_sets, enumerate_quasi_dominating_sets

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


def test_full_counts():
    lines = []
    for n, d, p, k in [(12, 2, 0.3, 3), (20, 3, 0.05, 3), (12, 4, 0.02, 2),
                       (60, 3, SAMPLE_CASES[2][2], 4)]:
        for seed in SEEDS if n < 60 else range(4):
            g = _instance(n, d, p, seed, k)
            for fn in (enumerate_dominating_sets, enumerate_quasi_dominating_sets):
                rep = fn(g, k, witness_cap=5)
                assert rep.subsets_examined == math.comb(n, k)
                lines.append(repr((n, d, seed, k, rep.count, rep.witnesses,
                                   rep.subsets_examined, rep.missed_vertices)))
    assert _sha(lines) == "ab6f40e11aef4d699969c7e6075d0f59011877d481c49d0ccbe9c5b4956ea9cf"


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
