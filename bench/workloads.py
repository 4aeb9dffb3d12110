"""The benchmark's workloads and their output checks.

`BENCHMARK.json` gates two of them, `mc-solvable-d3` and `pair-build-d3`.
`mc-paircorr-d2` and `analytic-grid` run the same way but are report-only:
see bench/NOTES.md.

Each workload turns (seed, operation index) into `hsi` command lines, runs
them through the in-process entry point, checks the files the commands write,
and returns the operation's integer outcome, which the benchmark compares
between the traced and untraced runs and between worker counts.  The checks
use only the standard library, plus `backward_swap` for the pair round trip.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Invocation:
    """One `hsi.cli.main(argv)` call: exit code, wall time and output."""

    argv: list
    rc: Optional[int]
    seconds: float
    stdout: str
    stderr: str
    exception: Optional[str] = None
    message: str = ""


@dataclass
class OpResult:
    ops: int
    seconds: float
    outcome: object = None
    failure: Optional[dict] = None


@dataclass
class Context:
    seed: int
    workdir: Path
    invoke: Callable[[list], Invocation]
    workers: Optional[int] = None  # overrides the workload's --workers


def call_seed(seed: int, j: int) -> int:
    """The hsi --seed of operation j: consecutive per benchmark seed."""
    return seed * 1_000_000 + j


def failure(inv: Invocation, reason: str) -> dict:
    message = inv.message
    if not message and inv.rc not in (0, None):  # the CLI's "error: ..." line
        message = (inv.stderr.strip().splitlines() or [""])[-1]
    return {"argv": inv.argv, "exit_code": inv.rc, "exception": inv.exception,
            "message": (message or reason)[:300], "reason": reason}


def _digest(*texts: str) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def _checked(inv: Invocation, ops: int, check: Callable[[], tuple]) -> OpResult:
    """The result of a call that exited 0, once `check()` -> (problem,
    outcome) has read its output; output it cannot read is a failure too."""
    try:
        problem, outcome = check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problem, outcome = f"unreadable output: {type(exc).__name__}: {exc}", None
    if problem:
        return OpResult(ops, inv.seconds, failure=failure(inv, f"output check: {problem}"))
    return OpResult(ops, inv.seconds, outcome=outcome)


def _called_ok(inv: Invocation, ops: int) -> Optional[OpResult]:
    if inv.exception is not None:
        return OpResult(ops, inv.seconds, failure=failure(inv, "exception"))
    if inv.rc != 0:
        return OpResult(ops, inv.seconds, failure=failure(inv, f"exit code {inv.rc}"))
    return None


class Workload:
    name: str
    workers = 1
    setup_probes = 5  # fresh-process set-ups per run, besides the in-process one

    def run_op(self, ctx: Context, j: int) -> OpResult:
        raise NotImplementedError

    def setup_op(self, ctx: Context, j: int) -> OpResult:
        """Operation j as the first of a process, for the set-up time."""
        return self.run_op(ctx, j)

    def post_checks(self, ctx: Context) -> tuple[list[dict], dict]:
        """Untimed checks after the loop: (failures, notes for the result file)."""
        return [], {}


# -- Monte-Carlo experiments ----------------------------------------------------

_CSV_COLUMNS = ["schema", "name", "estimate", "std_error", "trials", "formula_value",
                "bound_lo", "bound_hi", "verdict", "counts"]


def _read_estimates(path: Path, trials: int) -> tuple[list[dict], Optional[str]]:
    # The name cell holds unquoted commas ("solvable[n=60,d=3,k=4]"); the
    # counts cell is the only quoted one and comes last, so fields are taken
    # from both ends of each line.
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != _CSV_COLUMNS:
        return [], f"CSV header {lines[:1]}"
    rows = []
    for line in lines[1:]:
        head, sep, counts = line.partition(',"{')
        fields = head.split(",")
        if not sep or len(fields) < 9:
            return rows, f"CSV row {line!r}"
        row = dict(zip(_CSV_COLUMNS[2:9], fields[-7:]))
        row.update(schema=fields[0], name=",".join(fields[1:-7]),
                   counts=json.loads("{" + counts[:-1].replace('""', '"')))
        if row["schema"] != "hsi.estimates.v1" or int(row["trials"]) != trials:
            return rows, f"row {row['name']} has schema {row['schema']}, trials {row['trials']}"
        row["estimate"] = float(row["estimate"])
        rows.append(row)
    return rows, None


def _check_pair_corr(rows: list[dict], t: int) -> Optional[str]:
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    c = rows[0]["counts"]
    both, s1, s2 = c["both"], c["s1"], c["s2"]
    if not (0 <= both <= min(s1, s2) and 0 < s1 <= t and 0 < s2 <= t):
        return f"inconsistent counts {c}"
    ratio = (both / t) / ((s1 / t) * (s2 / t))
    if not math.isclose(rows[0]["estimate"], ratio, rel_tol=1e-12, abs_tol=1e-300):
        return f"estimate {rows[0]['estimate']} != {ratio} from the counts"
    return None


def _check_solvable(rows: list[dict], t: int) -> Optional[str]:
    if len(rows) != 2 or not rows[0]["name"].startswith("solvable[") \
            or not rows[1]["name"].startswith("unique["):
        return f"rows {[r['name'] for r in rows]}"
    c, u = rows[0]["counts"], rows[1]["counts"]
    exist, total, total_sq, unique = c["exist"], c["count_sum"], c["count_sum_sq"], u["unique"]
    if not (0 <= unique <= exist <= t and exist <= total <= total_sq):
        return f"inconsistent counts {c} {u}"
    if rows[0]["estimate"] != exist / t or rows[1]["estimate"] != unique / t:
        return "estimates do not match the counts"
    return None


class MonteCarlo(Workload):
    def __init__(self, name, kind_argv, trials, workers, check, setup_refusal=None):
        self.name = name
        self.kind_argv, self.trials, self.workers = kind_argv, trials, workers
        self.check, self.setup_refusal = check, setup_refusal

    def argv(self, ctx: Context, j: int, trials: Optional[int] = None) -> list:
        return ["experiment", *self.kind_argv,
                "--workers", str(ctx.workers or self.workers),
                "--trials", str(trials or self.trials),
                "--seed", str(call_seed(ctx.seed, j)),
                "--csv", str(ctx.workdir / "estimates.csv")]

    def run_op(self, ctx: Context, j: int, trials: Optional[int] = None) -> OpResult:
        t = trials or self.trials
        inv = ctx.invoke(self.argv(ctx, j, t))
        bad = _called_ok(inv, t)
        if bad:
            return bad

        def check():
            rows, problem = _read_estimates(ctx.workdir / "estimates.csv", t)
            return (problem or self.check(rows, t),
                    tuple(json.dumps(r["counts"], sort_keys=True) for r in rows))
        return _checked(inv, t, check)

    def setup_op(self, ctx: Context, j: int) -> OpResult:
        """The call at one trial: an operation here is a trial, and the rest
        of a full call is steady-state work.  `setup_refusal` is the error
        the command may answer a single trial with after doing all the work."""
        r = self.run_op(ctx, j, trials=1)
        if r.failure and self.setup_refusal and r.failure["exit_code"] == 1 \
                and r.failure["message"].startswith(f"error: {self.setup_refusal}"):
            r.failure = None
        return r


class SolvableMC(MonteCarlo):
    brute_force_instances = 2

    def post_checks(self, ctx: Context) -> tuple[list[dict], dict]:
        """Recount single-trial instances with the plain brute force below."""
        from hsi import ModelParams, sample_hypergraph
        from hsi.rng import STREAM_TRIALS, indexed_seed

        opts = dict(zip(self.kind_argv[::2], self.kind_argv[1::2]))
        n, d, k, delta = (int(opts["--n"]), int(opts["--d"]), int(opts["--k"]),
                          float(opts["--delta"]))
        failures, recounts = [], []
        for i in range(self.brute_force_instances):
            j = 900_000 + i
            r = self.run_op(ctx, j, trials=1)
            if r.failure:
                failures.append(r.failure)
                continue
            count = json.loads(r.outcome[0])["count_sum"]
            params = ModelParams.calibrated(n=n, d=d, k=k, delta=delta, seed=call_seed(ctx.seed, j))
            g = sample_hypergraph(params.with_seed(indexed_seed(params.seed, STREAM_TRIALS, 0)))
            plain = count_dominating_plain(g.n, g.edges, params.k)
            recounts.append({"seed": params.seed, "cli_count": count, "plain_count": plain})
            if plain != count:
                failures.append({"argv": self.argv(ctx, j, 1), "exit_code": 0,
                                 "exception": None, "reason": "brute-force recount",
                                 "message": f"CLI count {count} != plain count {plain}"})
        return failures, {"brute_force_recounts": recounts}


def closed_masks(n: int, edges) -> list[int]:
    masks = [1 << v for v in range(n)]
    for e in edges:
        m = 0
        for v in e:
            m |= 1 << v
        for v in e:
            masks[v] |= m
    return masks


def count_dominating_plain(n: int, edges, k: int) -> int:
    """Dominating k-sets of (n, edges) by exhaustive search in plain Python,
    sharing no code with the library's counter."""
    masks = closed_masks(n, edges)
    full = (1 << n) - 1

    def count(start: int, left: int, acc: int) -> int:
        if left == 1:
            return sum(1 for m in masks[start:] if acc | m == full)
        return sum(count(v + 1, left - 1, acc | masks[v]) for v in range(start, n - left + 1))

    return count(0, k, 0)


# -- pair builder ---------------------------------------------------------------


class PairBuild(Workload):
    name = "pair-build-d3"
    n, d, k, delta, vh_size, retries = 60, 3, 4, 0.5, 8, 400

    def argv(self, ctx: Context, j: int) -> list:
        return ["pair", "--n", str(self.n), "--d", str(self.d), "--k", str(self.k),
                "--delta", str(self.delta), "--vh-size", str(self.vh_size),
                "--retries", str(self.retries), "--seed", str(call_seed(ctx.seed, j)),
                "--out-prefix", str(ctx.workdir / "pair")]

    def run_op(self, ctx: Context, j: int) -> OpResult:
        inv = ctx.invoke(self.argv(ctx, j))
        bad = _called_ok(inv, 1)
        if bad:
            return bad

        def check():
            paths = [ctx.workdir / f"pair_{part}.json" for part in ("yes", "no", "record")]
            texts = [p.read_text() for p in paths]
            for p in paths:
                p.unlink()
            yes, no, record = (json.loads(t) for t in texts)
            return self.check(yes, no, record), (
                record["attempts"], record["yes_count"], record["no_count"],
                record["flip_succeeded"], _digest(texts[0], texts[1]))
        return _checked(inv, 1, check)

    def check(self, yes: dict, no: dict, record: dict) -> Optional[str]:
        """The deterministic guarantees of the swap construction."""
        from hsi import Hypergraph, SwapRoles, backward_swap

        n = yes["n"]
        if (n, yes["d"], no["n"], no["d"]) != (self.n, self.d, self.n, self.d):
            return "instance sizes"
        e_yes = {tuple(e) for e in yes["edges"]}
        e_no = {tuple(e) for e in no["edges"]}
        swap = record["swap"]
        roles = swap["roles"]
        if record["yes_count"] != 1:
            return f"yes instance has {record['yes_count']} dominating sets"
        if record["flip_succeeded"] != (record["no_count"] == 0):
            return "flip flag disagrees with the no-instance count"
        if len(e_yes) != len(e_no) or _degrees(n, e_yes) != _degrees(n, e_no):
            return "edge count or degrees changed"
        region = set(range(self.vh_size))
        if set(swap["protected"]["vertices"]) != region:
            return f"protected region {swap['protected']['vertices']}"
        if {e for e in e_yes if region.intersection(e)} != \
                {e for e in e_no if region.intersection(e)}:
            return "an edge touching the protected region changed"
        if e_yes - e_no != {tuple(e) for e in swap["removed"]} or \
                e_no - e_yes != {tuple(e) for e in swap["added"]}:
            return "the edge difference is not the recorded swap"
        s = _unique_dominating_set(n, e_yes, self.k, roles["u"], roles["u_prime"])
        if s is None:
            return "no unique dominating set through the recorded u, u'"
        v = roles["v"]
        s_mask = sum(1 << x for x in s)
        if closed_masks(n, e_no)[v] & s_mask:
            return f"pivot {v} is still dominated after the swap"
        swap_roles = SwapRoles(**{key: tuple(val) if isinstance(val, list) else val
                                  for key, val in roles.items()})
        try:
            restored, _ = backward_swap(Hypergraph(n, self.d, e_no), s, v, roles=swap_roles)
        except Exception as exc:  # any refusal is a failed round trip
            return f"backward swap raised {type(exc).__name__}: {exc}"
        if set(restored.edges) != e_yes:
            return "backward swap did not restore the original instance"
        return None


def _degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return deg


def _unique_dominating_set(n, edges, k, u, u_prime) -> Optional[tuple]:
    masks = closed_masks(n, edges)
    full = (1 << n) - 1
    base = masks[u] | masks[u_prime]
    rest = [x for x in range(n) if x not in (u, u_prime)]
    found = []
    for extra in itertools.combinations(rest, k - 2):
        acc = base
        for x in extra:
            acc |= masks[x]
        if acc == full:
            found.append(tuple(sorted((u, u_prime, *extra))))
    return found[0] if len(found) == 1 else None


# -- analytic grid --------------------------------------------------------------

_GRID_D = (2, 3, 4)
_GRID_N = (50, 200, 1000, 10**4, 10**5, 10**6)
_MOMENT_HEADER = ["i", "F", "ds_ratio", "Phi", "W", "P1", "P2", "P3", "P4"]


def _phi0_overflows(n: int, k: int) -> bool:
    # Phi(0) = C(n,k) C(n-k,k) is the largest pair count; quasi_second_moment
    # multiplies it into a float, which raises OverflowError past float range.
    return math.log(math.comb(n, k)) + math.log(math.comb(n - k, k)) > \
        math.log(sys.float_info.max)


def _grid_points() -> tuple[list, list]:
    """(counted points, known-overflow points), each a list of (d, n, k)."""
    counted, overflow = [], []
    for d in _GRID_D:
        for n in _GRID_N:
            r = round(math.log(n))
            for k in sorted({2, 3, r, 2 * r, 30, 60}):
                if 2 * k <= n:
                    (overflow if _phi0_overflows(n, k) else counted).append((d, n, k))
    return counted, overflow


class AnalyticGrid(Workload):
    name = "analytic-grid"

    def __init__(self):
        self.points, self.overflow_points = _grid_points()
        self._passes: dict = {}

    def schedule(self, seed: int, j: int) -> tuple:
        """((d, n, k), delta) of operation j: each pass visits every point once,
        in a seeded order with seeded deltas."""
        npass, idx = divmod(j, len(self.points))
        key = (seed, npass)
        if key not in self._passes:
            rng = random.Random(f"analytic-grid/{seed}/{npass}")
            order = list(self.points)
            rng.shuffle(order)
            self._passes = {key: [(pt, f"{rng.uniform(0.1, 0.9):.4f}") for pt in order]}
        return self._passes[key][idx]

    def run_op(self, ctx: Context, j: int) -> OpResult:
        point, delta = self.schedule(ctx.seed, j)
        return self.run_point(ctx, point, delta)

    def run_point(self, ctx: Context, point: tuple, delta: str) -> OpResult:
        d, n, k = point
        size = ["--n", str(n), "--d", str(d), "--k", str(k)]
        cal = ctx.invoke(["calibrate", *size, "--delta", delta])
        bad = _called_ok(cal, 1)
        if bad:
            return bad
        fields = {}

        def check_calibration():
            fields.update(line.split("=", 1) for line in cal.stdout.split())
            p, residual = float(fields["p_star"]), float(fields["residual"])
            ok = 0.0 < p <= 1.0 and residual <= 1e-9 * float(delta)
            return (None if ok else f"calibration {fields}"), None
        r = _checked(cal, 1, check_calibration)
        if r.failure:
            return r
        csv_path = ctx.workdir / "moments.csv"
        mom = ctx.invoke(["moments", *size, "--p", fields["p_star"], "--quasi",
                          "--csv", str(csv_path)])

        def check_moments():
            text = csv_path.read_text()
            phis = [line.split(",")[3] for line in text.splitlines()[1:]]
            return _check_moments(text, k, mom.stderr), (fields["p_star"], _digest(*phis))
        r = _called_ok(mom, 1) or _checked(mom, 1, check_moments)
        r.seconds = cal.seconds + mom.seconds
        return r

    def post_checks(self, ctx: Context) -> tuple[list[dict], dict]:
        """Run the points whose Phi(0) exceeds float range once, outside the
        timed loop, and record how each ends."""
        probes = []
        for point in self.overflow_points:
            r = self.run_point(ctx, point, "0.5")
            entry = {"point": dict(zip("dnk", point)), "ok": r.failure is None}
            if r.failure:
                entry.update({key: r.failure[key] for key in ("exit_code", "exception", "message")})
            probes.append(entry)
        return [], {"known_defect_probe": probes}


def _check_moments(text: str, k: int, stderr: str) -> Optional[str]:
    lines = text.splitlines()
    if lines[0].split(",") != _MOMENT_HEADER or len(lines) != k + 2:
        return f"moments CSV shape ({len(lines)} lines)"
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if int(cells[0]) != i or int(cells[3]) <= 0:
            return f"row {i}: {cells[:4]}"
        values = [float(c) for j, c in enumerate(cells) if j not in (0, 3)]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite value in row {i}: {line}"
    summary = dict(tok.split("=", 1) for tok in stderr.split() if "=" in tok)
    if not all(math.isfinite(float(v)) for v in summary.values()) or len(summary) != 3:
        return f"summary line {stderr.strip()!r}"
    return None


# Trials per mc-paircorr-d2 call: a fixed set dominates with probability
# about 0.0012 here, so fewer trials risk a zero marginal count, which the
# command refuses (DegenerateEstimate); at 15000 that chance is about 4e-8.
# A one-trial set-up call is nearly always refused that way.
WORKLOADS = {w.name: w for w in (
    MonteCarlo(
        "mc-paircorr-d2",
        ["--kind", "pair-corr", "--n", "12", "--d", "2", "--k", "2", "--p", "0.3", "--i", "1"],
        trials=15000, workers=1, check=_check_pair_corr,
        setup_refusal="zero marginal estimate"),
    SolvableMC(
        "mc-solvable-d3",
        ["--kind", "solvable", "--n", "60", "--d", "3", "--k", "4", "--delta", "0.5"],
        trials=100, workers=2, check=_check_solvable),
    PairBuild(),
    AnalyticGrid(),
)}
