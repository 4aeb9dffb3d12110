"""Seeded Monte-Carlo experiments against the closed-form quantities.

Per-trial seeds are derived from the master seed and the trial index through
the documented PRNG, so trials are order-independent; every per-trial summary
is a small integer tuple and aggregation is plain integer addition, which
makes results bit-identical no matter how trials are split across workers.
Worker count comes from the call site or the HSI_THREADS environment variable.
A trial kernel is a function of the trial index alone; an estimator binds its
parameters with `functools.partial`.  A call with w workers forks
min(w, trials) - 1 children, which inherit the kernel, so it never starts more
processes than it has trials, and more than one worker needs `os.fork`.
Before forking, it writes one 4-byte token per chunk of trials (at most
`_MAX_TOKENS` chunks, one trial each up to that many trials) into a pipe and
takes chunk 0 itself, so trial 0 runs in the calling process; the caller and
its children then claim the other chunks until the pipe is empty, so a slower
process runs fewer.  Which process runs which of those trials is unspecified;
each process sends back its trial count with its sums, and a call whose counts
do not add up to `trials` raises `ChildProcessError`.
A trial kernel never builds a `Hypergraph`: it draws its instance's edge
ranks, reads their digit columns (`model._colex_digits`) and counts on the
bitmasks `hypergraph._closed_bits` or `_edge_bits` builds from them, the
masks of the instance `sample_hypergraph` would give for the trial's seed.

Hard gates assert only exact facts: exactness at d=2, vertex-cover exactness,
Markov consistency, and the analytic trend of the second-moment ratio.  The
asymptotic bands are attached to the records as report-only context.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .hypergraph import _closed_bits, _dominated, _edge_bits
from .model import ModelParams, _colex_digits, _edge_ranks, calibrate_p
from .moments import (
    ds_correlation_ratio,
    expected_count,
    quasi_expected,
    second_moment,
    solvability_bounds,
    vc_correlation_ratio,
)
from .rng import STREAM_TRIALS, indexed_seed
from .solvers import _search

CSV_SCHEMA = "hsi.estimates.v1"
_CSV_COLUMNS = ("schema", "name", "estimate", "std_error", "trials",
                "formula_value", "bound_lo", "bound_hi", "verdict", "counts")


class GateFailure(RuntimeError):
    """A hard consistency gate failed."""


class DegenerateEstimate(RuntimeError):
    """An estimator's denominator came out empty."""


@dataclass(frozen=True)
class EstimateRecord:
    name: str
    estimate: float
    std_error: float
    trials: int
    formula_value: Optional[float] = None
    bound_lo: Optional[float] = None
    bound_hi: Optional[float] = None
    verdict: str = "report-only"
    counts: Optional[dict] = field(default=None)


def _verdict(estimate: float, formula: float, se: float, enforced: bool) -> str:
    if not enforced:
        return "report-only"
    return "within-3SE" if abs(estimate - formula) <= 3.0 * se else "outside"


def _mean_se(s1: int, s2: int, n: int) -> tuple[float, float]:
    mean = s1 / n
    if n < 2:
        return mean, 0.0
    var = (s2 - n * mean * mean) / (n - 1)
    return mean, math.sqrt(max(var, 0.0) / n)


def _prop_se(hits: int, n: int) -> tuple[float, float]:
    p = hits / n
    return p, math.sqrt(p * (1.0 - p) / n)


# -- trial kernels ------------------------------------------------------------


def _trial_digits(params: ModelParams, t: int) -> list[list[int]]:
    """The digit columns of trial t's instance."""
    ranks = _edge_ranks(params, indexed_seed(params.seed, STREAM_TRIALS, t))
    return _colex_digits(params.n, params.d, ranks)


def _trial_solvable(params: ModelParams, t: int):
    masks = _closed_bits(params.n, _trial_digits(params, t))
    c = _search(params.n, masks, params.k, 0, None, quasi=False).count
    return (c, c * c, 1 if c > 0 else 0, 1 if c == 1 else 0)


def _trial_pair(params: ModelParams, i: int, regime: str, t: int):
    k = params.k
    s1 = (1 << k) - 1  # vertices 0..k-1
    s2 = s1 << (k - i)  # vertices k-i..2k-i-1
    edges = _edge_bits(params.n, _trial_digits(params, t))
    if regime == "vertex-cover":
        y1 = all(m & s1 for m in edges)
        y2 = all(m & s2 for m in edges)
    else:  # S dominates iff S and the edges meeting it cover every vertex
        full = (1 << params.n) - 1
        y1 = _dominated(edges, s1) == full
        y2 = _dominated(edges, s2) == full
    return (1 if (y1 and y2) else 0, 1 if y1 else 0, 1 if y2 else 0)


def _trial_quasi(params: ModelParams, t: int):
    n, k = params.n, params.k
    masks = _closed_bits(n, _trial_digits(params, t))
    q = _search(n, masks, k, 0, None, quasi=True).count
    has_dom = _search(n, masks, k, 0, 1, quasi=False).count > 0
    nodom = 0 if has_dom else 1
    return (q, q * q, nodom, 1 if (nodom and q > 0) else 0)


def _sum_rows(rows: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Column sums of integer rows; () when there are none."""
    rows = iter(rows)
    total = list(next(rows, ()))
    for row in rows:
        for j, x in enumerate(row):
            total[j] += x
    return tuple(total)


def _resolve_workers(workers: Optional[int]) -> int:
    source = "workers"
    if workers is None:
        source = "HSI_THREADS"
        raw = os.environ.get("HSI_THREADS", "1") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"HSI_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"{source} above 1 needs os.fork, which this platform lacks")
    return workers


# Most chunk tokens in a pooled call's pipe.  At 4 bytes each they fill at
# most 4 KiB, which a pipe holds even at its one-page minimum, so the single
# write before the forks never blocks.
_MAX_TOKENS = 1024


def _claimed_rows(trial: Callable[[int], Sequence[int]], tokens: int, size: int,
                  trials: int, token: bytes) -> Iterator[tuple[int, ...]]:
    """(1, *trial(t)) for each trial t of chunk `token`, then of each chunk
    this process claims from the token pipe `tokens`, until it is empty.
    Chunk c holds the trials [c * size, (c + 1) * size) below `trials`; the
    leading 1 counts the trials run."""
    while token:
        lo = int.from_bytes(token, "little") * size
        for row in map(trial, range(lo, min(lo + size, trials))):
            yield (1, *row)
        token = os.read(tokens, 4)


def _fork_claimer(trial: Callable[[int], Sequence[int]], tokens: int, size: int, trials: int):
    """Fork a child that claims chunks from the token pipe `tokens` and
    pickles the column sums of its `_claimed_rows`, () if it claimed none, or
    the exception it raised, into a result pipe; return the child's pid and
    the result pipe's read end."""
    import pickle
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1  # unless the whole payload is written
        try:
            os.close(r)
            try:
                payload = _sum_rows(_claimed_rows(trial, tokens, size, trials,
                                                   os.read(tokens, 4)))
            except Exception as exc:
                payload = exc
            with open(w, "wb") as fh:
                pickle.dump(payload, fh)
            code = 0
        finally:
            os._exit(code)  # never the parent's atexit handlers or stdio buffers
    os.close(w)
    return pid, open(r, "rb")


def _run_trials(trial: Callable[[int], Sequence[int]], trials: int,
                workers: Optional[int]) -> tuple[int, ...]:
    """Sum trial(t) over t in [0, trials).

    A pooled call writes one token per chunk of trials into a pipe; the
    calling process and its children claim chunks from it until it is empty,
    so a slower process runs fewer trials."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    procs = min(_resolve_workers(workers), trials)
    if procs == 1:
        return _sum_rows(map(trial, range(trials)))
    import pickle  # only pooled calls pay the imports
    import signal
    size = -(-trials // _MAX_TOKENS)  # trials per chunk
    tokens, w = os.pipe()
    children = []  # (pid, read end), until the child is reaped
    try:
        with open(w, "wb") as fh:  # closed, so a claimer reads EOF once the tokens run out
            fh.write(b"".join(c.to_bytes(4, "little") for c in range(-(-trials // size))))
        first = os.read(tokens, 4)  # chunk 0, with trial 0, runs in this process
        for _ in range(procs - 1):
            children.append(_fork_claimer(trial, tokens, size, trials))
        parts = [_sum_rows(_claimed_rows(trial, tokens, size, trials, first))]
        while children:
            pid, fh = children[0]
            with fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            try:
                part = pickle.loads(data)
            except Exception:  # a truncated or empty payload
                part = None
            if isinstance(part, Exception):
                raise part
            if not isinstance(part, tuple):
                raise ChildProcessError(
                    f"child process {pid} gave no result; "
                    f"exit status {os.waitstatus_to_exitcode(status)}")
            parts.append(part)
        ran, *total = _sum_rows(parts)
        if ran != trials:
            raise ChildProcessError(f"the pooled processes ran {ran} of {trials} trials")
        return tuple(total)
    finally:  # on an error here or in a child, the children still running are dropped
        os.close(tokens)
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# -- experiments --------------------------------------------------------------


def mc_expected_count(params: ModelParams, trials: int,
                      workers: Optional[int] = None) -> EstimateRecord:
    """Mean exact dominating-set count vs the first-moment formula.

    Enforced at d=2 where the formula is exact; report-only for d>=3.
    """
    s1, s2, _, _ = _run_trials(partial(_trial_solvable, params), trials, workers)
    mean, se = _mean_se(s1, s2, trials)
    formula = expected_count(params.n, params.d, params.k, params.p)
    return EstimateRecord(
        name=f"expected-count[n={params.n},d={params.d},k={params.k}]",
        estimate=mean, std_error=se, trials=trials, formula_value=formula,
        verdict=_verdict(mean, formula, se, enforced=(params.d == 2)),
        counts={"sum": s1, "sum_sq": s2},
    )


def mc_solvable_and_unique(params: ModelParams, trials: int,
                           workers: Optional[int] = None) -> tuple[EstimateRecord, EstimateRecord]:
    """Empirical Pr(X>0) and Pr(X=1) with the analytic bands attached.

    The only hard gate is Markov consistency: Pr(X>0) <= E[X] + 3 SE on the
    same sample.  The second-moment band and the uniqueness bound hold only
    asymptotically, so they ride along as report-only context.
    """
    s1, s2, n_exist, n_unique = _run_trials(partial(_trial_solvable, params), trials, workers)
    mean_count, se_count = _mean_se(s1, s2, trials)
    p_exist, se_exist = _prop_se(n_exist, trials)
    p_unique, se_unique = _prop_se(n_unique, trials)
    bounds = solvability_bounds(params.delta)
    if p_exist > mean_count + 3.0 * se_count:
        raise GateFailure(
            f"Markov violated: Pr(X>0)={p_exist} > E[X]+3SE={mean_count + 3.0 * se_count}")
    solvable = EstimateRecord(
        name=f"solvable[n={params.n},d={params.d},k={params.k}]",
        estimate=p_exist, std_error=se_exist, trials=trials,
        bound_lo=bounds.lower, bound_hi=bounds.upper,
        counts={"exist": n_exist, "count_sum": s1, "count_sum_sq": s2},
    )
    unique = EstimateRecord(
        name=f"unique[n={params.n},d={params.d},k={params.k}]",
        estimate=p_unique, std_error=se_unique, trials=trials,
        bound_lo=bounds.unique_lower,
        counts={"unique": n_unique},
    )
    return solvable, unique


def _ratio_se(n11: int, n1: int, n2: int, trials: int) -> tuple[float, float]:
    """Delta-method standard error for (n11/N) / ((n1/N)(n2/N))."""
    a, b, c = n11 / trials, n1 / trials, n2 / trials
    ratio = a / (b * c)
    ga = 1.0 / (b * c)
    gb = -a / (b * b * c)
    gc = -a / (b * c * c)
    var = (ga * ga * a * (1 - a) + gb * gb * b * (1 - b) + gc * gc * c * (1 - c)
           + 2 * ga * gb * a * (1 - b) + 2 * ga * gc * a * (1 - c)
           + 2 * gb * gc * (a - b * c)) / trials
    return ratio, math.sqrt(max(var, 0.0))


def mc_pair_correlation(params: ModelParams, i: int, trials: int,
                        regime: str = "dominating-set",
                        workers: Optional[int] = None) -> EstimateRecord:
    """Empirical joint/product-of-marginals for two fixed i-overlapping sets.

    Enforced in the vertex-cover regime, where the formula is exact for every
    d.  The dominating-set ratio neglects the shared edges between the two
    substitution classes, so it is biased low for i < k at *every* d
    (exhaustive enumeration over all graphs confirms this even at d=2);
    there it is report-only, and enforcement applies only at i=k with d=2,
    where the ratio reduces to the exact 1/Pr(S dominates).
    """
    if regime not in ("dominating-set", "vertex-cover"):
        raise ValueError(f"unknown regime {regime!r}")
    if not 0 <= i <= params.k or 2 * params.k - i > params.n:
        raise ValueError(f"overlap i={i} incompatible with n={params.n}, k={params.k}")
    n11, n1, n2 = _run_trials(partial(_trial_pair, params, i, regime), trials, workers)
    if n1 == 0 or n2 == 0:
        raise DegenerateEstimate(f"zero marginal estimate (n1={n1}, n2={n2})")
    ratio, se = _ratio_se(n11, n1, n2, trials)
    if regime == "vertex-cover":
        formula = vc_correlation_ratio(params.n, params.k, i, params.p, params.d).value
        enforced = True
    else:
        formula = ds_correlation_ratio(params.n, params.d, params.k, i, params.p).value
        enforced = params.d == 2 and i == params.k
    return EstimateRecord(
        name=f"pair-corr[{regime},n={params.n},d={params.d},k={params.k},i={i}]",
        estimate=ratio, std_error=se, trials=trials, formula_value=formula,
        verdict=_verdict(ratio, formula, se, enforced),
        counts={"both": n11, "s1": n1, "s2": n2},
    )


def mc_quasi_frequency(params: ModelParams, trials: int,
                       workers: Optional[int] = None) -> tuple[EstimateRecord, EstimateRecord]:
    """Mean exact quasi-dominating count vs its formula, plus the conditional
    frequency of a quasi set existing given no dominating set (report-only)."""
    s1, s2, n_nodom, n_qn = _run_trials(partial(_trial_quasi, params), trials, workers)
    mean, se = _mean_se(s1, s2, trials)
    formula = quasi_expected(params.n, params.d, params.k, params.p).value
    mean_rec = EstimateRecord(
        name=f"quasi-count[n={params.n},d={params.d},k={params.k}]",
        estimate=mean, std_error=se, trials=trials, formula_value=formula,
        verdict=_verdict(mean, formula, se, enforced=(params.d == 2)),
        counts={"sum": s1, "sum_sq": s2},
    )
    if n_nodom == 0:
        raise DegenerateEstimate("conditioning event empty: every trial had a dominating set")
    p_cond, se_cond = _prop_se(n_qn, n_nodom)
    cond_rec = EstimateRecord(
        name=f"quasi-given-unsolvable[n={params.n},d={params.d},k={params.k}]",
        estimate=p_cond, std_error=se_cond, trials=n_nodom,
        counts={"nodom": n_nodom, "quasi_and_nodom": n_qn},
    )
    return mean_rec, cond_rec


def ratio_trend(params_list: Sequence[ModelParams]) -> list[EstimateRecord]:
    """Analytic E[X^2]/E[X]^2 at calibrated p along an increasing-n ladder.

    Appends an indicator record asserting the excess over 1 + 1/delta is
    non-increasing along the ladder.
    """
    if not params_list:
        raise ValueError("need at least one parameter point")
    ns = [p.n for p in params_list]
    if ns != sorted(ns):
        raise ValueError("parameter points must be in increasing n order")
    records = []
    excesses = []
    for pr in params_list:
        p_star = calibrate_p(pr.n, pr.d, pr.k, pr.delta)
        ratio = second_moment(pr.n, pr.d, pr.k, p_star).ratio_to_square
        reference = 1.0 + 1.0 / pr.delta
        excesses.append(ratio - reference)
        records.append(EstimateRecord(
            name=f"ratio-trend[n={pr.n},d={pr.d},k={pr.k}]",
            estimate=ratio, std_error=0.0, trials=0, formula_value=reference,
        ))
    monotone = all(b <= a + 1e-12 * max(abs(a), 1.0)
                   for a, b in zip(excesses, excesses[1:]))
    records.append(EstimateRecord(
        name="ratio-trend-excess-non-increasing",
        estimate=1.0 if monotone else 0.0, std_error=0.0,
        trials=len(excesses), formula_value=1.0,
        verdict="within-3SE" if monotone else "outside",
    ))
    return records


# -- CSV persistence ----------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return '"' + json.dumps(value, sort_keys=True, separators=(",", ":")).replace('"', '""') + '"'
    return str(value)


def records_to_csv(records: Sequence[EstimateRecord]) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_csv_cell(v) for v in (
            CSV_SCHEMA, r.name, r.estimate, r.std_error, r.trials,
            r.formula_value, r.bound_lo, r.bound_hi, r.verdict, r.counts)))
    return "\n".join(lines) + "\n"


def write_csv(records: Sequence[EstimateRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(records_to_csv(records))


def failed_gates(records: Sequence[EstimateRecord]) -> list[EstimateRecord]:
    return [r for r in records if r.verdict == "outside"]
