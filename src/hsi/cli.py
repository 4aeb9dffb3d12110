"""Command-line front end.

Exit codes: `solve` returns 0 when a set was found, 2 when none exists, and 4
when the subset budget refuses the job; `experiment` returns 0 when every
hard gate passes and 5 otherwise; any other failure exits 1 with a message.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .experiments import (
    DegenerateEstimate,
    GateFailure,
    failed_gates,
    mc_expected_count,
    mc_pair_correlation,
    mc_quasi_frequency,
    mc_solvable_and_unique,
    ratio_trend,
    records_to_csv,
    write_csv,
)
from .hypergraph import (
    as_vertex_set,
    domination_status,
    read_instance,
    write_instance,
)
from .model import ModelParams, calibrate_p, choose_k, sample_hypergraph
from .moments import ds_correlation_ratio, expected_count, quasi_second_moment, second_moment
from .rng import STREAM_SWAP, SplitMix64, derive_seed
from .solvers import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    enumerate_dominating_sets,
    enumerate_quasi_dominating_sets,
)
from .swaps import (
    ProtectedRegion,
    RetriesExhausted,
    SwapNotFound,
    backward_swap,
    build_selfref_pair,
    forward_swap,
)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _cmd_calibrate(args) -> int:
    p_star = calibrate_p(args.n, args.d, args.k, args.delta, tol=args.tol)
    value = expected_count(args.n, args.d, args.k, p_star)
    print(f"p_star={p_star!r}")
    print(f"expected_count={value!r}")
    print(f"residual={abs(value - args.delta)!r}")
    return 0


def _params(args, n: int) -> ModelParams:
    """k defaults to choose_k(n); p is --p, or calibrated to --delta (0.5 if
    unset); the seed is --seed, 0 if unset."""
    k = args.k if args.k is not None else choose_k(n)
    delta = args.delta if args.delta is not None else 0.5
    seed = args.seed if args.seed is not None else 0
    if args.p is not None:
        return ModelParams(n=n, d=args.d, k=k, p=args.p, delta=delta, seed=seed)
    return ModelParams.calibrated(n=n, d=args.d, k=k, delta=delta, seed=seed)


def _cmd_gen(args) -> int:
    params = _params(args, args.n)
    g = sample_hypergraph(params)
    write_instance(g, args.out, p=params.p, seed=args.seed)
    print(f"wrote {args.out}: n={g.n} d={g.d} edges={len(g.edges)}")
    return 0


def _cmd_moments(args) -> int:
    report = second_moment(args.n, args.d, args.k, args.p)
    quasi = quasi_second_moment(args.n, args.d, args.k, args.p) if args.quasi else None
    header = ["i", "F", "ds_ratio", "Phi", "W", "P1", "P2", "P3", "P4"]
    rows = [",".join(header)]
    for i in range(args.k + 1):
        ratio = ds_correlation_ratio(args.n, args.d, args.k, i, args.p)
        cells = [str(i), repr(report.f_terms[i]), repr(ratio.value)]
        if quasi is not None:
            cells += [str(quasi.phi_terms[i]), repr(quasi.w_terms[i]),
                      repr(quasi.p1_terms[i]), repr(quasi.p2_terms[i]),
                      repr(quasi.p3_terms[i]), repr(quasi.p4_terms[i])]
        else:
            cells += [""] * 6
        rows.append(",".join(cells))
    text = "\n".join(rows) + "\n"
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# expected_count={report.expected_count!r} second_moment={report.second_moment!r} "
          f"ratio_to_square={report.ratio_to_square!r}", file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    if args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    g, _ = read_instance(args.infile)
    fn = enumerate_quasi_dominating_sets if args.quasi else enumerate_dominating_sets
    try:
        report = fn(g, args.k, witness_cap=args.witnesses, budget=args.budget)
    except BudgetExceeded as exc:
        print(json.dumps({"error": "budget-exceeded", "required": exc.required,
                          "budget": exc.budget}))
        return 4
    print(json.dumps(dataclasses.asdict(report)))
    return 0 if report.count > 0 else 2


def _cmd_swap(args) -> int:
    g, _ = read_instance(args.infile)
    s = _int_list(args.set)
    region = ProtectedRegion(vertices=as_vertex_set(_int_list(args.vh or ""), g.n))
    rng = SplitMix64(derive_seed(args.seed, STREAM_SWAP)) if args.seed is not None else None
    if args.dir == "forward":
        g2, record = forward_swap(g, s, region=region, rng=rng)
    else:
        undominated = domination_status(g, s).undominated
        if not undominated:
            raise SwapNotFound("backward swap needs a quasi-dominating set, or one whose "
                               "undominated vertices share an edge; this set dominates",
                               "not-quasi")
        # backward_swap checks that one edge holds the other undominated vertices
        g2, record = backward_swap(g, s, undominated[0], region=region, rng=rng)
    write_instance(g2, f"{args.out}_swapped.json")
    with open(f"{args.out}_record.json", "w") as fh:
        json.dump(dataclasses.asdict(record), fh)
    print(f"wrote {args.out}_swapped.json and {args.out}_record.json")
    return 0


def _cmd_pair(args) -> int:
    params = ModelParams.calibrated(n=args.n, d=args.d, k=args.k,
                                    delta=args.delta, seed=args.seed)
    # a swap moves two distinct edges, d + 1 vertices at least, outside the region
    if not 0 <= args.vh_size <= args.n - args.d - 1:
        raise ValueError(f"--vh-size must lie in [0, n-d-1] = [0, {args.n - args.d - 1}] "
                         f"to leave room for a swap, got {args.vh_size}")
    region = ProtectedRegion(vertices=tuple(range(args.vh_size)))
    result = build_selfref_pair(params, region=region, retry_budget=args.retries)
    prefix = args.out_prefix
    write_instance(result.g_yes, f"{prefix}_yes.json", p=params.p, seed=params.seed)
    write_instance(result.g_no, f"{prefix}_no.json", p=params.p, seed=params.seed)
    with open(f"{prefix}_record.json", "w") as fh:
        json.dump({
            "swap": dataclasses.asdict(result.record),
            "attempts": result.attempts,
            "yes_count": result.report_yes.count,
            "no_count": result.report_no.count,
            "flip_succeeded": result.flip_succeeded,
        }, fh)
    print(f"wrote {prefix}_yes.json, {prefix}_no.json, {prefix}_record.json "
          f"(attempts={result.attempts}, flip={'yes' if result.flip_succeeded else 'no'})")
    return 0


def _cmd_experiment(args) -> int:
    ns = _int_list(args.n)
    workers = args.workers
    if workers is not None and workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    # an option the kind would not read is refused rather than ignored
    if args.kind != "pair-corr":
        for opt, value in (("--i", args.i), ("--regime", args.regime)):
            if value is not None:
                raise ValueError(
                    f"{opt} belongs to --kind pair-corr; --kind {args.kind} takes no {opt}")
    if args.kind == "trend":
        if args.p is not None:
            raise ValueError("--kind trend calibrates p to --delta at each n, so it takes no --p")
        for opt, value in (("--trials", args.trials), ("--seed", args.seed),
                           ("--workers", workers)):
            if value is not None:
                raise ValueError(
                    f"--kind trend computes its ratios without trials, so it takes no {opt}")
        records = ratio_trend([_params(args, n) for n in ns])
    else:
        if len(ns) != 1:
            raise ValueError(f"--kind {args.kind} takes a single n")
        params = _params(args, ns[0])
        trials = args.trials if args.trials is not None else 1000
        if args.kind == "ex":
            records = [mc_expected_count(params, trials, workers=workers)]
        elif args.kind == "solvable":
            records = list(mc_solvable_and_unique(params, trials, workers=workers))
        elif args.kind == "pair-corr":
            regime = "vertex-cover" if args.regime == "vc" else "dominating-set"
            records = [mc_pair_correlation(params, args.i if args.i is not None else 0, trials,
                                           regime=regime, workers=workers)]
        else:
            records = list(mc_quasi_frequency(params, trials, workers=workers))
    if args.csv:
        write_csv(records, args.csv)
    sys.stdout.write(records_to_csv(records))
    return 5 if failed_gates(records) else 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsi")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("calibrate", help="solve for the edge probability hitting a target expected count")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--delta", type=float, required=True)
    pc.add_argument("--tol", type=float, default=1e-12)
    pc.set_defaults(fn=_cmd_calibrate)

    pg = sub.add_parser("gen", help="sample an instance and write the canonical file")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--d", type=int, required=True)
    pg.add_argument("--k", type=int)
    group = pg.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float)
    group.add_argument("--delta", type=float)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out", required=True)
    pg.set_defaults(fn=_cmd_gen)

    pm = sub.add_parser("moments", help="emit per-overlap moment terms as CSV")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--d", type=int, required=True)
    pm.add_argument("--k", type=int, required=True)
    pm.add_argument("--p", type=float, required=True)
    pm.add_argument("--quasi", action="store_true")
    pm.add_argument("--csv")
    pm.set_defaults(fn=_cmd_moments)

    ps = sub.add_parser("solve", help="exhaustively count dominating (or quasi-dominating) k-sets")
    ps.add_argument("--in", dest="infile", required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--quasi", action="store_true")
    ps.add_argument("--witnesses", type=int, default=8)
    ps.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ps.set_defaults(fn=_cmd_solve)

    pw = sub.add_parser("swap", help="apply a symmetry swap to an instance")
    pw.add_argument("--in", dest="infile", required=True)
    pw.add_argument("--set", required=True, help="comma-separated vertex ids")
    pw.add_argument("--dir", choices=("forward", "backward"), required=True)
    pw.add_argument("--vh", help="comma-separated protected vertices")
    pw.add_argument("--seed", type=int)
    pw.add_argument("--out", required=True, help="output path prefix")
    pw.set_defaults(fn=_cmd_swap)

    pp = sub.add_parser("pair", help="build a solvable/unsolvable instance pair")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--d", type=int, required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--delta", type=float, required=True)
    pp.add_argument("--seed", type=int, required=True)
    pp.add_argument("--vh-size", type=int, required=True)
    pp.add_argument("--retries", type=int, default=200)
    pp.add_argument("--out-prefix", required=True)
    pp.set_defaults(fn=_cmd_pair)

    pe = sub.add_parser("experiment", help="run a Monte-Carlo comparison against the formulas")
    pe.add_argument("--kind", choices=("ex", "solvable", "pair-corr", "quasi", "trend"),
                    required=True)
    pe.add_argument("--n", required=True, help="vertex count; comma list for --kind trend")
    pe.add_argument("--d", type=int, required=True)
    pe.add_argument("--k", type=int)
    pe.add_argument("--delta", type=float)
    pe.add_argument("--p", type=float)
    pe.add_argument("--trials", type=int, help="default 1000; not for --kind trend")
    pe.add_argument("--seed", type=int, help="default 0; not for --kind trend")
    pe.add_argument("--csv")
    pe.add_argument("--i", type=int, help="overlap for --kind pair-corr (default 0)")
    pe.add_argument("--regime", choices=("ds", "vc"), help="for --kind pair-corr (default ds)")
    pe.add_argument("--workers", type=int, help="not for --kind trend")
    pe.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetExceeded, SwapNotFound, RetriesExhausted, GateFailure,
            DegenerateEstimate, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
