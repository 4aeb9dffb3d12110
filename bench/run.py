"""Benchmark of the hsi command-line tools.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a closed loop with one client: each
`hsi.cli.main(argv)` call starts when the previous one has returned.  The
library is imported from `src/` of the checkout this file sits in.

With `--trace 0` it reports the end-to-end metrics: throughput, per-operation
latency, set-up time and peak memory.  With `--trace 1` it runs the same loop
with span wrappers installed (one worker) and reports the per-layer metrics.
It then replays the first operations traced and untraced, back to back, to
compare their integer outcomes and measure the tracing overhead.  Output
checks run outside the timed region in both modes.  The last line of
standard output is one JSON object; a fuller record goes to
`bench/out/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SCHEMA = "hsi.bench.v1"
REPLAY_SHARE = 0.1  # traced run: the replay covers this share of the traced loop's time

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Context, Invocation, MonteCarlo  # noqa: E402


def _import_hsi():
    """Import the library from this checkout's src/, timing the import."""
    if not (SRC / "hsi" / "__init__.py").is_file():
        raise SystemExit(f"error: no hsi package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hsi.cli
    seconds = time.perf_counter() - t0
    if Path(hsi.__file__).resolve().parent != SRC / "hsi":
        raise SystemExit(f"error: imported hsi from {hsi.__file__}, not from {SRC}")
    return hsi, seconds


def _invoker(cli, tracer=None):
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)

    def invoke(argv: list) -> Invocation:
        out, err = io.StringIO(), io.StringIO()
        exception, message = None, ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught exception is a failed operation
            rc, exception, message = None, type(exc).__name__, str(exc)
        seconds = time.perf_counter() - t0
        return Invocation(argv, rc, seconds, out.getvalue(), err.getvalue(), exception, message)
    return invoke


def _loop(workload, ctx: Context, seconds: float, tracer=None) -> list:
    """Closed loop until `seconds` of call time have been measured."""
    results, busy, j = [], 0.0, 0
    while busy < seconds:
        if tracer is not None:
            tracer.op = j
        r = workload.run_op(ctx, j)
        results.append(r)
        busy += r.seconds
        j += 1
    return results


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_probe(workload, seed: int, j: int) -> dict:
    """Set-up in a fresh process: import, then operation j as its first."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(j),
           "--workload", workload.name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        return {"failure": {"argv": cmd, "exit_code": proc.returncode, "exception": None,
                            "reason": "set-up probe", "message": proc.stderr.strip()[-300:]}}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _first_op(workload, ctx: Context, import_s: float, j: int = 0) -> dict:
    argvs = []

    def invoke(argv):
        argvs.append([a.replace(str(ctx.workdir), "<work>") for a in argv])
        return ctx.invoke(argv)

    r = workload.setup_op(Context(ctx.seed, ctx.workdir, invoke, ctx.workers), j)
    return {"import_s": import_s, "first_op_s": r.seconds,
            "setup_s": import_s + r.seconds, "hsi_argv": argvs, "failure": r.failure}


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(hsi, args, workload, workers: int, first_op: dict) -> dict:
    import numpy
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hsi": hsi.__version__,
        "commit": _commit(),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": args.seed,
        "workers": workers,
        "trace": args.trace,
        "seconds": args.seconds,
        "argv": sys.argv,
        "first_op_hsi_argv": first_op["hsi_argv"],
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _p90(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _replay(variants: dict, count: int, expected: list) -> tuple[dict, list]:
    """Re-run operations 0..count-1 once per variant, a callable j -> OpResult.

    The variants of one operation run back to back, in an order that rotates
    with j, so drift in the host's speed falls on each of them alike.
    Returns (call time per variant, mismatches against `expected`)."""
    seconds, failures = dict.fromkeys(variants, 0.0), []
    names = list(variants)
    for j in range(count):
        first = j % len(names)
        for name in names[first:] + names[:first]:
            r = variants[name](j)
            seconds[name] += r.seconds
            if r.failure:
                failures.append(r.failure)
            elif r.outcome != expected[j]:
                failures.append({"argv": None, "exit_code": 0, "exception": None,
                                 "reason": f"outcome mismatch at op {j} ({name})",
                                 "message": f"{r.outcome!r} != {expected[j]!r}"})
    return seconds, failures


def run_untraced(hsi, workload, args, ctx: Context, import_s: float) -> dict:
    setups = [_first_op(workload, ctx, import_s)]
    results = _loop(workload, ctx, args.seconds)
    failures = [r.failure for r in results if r.failure]
    attempted = sum(r.ops for r in results)
    failed = sum(r.ops for r in results if r.failure)

    checks = {}
    if workload.workers > 1:  # results must not depend on the worker count
        ctx1 = Context(ctx.seed, ctx.workdir, ctx.invoke, workers=1)
        n = min(2, len(results))
        _, bad = _replay({"workers=1": lambda j: workload.run_op(ctx1, j)}, n,
                         [r.outcome for r in results])
        failures += bad
        failed += sum(results[j].ops for j in range(n)) if bad else 0
        checks["workers_1_rerun_ops"] = n
    bad, notes = workload.post_checks(ctx)
    failures += bad
    failed += len(bad)
    checks.update(notes)

    # Each fresh-process set-up runs a different first operation, so the
    # median does not hang on the cost of one input.
    for j in range(1, workload.setup_probes + 1):
        setups.append(_setup_probe(workload, args.seed, j))
    setup_failures = [s["failure"] for s in setups if s.get("failure")]
    failures += setup_failures
    failed += len(setup_failures)
    setup_s = [s["setup_s"] for s in setups if not s.get("failure")]

    busy = sum(r.seconds for r in results)
    latency_ms = [r.seconds / r.ops * 1e3 for r in results]
    metrics = {
        "ops_per_s": (attempted / busy, "1/s"),
        "op_p50_ms": (statistics.median(latency_ms), "ms"),
        "op_p90_ms": (_p90(latency_ms), "ms"),
        "setup_s": (statistics.median(setup_s) if setup_s else 0.0, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    samples = {"calls": len(results), "latency_samples": len(latency_ms),
               "setup_samples": len(setups), "busy_s": busy,
               "error_rate": failed / attempted if attempted else 0.0,
               "latency_ms": latency_ms}
    return {"metrics": metrics, "samples": samples, "setups": setups, "checks": checks,
            "attempted": attempted, "failed": failed, "failures": failures}


def run_traced(hsi, workload, args, ctx: Context, import_s: float) -> dict:
    import tracing

    ctx1 = Context(ctx.seed, ctx.workdir, ctx.invoke, workers=1)
    warm = _first_op(workload, ctx1, import_s)
    tracer = tracing.Tracer()
    traced_ctx = Context(ctx.seed, ctx.workdir, _invoker(hsi.cli, tracer), workers=1)
    with tracing.installed(tracer):
        results = _loop(workload, traced_ctx, args.seconds, tracer)
    failures = [r.failure for r in results if r.failure]
    attempted = sum(r.ops for r in results)
    failed = sum(r.ops for r in results if r.failure)
    if warm["failure"]:
        failures.append(warm["failure"])
        failed += 1
    outcomes = [r.outcome for r in results]

    # Replay a prefix: traced and untraced with one worker for the overhead,
    # and on the Monte-Carlo workloads untraced with two workers for the
    # speed-up.  Every variant must give the traced loop's integer outcomes.
    busy, count, prefix_s = sum(r.seconds for r in results), 0, 0.0
    while count < len(results) and prefix_s < REPLAY_SHARE * busy:
        prefix_s += results[count].seconds
        count += 1
    replay_tracer = tracing.Tracer()
    replay_ctx = Context(ctx.seed, ctx.workdir, _invoker(hsi.cli, replay_tracer), workers=1)

    def traced(j):
        with tracing.installed(replay_tracer):
            return workload.run_op(replay_ctx, j)

    variants = {"traced": traced, "workers=1": lambda j: workload.run_op(ctx1, j)}
    if isinstance(workload, MonteCarlo):
        ctx2 = Context(ctx.seed, ctx.workdir, ctx.invoke, workers=2)
        variants["workers=2"] = lambda j: workload.run_op(ctx2, j)
    replay_s, bad = _replay(variants, count, outcomes)
    failures += bad
    speedup = replay_s["workers=1"] / replay_s["workers=2"] if "workers=2" in replay_s else 0.0
    failed += sum(results[j].ops for j in range(count)) if bad else 0
    bad, notes = workload.post_checks(ctx1)
    failures += bad
    failed += len(bad)

    metrics = tracing.layer_metrics(tracer, attempted)
    metrics["experiments.speedup"] = (speedup, "ratio")
    metrics["trace.overhead_frac"] = (replay_s["traced"] / replay_s["workers=1"] - 1.0, "ratio")
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps({
        "fields": ["id", "parent", "op", "name", "start", "end"],
        "spans": tracer.spans, "span_cap": tracing.SPAN_CAP,
        "aggregates": {"fields": ["self_s", "total_s", "calls"], **tracer.agg},
        "counts": tracer.counts}))
    samples = {"traced_ops": attempted, "calls": len(results), "busy_s": busy,
               "replayed_calls": count, "spans_kept": len(tracer.spans),
               "error_rate": failed / attempted if attempted else 0.0}
    checks = {"outcomes_compared": count, **notes}
    return {"metrics": metrics, "samples": samples, "setups": [warm], "checks": checks,
            "attempted": attempted, "failed": failed, "failures": failures,
            "spans_file": str(spans_path.relative_to(ROOT))}


def _print_report(name: str, args, record: dict) -> None:
    s = record["samples"]
    print(f"# {name} seed={args.seed} trace={args.trace}: {s['calls']} calls, "
          f"{record['attempted']} ops, {record['failed']} failed "
          f"(error_rate={s['error_rate']:.6g})")
    for metric, (value, unit) in record["metrics"].items():
        print(f"{metric} = {value:.6g} {unit}")
    for key in ("latency_samples", "setup_samples", "replayed_calls"):
        if key in s:
            print(f"# {key} = {s[key]}")
    for key, value in record["checks"].items():
        print(f"# check {key}: {json.dumps(value)}")
    for f in record["failures"]:
        print(f"# FAILED {f['reason']}: exit={f['exit_code']} {f['exception'] or ''} "
              f"{f['message']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, metavar="OP", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    hsi, import_s = _import_hsi()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, work, _invoker(hsi.cli))
    try:
        if args.setup_probe is not None:
            print(json.dumps(_first_op(workload, ctx, import_s, args.setup_probe)))
            return 0
        run = run_traced if args.trace else run_untraced
        record = run(hsi, workload, args, ctx, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = record["failed"] == 0 and not record["failures"]
    _print_report(workload.name, args, record)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    workers = 1 if args.trace else workload.workers
    provenance = _provenance(hsi, args, workload, workers, record["setups"][0])
    out_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"schema": SCHEMA, "provenance": provenance, **record,
                                    "metrics": metrics, "correct": correct}, indent=1) + "\n")
    print(f"# record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
