"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 [--trace 0|1] [--baseline base.json]
                           [--extra]

Runs `bench/run.py` once per (workload, seed) over every workload of
`BENCHMARK.json`, or with `--extra` over the report-only workloads that
`bench/run.py` offers beyond them, one run at a time, for the
`run_seconds` of `BENCHMARK.json`, checking that every run is correct.  It
prints for every metric its median, quartiles and the quartile spread as a
share of the median, next to the bound that `BENCHMARK.json` fixes for
it.  A spread above a third of its bound is flagged.  With `--baseline`,
the medians, quartiles and every run's values are stored in that file as the
section "trace<T> seeds <SEEDS>" (with " extra" appended under `--extra`);
sections of other sweeps already in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = "hsi.bench.baseline.v1"


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--extra", action="store_true",
                        help="sweep the report-only workloads instead")
    args = parser.parse_args(argv)
    gated = [w["name"] for w in spec["workloads"]]
    if args.extra:
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS
        names = [name for name in WORKLOADS if name not in gated]
    else:
        names = gated
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    trace = args.trace
    report, ok, provenance = {}, True, {}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            runs.append((seed, result))
            record = json.loads((HERE / "out" / f"{name}-seed{seed}-trace{trace}.json").read_text())
            provenance = {k: record["provenance"][k]
                          for k in ("cores", "python", "numpy", "hsi", "commit", "platform")}
            print(f"{name} trace {trace} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for metric, first in runs[0][1]["metrics"].items():
            s = _summary([r["metrics"][metric]["value"] for _, r in runs])
            metrics[metric] = {"unit": first["unit"], **s}
            bound = bounds.get(metric)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  <-- spread > bound/3"
            print(f"  {metric:32s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {bound}{flag}")
        report[name] = {"seeds": [seed for seed, _ in runs], "metrics": metrics}

    if args.baseline:
        old = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        sections = old.get("sections", {})
        sections[f"trace{trace} seeds {args.seeds}" + (" extra" if args.extra else "")] = report
        args.baseline.write_text(json.dumps({
            "schema": SCHEMA, "provenance": provenance, "run_seconds": spec["run_seconds"],
            "sections": sections}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
