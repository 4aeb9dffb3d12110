"""Span tracer for the traced benchmark run.

Wrappers are installed from outside the library, at the name each caller
looks up (for example `hsi.experiments.sample_hypergraph`, which the trial
kernels resolve at call time), and removed again when the traced loop ends.
Each wrapper records a span (id, parent, operation, name, start, end) and
folds its duration into per-name aggregates as it closes, so self times are
exact for the whole run even though only the first `SPAN_CAP` spans are kept
for the span file.

A span's self time is its duration minus the time covered by its direct
child spans.  Nested calls of the same rng method (the binomial draw splits
itself in two on underflow) are children like any other.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import time
from collections import Counter

_MASK64 = (1 << 64) - 1
# SplitMix64 advances its state by the golden-ratio increment once per
# next_u64 call; multiplying the state delta by the increment's inverse
# mod 2^64 counts the draws without wrapping next_u64 itself.
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)
SPAN_CAP = 20000  # spans kept for the span file; aggregates cover every span


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}  # name -> [self seconds, total seconds, calls]
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # frames: [child seconds, span id, is rng]
        self._ids = itertools.count()

    def wrap(self, name: str, fn, after=None):
        """`fn`, recording a span named `name` per call; `after(tracer, args,
        result)` runs once the span has closed.  An rng span that is not inside
        another one also counts the generator's draws."""
        agg = self.agg.setdefault(name, [0.0, 0.0, 0])
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter
        is_rng = name.startswith("rng.")

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids), is_rng]
            if is_rng:
                outer = parent is None or not parent[2]
                before = args[0]._state
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += dur - frame[0]
                agg[1] += dur
                agg[2] += 1
                if parent is not None:
                    parent[0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent and parent[1], self.op, name, t0, t1))
            if is_rng and outer:
                self.counts["rng.draws"] += ((args[0]._state - before) * _GOLDEN_INV) & _MASK64
            if after is not None:
                after(self, args, result)
            return result

        return functools.wraps(fn)(traced)

    def self_s(self, prefix: str) -> float:
        return sum(a[0] for name, a in self.agg.items() if name.startswith(prefix))

    def total_s(self, name: str) -> float:
        return self.agg.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0.0, 0.0, 0))[2]


def _after_build(tracer, args, _result):
    tracer.counts["hypergraph.instances"] += 1
    tracer.counts["hypergraph.edges"] += len(args[0].edges)


def _after_solve(tracer, _args, report):
    tracer.counts["solvers.units"] += report.subsets_examined
    tracer.counts["solvers.capped"] += 1 if report.capped else 0


def _after_pair(tracer, _args, result):
    tracer.counts["swaps.pairs"] += 1
    tracer.counts["swaps.attempts"] += result.attempts
    tracer.counts["swaps.non_unique"] += result.non_unique
    tracer.counts["swaps.swap_failures"] += result.swap_failures
    tracer.counts["swaps.flips"] += 1 if result.flip_succeeded else 0


def _masks_property(tracer, prop):
    build = tracer.wrap("hypergraph.masks", prop.fget)

    def getter(g):
        return build(g) if g._nb_masks is None else prop.fget(g)
    return property(getter, doc=prop.__doc__)


# (module, attribute, span name, after-hook): each entry is the name a caller
# resolves at call time, so replacing it there routes that caller's calls
# through the wrapper.  Names absent from the library are skipped.
_FUNCTIONS = [
    ("hsi.experiments", "sample_hypergraph", "model.sample", None),
    ("hsi.swaps", "sample_hypergraph", "model.sample", None),
    ("hsi.model", "calibrate_p", "model.calibrate", None),
    ("hsi.cli", "calibrate_p", "model.calibrate", None),
    ("hsi.experiments", "enumerate_dominating_sets", "solvers.count", _after_solve),
    ("hsi.swaps", "enumerate_dominating_sets", "solvers.count", _after_solve),
    ("hsi.cli", "expected_count", "moments.expected_count", None),
    # calibrate_p imports expected_count from hsi.moments at each call
    ("hsi.moments", "expected_count", "moments.expected_count", None),
    ("hsi.cli", "second_moment", "moments.second_moment", None),
    ("hsi.cli", "quasi_second_moment", "moments.quasi_second_moment", None),
    ("hsi.cli", "ds_correlation_ratio", "moments.ds_correlation_ratio", None),
    ("hsi.experiments", "ds_correlation_ratio", "moments.ds_correlation_ratio", None),
    ("hsi.experiments", "solvability_bounds", "moments.solvability_bounds", None),
    ("hsi.cli", "build_selfref_pair", "swaps.build_pair", _after_pair),
    ("hsi.swaps", "forward_swap", "swaps.forward_swap", None),
    ("hsi.cli", "mc_pair_correlation", "experiments.mc", None),
    ("hsi.cli", "mc_solvable_and_unique", "experiments.mc", None),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the library's layer boundaries through `tracer` while active."""
    from hsi.hypergraph import Hypergraph
    from hsi.rng import SplitMix64

    patches = []  # (owner, attribute, replacement)
    for module, attr, name, after in _FUNCTIONS:
        owner = importlib.import_module(module)
        if hasattr(owner, attr):
            patches.append((owner, attr, tracer.wrap(name, getattr(owner, attr), after)))
    for attr in ("binomial", "randbelow"):
        patches.append((SplitMix64, attr, tracer.wrap(f"rng.{attr}", SplitMix64.__dict__[attr])))
    patches.append((Hypergraph, "__init__",
                    tracer.wrap("hypergraph.build", Hypergraph.__init__, _after_build)))
    patches.append((Hypergraph, "neighborhood_masks",
                    _masks_property(tracer, Hypergraph.__dict__["neighborhood_masks"])))

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over `ops` operations, as {name: (value, unit)}."""
    c, per_op = tracer.counts, 1.0 / ops
    units, solver_s = c["solvers.units"], tracer.self_s("solvers.")
    pairs = c["swaps.pairs"]
    return {
        "rng.s_per_op": (tracer.self_s("rng.") * per_op, "s"),
        "rng.draws_per_op": (c["rng.draws"] * per_op, "count"),
        "model.sample_s_per_op": (tracer.self_s("model.sample") * per_op, "s"),
        "model.calibrate_s": (_mean(tracer.total_s("model.calibrate"),
                                    tracer.calls("model.calibrate")), "s"),
        "hypergraph.build_s_per_op": (tracer.self_s("hypergraph.build") * per_op, "s"),
        "hypergraph.masks_s_per_op": (tracer.self_s("hypergraph.masks") * per_op, "s"),
        "hypergraph.edges_per_op": (_mean(c["hypergraph.edges"], c["hypergraph.instances"]),
                                    "count"),
        "solvers.s_per_op": (solver_s * per_op, "s"),
        "solvers.units_per_op": (units * per_op, "count"),
        "solvers.ns_per_unit": (_mean(solver_s * 1e9, units), "ns"),
        "solvers.capped_frac": (_mean(c["solvers.capped"], tracer.calls("solvers.count")),
                                "ratio"),
        "moments.s_per_op": (tracer.self_s("moments.") * per_op, "s"),
        "swaps.s_per_op": (tracer.self_s("swaps.") * per_op, "s"),
        "swaps.attempts_per_pair": (_mean(c["swaps.attempts"], pairs), "count"),
        "swaps.non_unique_per_pair": (_mean(c["swaps.non_unique"], pairs), "count"),
        "swaps.swap_failures_per_pair": (_mean(c["swaps.swap_failures"], pairs), "count"),
        "swaps.flip_rate": (_mean(c["swaps.flips"], pairs), "ratio"),
        "experiments.self_s_per_op": (tracer.self_s("experiments.") * per_op, "s"),
        "cli.self_s_per_op": (tracer.self_s("cli.") * per_op, "s"),
    }


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0
