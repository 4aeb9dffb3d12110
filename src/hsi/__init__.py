"""Dominating sets on random d-uniform hypergraphs: generators, closed-form
moments, exact enumeration oracles, degree-preserving swap constructions, and
a Monte-Carlo harness tying them together."""

from .hypergraph import (
    DominationStatus,
    Hypergraph,
    as_vertex_set,
    domination_status,
    dumps_instance,
    is_dominating_set,
    loads_instance,
    read_instance,
    write_instance,
)
from .model import (
    CalibrationError,
    InstanceTooLarge,
    ModelParams,
    asymptotic_p,
    calibrate_p,
    choose_k,
    count_M,
    count_Mi,
    sample_hypergraph,
)
from .moments import (
    CorrelationRatio,
    MomentReport,
    QuasiExpected,
    QuasiMomentReport,
    SolvabilityBounds,
    ds_correlation_ratio,
    expected_count,
    quasi_expected,
    quasi_second_moment,
    second_moment,
    solvability_bounds,
    vc_correlation_ratio,
)
from .rng import SplitMix64, derive_seed
from .solvers import (
    BudgetExceeded,
    SolveReport,
    enumerate_dominating_sets,
    enumerate_quasi_dominating_sets,
)
from .swaps import (
    PairResult,
    ProtectedRegion,
    RetriesExhausted,
    SwapNotFound,
    SwapRecord,
    SwapRoles,
    backward_swap,
    build_selfref_pair,
    forward_swap,
)
from .experiments import (
    DegenerateEstimate,
    EstimateRecord,
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

__version__ = "0.1.0"
