"""Deterministic simulation of wait-free coloring in asynchronous networks.

Nodes of a simple graph share single-writer registers readable by their
neighbors; an adversary schedules sets of nodes to atomically publish
their state and snapshot their neighborhood, and may crash nodes forever.
The package provides the execution engine, five coloring algorithms over
this model, cover-free set families over finite fields that drive the
color reduction, scheduling adversaries with livelock detection, trace
checkers with embedded golden fixtures, and the signed execution-counting
combinatorics used for symmetry-breaking impossibility arguments.
"""

from .algorithms import (
    ALGORITHM_NAMES,
    Algorithm,
    BuggyFive,
    Composed,
    Identity,
    LinialReduction,
    SaveColors,
    SaveOneMoreColor,
    SixColoring,
    make_algorithm,
    mex,
)
from .coverfree import (
    CoverFreeFamily,
    ReductionSchedule,
    construct_family,
    cover_violation,
    dump_family,
    load_family,
    reduction_schedule,
    verify_coverfree,
)
from .engine import (
    AlgorithmViolation,
    Configuration,
    EngineError,
    LivelockCertificate,
    SchedulingError,
    Trace,
    detect_livelock,
    execute,
    initial_configuration,
    step,
)
from .graphs import Graph, GraphError, build_graph, dump_graph, load_graph, random_tree
from .schedulers import (
    SEARCH_PROPERTIES,
    Scheduling,
    SearchResult,
    adversary_search,
    enumerate_schedulings,
    make_scheduling,
    read_scheduling,
    write_scheduling,
)
from .verify import (
    Verdict,
    check_palette,
    check_parity_reduction,
    check_proper,
    load_trace,
    replay_trace,
    reproduce_table,
    verify_trace_file,
)
from .wsb import (
    binom_divisibility,
    check_input_family,
    classify,
    cycle_input_family,
    enumerate_complete,
    equivalence_class,
    sign,
    toy_algorithms,
    trim,
    univalued_signed_count,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "Algorithm",
    "AlgorithmViolation",
    "BuggyFive",
    "Composed",
    "Configuration",
    "CoverFreeFamily",
    "EngineError",
    "Graph",
    "GraphError",
    "Identity",
    "LinialReduction",
    "LivelockCertificate",
    "ReductionSchedule",
    "SaveColors",
    "SaveOneMoreColor",
    "SchedulingError",
    "Scheduling",
    "SearchResult",
    "SEARCH_PROPERTIES",
    "SixColoring",
    "Trace",
    "Verdict",
    "adversary_search",
    "binom_divisibility",
    "build_graph",
    "check_input_family",
    "check_palette",
    "check_parity_reduction",
    "check_proper",
    "classify",
    "construct_family",
    "cover_violation",
    "cycle_input_family",
    "detect_livelock",
    "dump_family",
    "dump_graph",
    "enumerate_complete",
    "enumerate_schedulings",
    "equivalence_class",
    "execute",
    "initial_configuration",
    "load_family",
    "load_graph",
    "load_trace",
    "make_algorithm",
    "make_scheduling",
    "mex",
    "random_tree",
    "read_scheduling",
    "replay_trace",
    "reproduce_table",
    "sign",
    "step",
    "toy_algorithms",
    "trim",
    "univalued_signed_count",
    "verify_coverfree",
    "verify_trace_file",
    "write_scheduling",
]
