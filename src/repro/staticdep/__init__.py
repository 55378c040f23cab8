"""Static dependence analysis and the speculation linter.

The dynamic machinery elsewhere in the reproduction *discovers*
dependences by running programs; this package *predicts* them from the
program text alone: a CFG builder (:mod:`repro.staticdep.cfg`), a
conservative reaching-stores dataflow producing the static candidate
pair set (:mod:`repro.staticdep.reaching`), a cross-checker that scores
that set against the dynamic oracle (:mod:`repro.staticdep.checker`),
a symbolic affine abstract interpreter that sharpens the candidate set
into MUST / MAY / NO alias verdicts with static dependence distances
(:mod:`repro.staticdep.symbolic`), a diagnostics engine
(:mod:`repro.staticdep.lint`), a taint-extended speculative-leak
classifier (:mod:`repro.staticdep.spectaint`), and a whole-program
dependence graph with executable backward slices and Prophet-style
predictor-slice extraction (:mod:`repro.staticdep.pdg`).
"""

from repro.staticdep.analysis import (
    StaticDependenceAnalysis,
    SymbolicDependenceAnalysis,
    SymbolicPair,
    analyze_program,
    analyze_program_symbolic,
)
from repro.staticdep.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.staticdep.checker import (
    CrossCheckResult,
    cross_check,
    cross_check_workload,
)
from repro.staticdep.lint import (
    ALL_RULE_IDS,
    ERROR,
    FAIL_ON_CHOICES,
    INFO,
    RULE_REGISTRY,
    WARNING,
    Diagnostic,
    fails_threshold,
    has_errors,
    lint_config,
    lint_labels,
    lint_path,
    lint_program,
    lint_source,
    normalize_severity,
    sort_diagnostics,
)
from repro.staticdep.pdg import (
    CTRL_EDGE,
    DEFAULT_SLICE_BUDGET,
    LOOP_CARRIED_CUTOFF,
    MEM_EDGE,
    REG_EDGE,
    TOO_EXPENSIVE,
    WARMABLE,
    BackwardSlice,
    PDGEdge,
    PredictorSlice,
    ProgramDependenceGraph,
    SliceBudget,
    SliceCost,
    build_pdg,
    extract_predictor_slices,
    pdg_report,
    slice_report,
)
from repro.staticdep.reaching import (
    AccessExpr,
    ReachingStores,
    StaticPair,
    StoreFact,
    access_expr,
    may_alias,
)
from repro.staticdep.spectaint import (
    GATED,
    LEAK,
    NO_LEAK,
    PUBLIC,
    SECRET,
    TAINT_TOP,
    LeakVerdict,
    SpecTaintAnalysis,
    TaintReplay,
    TaintSolution,
    Transmitter,
    analyze_spec_leaks,
    region_taint,
    taint_replay,
    valid_ranges,
)
from repro.staticdep.symbolic import (
    MAY,
    MUST,
    NO,
    SymbolicSolution,
    SymValue,
    classify_addresses,
)

__all__ = [
    "ALL_RULE_IDS",
    "AccessExpr",
    "FAIL_ON_CHOICES",
    "GATED",
    "LEAK",
    "LeakVerdict",
    "NO_LEAK",
    "PUBLIC",
    "RULE_REGISTRY",
    "SECRET",
    "SpecTaintAnalysis",
    "TAINT_TOP",
    "TaintReplay",
    "TaintSolution",
    "Transmitter",
    "analyze_spec_leaks",
    "fails_threshold",
    "normalize_severity",
    "region_taint",
    "taint_replay",
    "valid_ranges",
    "MAY",
    "MUST",
    "NO",
    "SymValue",
    "SymbolicDependenceAnalysis",
    "SymbolicPair",
    "SymbolicSolution",
    "analyze_program_symbolic",
    "classify_addresses",
    "BackwardSlice",
    "BasicBlock",
    "CTRL_EDGE",
    "ControlFlowGraph",
    "CrossCheckResult",
    "DEFAULT_SLICE_BUDGET",
    "Diagnostic",
    "LOOP_CARRIED_CUTOFF",
    "MEM_EDGE",
    "PDGEdge",
    "PredictorSlice",
    "ProgramDependenceGraph",
    "REG_EDGE",
    "SliceBudget",
    "SliceCost",
    "TOO_EXPENSIVE",
    "WARMABLE",
    "build_pdg",
    "extract_predictor_slices",
    "pdg_report",
    "slice_report",
    "ERROR",
    "INFO",
    "ReachingStores",
    "StaticDependenceAnalysis",
    "StaticPair",
    "StoreFact",
    "WARNING",
    "access_expr",
    "analyze_program",
    "build_cfg",
    "cross_check",
    "cross_check_workload",
    "has_errors",
    "lint_config",
    "lint_labels",
    "lint_path",
    "lint_program",
    "lint_source",
    "may_alias",
    "sort_diagnostics",
]
