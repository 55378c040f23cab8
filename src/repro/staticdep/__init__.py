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

The package-level names load their module on first access (a PEP 562
module ``__getattr__``): a simulation that binds a slice-warming policy
loads the symbolic classifier and the dependence graph, not the linter,
the taint classifier or the oracle cross-checker.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_names

if TYPE_CHECKING:
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

#: module -> the package-level names it defines, imported on first
#: access, so a process loads only the analyses it runs
_MODULES = {
    "analysis": (
        "StaticDependenceAnalysis", "SymbolicDependenceAnalysis", "SymbolicPair",
        "analyze_program", "analyze_program_symbolic",
    ),
    "cfg": ("BasicBlock", "ControlFlowGraph", "build_cfg"),
    "checker": ("CrossCheckResult", "cross_check", "cross_check_workload"),
    "lint": (
        "ALL_RULE_IDS", "ERROR", "FAIL_ON_CHOICES", "INFO", "RULE_REGISTRY", "WARNING",
        "Diagnostic", "fails_threshold", "has_errors", "lint_config", "lint_labels",
        "lint_path", "lint_program", "lint_source", "normalize_severity", "sort_diagnostics",
    ),
    "pdg": (
        "CTRL_EDGE", "DEFAULT_SLICE_BUDGET", "LOOP_CARRIED_CUTOFF", "MEM_EDGE", "REG_EDGE",
        "TOO_EXPENSIVE", "WARMABLE", "BackwardSlice", "PDGEdge", "PredictorSlice",
        "ProgramDependenceGraph", "SliceBudget", "SliceCost", "build_pdg",
        "extract_predictor_slices", "pdg_report", "slice_report",
    ),
    "reaching": (
        "AccessExpr", "ReachingStores", "StaticPair", "StoreFact", "access_expr", "may_alias",
    ),
    "spectaint": (
        "GATED", "LEAK", "NO_LEAK", "PUBLIC", "SECRET", "TAINT_TOP", "LeakVerdict",
        "SpecTaintAnalysis", "TaintReplay", "TaintSolution", "Transmitter",
        "analyze_spec_leaks", "region_taint", "taint_replay", "valid_ranges",
    ),
    "symbolic": ("MAY", "MUST", "NO", "SymbolicSolution", "SymValue", "classify_addresses"),
}
_LAZY = {name: module for module, names in _MODULES.items() for name in names}

__getattr__, __all__ = lazy_names(__name__, globals(), _LAZY)
