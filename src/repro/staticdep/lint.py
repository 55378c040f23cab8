"""The speculation linter: structural diagnostics for programs and
speculation configs.

Every rule emits :class:`Diagnostic` records rather than raising, so a
single run reports everything wrong at once.  Severities follow the
usual compiler convention — ``error`` findings mean the program (or the
config) will misbehave and make ``repro lint`` exit non-zero; warnings
flag likely mistakes; infos are advisory.

Rule catalogue (stable ids, referenced from the docs):

============================  ========  ==================================================
rule id                       severity  finding
============================  ========  ==================================================
``undefined-label``           error     a control instruction targets a label no line defines
``duplicate-label``           error     the same label is defined on two lines
``parse-error``               error     the source does not assemble at all
``misaligned-offset``         error     a memory offset is not word-aligned
``negative-address``          error     a constant (zero-base) access has a negative address
``secret-range-invalid``      error     a ``.secret`` range is negative, inverted, or
                                        not word-aligned
``spec-leak``                 error     a store→load pair leaks transient secrets with an
                                        open mis-speculation window (symbolic mode only)
``unreachable-block``         warning   no path from the entry reaches a basic block
``zero-reg-write``            warning   an instruction writes the hard-wired zero register
``unwritten-reg``             warning   an instruction reads a register nothing ever writes
``dead-store``                warning   a store provably observed by no load
``mdpt-undersized``           warning   the MDPT cannot hold the program's static pair set
``mdst-undersized``           warning   the MDST cannot hold the in-flight pair instances
``must-alias-pair``           warning   a cross-task pair provably aliases; blind speculation
                                        on it squashes every time (symbolic mode only)
``dist-over-mdst``            warning   a proven dependence distance exceeds the MDST
                                        capacity (symbolic mode only)
``spec-leak-gated``           warning   a transient-secret pair closed only by MDPT priming
                                        (symbolic mode only)
``secret-dependent-address``  warning   a memory access address is provably secret-derived
                                        (symbolic mode only)
``secret-dependent-branch``   warning   a branch or jump direction is provably
                                        secret-derived (symbolic mode only)
``no-task-marker``            info      the program defines no Multiscalar tasks
``secret-range-untouched``    info      a valid ``.secret`` range no memory access can
                                        reach (symbolic mode only)
============================  ========  ==================================================

Entry points: :func:`lint_program` for assembled programs,
:func:`lint_source` for assembly text (adds the source-level label
rules that cannot survive assembly), and :func:`lint_config` for
speculation-hardware capacity checks.  Passing ``symbolic=True`` to the
program/source/path entry points swaps the one-bit reaching analysis
for the symbolic affine classifier: the shared rules (notably
``dead-store``) run on the refined pair set, the two symbolic-only
alias rules are enabled, and — when the program declares ``.secret``
ranges — the speculative-leak rule pack
(:mod:`repro.staticdep.spectaint`) runs as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set

from repro.isa.opcodes import Opcode
from repro.isa.program import Program, ProgramError
from repro.isa.registers import ZERO, register_name
from repro.staticdep.analysis import (
    StaticDependenceAnalysis,
    SymbolicDependenceAnalysis,
    analyze_program,
    analyze_program_symbolic,
)

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}

#: ``--fail-on`` spellings accepted by the CLI.  ``note`` and ``warn``
#: are the conventional compiler aliases for our ``info``/``warning``.
FAIL_ON_CHOICES = ("error", "warning", "warn", "info", "note")

_FAIL_ON_ALIASES = {"note": INFO, "warn": WARNING}


def normalize_severity(name: str) -> str:
    """Resolve a ``--fail-on`` spelling to a canonical severity."""
    lowered = name.lower()
    severity = _FAIL_ON_ALIASES.get(lowered, lowered)
    if severity not in _SEVERITY_ORDER:
        raise ValueError("unknown severity %r" % (name,))
    return severity


def fails_threshold(diagnostics: Sequence["Diagnostic"], fail_on: str = ERROR) -> bool:
    """True when any finding is at or above the ``fail_on`` severity."""
    limit = _SEVERITY_ORDER[normalize_severity(fail_on)]
    return any(_SEVERITY_ORDER.get(d.severity, 9) <= limit for d in diagnostics)


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding.

    ``line`` is the 1-based source line of the offending instruction
    when the program came from assembly text; diagnostics anchored to
    the whole program (``pc=None``) carry the entry block's first
    instruction line, and programs built through the Assembler DSL have
    no lines at all.
    """

    severity: str
    rule_id: str
    pc: Optional[int]
    message: str
    line: Optional[int] = None

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_json(self) -> Dict[str, object]:
        return {
            "severity": self.severity,
            "rule": self.rule_id,
            "pc": self.pc,
            "line": self.line,
            "message": self.message,
        }

    # historical name; same payload
    to_dict = to_json

    def __str__(self) -> str:
        where = "pc %d" % self.pc if self.pc is not None else "program"
        if self.line is not None:
            where += " (line %d)" % self.line
        return "%s [%s] %s: %s" % (self.severity, self.rule_id, where, self.message)


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Order findings deterministically by location, then rule.

    The key is (line, pc, severity, rule id, message): location first —
    the reading order of the source file — with program-wide findings
    (no line, no pc) last.  Sorting on the full tuple makes ``--json``
    output and the golden lint fixtures independent of rule evaluation
    order and dict iteration order.
    """
    big = 1 << 30
    return sorted(
        diagnostics,
        key=lambda d: (
            d.line if d.line is not None else big,
            d.pc if d.pc is not None else big,
            _SEVERITY_ORDER.get(d.severity, 9),
            d.rule_id,
            d.message,
        ),
    )


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def _attach_lines(
    diagnostics: List[Diagnostic], program: Program, entry_pc: Optional[int]
) -> List[Diagnostic]:
    """Resolve each diagnostic's source line from its anchor PC.

    Program-wide findings (``pc=None``) fall back to the entry block's
    first instruction — the closest thing a whole-program property has
    to a source location.  Programs assembled through the DSL carry no
    line numbers and pass through unchanged."""
    fallback = program[entry_pc].line if entry_pc is not None else None
    out = []
    for diag in diagnostics:
        line = fallback
        if diag.pc is not None and 0 <= diag.pc < len(program):
            line = program[diag.pc].line
        out.append(replace(diag, line=line) if line != diag.line else diag)
    return out


# ---------------------------------------------------------------------------
# program-level rules (each takes the program + shared analysis)
# ---------------------------------------------------------------------------


def _rule_unreachable_blocks(analysis: StaticDependenceAnalysis) -> List[Diagnostic]:
    out = []
    for block in analysis.cfg.unreachable_blocks():
        out.append(
            Diagnostic(
                WARNING,
                "unreachable-block",
                block.start,
                "basic block at pc %d..%d is unreachable from the entry"
                % (block.start, block.end - 1),
            )
        )
    return out


def _rule_zero_register_writes(analysis: StaticDependenceAnalysis) -> List[Diagnostic]:
    out = []
    for inst in analysis.program:
        if inst.op is Opcode.SW or inst.rd is None:
            continue
        if inst.rd == ZERO:
            out.append(
                Diagnostic(
                    WARNING,
                    "zero-reg-write",
                    inst.pc,
                    "%s writes the hard-wired zero register; the result is discarded"
                    % (inst.op.value,),
                )
            )
    return out


def _rule_unwritten_registers(analysis: StaticDependenceAnalysis) -> List[Diagnostic]:
    written: Set[int] = {ZERO}
    for inst in analysis.program:
        reg = inst.written_register()
        if reg is not None:
            written.add(reg)
    out = []
    for inst in analysis.program:
        for src in inst.sources():
            if src not in written:
                out.append(
                    Diagnostic(
                        WARNING,
                        "unwritten-reg",
                        inst.pc,
                        "%s reads %s, which no instruction ever writes "
                        "(value is always 0)" % (inst.op.value, register_name(src)),
                    )
                )
    return out


def _rule_misaligned_offsets(analysis: StaticDependenceAnalysis) -> List[Diagnostic]:
    out = []
    for inst in analysis.program:
        if inst.is_memory and inst.imm % 4 != 0:
            out.append(
                Diagnostic(
                    ERROR,
                    "misaligned-offset",
                    inst.pc,
                    "%s offset %d is not word-aligned" % (inst.op.value, inst.imm),
                )
            )
    return out


def _rule_negative_addresses(analysis: StaticDependenceAnalysis) -> List[Diagnostic]:
    out = []
    for inst in analysis.program:
        if inst.is_memory and inst.rs1 == ZERO and inst.imm < 0:
            out.append(
                Diagnostic(
                    ERROR,
                    "negative-address",
                    inst.pc,
                    "%s accesses constant address %d, which is negative"
                    % (inst.op.value, inst.imm),
                )
            )
    return out


def _rule_dead_stores(analysis: StaticDependenceAnalysis) -> List[Diagnostic]:
    out = []
    for pc in analysis.dead_stores():
        out.append(
            Diagnostic(
                WARNING,
                "dead-store",
                pc,
                "store at pc %d is provably never observed by any load" % pc,
            )
        )
    return out


def _rule_no_task_marker(analysis: StaticDependenceAnalysis) -> List[Diagnostic]:
    if analysis.program.task_entries():
        return []
    return [
        Diagnostic(
            INFO,
            "no-task-marker",
            None,
            "program defines no tasks (.task); the Multiscalar model will "
            "run it as a single task with no cross-task speculation",
        )
    ]


_PROGRAM_RULES = (
    _rule_unreachable_blocks,
    _rule_zero_register_writes,
    _rule_unwritten_registers,
    _rule_misaligned_offsets,
    _rule_negative_addresses,
    _rule_dead_stores,
    _rule_no_task_marker,
)


# ---------------------------------------------------------------------------
# symbolic-only rules (need the MUST/MAY/NO classification)
# ---------------------------------------------------------------------------


def _rule_must_alias_pairs(
    analysis: SymbolicDependenceAnalysis,
) -> List[Diagnostic]:
    """Flag proven cross-task dependences: the pair aliases on every
    execution, so speculating the load blindly squashes every time its
    producer is still in flight.  These are exactly the pairs worth
    synchronizing (or pre-installing in the MDPT)."""
    out = []
    for pair in analysis.must_pairs():
        if pair.static_distance is None or pair.static_distance < 1:
            continue
        out.append(
            Diagnostic(
                WARNING,
                "must-alias-pair",
                pair.load_pc,
                "load at pc %d provably depends on store at pc %d from "
                "%d task(s) earlier; blind speculation mis-speculates on "
                "every instance" % (pair.load_pc, pair.store_pc, pair.static_distance),
            )
        )
    return out


def _rule_distance_over_mdst(
    analysis: SymbolicDependenceAnalysis, mdst_capacity: int
) -> List[Diagnostic]:
    """Flag proven distances the MDST cannot track: a dependence at
    distance *d* keeps up to *d* dynamic instances of the pair pending
    at once, so a distance beyond the MDST capacity overflows its
    synchronization slots and degrades back to squash-and-replay."""
    out = []
    for pair in analysis.must_pairs():
        if pair.static_distance is None or pair.static_distance <= mdst_capacity:
            continue
        out.append(
            Diagnostic(
                WARNING,
                "dist-over-mdst",
                pair.load_pc,
                "pair (store pc %d, load pc %d) has proven dependence "
                "distance %d, above the MDST capacity %d; its instances "
                "cannot all synchronize"
                % (pair.store_pc, pair.load_pc, pair.static_distance, mdst_capacity),
            )
        )
    return out


# ---------------------------------------------------------------------------
# speculative-leak rules (symbolic mode + declared .secret ranges)
# ---------------------------------------------------------------------------


def _rule_secret_range_invalid(analysis: StaticDependenceAnalysis) -> List[Diagnostic]:
    """Flag degenerate ``.secret`` declarations.  The assembler accepts
    them so one lint run reports every problem at once; the taint
    analysis silently drops them, which would make a typo'd range
    *weaker* than intended — hence an error, not a warning."""
    out = []
    for lo, hi in analysis.program.secret_ranges:
        problems = []
        if lo < 0:
            problems.append("lo is negative")
        if hi < lo:
            problems.append("hi is below lo")
        if lo % 4 != 0 or hi % 4 != 0:
            problems.append("bounds are not word-aligned")
        if problems:
            out.append(
                Diagnostic(
                    ERROR,
                    "secret-range-invalid",
                    None,
                    ".secret range [0x%x, 0x%x] is ignored by the taint "
                    "analysis: %s" % (lo, hi, "; ".join(problems)),
                )
            )
    return out


def _pdg_rules(analysis: SymbolicDependenceAnalysis) -> List[Diagnostic]:
    """Rules over the program dependence graph and its predictor
    slices (:mod:`repro.staticdep.pdg`): dependences whose
    synchronization machinery is provably wasted, and MAY/MUST pairs
    the slice-warmed policy cannot pre-resolve."""
    from repro.staticdep.pdg import (
        LOOP_CARRIED_CUTOFF,
        REG_EDGE,
        TOO_EXPENSIVE,
        build_pdg,
        extract_predictor_slices,
    )
    from repro.staticdep.symbolic import NO

    out = []
    pdg = build_pdg(analysis.program, analysis=analysis)

    # redundant-sync-no-memory-edge: the reaching lattice proposed the
    # pair(s), the classifier proved the addresses never collide — any
    # MDPT entry or synchronization for them is pure overhead.
    no_by_load: Dict[int, List[int]] = {}
    for pair in analysis.no_pairs():
        no_by_load.setdefault(pair.load_pc, []).append(pair.store_pc)
    for load_pc in sorted(no_by_load):
        stores = sorted(no_by_load[load_pc])
        out.append(
            Diagnostic(
                INFO,
                "redundant-sync-no-memory-edge",
                load_pc,
                "load at pc %d carries no memory edge on the PDG to its "
                "%d candidate store(s) (pc %s) — all proven NO-alias; "
                "synchronizing them would be pure overhead"
                % (load_pc, len(stores), ", ".join(str(s) for s in stores)),
            )
        )

    # dead-store-no-consumer: the store does reach loads, but no
    # consuming load's value flows anywhere on the PDG — the dependence
    # edge protects a value nobody reads.
    for store_pc in sorted({e.src for e in pdg.memory_edges if e.label != NO}):
        consumers = [
            e.dst for e in pdg.memory_edges_for_store(store_pc) if e.label != NO
        ]
        if consumers and all(
            not any(s.kind == REG_EDGE for s in pdg.successors(load_pc))
            for load_pc in consumers
        ):
            out.append(
                Diagnostic(
                    INFO,
                    "dead-store-no-consumer",
                    store_pc,
                    "store at pc %d reaches only loads whose values are "
                    "never used (no outgoing register edge); its "
                    "dependence edges protect dead values" % store_pc,
                )
            )

    # Predictor-slice affordability: pairs the sync_slice_warmed
    # policy must leave to dynamic learning, and why.
    for sl in extract_predictor_slices(pdg):
        if sl.status == TOO_EXPENSIVE:
            out.append(
                Diagnostic(
                    WARNING,
                    "slice-too-expensive",
                    sl.load_pc,
                    "address slice of pair (store pc %d, load pc %d) costs "
                    "%d instructions / %d loads, over the warming budget; "
                    "the pair falls back to dynamic learning"
                    % (sl.store_pc, sl.load_pc, sl.cost.length, sl.cost.loads),
                )
            )
        elif sl.status == LOOP_CARRIED_CUTOFF:
            out.append(
                Diagnostic(
                    WARNING,
                    "unsliceable-pair-loop-carried-cutoff",
                    sl.load_pc,
                    "address slice of pair (store pc %d, load pc %d) "
                    "depends on a loop-carried memory edge; pre-execution "
                    "cannot run ahead of the iteration feeding it"
                    % (sl.store_pc, sl.load_pc),
                )
            )
    return out


def _spec_leak_rules(
    program: Program, symbolic: SymbolicDependenceAnalysis
) -> List[Diagnostic]:
    """The speculative-leak rule pack (:mod:`repro.staticdep.spectaint`).

    Runs only when the program declares at least one valid secret
    range; emits one finding per LEAK/GATED pair, per provably
    secret-derived address or branch, and per unreachable range."""
    from repro.isa.opcodes import is_control
    from repro.staticdep.spectaint import (
        GATED,
        LEAK,
        PUBLIC,
        SECRET,
        analyze_spec_leaks,
        region_taint,
        valid_ranges,
    )

    if not valid_ranges(program.secret_ranges):
        return []
    spec = analyze_spec_leaks(program, symbolic=symbolic)
    out = []
    for verdict in spec.verdicts:
        if verdict.verdict == LEAK:
            sinks = ", ".join(
                "%s@pc %d" % (t.kind, t.pc) for t in verdict.transmitters
            )
            out.append(
                Diagnostic(
                    ERROR,
                    "spec-leak",
                    verdict.load_pc,
                    "load at pc %d can observe stale secret data from the "
                    "store at pc %d inside an open mis-speculation window "
                    "and transmit it (%s); no synchronization closes this "
                    "pair" % (verdict.load_pc, verdict.store_pc, sinks),
                )
            )
        elif verdict.verdict == GATED:
            out.append(
                Diagnostic(
                    WARNING,
                    "spec-leak-gated",
                    verdict.load_pc,
                    "load at pc %d can transiently observe secret data from "
                    "the store at pc %d; the pair is closed only when the "
                    "MDPT is primed with its proven dependence "
                    "(sync_static_primed)" % (verdict.load_pc, verdict.store_pc),
                )
            )
    taint = spec.taint
    for inst in program.instructions:
        if inst.is_memory:
            if taint.address_taint(inst.pc) == SECRET:
                out.append(
                    Diagnostic(
                        WARNING,
                        "secret-dependent-address",
                        inst.pc,
                        "%s at pc %d computes its address from secret data; "
                        "the access pattern is a committed-state side "
                        "channel even without mis-speculation"
                        % (inst.op.value, inst.pc),
                    )
                )
        elif (is_control(inst.op) and inst.rs1 is not None) or inst.op is Opcode.JR:
            if taint.branch_taint(inst.pc) == SECRET:
                out.append(
                    Diagnostic(
                        WARNING,
                        "secret-dependent-branch",
                        inst.pc,
                        "%s at pc %d decides control flow from secret data"
                        % (inst.op.value, inst.pc),
                    )
                )
    memory_pcs = [inst.pc for inst in program.instructions if inst.is_memory]
    for lo, hi in spec.secret_ranges:
        touched = any(
            region_taint(taint.address_values[pc], [(lo, hi)]) != PUBLIC
            for pc in memory_pcs
        )
        if not touched:
            out.append(
                Diagnostic(
                    INFO,
                    "secret-range-untouched",
                    None,
                    ".secret range [0x%x, 0x%x] is provably untouched by "
                    "every memory access; the declaration is dead" % (lo, hi),
                )
            )
    return out


#: Every rule the linter can emit: (rule id, severity, one-line finding).
#: The docs table and the CI completeness check are generated from /
#: validated against this registry — new rules must be added here.
RULE_REGISTRY = (
    ("undefined-label", ERROR, "a control instruction targets an undefined label"),
    ("duplicate-label", ERROR, "the same label is defined twice"),
    ("parse-error", ERROR, "the source does not assemble"),
    ("misaligned-offset", ERROR, "a memory offset is not word-aligned"),
    ("negative-address", ERROR, "a constant access has a negative address"),
    ("secret-range-invalid", ERROR, "a .secret range is degenerate"),
    ("spec-leak", ERROR, "a pair leaks transient secrets with an open window"),
    ("unreachable-block", WARNING, "a basic block is unreachable"),
    ("zero-reg-write", WARNING, "an instruction writes the zero register"),
    ("unwritten-reg", WARNING, "an instruction reads a never-written register"),
    ("dead-store", WARNING, "a store is observed by no load"),
    ("mdpt-undersized", WARNING, "the MDPT cannot hold the static pair set"),
    ("mdst-undersized", WARNING, "the MDST cannot hold in-flight instances"),
    ("must-alias-pair", WARNING, "a cross-task pair provably aliases"),
    ("dist-over-mdst", WARNING, "a proven distance exceeds the MDST capacity"),
    ("spec-leak-gated", WARNING, "a transient-secret pair closed only by priming"),
    ("slice-too-expensive", WARNING, "a pair's address slice is over the warming budget"),
    ("unsliceable-pair-loop-carried-cutoff", WARNING, "a pair's address slice needs a loop-carried memory edge"),
    ("secret-dependent-address", WARNING, "an address is provably secret-derived"),
    ("secret-dependent-branch", WARNING, "a branch is provably secret-derived"),
    ("no-task-marker", INFO, "the program defines no tasks"),
    ("redundant-sync-no-memory-edge", INFO, "a candidate pair carries no PDG memory edge"),
    ("dead-store-no-consumer", INFO, "a store's consuming loads have unused values"),
    ("secret-range-untouched", INFO, "a .secret range no access can reach"),
)

ALL_RULE_IDS = frozenset(rule_id for rule_id, _, _ in RULE_REGISTRY)


def lint_program(
    program: Program,
    analysis: Optional[StaticDependenceAnalysis] = None,
    mdpt_capacity: Optional[int] = None,
    mdst_capacity: Optional[int] = None,
    symbolic: bool = False,
) -> List[Diagnostic]:
    """Run every program-level rule; optionally the capacity rules too.

    With ``symbolic=True`` the shared rules consume the symbolic
    classifier's refined pair set, the symbolic-only alias rules
    (``must-alias-pair``, ``dist-over-mdst``) are enabled, and programs
    declaring ``.secret`` ranges get the speculative-leak rule pack.
    """
    if analysis is None:
        analysis = (
            analyze_program_symbolic(program) if symbolic else analyze_program(program)
        )
    diagnostics: List[Diagnostic] = []
    for rule in _PROGRAM_RULES:
        diagnostics.extend(rule(analysis))
    diagnostics.extend(_rule_secret_range_invalid(analysis))
    if isinstance(analysis, SymbolicDependenceAnalysis):
        diagnostics.extend(_rule_must_alias_pairs(analysis))
        if mdst_capacity is not None:
            diagnostics.extend(_rule_distance_over_mdst(analysis, mdst_capacity))
        diagnostics.extend(_pdg_rules(analysis))
        diagnostics.extend(_spec_leak_rules(program, analysis))
    if mdpt_capacity is not None or mdst_capacity is not None:
        diagnostics.extend(
            lint_config(
                analysis, mdpt_capacity=mdpt_capacity, mdst_capacity=mdst_capacity
            )
        )
    entry_pc = analysis.cfg.entry_block.start if len(program) else None
    diagnostics = _attach_lines(diagnostics, program, entry_pc)
    return sort_diagnostics(diagnostics)


# ---------------------------------------------------------------------------
# config rules
# ---------------------------------------------------------------------------


def lint_config(
    analysis: StaticDependenceAnalysis,
    mdpt_capacity: Optional[int] = None,
    mdst_capacity: Optional[int] = None,
) -> List[Diagnostic]:
    """Check MDPT/MDST capacities against the program's static pair set.

    An MDPT smaller than the static candidate set thrashes: by the time
    a pair's dynamic instance recurs, LRU replacement may have evicted
    the entry that predicted it, so the mechanism re-learns dependences
    it already paid a mis-speculation to discover.
    """
    pair_count = len(analysis.pair_set)
    out = []
    if mdpt_capacity is not None and pair_count > mdpt_capacity:
        out.append(
            Diagnostic(
                WARNING,
                "mdpt-undersized",
                None,
                "MDPT capacity %d cannot hold the %d static candidate pairs; "
                "expect prediction-table thrashing" % (mdpt_capacity, pair_count),
            )
        )
    if mdst_capacity is not None and pair_count > mdst_capacity:
        out.append(
            Diagnostic(
                WARNING,
                "mdst-undersized",
                None,
                "MDST capacity %d is below the %d static candidate pairs; "
                "simultaneous instances will contend for synchronization slots"
                % (mdst_capacity, pair_count),
            )
        )
    return out


# ---------------------------------------------------------------------------
# source-level rules
# ---------------------------------------------------------------------------

_LABEL_DEF_RE = re.compile(r"^\s*([A-Za-z_][\w.$]*):\s*$")
_BRANCH_MNEMONICS = {"beq", "bne", "blt", "bge", "ble", "bgt"}
_JUMP_MNEMONICS = {"j", "jal"}


def _scan_labels(source: str):
    """Collect label definitions and references from assembly text."""
    defined: Dict[str, List[int]] = {}
    referenced: Dict[str, List[int]] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = re.split(r"[#;]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        match = _LABEL_DEF_RE.match(line)
        if match:
            defined.setdefault(match.group(1), []).append(lineno)
            continue
        head, _, rest = line.partition(" ")
        mnemonic = head.lower()
        operands = [part.strip() for part in rest.split(",") if part.strip()]
        if mnemonic in _JUMP_MNEMONICS and operands:
            referenced.setdefault(operands[-1], []).append(lineno)
        elif mnemonic in _BRANCH_MNEMONICS and len(operands) == 3:
            referenced.setdefault(operands[-1], []).append(lineno)
    return defined, referenced


def lint_labels(source: str) -> List[Diagnostic]:
    """Source-level label rules (these cannot survive assembly, which
    refuses undefined or duplicate labels outright)."""
    defined, referenced = _scan_labels(source)
    out = []
    for label, linenos in sorted(defined.items()):
        if len(linenos) > 1:
            out.append(
                Diagnostic(
                    ERROR,
                    "duplicate-label",
                    None,
                    "label %r defined on lines %s"
                    % (label, ", ".join(str(n) for n in linenos)),
                )
            )
    for label, linenos in sorted(referenced.items()):
        if label not in defined:
            out.append(
                Diagnostic(
                    ERROR,
                    "undefined-label",
                    None,
                    "label %r referenced on line %d but never defined"
                    % (label, linenos[0]),
                )
            )
    return out


def lint_source(
    source: str,
    name: str = "program",
    mdpt_capacity: Optional[int] = None,
    mdst_capacity: Optional[int] = None,
    symbolic: bool = False,
) -> List[Diagnostic]:
    """Lint assembly text: label rules, then (when it assembles) every
    program rule.  A source that fails to assemble for a reason the
    label rules did not already explain gets a ``parse-error``."""
    from repro.isa.parser import parse_assembly

    diagnostics = list(lint_labels(source))
    try:
        program = parse_assembly(source, name=name)
    except ProgramError as exc:
        if not diagnostics:
            diagnostics.append(Diagnostic(ERROR, "parse-error", None, str(exc)))
        return sort_diagnostics(diagnostics)
    diagnostics.extend(
        lint_program(
            program,
            mdpt_capacity=mdpt_capacity,
            mdst_capacity=mdst_capacity,
            symbolic=symbolic,
        )
    )
    return sort_diagnostics(diagnostics)


def lint_path(
    path: str,
    mdpt_capacity: Optional[int] = None,
    mdst_capacity: Optional[int] = None,
    symbolic: bool = False,
) -> List[Diagnostic]:
    """Lint an assembly source file."""
    with open(path) as fh:
        source = fh.read()
    return lint_source(
        source,
        name=path,
        mdpt_capacity=mdpt_capacity,
        mdst_capacity=mdst_capacity,
        symbolic=symbolic,
    )
