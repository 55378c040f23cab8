"""Trace analysis: instruction mix, task shapes, memory behaviour.

Complements the dependence-centric profiler in
:mod:`repro.oracle.profiles` with the general dynamic statistics a
simulation paper reports alongside its workloads (instruction mix,
basic-block and task size distributions, memory footprint).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from repro.isa.opcodes import is_conditional_branch, is_control


@dataclass
class TraceAnalysis:
    """Aggregate dynamic statistics of one trace."""

    trace_name: str
    instructions: int
    mix: Counter                   # FUClass -> dynamic count
    loads: int
    stores: int
    branches: int
    taken_branches: int
    task_sizes: List[int]
    basic_block_sizes: List[int]
    footprint_words: int           # distinct memory words touched
    read_only_words: int           # words loaded but never stored
    static_instructions_touched: int

    @property
    def memory_ratio(self) -> float:
        """Fraction of dynamic instructions that access memory."""
        if not self.instructions:
            return 0.0
        return (self.loads + self.stores) / self.instructions

    @property
    def branch_taken_rate(self) -> float:
        if not self.branches:
            return 0.0
        return self.taken_branches / self.branches

    @property
    def mean_task_size(self) -> float:
        if not self.task_sizes:
            return 0.0
        return sum(self.task_sizes) / len(self.task_sizes)

    @property
    def mean_basic_block_size(self) -> float:
        if not self.basic_block_sizes:
            return 0.0
        return sum(self.basic_block_sizes) / len(self.basic_block_sizes)

    def mix_percentages(self) -> Dict[str, float]:
        """Instruction-class mix as percentages."""
        if not self.instructions:
            return {}
        return {
            cls.value: 100.0 * count / self.instructions
            for cls, count in sorted(self.mix.items(), key=lambda kv: -kv[1])
        }

    def summary(self) -> dict:
        return {
            "trace": self.trace_name,
            "instructions": self.instructions,
            "memory_ratio": round(self.memory_ratio, 3),
            "branch_taken_rate": round(self.branch_taken_rate, 3),
            "mean_task_size": round(self.mean_task_size, 1),
            "mean_basic_block": round(self.mean_basic_block_size, 1),
            "footprint_words": self.footprint_words,
            "read_only_words": self.read_only_words,
            "static_instructions": self.static_instructions_touched,
        }


def analyze_trace(trace) -> TraceAnalysis:
    """Compute the full dynamic analysis of a trace."""
    mix: Counter = Counter()
    loads = stores = branches = taken = 0
    loaded_words = set()
    stored_words = set()
    static_pcs = set()
    task_sizes: List[int] = []
    block_sizes: List[int] = []
    current_task = -1
    task_count = 0
    block_count = 0

    for entry in trace.entries:
        inst = entry.inst
        mix[inst.fu_class] += 1
        static_pcs.add(inst.pc)
        if entry.task_id != current_task:
            if current_task >= 0:
                task_sizes.append(task_count)
            current_task = entry.task_id
            task_count = 0
        task_count += 1
        block_count += 1
        if entry.is_load:
            loads += 1
            loaded_words.add(entry.addr)
        elif entry.is_store:
            stores += 1
            stored_words.add(entry.addr)
        if is_conditional_branch(inst.op):
            branches += 1
            if entry.taken:
                taken += 1
        if is_control(inst.op) or entry.next_pc != inst.pc + 1:
            block_sizes.append(block_count)
            block_count = 0
    if task_count:
        task_sizes.append(task_count)
    if block_count:
        block_sizes.append(block_count)

    touched = loaded_words | stored_words
    return TraceAnalysis(
        trace_name=trace.name,
        instructions=len(trace),
        mix=mix,
        loads=loads,
        stores=stores,
        branches=branches,
        taken_branches=taken,
        task_sizes=task_sizes,
        basic_block_sizes=block_sizes,
        footprint_words=len(touched),
        read_only_words=len(loaded_words - stored_words),
        static_instructions_touched=len(static_pcs),
    )
