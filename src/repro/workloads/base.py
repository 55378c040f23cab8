"""Workload infrastructure.

A workload is a named builder that assembles a repro RISC program at a
given *scale*.  The scale knob controls the dynamic instruction count so
the same kernel can serve both quick unit tests (``scale="tiny"``) and
paper-style experiments (``scale="ref"``).

The synthetic kernels are substitutes for the paper's SPEC binaries.
Each kernel reproduces the *memory-dependence signature* that the paper
attributes to the corresponding benchmark (see each module's docstring);
the absolute dynamics differ but the phenomena under study — which
static store/load pairs conflict, how often, and over which task
distances — are reproduced by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.frontend import cached_run_program
from repro.frontend.trace import Trace
from repro.isa.program import Program

#: Named scales.  Values are multipliers applied to each kernel's base
#: iteration counts.
SCALES = {
    "tiny": 0.05,
    "test": 0.25,
    "ref": 1.0,
    "large": 4.0,
}


class WorkloadError(Exception):
    """Raised for unknown workloads or scales."""


def resolve_scale(scale) -> float:
    """Map a scale name or positive number to a multiplier."""
    if isinstance(scale, str):
        try:
            return SCALES[scale]
        except KeyError:
            raise WorkloadError(
                "unknown scale %r (expected one of %s)" % (scale, sorted(SCALES))
            ) from None
    value = float(scale)
    if value <= 0:
        raise WorkloadError("scale must be positive, got %r" % (scale,))
    return value


def scaled(base, scale, minimum=1) -> int:
    """Scale an iteration count, keeping it at least *minimum*."""
    return max(minimum, int(round(base * resolve_scale(scale))))


@dataclass(frozen=True)
class Workload:
    """A named program builder.

    Attributes:
        name: registry key (e.g. ``"compress"``).
        suite: which paper suite the kernel substitutes for
            (``"specint92"``, ``"specint95"``, or ``"specfp95"``).
        build: callable mapping a scale to a Program.
        description: one-line dependence-signature summary.
    """

    name: str
    suite: str
    build: Callable[[object], Program]
    description: str

    def program(self, scale="ref") -> Program:
        """Assemble this workload at *scale*."""
        return self.build(scale)

    def trace(self, scale="ref", max_instructions=5_000_000) -> Trace:
        """Assemble and interpret this workload, returning its trace.

        Routed through the process-global content-addressed trace cache
        (:mod:`repro.frontend.trace_cache`): repeated calls — including
        from freshly forked executor workers — reuse the interpreted
        trace instead of re-running the interpreter.
        """
        return cached_run_program(
            self.program(scale), max_instructions=max_instructions
        )


_REGISTRY: Dict[str, Workload] = {}


def register(name, suite, description):
    """Decorator: register a builder function as a workload."""

    def wrap(fn):
        if name in _REGISTRY:
            raise WorkloadError("duplicate workload name: %r" % name)
        _REGISTRY[name] = Workload(name, suite, fn, description)
        return fn

    return wrap


def get_workload(name) -> Workload:
    """Look up a workload by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            "unknown workload %r (known: %s)" % (name, sorted(_REGISTRY))
        ) from None


def all_workloads() -> List[Workload]:
    """All registered workloads, sorted by name."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def suite(suite_name) -> List[Workload]:
    """All workloads of one suite, in registration order."""
    members = [w for w in _REGISTRY.values() if w.suite == suite_name]
    if not members:
        raise WorkloadError("unknown or empty suite: %r" % (suite_name,))
    return members


class MemoryLayout:
    """A bump allocator for laying out data regions in program memory.

    Keeps kernels readable: ``layout.region("table", 256)`` returns the
    base byte address of a fresh 256-word region.
    """

    def __init__(self, base=0x1000, align=64):
        self._next = base
        self._align = align
        self.regions: Dict[str, Tuple[int, int]] = {}

    def region(self, name, words) -> int:
        """Reserve *words* 4-byte words under *name*; return base address."""
        if name in self.regions:
            raise WorkloadError("duplicate region name: %r" % name)
        base = self._next
        self.regions[name] = (base, words)
        size = words * 4
        self._next = base + size
        if self._next % self._align:
            self._next += self._align - self._next % self._align
        return base
