"""Synthetic workloads substituting for the paper's SPEC suites."""

from repro.workloads import specint92 as _specint92  # noqa: F401 (registers kernels)
from repro.workloads.random_gen import (
    RandomProgramConfig,
    generate_program,
    generate_trace,
)
from repro.workloads.base import (
    SCALES,
    MemoryLayout,
    Workload,
    WorkloadError,
    all_workloads,
    get_workload,
    register,
    resolve_scale,
    scaled,
    suite,
)

try:  # spec95 kernels are optional during bootstrap
    from repro.workloads import spec95 as _spec95  # noqa: F401
except ImportError:  # pragma: no cover
    pass

from repro.workloads import micro as _micro  # noqa: F401 (registers kernels)

__all__ = [
    "MemoryLayout",
    "RandomProgramConfig",
    "SCALES",
    "generate_program",
    "generate_trace",
    "Workload",
    "WorkloadError",
    "all_workloads",
    "get_workload",
    "register",
    "resolve_scale",
    "scaled",
    "suite",
]
