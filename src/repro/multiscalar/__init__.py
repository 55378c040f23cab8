"""Multiscalar processor substrate: config, sequencer, policies, simulator."""

from repro.multiscalar.explain import ExplainReport, SquashLedger, explain_program
from repro.multiscalar.config import (
    FU_COUNTS,
    FU_LATENCIES,
    MultiscalarConfig,
    active_kernel,
)
from repro.multiscalar.policies import (
    AlwaysPolicy,
    MechanismPolicy,
    NeverPolicy,
    PerfectSyncPolicy,
    SpeculationPolicy,
    StaticPrimedSyncPolicy,
    StoreSetPolicy,
    ValueSyncPolicy,
    WaitPolicy,
    available_policies,
    make_policy,
)
from repro.multiscalar.processor import (
    MultiscalarSimulator,
    SimulationError,
    simulate,
)
from repro.multiscalar.sequencer import PathBasedTaskPredictor

__all__ = [
    "AlwaysPolicy",
    "ExplainReport",
    "FU_COUNTS",
    "FU_LATENCIES",
    "SquashLedger",
    "active_kernel",
    "explain_program",
    "MechanismPolicy",
    "MultiscalarConfig",
    "MultiscalarSimulator",
    "NeverPolicy",
    "PathBasedTaskPredictor",
    "PerfectSyncPolicy",
    "SimulationError",
    "SpeculationPolicy",
    "StaticPrimedSyncPolicy",
    "StoreSetPolicy",
    "ValueSyncPolicy",
    "WaitPolicy",
    "available_policies",
    "make_policy",
    "simulate",
]
