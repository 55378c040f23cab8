"""Multiscalar processor configuration (paper Section 5.2).

The paper simulates 4- and 8-stage Multiscalar processors; each
processing unit is a 5-stage pipeline with 2-way out-of-order issue,
a collection of pipelined functional units, a unidirectional ring with
1-cycle latency between adjacent units, and twice as many interleaved
data banks as units.  The functional-unit latencies follow the paper's
Table 2 categories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.isa.opcodes import FUClass
from repro.memsys.cache import CacheConfig

def active_kernel() -> str:
    """The name of the simulator's one issue loop
    (:mod:`repro.multiscalar.batched`), as benchmark reports print it."""
    return "batched"


#: Functional-unit latencies in cycles (paper Table 2; "SP/DP" single and
#: double precision).  The memory latency listed here is address
#: generation only — cache access time comes from the cache model.
FU_LATENCIES: Dict[FUClass, int] = {
    FUClass.SIMPLE_INT: 1,
    FUClass.COMPLEX_INT: 4,
    FUClass.BRANCH: 1,
    FUClass.MEMORY: 1,
    FUClass.FP_ADD_SP: 2,
    FUClass.FP_ADD_DP: 2,
    FUClass.FP_MUL_SP: 4,
    FUClass.FP_MUL_DP: 4,
    FUClass.FP_DIV_SP: 12,
    FUClass.FP_DIV_DP: 18,
    FUClass.FP_SQRT_SP: 18,
    FUClass.FP_SQRT_DP: 30,
}

#: Functional units per processing unit (paper: 2 simple integer, 1
#: complex integer, 1 floating point, 1 branch, 1 memory).  All units
#: are pipelined, so the counts bound per-cycle issue per class.
FU_COUNTS: Dict[FUClass, int] = {
    FUClass.SIMPLE_INT: 2,
    FUClass.COMPLEX_INT: 1,
    FUClass.BRANCH: 1,
    FUClass.MEMORY: 1,
    FUClass.FP_ADD_SP: 1,
    FUClass.FP_ADD_DP: 1,
    FUClass.FP_MUL_SP: 1,
    FUClass.FP_MUL_DP: 1,
    FUClass.FP_DIV_SP: 1,
    FUClass.FP_DIV_DP: 1,
    FUClass.FP_SQRT_SP: 1,
    FUClass.FP_SQRT_DP: 1,
}


@dataclass
class MultiscalarConfig:
    """Tunable parameters of the timing simulator.

    Defaults reproduce the paper's 4-stage configuration; pass
    ``stages=8`` for the wide configuration.
    """

    stages: int = 4
    issue_width: int = 2          # per-stage OoO issue width
    fetch_width: int = 2          # instructions fetched per cycle per stage
    rs_window: int = 32           # unissued instructions considered per stage
    ring_hop_latency: int = 1     # cycles per hop between adjacent stages
    dispatch_latency: int = 1     # min cycles between task dispatches
    squash_penalty: int = 4       # restart delay after a dependence squash
    squash_stagger: int = 6       # re-dispatch spacing of squashed tasks
                                  # (sequencer re-walks the task cache)
    mispredict_penalty: int = 6   # sequencer misprediction recovery
    agen_latency: int = 1         # address generation before cache access
    predictor_history: int = 8    # path length of the task predictor
    fu_latencies: Dict[FUClass, int] = field(default_factory=lambda: dict(FU_LATENCIES))
    fu_counts: Dict[FUClass, int] = field(default_factory=lambda: dict(FU_COUNTS))
    # Register dependence speculation (the paper's Section 6 extension):
    #   "oracle"       - perfect dependence knowledge: consumers wait exactly
    #                    for their true producer's ring forward (the default;
    #                    trace-driven simulation makes this free)
    #   "conservative" - no speculation: consumers additionally stall on any
    #                    earlier in-flight task whose code *might* write the
    #                    register (static write-set), until that task's path
    #                    resolves — real Multiscalar register forwarding
    #   "always"       - speculate blindly past unresolved producers and
    #                    maybe-writers; squash when a true write shows up
    #   "predict"      - speculate until a (producer PC, consumer PC) pair
    #                    mis-speculates, then synchronize that pair (an RDPT:
    #                    the MDPT idea applied to register dependences)
    register_speculation: str = "oracle"
    # Model the per-unit 32KB 2-way instruction cache on the fetch path
    # (Section 5.2).  Off by default: fetch is then ideal at fetch_width
    # instructions per cycle.
    model_icache: bool = False

    def __post_init__(self):
        if self.stages <= 0:
            raise ValueError("stages must be positive")
        if self.issue_width <= 0:
            raise ValueError("issue_width must be positive")
        if self.rs_window <= 0:
            raise ValueError("rs_window must be positive")
        if self.register_speculation not in (
            "oracle",
            "conservative",
            "always",
            "predict",
        ):
            raise ValueError(
                "register_speculation must be oracle/conservative/always/"
                "predict, got %r" % (self.register_speculation,)
            )

    def make_cache_config(self) -> CacheConfig:
        """Banked data cache: 2x banks per stage, 8 KB each (Section 5.2)."""
        return CacheConfig(banks=2 * self.stages)
