"""Distributed MDPT/MDST organization (paper Section 4.4.5).

As issue width grows, centralized tables become a bandwidth bottleneck.
The paper's alternative distributes the structures: identical copies of
the MDPT and the MDST at each source of memory accesses (each
processing unit), operated as follows:

* a **load** uses only its local copy;
* a detected **mis-speculation is broadcast** to all MDPT copies, which
  allocate in lockstep;
* a **store** that matches its local MDPT broadcasts the identifying
  information to every MDST copy, each of which searches for an
  allocated synchronization entry;
* **prediction updates are broadcast** so all MDPT copies stay
  coherent.

This module implements that organization over the same
:class:`~repro.core.engine.SynchronizationEngine` protocol and counts
the broadcast traffic, so the centralized/distributed trade-off can be
measured.  Because every broadcast applies the same deterministic
operation to every copy, the copies stay structurally identical for
MDPT content; MDST content differs per copy only in which waiting loads
are parked locally.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.engine import LoadRequestResult, SynchronizationEngine
from repro.core.unified import make_unified_engine


class DistributedSynchronization:
    """*stages* engine copies plus broadcast bookkeeping.

    The interface mirrors :class:`SynchronizationEngine`, with an extra
    leading ``stage`` argument selecting the local copy for the
    load/store side.
    """

    def __init__(self, stages, capacity=64, predictor="sync", **predictor_kwargs):
        if stages <= 0:
            raise ValueError("need at least one stage")
        self.stages = stages
        self.copies: List[SynchronizationEngine] = [
            make_unified_engine(capacity, stages, predictor, **predictor_kwargs)
            for _ in range(stages)
        ]
        self.broadcasts = 0
        self.local_lookups = 0

    def _local(self, stage) -> SynchronizationEngine:
        return self.copies[stage % self.stages]

    # ------------------------------------------------------------------
    # protocol operations
    # ------------------------------------------------------------------

    def load_request(
        self,
        stage,
        load_pc,
        instance,
        ldid,
        task_pc_of: Optional[Callable[[int], Optional[int]]] = None,
    ) -> LoadRequestResult:
        """Loads consult only the local copy (no broadcast)."""
        self.local_lookups += 1
        return self._local(stage).load_request(load_pc, instance, ldid, task_pc_of)

    def store_request(self, stage, store_pc, instance, stid=None, task_pc=None):
        """A store checks its local MDPT; on a match the identifying
        information is broadcast and every MDST copy is searched."""
        self.local_lookups += 1
        local = self._local(stage)
        if not local.mdpt.lookup_store(store_pc):
            return []
        self.broadcasts += 1
        woken = []
        seen = set()
        for copy in self.copies:
            for ldid in copy.store_request(store_pc, instance, stid, task_pc):
                if ldid not in seen:
                    seen.add(ldid)
                    woken.append(ldid)
        return woken

    def record_mis_speculation(self, store_pc, load_pc, distance, store_task_pc=None):
        """Mis-speculations are broadcast to all MDPT copies."""
        self.broadcasts += 1
        entries = [
            copy.record_mis_speculation(store_pc, load_pc, distance, store_task_pc)
            for copy in self.copies
        ]
        return entries[0]

    def release_load(self, stage, ldid):
        """Fallback release is local: the load's entries live in its copy."""
        return self._local(stage).release_load(ldid)

    def squash(self, is_squashed_ldid, is_squashed_stid=None):
        for copy in self.copies:
            copy.squash(is_squashed_ldid, is_squashed_stid)

    def reward_pair(self, store_pc, load_pc):
        """Prediction updates are broadcast to keep copies coherent."""
        self.broadcasts += 1
        for copy in self.copies:
            copy.reward_pair(store_pc, load_pc)

    def penalize_pair(self, store_pc, load_pc):
        self.broadcasts += 1
        for copy in self.copies:
            copy.penalize_pair(store_pc, load_pc)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def mdpt_entry_counts(self) -> List[int]:
        return [len(copy.mdpt) for copy in self.copies]

    def copies_coherent(self) -> bool:
        """True when every MDPT copy holds the same pairs with the same
        DIST and counter state — the invariant the broadcast protocol
        maintains."""
        def snapshot(copy):
            return sorted(
                (e.store_pc, e.load_pc, e.distance, e.state.value)
                for e in copy.mdpt
            )

        first = snapshot(self.copies[0])
        return all(snapshot(copy) == first for copy in self.copies[1:])
