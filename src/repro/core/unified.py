"""The combined MDPT/MDST structure evaluated in the paper (Section 5.5).

The paper's simulated implementation merges both tables: each MDPT
entry carries as many synchronization entries as there are stages, so

* a prediction entry and its condition variables are physically
  adjacent (multiple-dependence allocation is trivial),
* only a single synchronization entry exists per static dependence and
  per stage.

This module models that organization as an MDST subclass that enforces
the per-(pair, stage-slot) uniqueness constraint: an allocation that
collides with a different instance in the same slot *replaces* the
older condition variable (the de-allocation option of Section 4.4.4).
A helper constructor builds the whole unified structure.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.engine import SynchronizationEngine
from repro.core.mdpt import MDPT
from repro.core.mdst import MDST, MDSTEntry
from repro.core.predictors import make_predictor


class SlottedMDST(MDST):
    """MDST with one condition variable per static pair per stage slot."""

    def __init__(self, capacity, slots_per_pair):
        super().__init__(capacity)
        if slots_per_pair <= 0:
            raise ValueError("slots_per_pair must be positive")
        self.slots_per_pair = slots_per_pair
        self._slot_owner: Dict[Tuple[int, int, int], MDSTEntry] = {}
        self.slot_replacements = 0

    def _slot_key(self, store_pc, load_pc, instance):
        return (store_pc, load_pc, instance % self.slots_per_pair)

    def allocate(
        self, load_pc, store_pc, instance, ldid=None, stid=None, full=False
    ) -> Optional[MDSTEntry]:
        slot = self._slot_key(store_pc, load_pc, instance)
        owner = self._slot_owner.get(slot)
        if owner is not None and owner.valid:
            if owner.instance == instance:
                return owner
            if owner.waiting:
                # A load is parked on the slot: the newcomer stalls and
                # retries (paper Section 4.4.4) — modelled as a failed
                # allocation, so the requester simply is not synchronized.
                self.failed_allocations += 1
                return None
            # a stale full entry holds the slot: replace it
            self.free(owner)
            self.slot_replacements += 1
        entry = super().allocate(
            load_pc, store_pc, instance, ldid=ldid, stid=stid, full=full
        )
        if entry is not None:
            self._slot_owner[slot] = entry
        return entry

    def free(self, entry):
        if entry.valid:
            slot = self._slot_key(entry.store_pc, entry.load_pc, entry.instance)
            if self._slot_owner.get(slot) is entry:
                del self._slot_owner[slot]
        super().free(entry)


def make_unified_engine(
    capacity=64, stages=8, predictor="sync", metrics=None, **predictor_kwargs
) -> SynchronizationEngine:
    """Build the paper's evaluated configuration.

    *capacity* MDPT entries, each carrying *stages* synchronization
    slots (so the MDST holds up to ``capacity * stages`` condition
    variables, one per static dependence and stage).  *predictor* is a
    name accepted by :func:`repro.core.predictors.make_predictor`
    ("always", "sync", or "esync"); *metrics* is the registry the
    engine publishes into (none by default).
    """
    pred = make_predictor(predictor, **predictor_kwargs)
    mdpt = MDPT(capacity, pred)
    mdst = SlottedMDST(capacity * stages, slots_per_pair=stages)
    return SynchronizationEngine(mdpt, mdst, metrics=metrics)
