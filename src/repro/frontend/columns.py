"""Per-task aggregates and trace-pure derivations of a decoded trace.

:class:`TraceColumns` holds what the simulator's issue loop
(:mod:`repro.multiscalar.batched`) reads per task rather than per entry
— instruction, load and store counts and the load seqs each task
commits — plus a generic memo, :meth:`TraceColumns.derived`, for
anything else that is a pure function of the trace (cache bank/set/tag
geometry, sequencer prediction streams, ...).  The per-entry columns
themselves live on the :class:`~repro.frontend.static_index.TraceIndex`.

It is built once per decoded trace (memoized on the trace's shared
index) and shared, read-only, by every simulation over that trace.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

HAVE_NUMPY = False  # read by benchmark reports; the columns are plain lists


class TraceColumns:
    """Per-task aggregates of one trace, plus the derivation memo."""

    __slots__ = (
        "n",
        "n_tasks",
        "_addr",
        "task_n_instr",
        "task_n_loads",
        "task_n_stores",
        "task_load_seqs",
        "_derived",
    )

    def __init__(self, index):
        self.n = index.n
        self.n_tasks = index.n_tasks
        self._addr = index.addr
        self._derived: Dict[Any, Any] = {}
        # the index's one pass already grouped loads and stores by task
        self.task_n_instr = list(map(len, index.tasks))
        self.task_load_seqs: List[List[int]] = index.task_load_seqs
        self.task_n_loads = list(map(len, index.task_load_seqs))
        self.task_n_stores = index.task_n_stores

    def derived(self, key, build: Callable[[], Any]):
        """Memoize ``build()`` under ``key`` on this column set.

        Consumers use this for trace-pure derivations (cache bank/set/tag
        streams, sequencer prediction streams) so that many concurrent
        cells over one shared trace pay the derivation once.  ``build``
        must be a pure function of the trace; the result is shared and
        must not be mutated.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def cache_geometry(self, banks: int, block_bytes: int, sets_per_bank: int):
        """Per-entry ``(bank, set, tag)`` columns for a banked cache shape.

        Returned as plain Python lists (scalar-indexed in the issue loop).
        Entries with no effective address get zeros; they are never
        accessed because only memory entries reach the cache.
        """

        def build():
            bank_col = [0] * self.n
            set_col = [0] * self.n
            tag_col = [0] * self.n
            for seq, addr in enumerate(self._addr):
                if addr is None:
                    continue
                block = addr // block_bytes
                bank_col[seq] = block % banks
                in_bank = block // banks
                set_col[seq] = in_bank % sets_per_bank
                tag_col[seq] = in_bank // sets_per_bank
            return bank_col, set_col, tag_col

        return self.derived(("cache_geometry", banks, block_bytes, sets_per_bank), build)
