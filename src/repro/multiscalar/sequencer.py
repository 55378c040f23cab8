"""Task sequencer and control-flow prediction.

The Multiscalar sequencer walks the control-flow graph a task at a time,
predicting each task's successor without inspecting the task's
instructions.  The paper uses the path-based scheme of Jacobson et al.
[13] with a return-address stack; this module implements the path-based
predictor only — a table indexed by the hashed history of recent task
PCs.  No return-address stack is modelled: the path history alone
predicts a task-granularity return.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple


class PathBasedTaskPredictor:
    """Predicts the next task PC from the path of recent task PCs.

    The table maps a tuple of the last *history* task PCs to the task PC
    that followed it most recently (last-value prediction over paths,
    which is what a path-based two-level scheme degenerates to with
    one-entry counters).
    """

    def __init__(self, history=8, table_size=4096):
        if history <= 0:
            raise ValueError("history must be positive")
        if table_size <= 0:
            raise ValueError("table_size must be positive")
        self.history = history
        self.table_size = table_size
        self._table: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self._path: Deque[int] = deque(maxlen=history)
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, path) -> int:
        value = 0
        for pc in path:
            value = (value * 1000003 + pc) & 0xFFFFFFFF
        return value % self.table_size

    def predict(self) -> Optional[int]:
        """Predict the PC of the task that follows the current path.

        Returns None when the path is unseen (a compulsory
        misprediction in the accounting).
        """
        path = tuple(self._path)
        slot = self._table.get(self._index(path))
        if slot is None:
            return None
        stored_path, next_pc = slot
        return next_pc if stored_path == path else None

    def record(self, actual_next_pc) -> bool:
        """Compare the prediction with reality, learn, advance the path.

        Returns True when the prediction was correct.
        """
        predicted = self.predict()
        self.predictions += 1
        correct = predicted == actual_next_pc
        if not correct:
            self.mispredictions += 1
        path = tuple(self._path)
        self._table[self._index(path)] = (path, actual_next_pc)
        self._path.append(actual_next_pc)
        return correct

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions
