"""Value prediction for dependence-likely loads (paper Section 6).

The paper suggests combining the two forms of data speculation: "a data
speculation approach that uses value prediction only when dependences
are likely to exist".  A load that the MDPT predicts dependent has two
options beyond waiting for the signal:

* wait (the MDST synchronization of the main mechanism), or
* **predict its value** and execute immediately; verify when the
  producing store arrives and squash only on a value mismatch.

This module provides the value predictors.  They are deliberately the
classic designs of the era (Lipasti & Shen's last-value prediction,
plus a stride variant), keyed by load PC.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class LastValuePredictor:
    """Predicts that a static load repeats its last value.

    Confidence is a small saturating counter per entry; predictions are
    offered only at or above the threshold.
    """

    name = "last-value"

    def __init__(self, capacity=256, bits=2, threshold=2):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.maximum = (1 << bits) - 1
        if not 0 < threshold <= self.maximum:
            raise ValueError("threshold out of range")
        self.threshold = threshold
        self._table: Dict[int, list] = {}  # pc -> [value, confidence]
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._table)

    def predict(self, pc) -> Optional[object]:
        """The predicted value, or None when not confident."""
        entry = self._table.get(pc)
        if entry is None or entry[1] < self.threshold:
            return None
        return entry[0]

    def train(self, pc, actual):
        """Record the actual loaded value; adjust confidence."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.capacity:
                self._table.pop(next(iter(self._table)))
            self._table[pc] = [actual, 1]
            return
        if entry[0] == actual:
            entry[1] = min(self.maximum, entry[1] + 1)
        else:
            entry[0] = actual
            entry[1] = 0

    def record_outcome(self, correct):
        if correct:
            self.hits += 1
        else:
            self.misses += 1


class StridePredictor(LastValuePredictor):
    """Last value plus stride: predicts ``last + stride``.

    Captures induction-like value sequences (counters incremented
    through memory) that defeat plain last-value prediction.
    """

    name = "stride"

    def __init__(self, capacity=256, bits=2, threshold=2):
        super().__init__(capacity, bits, threshold)
        self._strides: Dict[int, Tuple[object, object]] = {}  # pc -> (last, stride)

    def predict(self, pc) -> Optional[object]:
        entry = self._table.get(pc)
        if entry is None or entry[1] < self.threshold:
            return None
        last, stride = self._strides.get(pc, (entry[0], 0))
        try:
            return last + stride
        except TypeError:
            return last

    def train(self, pc, actual):
        prev = self._strides.get(pc)
        if prev is None:
            self._strides[pc] = (actual, 0)
            if len(self._table) >= self.capacity and pc not in self._table:
                evicted = next(iter(self._table))
                self._table.pop(evicted)
                self._strides.pop(evicted, None)
            self._table[pc] = [actual, 0]
            return
        last, stride = prev
        try:
            new_stride = actual - last
        except TypeError:
            new_stride = 0
        entry = self._table.setdefault(pc, [actual, 0])
        predicted = None
        try:
            predicted = last + stride
        except TypeError:
            pass
        if predicted == actual:
            entry[1] = min(self.maximum, entry[1] + 1)
        else:
            entry[1] = max(0, entry[1] - 1)
        entry[0] = actual
        self._strides[pc] = (actual, new_stride)


def make_value_predictor(name, **kwargs):
    table = {"last-value": LastValuePredictor, "stride": StridePredictor}
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(
            "unknown value predictor %r (expected one of %s)"
            % (name, sorted(table))
        ) from None
    return cls(**kwargs)
