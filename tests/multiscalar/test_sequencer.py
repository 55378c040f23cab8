"""Tests for the task sequencer's control-flow prediction."""

import pytest

from repro.multiscalar import PathBasedTaskPredictor


def test_predictor_learns_a_repeating_sequence():
    pred = PathBasedTaskPredictor(history=2)
    sequence = [10, 20, 30] * 20
    for pc in sequence:
        pred.record(pc)
    # after warm-up, the repeating pattern predicts perfectly
    tail_correct = sum(1 for pc in sequence[-12:] if True)
    assert pred.accuracy > 0.8


def test_predictor_first_encounters_mispredict():
    pred = PathBasedTaskPredictor(history=2)
    assert pred.predict() is None  # unseen path
    assert pred.record(100) is False
    assert pred.mispredictions == 1


def test_predictor_last_value_behaviour():
    pred = PathBasedTaskPredictor(history=1)
    pred.record(1)
    pred.record(2)  # path (1,) -> 2
    pred.record(1)  # path (2,) -> 1
    pred.record(2)  # path (1,) -> 2: seen, correct
    assert pred.predict() == 1  # path is now (2,)


def test_longer_history_disambiguates_periodic_patterns():
    """A period-8 pattern (7xA then B) defeats short histories but a
    history of 8 captures it — why the simulator defaults to 8."""
    pattern = [1] * 7 + [2]

    def accuracy(history):
        pred = PathBasedTaskPredictor(history=history)
        for _ in range(40):
            for pc in pattern:
                pred.record(pc)
        # measure on the last ten periods
        pred2_miss = pred.mispredictions
        for _ in range(10):
            for pc in pattern:
                pred.record(pc)
        return 1.0 - (pred.mispredictions - pred2_miss) / 80.0

    assert accuracy(8) > accuracy(2)
    assert accuracy(8) == 1.0


def test_predictor_table_collisions_are_safe():
    pred = PathBasedTaskPredictor(history=1, table_size=1)
    pred.record(1)
    pred.record(2)
    pred.record(3)
    # single-entry table thrashes but never crashes or mispredicts silently
    assert pred.predictions == 3


def test_predictor_validation():
    with pytest.raises(ValueError):
        PathBasedTaskPredictor(history=0)
    with pytest.raises(ValueError):
        PathBasedTaskPredictor(table_size=0)
