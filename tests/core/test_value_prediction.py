"""Tests for the value predictors."""

import pytest

from repro.core import LastValuePredictor, StridePredictor, make_value_predictor


def test_last_value_learns_after_confidence():
    pred = LastValuePredictor(threshold=2)
    assert pred.predict(10) is None
    pred.train(10, 7)
    assert pred.predict(10) is None  # confidence 1 < 2
    pred.train(10, 7)
    pred.train(10, 7)
    assert pred.predict(10) == 7


def test_last_value_resets_on_change():
    pred = LastValuePredictor(threshold=1)
    pred.train(10, 7)
    pred.train(10, 7)
    assert pred.predict(10) == 7
    pred.train(10, 9)  # value changed: confidence collapses
    assert pred.predict(10) is None
    pred.train(10, 9)
    pred.train(10, 9)
    assert pred.predict(10) == 9


def test_last_value_capacity_eviction():
    pred = LastValuePredictor(capacity=2, threshold=1)
    for pc in (1, 2, 3):
        pred.train(pc, pc * 10)
    assert len(pred) <= 2


def test_last_value_accuracy_counter():
    pred = LastValuePredictor()
    pred.record_outcome(True)
    pred.record_outcome(True)
    pred.record_outcome(False)
    assert (pred.hits, pred.misses) == (2, 1)


def test_stride_predicts_arithmetic_sequences():
    pred = StridePredictor(threshold=2)
    for value in (10, 13, 16, 19):
        pred.train(5, value)
    assert pred.predict(5) == 22


def test_stride_handles_constant_values():
    pred = StridePredictor(threshold=2)
    for _ in range(4):
        pred.train(5, 42)
    assert pred.predict(5) == 42


def test_stride_loses_confidence_on_irregular_values():
    pred = StridePredictor(threshold=2)
    for value in (10, 13, 16, 19, 5, 80, 2, 44, 7):
        pred.train(5, value)
    assert pred.predict(5) is None


def test_validation():
    with pytest.raises(ValueError):
        LastValuePredictor(capacity=0)
    with pytest.raises(ValueError):
        LastValuePredictor(bits=2, threshold=9)
    with pytest.raises(ValueError):
        make_value_predictor("psychic")


def test_factory():
    assert isinstance(make_value_predictor("last-value"), LastValuePredictor)
    assert isinstance(make_value_predictor("stride"), StridePredictor)
    assert make_value_predictor("stride", threshold=1).threshold == 1
