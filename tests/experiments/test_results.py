"""Tests for the ExperimentTable container."""

import pytest

from repro.experiments import ExperimentTable


def make_table():
    t = ExperimentTable("tableX", "a demo", ["name", "value", "ratio"])
    t.add_row("alpha", 1, 0.5)
    t.add_row("beta", 2, 1.25)
    return t


def test_add_row_checks_arity():
    t = make_table()
    with pytest.raises(ValueError):
        t.add_row("only-one")


def test_column_access():
    t = make_table()
    assert t.column("value") == [1, 2]
    assert t.column("name") == ["alpha", "beta"]
    with pytest.raises(ValueError):
        t.column("missing")


def test_row_and_cell_access():
    t = make_table()
    assert t.row("beta") == ["beta", 2, 1.25]
    assert t.cell("alpha", "ratio") == 0.5
    with pytest.raises(KeyError):
        t.row("gamma")


def test_text_rendering():
    t = make_table()
    t.notes.append("hello")
    text = t.to_text()
    assert "tableX" in text
    assert "alpha" in text
    assert "1.25" in text
    assert "note: hello" in text
    assert str(t) == text


def test_to_json_round_trips():
    import json

    t = make_table()
    t.profile = {"simulate": {"calls": 2, "seconds": 0.5}}
    payload = json.loads(json.dumps(t.to_json()))
    assert payload["experiment"] == "tableX"
    assert payload["columns"] == ["name", "value", "ratio"]
    assert payload["rows"][0] == ["alpha", 1, 0.5]
    assert payload["profile"]["simulate"]["calls"] == 2


def test_profile_renders_in_text():
    t = make_table()
    assert "profile:" not in t.to_text()  # absent until attached
    t.profile = {"simulate": {"calls": 1, "seconds": 1.25}}
    assert "profile: simulate 1.25s" in t.to_text()


def test_empty_table_renders():
    t = ExperimentTable("t", "empty", ["a", "b"])
    assert "empty" in t.to_text()
    assert t.to_bars("b") == "(no rows)"


def test_bar_rendering_positive_and_negative():
    t = ExperimentTable("t", "bars", ["name", "speedup"])
    t.add_row("win", 40.0)
    t.add_row("lose", -20.0)
    t.add_row("flat", 0.0)
    chart = t.to_bars("speedup", width=20)
    lines = chart.splitlines()
    win, lose, flat = lines[1], lines[2], lines[3]
    assert win.count("#") == 20       # full-scale positive bar
    assert lose.count("#") == 10      # half-scale negative bar
    assert lose.index("#") < lose.index("|")   # drawn left of the axis
    assert win.index("|") < win.index("#")     # drawn right of the axis
    assert flat.count("#") == 0


def test_bar_rendering_custom_label_column():
    t = ExperimentTable("t", "bars", ["stages", "benchmark", "gain"])
    t.add_row(4, "compress", 10.0)
    chart = t.to_bars("gain", label_column="benchmark")
    assert "compress" in chart
