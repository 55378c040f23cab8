"""Tests for the parameter-sweep utilities."""

import pytest

from repro.experiments import sweep
from repro.experiments.sweeps import sweep_cells
from tests.experiments.test_golden import golden_points, rendered_points


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(
        ["micro-recurrence-d1"],
        policies=("always", "psync"),
        overrides={"stages": (2, 4), "squash_penalty": (2, 8)},
    )


def test_sweep_covers_full_cross_product(small_sweep):
    # 1 workload x 2 policies x 2 stages x 2 penalties
    assert len(small_sweep.points) == 8
    assert rendered_points(small_sweep) == golden_points("sweep-recurrence-penalty")


def test_select_by_policy_and_override(small_sweep):
    always4 = small_sweep.select(policy="always", stages=4)
    assert len(always4) == 2
    assert all(p.policy == "always" for p in always4)
    assert all(p.override("stages") == 4 for p in always4)


def test_squash_penalty_only_affects_speculative_policies(small_sweep):
    """PSYNC never squashes, so its cycles are penalty-invariant."""
    for stages in (2, 4):
        cycles = {
            p.override("squash_penalty"): p.cycles
            for p in small_sweep.select(policy="psync", stages=stages)
        }
        assert cycles[2] == cycles[8]


def test_higher_penalty_never_helps_blind_speculation(small_sweep):
    for stages in (2, 4):
        cycles = {
            p.override("squash_penalty"): p.cycles
            for p in small_sweep.select(policy="always", stages=stages)
        }
        assert cycles[8] >= cycles[2]


def test_to_table_renders(small_sweep):
    table = small_sweep.to_table("demo sweep")
    assert len(table.rows) == 8
    text = table.to_text()
    assert "stages" in text
    assert "squash_penalty" in text


def test_grid_without_axes_has_one_base_config_per_policy():
    cells = sweep_cells(["sc", "compress"], ("always", "esync"))
    assert [c.label for c in cells] == [
        "sweep:sc/always", "sweep:sc/esync", "sweep:compress/always", "sweep:compress/esync",
    ]
    assert all(c.param("overrides") == [] for c in cells)
    assert all(c.param("policy_overrides") is None for c in cells)


@pytest.mark.parametrize(
    "overrides, policy_overrides, message",
    [
        ({"stages": [4, 8], "window": []}, None, "override axis 'window' has no values"),
        ({"stages": ()}, None, "override axis 'stages' has no values"),
        ({"stages": [4, 8]}, {"capacity": []}, "policy override axis 'capacity' has no values"),
    ],
)
def test_empty_axis_raises_instead_of_collapsing_the_grid(overrides, policy_overrides, message):
    with pytest.raises(ValueError, match=message):
        sweep_cells(["sc"], ("esync",), overrides, policy_overrides=policy_overrides)
