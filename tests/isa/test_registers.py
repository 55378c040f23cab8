"""Tests for the register name space."""

import pytest

from repro.isa.registers import (
    NUM_INT_REGS,
    NUM_REGS,
    ZERO,
    parse_register,
    register_name,
)


def test_zero_register_is_index_zero():
    assert parse_register("zero") == ZERO == 0
    assert parse_register("r0") == 0


def test_aliases_map_to_expected_indices():
    assert parse_register("v0") == 2
    assert parse_register("a0") == 4
    assert parse_register("t0") == 8
    assert parse_register("s0") == 16
    assert parse_register("sp") == 29
    assert parse_register("ra") == 31


def test_numeric_names_cover_all_integer_registers():
    for i in range(NUM_INT_REGS):
        assert parse_register("r%d" % i) == i


def test_fp_registers_follow_integer_registers():
    assert parse_register("f0") == NUM_INT_REGS
    assert parse_register("f31") == NUM_REGS - 1


def test_parse_accepts_integer_indices():
    assert parse_register(5) == 5
    assert parse_register(NUM_REGS - 1) == NUM_REGS - 1


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        parse_register(NUM_REGS)
    with pytest.raises(ValueError):
        parse_register(-1)


def test_parse_rejects_unknown_name():
    with pytest.raises(KeyError):
        parse_register("bogus")


def test_register_name_round_trips_conventional_aliases():
    for name in ("zero", "v0", "a1", "t3", "s7", "sp", "ra"):
        assert register_name(parse_register(name)) == name


def test_register_name_rejects_out_of_range():
    with pytest.raises(ValueError):
        register_name(NUM_REGS)
