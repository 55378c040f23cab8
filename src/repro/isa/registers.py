"""Register name space for the repro RISC ISA.

The ISA exposes 32 integer registers and 32 floating-point registers.
Internally every register is a small integer index:

* integer registers occupy indices ``0..31``,
* floating-point registers occupy indices ``32..63``.

Integer register 0 (``zero``) is hard-wired to the value 0; writes to it
are discarded by the interpreter.  The conventional MIPS-style aliases
(``v0``, ``a0``, ``t0``, ``s0``, ``sp``, ``ra``, ...) are provided because
the synthetic workloads read much better with them.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_REGS = NUM_INT_REGS + NUM_FP_REGS

#: Index of the hard-wired zero register.
ZERO = 0

_INT_ALIASES = {
    "zero": 0,
    "at": 1,
    "v0": 2,
    "v1": 3,
    "a0": 4,
    "a1": 5,
    "a2": 6,
    "a3": 7,
    "t0": 8,
    "t1": 9,
    "t2": 10,
    "t3": 11,
    "t4": 12,
    "t5": 13,
    "t6": 14,
    "t7": 15,
    "s0": 16,
    "s1": 17,
    "s2": 18,
    "s3": 19,
    "s4": 20,
    "s5": 21,
    "s6": 22,
    "s7": 23,
    "t8": 24,
    "t9": 25,
    "k0": 26,
    "k1": 27,
    "gp": 28,
    "sp": 29,
    "fp": 30,
    "ra": 31,
}

#: Mapping from every accepted register name to its index.
REGISTER_NAMES = {}
REGISTER_NAMES.update(_INT_ALIASES)
for _i in range(NUM_INT_REGS):
    REGISTER_NAMES["r%d" % _i] = _i
for _i in range(NUM_FP_REGS):
    REGISTER_NAMES["f%d" % _i] = NUM_INT_REGS + _i

#: Reverse mapping used when pretty-printing instructions.  Prefer the
#: conventional alias for integer registers.
_INDEX_TO_NAME = {}
for _name, _idx in sorted(REGISTER_NAMES.items()):
    _INDEX_TO_NAME.setdefault(_idx, _name)
for _name, _idx in _INT_ALIASES.items():
    _INDEX_TO_NAME[_idx] = _name


def parse_register(name):
    """Return the register index for *name*.

    *name* may already be an integer index (returned unchanged after a
    range check) or any accepted register name such as ``"t0"``,
    ``"r8"``, or ``"f3"``.

    Raises:
        KeyError: if the name is not a known register.
        ValueError: if an integer index is out of range.
    """
    if isinstance(name, int):
        if not 0 <= name < NUM_REGS:
            raise ValueError("register index out of range: %d" % name)
        return name
    try:
        return REGISTER_NAMES[name]
    except KeyError:
        raise KeyError("unknown register name: %r" % (name,)) from None


def register_name(index):
    """Return the canonical printable name for register *index*."""
    if not 0 <= index < NUM_REGS:
        raise ValueError("register index out of range: %d" % index)
    return _INDEX_TO_NAME[index]
