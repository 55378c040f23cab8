"""Shared in-ISA building blocks for the synthetic kernels."""

from __future__ import annotations

import random


def emit_lcg_step(asm, state_reg, out_reg, mask):
    """Emit an in-ISA linear-congruential step.

    Updates ``state_reg`` in place and leaves ``state & mask`` in
    ``out_reg``.  The constants form a full-period power-of-two LCG
    (a % 8 == 5, c odd), masked to 24 bits to keep values small.

    The generated randomness drives *irregular* address streams (the
    gcc-, go-like kernels) entirely inside the ISA, so the dependence
    behaviour is a property of the program, not of the host.
    """
    # state = (state * 1103515245 + 12345) & 0xFFFFFF
    asm.mul(state_reg, state_reg, _const(asm, 1103515245))
    asm.addi(state_reg, state_reg, 12345)
    asm.andi(state_reg, state_reg, 0xFFFFFF)
    asm.andi(out_reg, state_reg, mask)


def _const(asm, value):
    """Materialize a constant in the scratch register ``at`` and return it.

    The assembler DSL has no 32-bit immediate multiply, so constants are
    loaded into ``at`` just before use.
    """
    asm.li("at", value)
    return "at"


def fill_random_words(asm, base, count, lo, hi, seed):
    """Initialize *count* memory words with seeded host-side randomness.

    Used for read-only input regions (compressed-stream characters,
    board positions, ...) where only the *distribution* matters.  The
    seed makes every build deterministic.
    """
    rng = random.Random(seed)
    for i in range(count):
        asm.word(base + 4 * i, rng.randint(lo, hi))


def fill_permutation_links(asm, base, count, stride_words, seed, offset_words=0):
    """Link *count* records into one random cycle via a 'next' field.

    Record *i* occupies ``base + i*stride_words*4``; its next-pointer
    field at ``offset_words`` receives the address of the successor
    record in a seeded random cyclic permutation.  Used by the
    pointer-chasing kernels.
    """
    rng = random.Random(seed)
    order = list(range(count))
    rng.shuffle(order)
    stride = stride_words * 4
    for pos, rec in enumerate(order):
        succ = order[(pos + 1) % count]
        addr = base + rec * stride + offset_words * 4
        asm.word(addr, base + succ * stride)
    return base + order[0] * stride
