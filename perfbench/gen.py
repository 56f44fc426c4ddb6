"""Seeded program generators with ground truth derived from structure.

Every generated program is built from a small structural description
(loop levels or a block chain, each holding straight-line ops), and the
expected retired count, key-switch count and final x10 are computed from
that description by counting, never by running the engine:

- retired: each op's length times the number of times its level runs;
- key switches: every block entry after the first is one legal transfer
  or block-boundary crossing, so key switches = block entries - 1;
- x10: only `acc` and `load` ops write x10, each adding a constant (an
  immediate or a word of the read-only table) per execution;
- blocks: the leaders the layout creates, counted per construct.

Register use: x2 = table base (start of data), x3 = scratch base,
x6 = load temporary, x10 = accumulator, x20.. = loop counters; filler ALU
ops only touch the registers in FILLER, so they never disturb the ground
truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DATA_BASE = 0x10000          # clear of loop-nest text
CHAIN_DATA_BASE = 0x100000   # clear of a block chain's ~100 KiB of text
MASK32 = 0xFFFFFFFF
MAX_IMM = 2047               # addi immediate range tops out here
FILLER = (5, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19)
_ALU_R = ("add", "sub", "and", "or", "xor", "slt")
_ALU_I = ("addi", "andi", "ori", "xori", "slti")
_BRANCHES = ("beq", "bne", "blt", "bge")


@dataclass
class Op:
    """Straight-line instructions plus what one execution adds to x10."""

    lines: list[str]
    contribution: int = 0


@dataclass
class Generated:
    name: str
    source: str
    retired: int
    key_switches: int
    result: int                  # expected final x10
    text_bytes: int
    data_bytes: int
    data_base: int
    scratch_addr: int            # a data word no load reads
    blocks: int                  # expected basic-block count


def _table(rng: random.Random, words: int) -> list[int]:
    return [rng.getrandbits(32) for _ in range(words)]


def _load(rng: random.Random, table: list[int]) -> Op:
    index = rng.randrange(len(table))
    return Op([f"lw x6, {4 * index}(x2)", "add x10, x10, x6"], table[index])


def _store(rng: random.Random, scratch_words: int) -> Op:
    src = rng.choice(FILLER + (10,))
    return Op([f"sw x{src}, {4 * rng.randrange(scratch_words)}(x3)"])


def _accumulate(rng: random.Random) -> Op:
    imm = rng.randint(-MAX_IMM, MAX_IMM)
    return Op([f"addi x10, x10, {imm}"], imm)


def _filler(rng: random.Random) -> Op:
    rd = rng.choice(FILLER)
    if rng.random() < 0.5:
        a, b = rng.choice(FILLER), rng.choice(FILLER)
        return Op([f"{rng.choice(_ALU_R)} x{rd}, x{a}, x{b}"])
    if rng.random() < 0.15:
        return Op([f"lui x{rd}, {rng.randrange(1 << 20)}"])
    a = rng.choice(FILLER)
    return Op([f"{rng.choice(_ALU_I)} x{rd}, x{a}, {rng.randint(-MAX_IMM, MAX_IMM)}"])


def _op(rng: random.Random, mem_share: float, table: list[int],
        scratch_words: int) -> Op:
    roll = rng.random()
    if roll < mem_share / 2:
        return _load(rng, table)
    if roll < mem_share:
        return _store(rng, scratch_words)
    if roll < mem_share + (1 - mem_share) * 0.3:
        return _accumulate(rng)
    return _filler(rng)


def _length(ops: list[Op]) -> int:
    return sum(len(op.lines) for op in ops)


def _gain(ops: list[Op]) -> int:
    return sum(op.contribution for op in ops)


def _prologue(base: int, table: list[int], counter: int) -> list[str]:
    return [".text", f"    lui x2, {base >> 12}", f"    addi x3, x2, {4 * len(table)}",
            f"    addi x20, x0, {counter}"]


def _data_lines(base: int, table: list[int], scratch_words: int) -> list[str]:
    return [f".data {base:#x}", "    .word " + ", ".join(str(w) for w in table),
            f"    .space {4 * scratch_words}"]


@dataclass
class _Level:
    count: int
    pre: list[Op]
    post: list[Op]


def loop_nest(rng: random.Random, name: str) -> Generated:
    """Counted loop nest of depth 1-3 retiring tens of thousands of instructions.

    Layout per level L (counter x(20+L), initialised by the enclosing code):

        L<L>: pre ; [init x(21+L) ; inner level] ; post ; dec ; bne -> L<L>

    Blocks: the prologue, one `L<L>` block per level, one post block per
    non-innermost level (it starts after the inner `bne`), and the `ecall`.
    """
    depth = rng.randint(1, 3)
    mem_share = rng.uniform(0.1, 0.4)
    table = _table(rng, rng.randint(8, 32))
    scratch_words = rng.randint(8, 32)
    target = rng.randint(16_000, 32_000)

    levels = []
    for level in range(depth):
        innermost = level == depth - 1
        pre_n = rng.randint(3, 12) if innermost else rng.randint(0, 4)
        post_n = rng.randint(0, 4)
        levels.append(_Level(
            count=0 if innermost else rng.randint(2, 8),
            pre=[_op(rng, mem_share, table, scratch_words) for _ in range(pre_n)],
            post=[_op(rng, mem_share, table, scratch_words) for _ in range(post_n)]))
    inner_cost = _length(levels[-1].pre) + _length(levels[-1].post) + 2
    outer = 1
    for lv in levels[:-1]:
        outer *= lv.count
    levels[-1].count = max(1, min(MAX_IMM, round(target / (outer * inner_cost))))

    # retired per full execution of each level, innermost outwards
    retired_of = [0] * depth
    for level in reversed(range(depth)):
        lv = levels[level]
        inner = 1 + retired_of[level + 1] if level + 1 < depth else 0
        retired_of[level] = lv.count * (_length(lv.pre) + inner + _length(lv.post) + 2)

    runs = 1         # executions of the current level's body
    entries = 2      # prologue block + ecall block
    result = 0
    for level, lv in enumerate(levels):
        runs *= lv.count
        entries += runs if level == depth - 1 else 2 * runs
        result += runs * (_gain(lv.pre) + _gain(lv.post))

    lines = _prologue(DATA_BASE, table, levels[0].count)
    for level, lv in enumerate(levels):
        lines.append(f"L{level}:")
        lines += ["    " + text for op in lv.pre for text in op.lines]
        if level + 1 < depth:
            lines.append(f"    addi x{21 + level}, x0, {levels[level + 1].count}")
    for level in reversed(range(depth)):
        lv = levels[level]
        lines += ["    " + text for op in lv.post for text in op.lines]
        lines += [f"    addi x{20 + level}, x{20 + level}, -1",
                  f"    bne x{20 + level}, x0, L{level}"]
    lines.append("    ecall")
    text_words = sum(1 for line in lines[1:] if line.startswith("    "))
    lines += _data_lines(DATA_BASE, table, scratch_words)

    return Generated(
        name=name, source="\n".join(lines) + "\n",
        retired=3 + retired_of[0] + 1, key_switches=entries - 1,
        result=result & MASK32, text_bytes=4 * text_words,
        data_bytes=4 * (len(table) + scratch_words), data_base=DATA_BASE,
        scratch_addr=DATA_BASE + 4 * len(table), blocks=2 * depth + 1)


def block_chain(rng: random.Random, name: str) -> Generated:
    """Thousands of short blocks walked in order by a 2-3 trip outer loop.

    Block i ends in a transfer to block i+1, which sits right after it: a
    `jal x0` or a conditional branch whose taken target equals its
    fallthrough, so the path never depends on register values. Ops come
    from a small per-program palette, so plaintext words repeat a lot.
    """
    trips = rng.randint(2, 3)
    table = _table(rng, rng.randint(8, 32))
    scratch_words = rng.randint(8, 32)
    # sizes and the palette's mix vary little from seed to seed, so analysis
    # time (quadratic in the repeats of each plaintext word) stays comparable
    # across seeds; every load shares its `add x10, x10, x6`, so the number
    # of loads is fixed
    palette = ([_load(rng, table) for _ in range(4)]
               + [_store(rng, scratch_words) for _ in range(4)]
               + [_accumulate(rng) for _ in range(12)]
               + [_filler(rng) for _ in range(28)])
    n_blocks = rng.randint(2900, 3100)

    lines = _prologue(CHAIN_DATA_BASE, table, trips) + ["walk:"]
    per_trip = 2       # the trip counter's dec + beq
    gain = 0
    for block in range(n_blocks):
        body = [rng.choice(palette) for _ in range(rng.randint(1, 9))]
        per_trip += _length(body) + 1
        gain += _gain(body)
        lines += ["    " + text for op in body for text in op.lines]
        nxt = f"b{block + 1}"
        if rng.random() < 0.3:
            lines.append(f"    jal x0, {nxt}")
        else:
            a, b = rng.choice(FILLER), rng.choice(FILLER)
            lines.append(f"    {rng.choice(_BRANCHES)} x{a}, x{b}, {nxt}")
        lines.append(f"{nxt}:")
    # the trip loop jumps back with jal: a branch cannot reach across the chain
    lines += ["    addi x20, x20, -1", "    beq x20, x0, done", "    jal x0, walk",
              "done:", "    ecall"]
    text_words = sum(1 for line in lines[1:] if line.startswith("    "))
    lines += _data_lines(CHAIN_DATA_BASE, table, scratch_words)

    # entries: prologue once, each chain block and the counter block once per
    # trip, the back-jump block on all but the last trip, the ecall block once
    entries = 1 + trips * (n_blocks + 1) + (trips - 1) + 1
    return Generated(
        name=name, source="\n".join(lines) + "\n",
        retired=3 + trips * per_trip + (trips - 1) + 1, key_switches=entries - 1,
        result=(trips * gain) & MASK32, text_bytes=4 * text_words,
        data_bytes=4 * (len(table) + scratch_words), data_base=CHAIN_DATA_BASE,
        scratch_addr=CHAIN_DATA_BASE + 4 * len(table),
        blocks=n_blocks + 4)


def injection_target(rng: random.Random, segments, size: int) -> int | None:
    """Aligned address whose [addr, addr+size) lies inside one mapped segment.

    `segments` is a list of (base, length in bytes). Returns None when no
    segment can hold `size` bytes.
    """
    slots = [(base, (length - size) // 4 + 1)
             for base, length in segments if length >= size]
    total = sum(n for _, n in slots)
    if not total:
        return None
    pick = rng.randrange(total)
    for base, n in slots:
        if pick < n:
            return base + 4 * pick
        pick -= n
    raise AssertionError("unreachable")
