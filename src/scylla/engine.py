"""Fetch-decrypt execution engine.

Every step fetches one word at pc, optionally decrypts it with the
current-key register, decodes, and executes. On a control transfer
(pc != previous pc + 4) or a sequential crossing of the current
block's end, the engine consults the patch table under
(current block, new pc): a hit XORs the patch into the key register
and rebases the keystream offset; a miss leaves both alone, because
hardware has no basis to update them. A plaintext run has no key
register; its block base moves to each block entry a transfer or a
crossing reaches. Every fetch goes through the decryptor, including
fetches outside the text segment, at word offset (pc - base) / 4 mod
MAX_WORD_OFFSET; a word that fails to decode raises an integrity fault
immediately.

`Engine(target)` runs an `Image` in plaintext, or an `EncryptedImage`
from its entry key under its own patch table. The cycle model is two
scalars: cycles = instructions + decrypt_cost * keystream invocations
+ switch_cost * key switches.

The rest is host-side: counters, outcomes, digests and outputs are those
of the per-word path, as `tests/reference.py`, a reference interpreter
that shares no code with this module, checks. Two dicts, made with each
image, serve every engine and attack trial on it, and depend on neither
memory, nor the key state, nor the patch table: `Image.fetch_cache` maps
a key to its keystream array, from one AES call, and a word, plaintext or
decrypted, to its decode result (a full cache is cleared);
`Image.decoded_blocks` holds the hot blocks (below).

The fetch loop keeps its state (pc, previous pc, counters, key register,
block base, the key's stream) in locals and writes it back on every
exit, so between two `advance` calls the engine's fields are exact.
Each engine's `Memory` holds its own text and data word arrays (a fork
copies its parent's), and an aligned text fetch reads the text array.
Each op's semantics (docs/isa.md) are written once, as its `_TEMPLATES`
lines, for the per-word handlers and the generated functions alike.

The loop relies on three invariants, each held where the data is made:
- the key register's base is a block entry: it starts at the image entry
  and moves only to patch targets or, in plaintext, to block entries;
  `Image` and `EncryptedImage` check the first two at construction;
- a key's stream covers the block it is held in: `_key_stream` replaces
  a cached stream shorter than the block being entered;
- blocks fit the offset range: `EncryptedImage` rejects a block longer
  than MAX_WORD_OFFSET words, so in-block offsets never wrap.

Hot blocks. Each call of the fetch loop counts its entries into each
block in a bytearray, which the collector does not track. A block is hot
for the rest of the call once it has been entered HOT_BLOCK_VISITS
times, or at once when a transfer from the last word of the block the
key register belongs to lands on its entry: a self-loop's back edge, the
backward-branch trigger of Dynamo (Bala et al., PLDI 2000). That test,
`pc == base` after a fetch at the block's end, is made before the patch
lookup moves `base`, so a self-loop runs its generated function from its
second iteration, and a block that never enters itself keeps the count,
as does one a replayed patch (`replay_patch`) lands on. An entry into a
hot block decodes its words, decrypted with the current key, up to the
first illegal word or ecall into one generated function (`_compiled`),
kept with the key in `Image.decoded_blocks` and rebuilt when another key
enters the block. Inside the block each fetch is the next word at the
next stream offset, so an entry on its first word whose whole decoded
body fits under the step limit calls the function. Every other fetch
takes the per-word path. `trace` retires one instruction per call, so no
count reaches HOT_BLOCK_VISITS there, but a back edge still builds a
self-loop's decoded block; its function is called only when the body is
one word, and the run still equals the reference's. An engine whose
memory took a store into the text (`Memory.text_written`) uses no
decoded block again.

Rounds in place. When a block's last decoded word is a branch or jal to
its first word, the function loops: a taken back edge starts the body
again, at most `rounds` times, then returns `base`. An entry allows
rounds only when the self edge has no patch or the zero patch, since
either keeps the key and the block, and as many as fit whole under the
step limit. Each round counts what a trip through the fetch loop would:
`size` retired instructions, one control transfer and, under the zero
patch, one key switch. Nothing else is counted there (see `PerfCounters`).

Generated functions are memoised by their instruction tuple alone in a
bounded `lru_cache`: one depends on neither the key, nor the block's
address (its `base` argument), nor the image, so a program's plaintext
and encrypted runs, and every `scylla attack` call on it, share one
compile. They share one globals dict with no builtins and hold no
reference cycle, so a target whose last reference is dropped is freed.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from .crypto import (
    KEY_BYTES,
    MAX_WORD_OFFSET,
    EncryptedImage,
    block_keystream,
    derive_next_key,
    keystream_word,
)
from .image import Image
from .isa import MASK32, Instruction, decode, le_bytes, le_words

HALT = "halt"
INTEGRITY_FAULT = "integrity-fault"
STEP_LIMIT = "step-limit"
MEMORY_FAULT = "memory-fault"

DEFAULT_STEP_LIMIT = 10 ** 6
DEFAULT_DECRYPT_COST = 1
DEFAULT_SWITCH_COST = 4
FETCH_CACHE_SIZE = 1 << 16   # entries in one image's fetch cache; a full cache is cleared

_OFFSET_MASK = MAX_WORD_OFFSET - 1
# entries into a block in one call before it is decoded, unless a back edge to
# its own entry makes it hot first; at most 255
HOT_BLOCK_VISITS = 32
_NO_STREAM = array("I")   # a plaintext run's key stream
_ZERO_PATCH = bytes(KEY_BYTES)   # an honest self edge's patch: it keeps the key


class ReportError(ValueError):
    """Reports cannot be compared as requested."""


@dataclass
class PerfCounters:
    """The modelled hardware's counters. The fetch loop counts what it
    decides: retired instructions, control transfers and key switches. The
    run report derives the other three on its copy, by docs/formats.md
    (`Engine._report`), so the live counters of a run hold 0 in them."""

    instructions_retired: int = 0
    control_transfers: int = 0
    key_switches: int = 0
    patch_lookups: int = 0
    keystream_invocations: int = 0
    cycles: int = 0

    def as_dict(self) -> dict:
        return self.__dict__.copy()   # in field order

    def copy(self) -> PerfCounters:
        return PerfCounters(**self.__dict__)


def cycles_for(counters: PerfCounters, decrypt_cost: int, switch_cost: int) -> int:
    return (counters.instructions_retired
            + decrypt_cost * counters.keystream_invocations
            + switch_cost * counters.key_switches)


@dataclass(frozen=True)
class RunReport:
    outcome: str
    counters: PerfCounters
    final_state_digest: str
    fault_pc: int | None = None
    fault_word: int | None = None
    instructions_until_fault: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "fault_pc": self.fault_pc,
            "fault_word": self.fault_word,
            "instructions_until_fault": self.instructions_until_fault,
            "digest": self.final_state_digest,
            "counters": self.counters.as_dict(),
        }


class Memory:
    """Text and data as word arrays; word loads/stores, dirty tracking.

    A word access is legal at an aligned address whose 4 bytes lie inside
    the text or inside the data segment, so the data array holds only the
    segment's word-aligned span: the words at aligned addresses `a` with
    data_base <= a <= data_base + len(data) - 4. The leading bytes of an
    unaligned base and those of a partial last word are not held, and a
    segment no longer than its unaligned lead holds no word.

    A `lw` or `sw` at a data word reads or writes `data_words` itself, as
    `load_word` and `store_word` would (masking the value, marking the
    address dirty); text and data never overlap (`Image` checks), so a data
    word is never text. The methods serve the rest: `lw`/`sw` at text,
    unmapped and unaligned addresses, fetches outside the text, the digest
    and attacks.

    `text_written` records that a store went into the text, so the engine
    no longer runs blocks decoded from the image's text (see above)."""

    def __init__(self, image: Image):
        self.text_base = image.text_base
        self.words = image.text_words()
        data, skip = image.data, -image.data_base & 3
        self.data_start = image.data_base + skip
        self.data_words = le_words(data[skip:skip + (len(data) - skip) // 4 * 4])
        self.dirty: set[int] = set()
        self.text_written = False

    def load_word(self, addr: int) -> int | None:
        if addr & 3:
            return None
        index = (addr - self.text_base) >> 2
        if 0 <= index < len(self.words):
            return self.words[index]
        index = (addr - self.data_start) >> 2
        if 0 <= index < len(self.data_words):
            return self.data_words[index]
        return None

    def store_word(self, addr: int, value: int) -> bool:
        if addr & 3:
            return False
        index = (addr - self.text_base) >> 2
        if 0 <= index < len(self.words):
            self.words[index] = value & MASK32
            self.text_written = True
        else:
            index = (addr - self.data_start) >> 2
            if not 0 <= index < len(self.data_words):
                return False
            self.data_words[index] = value & MASK32
        self.dirty.add(addr)
        return True

    def fork(self) -> Memory:
        clone = Memory.__new__(Memory)
        clone.text_base = self.text_base
        clone.words = self.words[:]
        clone.data_start = self.data_start
        clone.data_words = self.data_words[:]
        clone.dirty = set(self.dirty)
        clone.text_written = self.text_written
        return clone


@dataclass
class MachineState:
    """Registers, memory, pc, and the fetch-stage key state."""

    mem: Memory
    pc: int
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    cur_key: bytes | None = None
    cur_block_base: int = 0
    counters: PerfCounters = field(default_factory=PerfCounters)

    def fork(self) -> MachineState:
        return MachineState(self.mem.fork(), self.pc, self.regs[:], self.cur_key,
                            self.cur_block_base, self.counters.copy())

    def digest(self) -> str:
        """sha256 of the registers, then (address, word) for each dirty
        address in address order, as little-endian 32-bit words."""
        words, mem = array("I", self.regs), self.mem
        if mem.dirty:
            load_word = mem.load_word
            for addr in sorted(mem.dirty):
                words.append(addr)
                words.append(load_word(addr) or 0)
        return hashlib.sha256(le_bytes(words)).hexdigest()


def _remember(cache: dict, key, value):
    if len(cache) >= FETCH_CACHE_SIZE:
        cache.clear()
    cache[key] = value
    return value


def _key_stream(cache: dict, key: bytes, length: int) -> array:
    """`key`'s stream, covering at least `length` words: a stream cached for
    a shorter block (a stale key's) is replaced."""
    stream = cache.get(key)
    if stream is None or len(stream) < length:
        stream = _remember(cache, key, block_keystream(key, length))
    return stream


# Op semantics, written once. Each op's template lines run in a decoded
# block's generated function `(regs, mem, base, rounds) -> (next pc before
# masking or None on a memory fault, index of the last word run, rounds taken
# in place)`, where `base` is the address of word 0, and in the op's per-word
# handler (below). Placeholders: the operand fields, `k` (the word's index),
# `next` (4k + 4) and `target` (4k + imm), both from base, `mask` and `sign`
# (flipping bit 31 orders two's-complement words as unsigned ints). In a block
# every placeholder is an int; a line that writes regs[{rd}] is dropped when
# rd is 0, and a line that goes to {target} when the target is the next word,
# so such a branch or jal falls through. The function returns at the first
# transfer, at a memory fault and after a store into the text; an ecall ends
# the decoded words, so it has no template. A lw or sw reaches data words
# directly (`_DATA` binds them; see `Memory`). When the last word is a branch
# or jal to word 0, the body is a loop (`_BACK_EDGES`): at most `rounds` times
# the back edge starts the body again in place instead of returning `base`.
_SIGN = 0x80000000
_BRANCHES = {
    "beq": "regs[{rs1}] == regs[{rs2}]",
    "bne": "regs[{rs1}] != regs[{rs2}]",
    "blt": "regs[{rs1}] ^ {sign} < regs[{rs2}] ^ {sign}",
    "bge": "regs[{rs1}] ^ {sign} >= regs[{rs2}] ^ {sign}",
}
_TEMPLATES = {
    "add": ("regs[{rd}] = (regs[{rs1}] + regs[{rs2}]) & {mask}",),
    "sub": ("regs[{rd}] = (regs[{rs1}] - regs[{rs2}]) & {mask}",),
    "and": ("regs[{rd}] = regs[{rs1}] & regs[{rs2}]",),
    "or": ("regs[{rd}] = regs[{rs1}] | regs[{rs2}]",),
    "xor": ("regs[{rd}] = regs[{rs1}] ^ regs[{rs2}]",),
    "slt": ("regs[{rd}] = 1 if regs[{rs1}] ^ {sign} < regs[{rs2}] ^ {sign} else 0",),
    "addi": ("regs[{rd}] = (regs[{rs1}] + {imm}) & {mask}",),
    "andi": ("regs[{rd}] = regs[{rs1}] & ({imm} & {mask})",),
    "ori": ("regs[{rd}] = regs[{rs1}] | ({imm} & {mask})",),
    "xori": ("regs[{rd}] = regs[{rs1}] ^ ({imm} & {mask})",),
    "slti": ("regs[{rd}] = 1 if (regs[{rs1}] ^ {sign}) - {sign} < {imm} else 0",),
    "lui": ("regs[{rd}] = {imm} << 12",),
    "lw": ("addr = (regs[{rs1}] + {imm}) & {mask}",
           "value = (data[(addr - start) >> 2] if not addr & 3 and start <= addr < end"
           " else mem.load_word(addr))",
           "if value is None: return None, {k}, taken",
           "regs[{rd}] = value"),
    "sw": ("addr = (regs[{rs1}] + {imm}) & {mask}",
           "if not addr & 3 and start <= addr < end:",
           "    data[(addr - start) >> 2] = regs[{rs2}] & {mask}",
           "    dirty.add(addr)",
           "elif not mem.store_word(addr, regs[{rs2}]): return None, {k}, taken",
           "elif mem.text_written: return base + {next}, {k}, taken"),
    **{op: (f"if {cond}: return base + {{target}}, {{k}}, taken",)
       for op, cond in _BRANCHES.items()},
    "jal": ("regs[{rd}] = (base + {next}) & {mask}",
            "return base + {target}, {k}, taken"),
    "jalr": ("target = (regs[{rs1}] + {imm}) & -2",
             "regs[{rd}] = (base + {next}) & {mask}",
             "return target, {k}, taken"),
}
# the last word's lines when it goes back to word 0
_ROUND = ("if taken == rounds: return base, {k}, taken", "taken += 1")
_BACK_EDGES = {
    **{op: (f"if not ({cond}): return base + {{next}}, {{k}}, taken",) + _ROUND
       for op, cond in _BRANCHES.items()},
    "jal": _TEMPLATES["jal"][:1] + _ROUND,
}
# a body with a lw or sw binds the data segment's words once per call
_DATA = ("data, start, dirty = mem.data_words, mem.data_start, mem.dirty",
         "end = start + (data.__len__() << 2)")
# the generated code's globals: it reads no global and calls no builtin
_BLOCK_GLOBALS = {"__builtins__": {}}


def _word_handler(op: str, lines: tuple[str, ...]) -> Callable:
    """`op`'s per-word handler `(regs, i, pc, mem) -> next pc before masking,
    or None on a memory fault`, formatted from its template lines with the
    fields of the instruction `i` where a block has constants: a write to x0
    is skipped when it runs, `base` is the word's own pc, and a return gives
    the next pc alone."""
    body = list(_DATA) if op in ("lw", "sw") else []
    for line in lines:
        if line.startswith("regs[{rd}]"):
            line = "if i.rd: " + line
        body.append(line.replace(", {k}, taken", "").format(
            rd="i.rd", rs1="i.rs1", rs2="i.rs2", imm="i.imm", next=4, target="i.imm",
            mask=MASK32, sign=_SIGN))
    namespace = {}
    exec(f"def _{op}(regs, i, base, mem):\n    " + "\n    ".join(body + ["return base + 4"]),
         _BLOCK_GLOBALS, namespace)
    return namespace[f"_{op}"]


# The per-word path's op handlers: (regs, instruction, pc, mem) -> next pc
# before masking, or None where the run ends: a memory fault, or an ecall,
# which the fetch loop retires before it halts.
_HANDLERS = {**{op: _word_handler(op, lines) for op, lines in _TEMPLATES.items()},
             "ecall": lambda regs, i, pc, mem: None}


@lru_cache(maxsize=16)   # the hot blocks of a few programs
def _compiled(instrs: tuple[Instruction, ...]):
    """The generated function of a block's decoded words (see above), one per
    distinct word sequence: it depends on neither the key, nor the block's
    address, nor the image, so every target and run that decodes the same
    words shares it."""
    lines, last = [], len(instrs) - 1
    for k, instr in enumerate(instrs):
        imm = instr.imm or 0
        loops = k == last and 4 * k + imm == 0 and instr.op in _BACK_EDGES
        for line in (_BACK_EDGES if loops else _TEMPLATES)[instr.op]:
            if instr.rd == 0 and line.startswith("regs[{rd}]") or (
                    imm == 4 and "{target}" in line):
                continue
            lines.append(line.format(
                rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2, imm=imm, k=k, next=4 * k + 4,
                target=4 * k + imm, mask=MASK32, sign=_SIGN))
        if lines and lines[-1].startswith("return"):   # the words after it never run
            break
    else:
        if loops:
            lines = ["while True:"] + ["    " + line for line in lines]
        else:
            lines.append(f"return base + {4 * len(instrs)}, {last}, taken")
    if any(instr.op in ("lw", "sw") for instr in instrs):
        lines[:0] = _DATA
    namespace = {}
    exec("def run(regs, mem, base, rounds):\n    taken = 0\n    " + "\n    ".join(lines),
         _BLOCK_GLOBALS, namespace)
    return namespace["run"]


def _decoded_block(cache: dict, words: array, stream: array) -> tuple[int, Callable | None]:
    """The number of a block's words, decrypted with `stream` (empty in a
    plaintext run), that decode before the first illegal word or ecall, and
    their generated function (None if there are none)."""
    instrs = []
    for k, word in enumerate(words):
        if stream:
            word ^= stream[k]
        instr = cache.get(word)
        if instr is None:
            instr = _remember(cache, word, decode(word))
        if instr.__class__ is not Instruction or instr.op == "ecall":
            break
        instrs.append(instr)
    return len(instrs), _compiled(tuple(instrs)) if instrs else None


class Engine:
    """One engine instance owns one MachineState; single-threaded.

    `target` is an `Image`, run in plaintext, or an `EncryptedImage`,
    whose entry key and patch table the engine takes from it.
    Only the engine touches the key state; an adversary between two steps
    uses `current_block()` and `replay_patch()` (see attacks.py).
    """

    def __init__(self, target: Image | EncryptedImage, *,
                 decrypt_cost: int = DEFAULT_DECRYPT_COST,
                 switch_cost: int = DEFAULT_SWITCH_COST):
        if isinstance(target, EncryptedImage):
            image, self.patch_map, entry_key = target.image, target.patch_map, target.entry_key
        else:
            image, self.patch_map, entry_key = target, {}, None
        self.target = target
        self.image = image
        self.encrypted = entry_key is not None
        self.decrypt_cost = decrypt_cost
        self.switch_cost = switch_cost
        self.state = MachineState(mem=Memory(image), pc=image.entry,
                                  cur_key=entry_key, cur_block_base=image.entry)
        self.prev_pc: int | None = None
        self._end: tuple | None = None   # (outcome, fault_pc, fault_word); it sticks

    def run(self, step_limit: int = DEFAULT_STEP_LIMIT) -> RunReport:
        self.advance(step_limit)
        return self._report(*(self._end or (STEP_LIMIT,)))

    def fork(self) -> Engine:
        """An independent engine in exactly this engine's current state.

        Memory, registers, counters, key register, pc and the sticky end of
        the run are copied; the target, image, patch map and costs are shared.
        """
        clone = Engine.__new__(Engine)
        clone.__dict__.update(self.__dict__)
        clone.state = self.state.fork()
        return clone

    def advance(self, steps: int) -> bool:
        """Run until `steps` instructions have retired; False if the run ended first."""
        if self._end is None and self.state.counters.instructions_retired < steps:
            self._end = self._fetch_loop(steps)
        return self._end is None

    def current_block(self) -> int:
        """Id of the block the key register belongs to."""
        return self.image.block_index[self.state.cur_block_base][0]

    def replay_patch(self, patch: bytes, target: int) -> None:
        """Transfer to `target`, a block entry, absorbing `patch` whichever
        block it was minted for; any other target, and a plaintext engine,
        which has no key register, are refused unchanged."""
        if not self.encrypted:
            raise ValueError("a plaintext engine has no key register to absorb a patch")
        if target not in self.image.block_index:
            raise ValueError(f"replay target {target:#x} is not a block entry")
        state = self.state
        state.cur_key = derive_next_key(state.cur_key, patch)
        state.cur_block_base = target
        state.pc = target

    def _fetch_loop(self, limit: int) -> tuple | None:
        """Fetch until `limit` instructions have retired (None) or the run
        ends; an entry into a hot block runs its decoded words (see above)."""
        state = self.state
        counters = state.counters
        mem = state.mem
        words, text_base = mem.words, mem.text_base
        n_words = len(words)
        regs = state.regs
        image = self.image
        cache = image.fetch_cache
        block_index = image.block_index
        visits = bytearray(len(image.blocks))   # entries per block in this call
        patch_map = self.patch_map
        encrypted = self.encrypted
        handlers = _HANDLERS
        pc, prev_pc = state.pc, self.prev_pc
        retired = counters.instructions_retired
        key, base = state.cur_key, state.cur_block_base
        block_id, length = block_index[base]
        block_end = base + 4 * length
        stream = _key_stream(cache, key, length) if encrypted else _NO_STREAM
        n_stream = len(stream)
        try:
            while retired < limit:
                index = (pc - text_base) >> 2
                if 0 <= index < n_words and not pc & 3:
                    word = words[index]
                else:
                    word = mem.load_word(pc)
                    if word is None:
                        return MEMORY_FAULT, None, None

                if prev_pc is not None and (pc != prev_pc + 4 or pc == block_end):
                    # patch lookup on a transfer or block-boundary crossing
                    counters.control_transfers += 1
                    if pc == base and prev_pc == block_end - 4:   # a back edge: hot from here on
                        visits[block_id] = HOT_BLOCK_VISITS
                    if encrypted:
                        patch = patch_map.get((block_id, pc))
                        if patch is not None:
                            key = derive_next_key(key, patch)
                            base = pc
                            counters.key_switches += 1
                    elif pc in block_index:
                        base = pc
                    block_id, length = block_index[base]
                    block_end = base + 4 * length
                    if encrypted:
                        stream = _key_stream(cache, key, length)
                        n_stream = len(stream)
                    # a block entry: once the block is hot, run its decoded words
                    hot = None
                    if visits[block_id] < HOT_BLOCK_VISITS:
                        visits[block_id] += 1
                    elif not mem.text_written:
                        hot = image.decoded_blocks.get(block_id)
                        if hot is None or hot[0] != key:
                            first = (base - text_base) >> 2
                            hot = image.decoded_blocks[block_id] = (
                                key, *_decoded_block(cache, words[first:first + length], stream))
                    if hot is not None and pc == base and 0 < (size := hot[1]) <= limit - retired:
                        # the whole body fits under the step limit; a self edge
                        # that keeps the key runs further rounds in place
                        patch = patch_map.get((block_id, base))
                        rounds = 0
                        if patch is None or patch == _ZERO_PATCH:
                            rounds = (limit - retired) // size - 1
                        next_pc, k, taken = hot[2](regs, mem, base, rounds)
                        if taken:
                            retired += taken * size
                            counters.control_transfers += taken
                            if patch is not None:
                                counters.key_switches += taken
                            prev_pc = base + 4 * size - 4
                        if next_pc is None:   # word k faulted
                            retired += k
                            if k:
                                prev_pc = base + 4 * k - 4
                            pc = base + 4 * k
                            return MEMORY_FAULT, None, None
                        retired += k + 1
                        prev_pc, pc = base + 4 * k, next_pc & MASK32
                        continue

                if encrypted:
                    offset = ((pc - base) >> 2) & _OFFSET_MASK
                    if offset < n_stream:
                        word ^= stream[offset]
                    else:
                        word ^= keystream_word(key, offset)
                instr = cache.get(word)
                if instr is None:
                    instr = _remember(cache, word, decode(word))
                if instr.__class__ is not Instruction:
                    return INTEGRITY_FAULT, pc, instr.word

                next_pc = handlers[instr.op](regs, instr, pc, mem)
                if next_pc is None:
                    if instr.op != "ecall":
                        return MEMORY_FAULT, None, None
                    retired += 1
                    prev_pc, pc = pc, (pc + 4) & MASK32
                    return HALT, None, None
                retired += 1
                prev_pc, pc = pc, next_pc & MASK32
            return None
        finally:
            state.pc, self.prev_pc = pc, prev_pc
            counters.instructions_retired = retired
            state.cur_key, state.cur_block_base = key, base

    def _report(self, outcome: str, fault_pc: int | None = None,
                fault_word: int | None = None) -> RunReport:
        state = self.state
        counters = state.counters.copy()
        died = outcome in (INTEGRITY_FAULT, MEMORY_FAULT)
        until_fault = counters.instructions_retired + 1 if died else None   # dying fetch's index
        if self.encrypted:   # a fetch from an unmapped or unaligned pc is not decrypted
            counters.patch_lookups = counters.control_transfers
            counters.keystream_invocations = counters.instructions_retired + (
                outcome == INTEGRITY_FAULT
                or outcome == MEMORY_FAULT and state.mem.load_word(state.pc) is not None)
        counters.cycles = cycles_for(counters, self.decrypt_cost, self.switch_cost)
        return RunReport(outcome=outcome, counters=counters,
                         final_state_digest=state.digest(),
                         fault_pc=fault_pc, fault_word=fault_word,
                         instructions_until_fault=until_fault)


# unused here but stay importable: perfbench/workloads.py builds its engines through them
plaintext_engine = encrypted_engine = Engine


def trace(target: Image | EncryptedImage, step_limit: int = DEFAULT_STEP_LIMIT) -> list[int]:
    """Retired pc sequence of the corresponding run, one `advance` per
    instruction: every fetch takes the per-word path but a one-word
    self-loop's fetch at its back edge, which calls its generated function
    (see above)."""
    engine = Engine(target)
    pcs = []
    for k in range(1, step_limit + 1):
        pc = engine.state.pc
        alive = engine.advance(k)
        if engine.state.counters.instructions_retired == k:
            pcs.append(pc)
        if not alive:
            break
    return pcs


def overhead_report(plain: RunReport, enc: RunReport,
                    decrypt_cost: int, switch_cost: int) -> float:
    """(encrypted cycles - baseline cycles) / baseline cycles."""
    if plain.outcome != HALT or enc.outcome != HALT:
        raise ReportError("overhead needs two halted runs")
    if plain.counters.instructions_retired != enc.counters.instructions_retired:
        raise ReportError(
            "runs retired different instruction counts "
            f"({plain.counters.instructions_retired} vs "
            f"{enc.counters.instructions_retired}); not the same program?")
    base = cycles_for(plain.counters, decrypt_cost, switch_cost)
    enc_cycles = cycles_for(enc.counters, decrypt_cost, switch_cost)
    return (enc_cycles - base) / base
