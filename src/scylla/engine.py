"""Fetch-decrypt execution engine.

Every step fetches one word at pc, optionally decrypts it with the
current-key register, decodes, and executes. On a control transfer
(pc != previous pc + 4) or a sequential crossing of the current
block's end, the engine consults the patch table under
(current block, new pc): a hit XORs the patch into the key register
and rebases the keystream offset; a miss leaves both alone, because
hardware has no basis to update them. Every fetch goes through the
decryptor, including fetches outside the text segment; a word that
fails to decode raises an integrity fault immediately.

One constructor builds every engine: `Engine(target)` runs an `Image`
in plaintext, or an `EncryptedImage` from its entry key under its own
patch table, so the key state always belongs to the image it runs.

The cycle model is deliberately two scalars: cycles = instructions
+ decrypt_cost * keystream invocations + switch_cost * key switches.

The host serves fetches from one dict per image (`Image.fetch_cache`),
shared by every engine and attack trial on it. A key maps to its
keystream array, from one AES call; a word maps to its decode result,
plaintext or decrypted, and equal words share one Instruction. Neither
depends on memory, so stores into the text invalidate nothing; a full
cache is cleared. Every counter still counts every modelled fetch.

The fetch loop keeps its state (pc, previous pc, counters, key register,
block base, the key's stream) in locals and writes it back on every
exit, so between two `advance` calls the engine's fields are exact. An
aligned fetch inside the text reads the text word array, which every
store writes; other fetches and every `lw` go through `Memory.load_word`.

The loop relies on three invariants, each held where the data is made:
- the key register's base is a block entry: it starts at the image
  entry and moves only to patch targets or, in plaintext, to block
  entries; `Image` and `EncryptedImage` check at construction that the
  entry and every patch target are block entries, however the image
  was made;
- a key's stream covers the block it is held in: `_key_stream` replaces
  a cached stream shorter than the block being entered;
- blocks fit the offset range: `EncryptedImage` rejects a block longer
  than MAX_WORD_OFFSET words, so in-block offsets never wrap.

Hot blocks. Inside the block its key belongs to, each fetch is the next
word at the next stream offset. Each call of the fetch loop counts its
entries into each block; a block entered HOT_BLOCK_VISITS times in one
call is hot, and at its next entry its words, decrypted with the current
key, are decoded once up to the first illegal word or ecall
(`Image.decoded_blocks`, keyed by block id, tagged with the key). An
entry inside those words runs the rest of them, up to the step limit,
in one inner loop that stops at a transfer, a memory fault or a store
into the text. The per-word path serves every other fetch: cold blocks,
the rest of a block when a call starts, and fetches past the decoded
words or outside the key's block; those past the key's stream (rogue,
mid-block and stale fetches) decrypt with `keystream_word`. A call that
retires one instruction enters a block at most once, so `trace`, which
steps one instruction per call, is the per-word reference.

A decoded block is rebuilt when another key enters the block; an engine
whose memory has taken a store into the text (`Memory.text_written`,
copied by a fork, never cleared) stops reading decoded blocks at once
and builds none. Entry counts live in a bytearray per call, untracked
by the garbage collector, and `Image.decoded_blocks` is made at the
first hot block, so a run with no hot block, such as each short run of
an attack campaign, moves no collection. All of this is host-side: the
counters, outcomes, digests and outputs are those of the per-word path.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass, field

from .crypto import (
    MAX_WORD_OFFSET,
    EncryptedImage,
    block_keystream,
    derive_next_key,
    keystream_word,
)
from .image import Image
from .isa import Instruction, decode

HALT = "halt"
INTEGRITY_FAULT = "integrity-fault"
STEP_LIMIT = "step-limit"
MEMORY_FAULT = "memory-fault"

DEFAULT_STEP_LIMIT = 10 ** 6
DEFAULT_DECRYPT_COST = 1
DEFAULT_SWITCH_COST = 4
FETCH_CACHE_SIZE = 1 << 16   # entries in one image's fetch cache; a full cache is cleared

MASK32 = 0xFFFFFFFF
_OFFSET_MASK = MAX_WORD_OFFSET - 1
HOT_BLOCK_VISITS = 32   # entries into a block in one run before it is decoded; at most 255
_NO_STREAM = array("I")   # a plaintext run's key stream


class ReportError(ValueError):
    """Reports cannot be compared as requested."""


@dataclass
class PerfCounters:
    instructions_retired: int = 0
    control_transfers: int = 0
    key_switches: int = 0
    patch_lookups: int = 0
    keystream_invocations: int = 0
    cycles: int = 0

    def as_dict(self) -> dict:
        return {
            "instructions_retired": self.instructions_retired,
            "control_transfers": self.control_transfers,
            "key_switches": self.key_switches,
            "patch_lookups": self.patch_lookups,
            "keystream_invocations": self.keystream_invocations,
            "cycles": self.cycles,
        }

    def copy(self) -> PerfCounters:
        return PerfCounters(self.instructions_retired, self.control_transfers,
                            self.key_switches, self.patch_lookups,
                            self.keystream_invocations, self.cycles)


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
    """Text as a word array, data as bytes; word loads/stores, dirty tracking.

    `text_written` records that a store went into the text, so the engine
    no longer runs blocks decoded from the image's text (see above)."""

    def __init__(self, image: Image):
        self.text_base = image.text_base
        self.words = image.text_words()
        self.data_base = image.data_base
        self.data = bytearray(image.data)
        self.dirty: set[int] = set()
        self.text_written = False

    def load_word(self, addr: int) -> int | None:
        if addr & 3:
            return None
        index = (addr - self.text_base) >> 2
        if 0 <= index < len(self.words):
            return self.words[index]
        at = addr - self.data_base
        if 0 <= at <= len(self.data) - 4:
            return int.from_bytes(self.data[at:at + 4], "little")
        return None

    def store_word(self, addr: int, value: int) -> bool:
        if addr & 3:
            return False
        index = (addr - self.text_base) >> 2
        if 0 <= index < len(self.words):
            self.words[index] = value & MASK32
            self.text_written = True
        else:
            at = addr - self.data_base
            if not 0 <= at <= len(self.data) - 4:
                return False
            self.data[at:at + 4] = (value & MASK32).to_bytes(4, "little")
        self.dirty.add(addr)
        return True

    def fork(self) -> Memory:
        clone = Memory.__new__(Memory)
        clone.text_base = self.text_base
        clone.words = self.words[:]
        clone.data_base = self.data_base
        clone.data = self.data[:]
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
    halted: bool = False
    counters: PerfCounters = field(default_factory=PerfCounters)

    def fork(self) -> MachineState:
        return MachineState(self.mem.fork(), self.pc, self.regs[:], self.cur_key,
                            self.cur_block_base, self.halted, self.counters.copy())

    def digest(self) -> str:
        """sha256 of the registers, then (address, word) for each dirty
        address in address order, as little-endian 32-bit words."""
        load_word = self.mem.load_word
        words = array("I", self.regs)
        for addr in sorted(self.mem.dirty):
            words.append(addr)
            words.append(load_word(addr) or 0)
        if sys.byteorder == "big":
            words.byteswap()
        return hashlib.sha256(words).hexdigest()


# Op handlers: (regs, instruction, pc, state) -> next pc before masking,
# None on a memory fault. Registers hold 32-bit values; a write to x0 is
# dropped. Flipping bit 31 orders two's-complement words as unsigned ints.

_SIGN = 0x80000000


def _add(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = (regs[i.rs1] + regs[i.rs2]) & MASK32
    return pc + 4


def _sub(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = (regs[i.rs1] - regs[i.rs2]) & MASK32
    return pc + 4


def _and(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = regs[i.rs1] & regs[i.rs2]
    return pc + 4


def _or(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = regs[i.rs1] | regs[i.rs2]
    return pc + 4


def _xor(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = regs[i.rs1] ^ regs[i.rs2]
    return pc + 4


def _slt(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = 1 if regs[i.rs1] ^ _SIGN < regs[i.rs2] ^ _SIGN else 0
    return pc + 4


def _addi(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = (regs[i.rs1] + i.imm) & MASK32
    return pc + 4


def _andi(regs, i, pc, state):
    if i.rd:   # the mask makes a negative imm 32-bit
        regs[i.rd] = regs[i.rs1] & i.imm & MASK32
    return pc + 4


def _ori(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = (regs[i.rs1] | i.imm) & MASK32
    return pc + 4


def _xori(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = (regs[i.rs1] ^ i.imm) & MASK32
    return pc + 4


def _slti(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = 1 if (regs[i.rs1] ^ _SIGN) - _SIGN < i.imm else 0
    return pc + 4


def _lui(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = (i.imm << 12) & MASK32
    return pc + 4


def _beq(regs, i, pc, state):
    return pc + i.imm if regs[i.rs1] == regs[i.rs2] else pc + 4


def _bne(regs, i, pc, state):
    return pc + i.imm if regs[i.rs1] != regs[i.rs2] else pc + 4


def _blt(regs, i, pc, state):
    return pc + i.imm if regs[i.rs1] ^ _SIGN < regs[i.rs2] ^ _SIGN else pc + 4


def _bge(regs, i, pc, state):
    return pc + i.imm if regs[i.rs1] ^ _SIGN >= regs[i.rs2] ^ _SIGN else pc + 4


def _lw(regs, i, pc, state):
    value = state.mem.load_word((regs[i.rs1] + i.imm) & MASK32)
    if value is None:
        return None
    if i.rd:
        regs[i.rd] = value
    return pc + 4


def _sw(regs, i, pc, state):
    stored = state.mem.store_word((regs[i.rs1] + i.imm) & MASK32, regs[i.rs2])
    return pc + 4 if stored else None


def _jal(regs, i, pc, state):
    if i.rd:
        regs[i.rd] = (pc + 4) & MASK32
    return pc + i.imm


def _jalr(regs, i, pc, state):
    target = (regs[i.rs1] + i.imm) & ~1
    if i.rd:
        regs[i.rd] = (pc + 4) & MASK32
    return target


def _ecall(regs, i, pc, state):
    state.halted = True
    return pc + 4


_HANDLERS = {
    "add": _add, "sub": _sub, "and": _and, "or": _or, "xor": _xor, "slt": _slt,
    "addi": _addi, "andi": _andi, "ori": _ori, "xori": _xori, "slti": _slti,
    "lui": _lui, "lw": _lw, "sw": _sw,
    "beq": _beq, "bne": _bne, "blt": _blt, "bge": _bge,
    "jal": _jal, "jalr": _jalr, "ecall": _ecall,
}


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


def _decoded_block(cache: dict, words: array, stream: array) -> tuple[list, list]:
    """The decode-table entries of a block's words, decrypted with `stream`
    (empty in a plaintext run), up to the first illegal word or ecall, and
    their handlers."""
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
    return instrs, [_HANDLERS[instr.op] for instr in instrs]


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
        self.image = image
        self.encrypted = entry_key is not None
        self.decrypt_cost = decrypt_cost
        self.switch_cost = switch_cost
        self.state = MachineState(mem=Memory(image), pc=image.entry,
                                  cur_key=entry_key, cur_block_base=image.entry)
        self.prev_pc: int | None = None
        self._end: tuple | None = None   # (outcome, fault_pc, fault_word); it sticks

    def run(self, step_limit: int = DEFAULT_STEP_LIMIT) -> RunReport:
        if self._end is None:
            self._end = self._fetch_loop(step_limit)
        return self._report(*(self._end or (STEP_LIMIT,)))

    def fork(self) -> Engine:
        """An independent engine in exactly this engine's current state.

        Memory, registers, counters, key register, pc and the sticky end of
        the run are copied; the image, patch map and costs are shared.
        """
        clone = Engine.__new__(Engine)
        clone.__dict__.update(self.__dict__)
        clone.state = self.state.fork()
        return clone

    def advance(self, steps: int) -> bool:
        """Run until `steps` instructions have retired; False if the run ended first."""
        if self._end is None:
            self._end = self._fetch_loop(steps)
        return self._end is None

    def current_block(self) -> int:
        """Id of the block the key register belongs to."""
        return self.image.block_index[self.state.cur_block_base][0]

    def replay_patch(self, patch: bytes, target: int) -> None:
        """Transfer to `target`, a block entry, absorbing `patch` whichever
        block it was minted for."""
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
        retired, invocations = counters.instructions_retired, counters.keystream_invocations
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
                    if encrypted:
                        counters.patch_lookups += 1
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
                    if hot is not None and 0 <= (off := (pc - base) >> 2) < len(hot[1]):
                        # The decoded words from pc on, up to the step limit:
                        # each fetch is the next word at the next stream offset.
                        _, instrs, hands = hot
                        stop = off + limit - retired
                        if stop > len(instrs):
                            stop = len(instrs)
                        for k in range(off, stop):
                            next_pc = hands[k](regs, instrs[k], pc, state)
                            if next_pc != pc + 4 or mem.text_written:
                                break
                            pc = next_pc
                        else:
                            pc -= 4
                        # words off..k ran in sequence, and pc is word k's address
                        if encrypted:
                            invocations += k + 1 - off
                        if next_pc is None:
                            retired += k - off
                            if k > off:
                                prev_pc = pc - 4
                            return MEMORY_FAULT, None, None
                        retired += k + 1 - off
                        prev_pc, pc = pc, next_pc & MASK32
                        continue

                if encrypted:
                    invocations += 1
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

                next_pc = handlers[instr.op](regs, instr, pc, state)
                if next_pc is None:
                    return MEMORY_FAULT, None, None
                retired += 1
                prev_pc, pc = pc, next_pc & MASK32
                if state.halted:
                    return HALT, None, None
            return None
        finally:
            state.pc, self.prev_pc = pc, prev_pc
            counters.instructions_retired = retired
            counters.keystream_invocations = invocations
            state.cur_key, state.cur_block_base = key, base

    def _report(self, outcome: str, fault_pc: int | None = None,
                fault_word: int | None = None) -> RunReport:
        counters = self.state.counters.copy()
        counters.cycles = cycles_for(counters, self.decrypt_cost, self.switch_cost)
        until_fault = None
        if outcome in (INTEGRITY_FAULT, MEMORY_FAULT):
            # 1-based index of the fetch that died
            until_fault = counters.instructions_retired + 1
        return RunReport(outcome=outcome, counters=counters,
                         final_state_digest=self.state.digest(),
                         fault_pc=fault_pc, fault_word=fault_word,
                         instructions_until_fault=until_fault)


# unused here but stay importable: perfbench/workloads.py builds its engines through them
plaintext_engine = encrypted_engine = Engine


def trace(target: Image | EncryptedImage, step_limit: int = DEFAULT_STEP_LIMIT) -> list[int]:
    """Retired pc sequence of the corresponding run, one `advance` per
    instruction, so every fetch takes the per-word path."""
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
