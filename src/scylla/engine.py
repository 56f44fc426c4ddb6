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

The cycle model is deliberately two scalars: cycles = instructions
+ decrypt_cost * keystream invocations + switch_cost * key switches.

The host serves fetches from one dict per image (`Image.fetch_cache`),
shared by every engine and attack trial on it. A key maps to its block
keystream array, from one AES call when an engine first holds the key;
an encrypted fetch XORs the raw word with the stream word at its offset,
or with `keystream_word` past the stream (stale key, mid-block entry,
rogue target). A word maps to its decode result: plaintext and
decrypted words share this decode table, and equal words one
Instruction. Neither entry depends on memory, so stores into the text
invalidate nothing; a full cache is cleared. The cache is host-side
only: every counter counts every modelled fetch and transfer.
"""

from __future__ import annotations

import hashlib
import operator
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
_NO_BLOCK = (None, 0)   # block_index miss: no block id, zero length


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
    """Text as a word array, data as bytes; word loads/stores, dirty tracking."""

    def __init__(self, image: Image):
        self.text_base = image.text_base
        self.words = array("I", image.text)
        if sys.byteorder == "big":   # container words are little-endian
            self.words.byteswap()
        self.data_base = image.data_base
        self.data = bytearray(image.data)
        self.dirty: set[int] = set()

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

    def set_reg(self, index: int, value: int) -> None:
        if index:  # x0 stays hardwired to zero
            self.regs[index] = value & MASK32

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


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


# Op handlers: (state, instruction, pc) -> next pc before masking, None on
# a memory fault.

def _writes(value):
    """Handler writing value(regs, instr) to rd, masked to 32 bits; x0 stays zero."""
    def handler(state, i, pc):
        if i.rd:
            state.regs[i.rd] = value(state.regs, i) & MASK32
        return pc + 4
    return handler


def _branch(taken):
    def handler(state, i, pc):
        return pc + i.imm if taken(state.regs[i.rs1], state.regs[i.rs2]) else pc + 4
    return handler


def _lw(state, i, pc):
    value = state.mem.load_word((state.regs[i.rs1] + i.imm) & MASK32)
    if value is None:
        return None
    state.set_reg(i.rd, value)
    return pc + 4


def _sw(state, i, pc):
    stored = state.mem.store_word((state.regs[i.rs1] + i.imm) & MASK32, state.regs[i.rs2])
    return pc + 4 if stored else None


def _jal(state, i, pc):
    state.set_reg(i.rd, pc + 4)
    return pc + i.imm


def _jalr(state, i, pc):
    target = (state.regs[i.rs1] + i.imm) & ~1
    state.set_reg(i.rd, pc + 4)
    return target


def _ecall(state, i, pc):
    state.halted = True
    return pc + 4


_HANDLERS = {
    "add": _writes(lambda r, i: r[i.rs1] + r[i.rs2]),
    "sub": _writes(lambda r, i: r[i.rs1] - r[i.rs2]),
    "and": _writes(lambda r, i: r[i.rs1] & r[i.rs2]),
    "or": _writes(lambda r, i: r[i.rs1] | r[i.rs2]),
    "xor": _writes(lambda r, i: r[i.rs1] ^ r[i.rs2]),
    "slt": _writes(lambda r, i: _signed(r[i.rs1]) < _signed(r[i.rs2])),
    "addi": _writes(lambda r, i: r[i.rs1] + i.imm),
    "andi": _writes(lambda r, i: r[i.rs1] & i.imm),   # the mask makes a negative imm 32-bit
    "ori": _writes(lambda r, i: r[i.rs1] | i.imm),
    "xori": _writes(lambda r, i: r[i.rs1] ^ i.imm),
    "slti": _writes(lambda r, i: _signed(r[i.rs1]) < i.imm),
    "lui": _writes(lambda r, i: i.imm << 12),
    "lw": _lw,
    "sw": _sw,
    "beq": _branch(operator.eq),
    "bne": _branch(operator.ne),
    "blt": _branch(lambda a, b: _signed(a) < _signed(b)),
    "bge": _branch(lambda a, b: _signed(a) >= _signed(b)),
    "jal": _jal,
    "jalr": _jalr,
    "ecall": _ecall,
}


def _remember(cache: dict, key, value):
    if len(cache) >= FETCH_CACHE_SIZE:
        cache.clear()
    cache[key] = value
    return value


class Engine:
    """One engine instance owns one MachineState; single-threaded.

    Only the engine touches the key state; an adversary between two steps
    uses `current_block()` and `replay_patch()` (see attacks.py).
    """

    def __init__(self, image: Image, *, patch_map=None, entry_key: bytes | None = None,
                 decrypt_cost: int = DEFAULT_DECRYPT_COST,
                 switch_cost: int = DEFAULT_SWITCH_COST):
        self.image = image
        self.encrypted = entry_key is not None
        self.patch_map = patch_map or {}
        self.decrypt_cost = decrypt_cost
        self.switch_cost = switch_cost
        self.state = MachineState(mem=Memory(image), pc=image.entry,
                                  cur_key=entry_key, cur_block_base=image.entry)
        self.trace: list[tuple[int, Instruction]] = []
        self.prev_pc: int | None = None
        self._end: tuple | None = None   # (outcome, fault_pc, fault_word); it sticks

    def run(self, step_limit: int = DEFAULT_STEP_LIMIT, *,
            record_trace: bool = False) -> RunReport:
        if self._end is None:
            self._end = self._fetch_loop(step_limit, record_trace)
        return self._report(*(self._end or (STEP_LIMIT,)))

    def fork(self) -> Engine:
        """An independent engine in exactly this engine's current state.

        Memory, registers, counters, key register, pc and the sticky end of
        the run are copied; the image, patch map and costs are shared.
        """
        clone = Engine.__new__(Engine)
        clone.__dict__.update(self.__dict__)
        clone.state = self.state.fork()
        clone.trace = self.trace[:]
        return clone

    def advance(self, steps: int) -> bool:
        """Run until `steps` instructions have retired; False if the run ended first."""
        if self._end is None:
            self._end = self._fetch_loop(steps)
        return self._end is None

    def current_block(self) -> int | None:
        """Id of the block the key register belongs to; None off a block entry."""
        return self.image.block_index.get(self.state.cur_block_base, _NO_BLOCK)[0]

    def replay_patch(self, patch: bytes, target: int) -> None:
        """Transfer to `target`, absorbing `patch` whichever block it was minted for."""
        self._absorb_patch(patch, target)
        self.state.pc = target

    def _absorb_patch(self, patch: bytes, entry: int) -> None:
        state = self.state
        state.cur_key = derive_next_key(state.cur_key, patch)
        state.cur_block_base = entry

    def _fetch_loop(self, limit: int, record_trace: bool = False) -> tuple | None:
        """Fetch until `limit` instructions have retired (None) or the run ends."""
        state = self.state
        counters = state.counters
        load_word = state.mem.load_word
        cache = self.image.fetch_cache
        encrypted = self.encrypted
        block_end, stream = self._block()
        while counters.instructions_retired < limit:
            pc = state.pc
            word = load_word(pc)
            if word is None:
                return MEMORY_FAULT, None, None

            if self.prev_pc is not None and (pc != self.prev_pc + 4 or pc == block_end):
                counters.control_transfers += 1
                self._edge_event(pc)
                block_end, stream = self._block()

            if encrypted:
                counters.keystream_invocations += 1
                offset = ((pc - state.cur_block_base) >> 2) & _OFFSET_MASK
                if offset < len(stream):
                    word ^= stream[offset]
                else:
                    word ^= keystream_word(state.cur_key, offset)
            instr = cache.get(word)
            if instr is None:
                instr = _remember(cache, word, decode(word))
            if instr.__class__ is not Instruction:
                return INTEGRITY_FAULT, pc, instr.word

            next_pc = _HANDLERS[instr.op](state, instr, pc)
            if next_pc is None:
                return MEMORY_FAULT, None, None
            state.pc = next_pc & MASK32
            counters.instructions_retired += 1
            if record_trace:
                self.trace.append((pc, instr))
            self.prev_pc = pc
            if state.halted:
                return HALT, None, None
        return None

    def _block(self) -> tuple[int, array | None]:
        """End of the key register's block (its entry if none) and the key's
        stream over that block; no stream in a plaintext run."""
        base = self.state.cur_block_base
        length = self.image.block_index.get(base, _NO_BLOCK)[1]
        key = self.state.cur_key
        if key is None:
            return base + 4 * length, None
        cache = self.image.fetch_cache
        stream = cache.get(key)
        if stream is None:
            stream = _remember(cache, key, block_keystream(key, length))
        return base + 4 * length, stream

    def _edge_event(self, new_pc: int) -> None:
        """Patch lookup on a transfer or block-boundary crossing."""
        state = self.state
        if self.encrypted:
            state.counters.patch_lookups += 1
            patch = self.patch_map.get((self.current_block(), new_pc))
            if patch is not None:
                self._absorb_patch(patch, new_pc)
                state.counters.key_switches += 1
        elif new_pc in self.image.block_index:
            state.cur_block_base = new_pc

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


def plaintext_engine(image: Image, *, decrypt_cost: int = DEFAULT_DECRYPT_COST,
                     switch_cost: int = DEFAULT_SWITCH_COST) -> Engine:
    return Engine(image, decrypt_cost=decrypt_cost, switch_cost=switch_cost)


def encrypted_engine(eimage: EncryptedImage, *,
                     decrypt_cost: int = DEFAULT_DECRYPT_COST,
                     switch_cost: int = DEFAULT_SWITCH_COST) -> Engine:
    return Engine(eimage.image, patch_map=eimage.patch_map,
                  entry_key=eimage.entry_key,
                  decrypt_cost=decrypt_cost, switch_cost=switch_cost)


def run_plaintext(image: Image, step_limit: int = DEFAULT_STEP_LIMIT,
                  **costs) -> RunReport:
    return plaintext_engine(image, **costs).run(step_limit)


def run_encrypted(eimage: EncryptedImage,
                  step_limit: int = DEFAULT_STEP_LIMIT, **costs) -> RunReport:
    return encrypted_engine(eimage, **costs).run(step_limit)


def trace(target: Image | EncryptedImage,
          step_limit: int = DEFAULT_STEP_LIMIT) -> list[tuple[int, Instruction]]:
    """Retired (pc, instruction) sequence of the corresponding run."""
    if isinstance(target, EncryptedImage):
        engine = encrypted_engine(target)
    else:
        engine = plaintext_engine(target)
    engine.run(step_limit, record_trace=True)
    return engine.trace


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
